"""Closed-form attack oracles and mechanical dominance verifiers.

Every attack has a closed-form predicted utility evaluated in exact
arithmetic; the verifiers re-derive the same numbers from simulated games
and check the dominance claims behind them.  A verdict records both the
hypothesis inequality and the simulated conclusion so that implication
(hypothesis => conclusion) can be asserted across parameter grids without
ever reconciling the two sides silently.

Active-miner checks run on the coalition view: the pact's members
(`Scenario.coalition`) renormalised to their conditional shares
lambda_i / lambda_col, the measure the per-block bribe arithmetic uses.

Every verdict, `dominance_check` included, asks its expectations of one
memo (`_verdict_expectations`), which computes each distinct (scenario,
profile, pin) expectation once: policies are stateless, so a profile is
keyed by each policy's class and constructor parameters.  Its passes on
one scenario share one block-step cache (`game.StepMemo`), keyed as a
lone pass keys its own, since the profiles a verdict compares differ in
one player's policy: a pass builds only the blocks that no earlier pass
built, in every round.  The expectations and the cache live for that one
verdict and no longer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple, Optional

from .core import (ALICE, BOB, MAX_DRAW_ITEMS, Party, ScenarioError,
                   miner_party)
from .contracts import PRE_A2, PRE_AA2
from .game import (MinerProfile, Scenario, StepMemo, StrategyProfile,
                   expected_utilities, policy_key)
from .agents import (AliceGrief, AliceHonest, AliceOffline, BobDelay,
                     BobHonest, HonestFeeMax, M2MbaActive, M2MbaPassive,
                     policy_space)


def _need(params: dict, *names):
    missing = [n for n in names if n not in params]
    if missing:
        raise ScenarioError(f"missing-parameter: {', '.join(missing)}")
    return [params[n] for n in names]


def closed_form(attack: str, params: dict) -> dict:
    """Exact predicted utilities for one attack; keys name the earners.

    Values are the attacker-side net gains as the attack analyses state
    them: recovery of the attacker's own pre-funded collateral is treated
    as neutral, so for the partial-block attacks the simulated raw delta
    exceeds the prediction by exactly the recovered collateral.
    """
    p = params
    if attack == "naive-bribery":
        v, k, br, f_dep_b, f_cbob = _need(p, "v_dep", "k", "br", "f_dep_b",
                                          "f_cbob_b")
        return {"bob": v - ((k + 1) * br + f_dep_b + f_cbob)}
    if attack == "b3a-case1":
        v, k, br, f_col_b, f_cbob = _need(p, "v_dep", "k", "br", "f_col_b",
                                          "f_cbob_b")
        return {"bob": v - ((k + 2) * br + f_col_b + f_cbob)}
    if attack == "b3a-case2":
        v, k, br, f_cbob = _need(p, "v_dep", "k", "br", "f_cbob_b")
        return {"bob": v - ((k + 2) * br + br + f_cbob)}
    if attack == "sdrba-worst":
        v_dep, v_col, eps = _need(p, "v_dep", "v_col", "epsilon")
        return {"miner": v_dep - (v_col + eps)}
    if attack == "hydra-bob":
        v_col, eps, k, br, f_cbob = _need(p, "v_col", "epsilon", "k", "br",
                                          "f_cbob_b")
        gain = v_col + eps - ((k + 1) * br + f_cbob)
        return {"bob": gain,
                "profitable": eps > (k + 1) * br + f_cbob}
    if attack == "hydra-alice":
        v_dep, eps, k, br, f_calice = _need(p, "v_dep", "epsilon", "k", "br",
                                            "f_calice_a")
        gain = v_dep + eps - ((k + 1) * br + f_calice)
        return {"alice": gain,
                "profitable": eps > (k + 1) * br + f_calice}
    if attack == "m2mba-perblock":
        v_col, k, k_mi, br = _need(p, "v_col", "k", "k_mi", "br")
        return {"bribing-miner": v_col - (k - k_mi) * br,
                "censor-per-block": br}
    if attack == "m2mba-equal":
        v_col, k, k_mi = _need(p, "v_col", "k", "k_mi")
        return {"each-miner": Fraction(v_col) * k_mi / k}
    raise ScenarioError(f"unknown attack {attack!r}")


# ---------------------------------------------------------------------------
# Dominance verdicts.
# ---------------------------------------------------------------------------


def _verdict_expectations():
    """`expected_utilities` for one verdict, computing each distinct
    (scenario, profile, pin) once; scenarios are told apart by identity.
    The passes on one scenario share one step cache (`game.StepMemo`), so
    a pass builds only the blocks that no earlier pass of the verdict
    built; the cache goes with the verdict's expectations."""
    done: dict = {}
    memos: dict = {}  # id(scenario) -> (scenario, its step cache)

    def expect(scen: Scenario, profile: StrategyProfile,
               pin: Optional[dict] = None):
        key = (id(scen), policy_key(profile.alice), policy_key(profile.bob),
               tuple(sorted((p, policy_key(pol))
                            for p, pol in profile.miners.items())),
               tuple(sorted((pin or {}).items())))
        if key not in done:
            # Holding the scenario keeps its id from being reused.
            if id(scen) not in memos:
                memos[id(scen)] = scen, StepMemo()
            done[key] = scen, expected_utilities(scen, profile, pin,
                                                 memos[id(scen)][1])
        return done[key][1]
    return expect


class DominanceVerdict(NamedTuple):
    verdict: str  # strict | weak | none
    witness: Optional[dict] = None

    def __str__(self):
        return self.verdict


def _profile_with(base: StrategyProfile, player, policy) -> StrategyProfile:
    if player == "alice":
        return StrategyProfile(policy, base.bob, base.miners)
    if player == "bob":
        return StrategyProfile(base.alice, policy, base.miners)
    miners = dict(base.miners)
    miners[player] = policy
    return StrategyProfile(base.alice, base.bob, miners)


def _player_party(player) -> Party:
    if player == "alice":
        return ALICE
    if player == "bob":
        return BOB
    return player


def dominance_check(scen: Scenario, player, candidate, alternatives,
                    profile: StrategyProfile, pin: Optional[dict] = None, *,
                    expect=None) -> DominanceVerdict:
    """Brute-force pure-strategy dominance of `candidate` over each of
    `alternatives` for `player`, every other player playing as `profile`
    says (its `player` slot is overwritten).

    Returns strict if the candidate beats every alternative, weak if it
    never loses and wins somewhere, none otherwise; the witness pins down
    the comparison that was tight or violated.  `expect` is the verdict's
    memo (`_verdict_expectations`) for a caller that shares it with other
    checks; by default the check makes its own.
    """
    expect = expect or _verdict_expectations()
    party = _player_party(player)
    cand_u = expect(scen, _profile_with(profile, player, candidate),
                    pin).of(party)

    def row(alt, alt_u) -> dict:
        return {"opponents": profile.describe(), "alternative": alt.name,
                "candidate_utility": cand_u, "alternative_utility": alt_u}

    strict_somewhere = False
    tight_witness = None
    for alt in alternatives:
        alt_u = expect(scen, _profile_with(profile, player, alt), pin).of(party)
        if cand_u > alt_u:
            strict_somewhere = True
        elif cand_u == alt_u:
            tight_witness = row(alt, alt_u)
        else:
            return DominanceVerdict("none", row(alt, alt_u))
    if tight_witness is None:
        return DominanceVerdict("strict")
    return DominanceVerdict("weak" if strict_somewhere else "none", tight_witness)


# ---------------------------------------------------------------------------
# Miner-pact lemma verifiers.
# ---------------------------------------------------------------------------


@dataclass
class LemmaVerdict:
    lemma_id: str
    hypothesis_holds: bool
    conclusion_holds: bool
    margin: Fraction = Fraction(0)
    detail: dict = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return (not self.hypothesis_holds) or self.conclusion_holds


#: The miners of a reduced view: the focal active colluder, the focal
#: passive miner, and everyone else lumped into one.
VIEW_MI = miner_party("mi")
VIEW_MP = miner_party("mp")
VIEW_REST = miner_party("rest")


def _view(scen: Scenario, miners: tuple, pact_bribes) -> Scenario:
    # Views are exact per-block games: any Monte-Carlo mode or equal-split
    # setting of the source scenario is dropped.
    return replace(scen, miners=miners, mode=("exact",),
                   m2mba_split="per-block", pact_bribes=pact_bribes)


def _focal_power(scen: Scenario, focal: Party, kind: str) -> Fraction:
    """`focal`'s power, once it is of `kind`: an active colluder or passive."""
    m = scen.profile_of(focal)
    if m.kind != kind or kind == "active" and focal not in scen.coalition:
        raise ScenarioError(f"focal miner {focal.id} is not " + (
            "an active colluder" if kind == "active" else "passive"))
    return m.power


def coalition_view(scen: Scenario, focal: Party,
                   pact_bribes: Optional[dict] = None) -> tuple:
    """Renormalise the colluding coalition to conditional shares.

    Returns (scenario, focal_party, rest_party_or_None).  The focal miner
    keeps share lambda_i/lambda_col; the rest of the coalition is lumped
    into one miner.  This is the measure in which per-censored-block bribe
    expectations take the form (T - t_pub) * br * lambda_i / lambda_col.
    `pact_bribes`, keyed by VIEW_MI and VIEW_REST, overrides the scenario's.
    """
    lam_i = _focal_power(scen, focal, "active")
    lam_col = scen.lambda_col
    if lam_col == 0:
        raise ScenarioError("validation-error(power): the colluding "
                            "coalition has no power")
    share = lam_i / lam_col
    if share == 1:
        miners = (MinerProfile(VIEW_MI, Fraction(1), "active", True),)
        rest = None
    else:
        rest = VIEW_REST
        miners = (MinerProfile(VIEW_MI, share, "active", True),
                  MinerProfile(rest, 1 - share, "active", True))
    view = _view(scen, miners,
                 scen.pact_bribes if pact_bribes is None else pact_bribes)
    return view, VIEW_MI, rest


def passive_view(scen: Scenario, focal: Party) -> tuple:
    """Two-miner reduction keeping the focal passive miner's true share.

    The rest of the network is lumped into a single colluding active racer,
    which preserves the property that the collateral is confiscated at the
    first post-deadline block no matter who mines it.
    """
    lam_i = _focal_power(scen, focal, "passive")
    if lam_i >= 1:
        raise ScenarioError("passive focal miner cannot own the whole network")
    miners = (MinerProfile(VIEW_MP, lam_i, "passive", False),
              MinerProfile(VIEW_REST, 1 - lam_i, "active", True))
    return _view(scen, miners, None), VIEW_MP, VIEW_REST


def pact_hypothesis(n: int, scen: Scenario, power: Fraction) -> bool:
    """Closed-form hypothesis of pact lemma 1, 2 or 3 for a miner's power.

    Lemmas 1 and 2 take an active colluder's share lambda_i / lambda_col of
    the coalition; lemma 3 takes a passive miner's network share.
    """
    f_a = scen.f_dep_a
    if n == 3:
        return scen.v_col * power > f_a
    delta = scen.T - scen.t_pub
    share = power / scen.lambda_col
    if n == 1:
        return delta * scen.br * share > f_a
    return scen.v_col * share + delta * scen.br * (2 * share - 1) > f_a


def _attack_profile(scen: Scenario, overrides: Optional[dict] = None) -> StrategyProfile:
    coalition = scen.coalition
    miners = {m.party: M2MbaActive("race") if m.party in coalition
              else M2MbaPassive() if m.kind == "passive" else HonestFeeMax()
              for m in scen.miners}
    if overrides:
        miners.update(overrides)
    return StrategyProfile(AliceHonest(), BobHonest(), miners)


def verify_m2mba_lemma(n: int, scen: Scenario,
                       focal: Optional[Party] = None) -> LemmaVerdict:
    """Check one censorship-pact dominance lemma against the simulator.

    Hypotheses are the stated closed-form inequalities; conclusions are
    simulated dominance or income orderings.  Consistency means the
    hypothesis never holds while the simulated conclusion fails.  Lemmas 1
    and 2 refuse a focal colluder that holds all of the coalition's power:
    the rest that would pay their bribe by confiscating is empty.  Lemmas
    1 and 5 assume a solvent pact, v_col >= (T - t_pub + 1) * br (for
    lemma 5, the larger of its own bribes br_i and br_rest) and
    v_col > f_dep_a: outside it `MinerPactContract.claim_bribe` pays
    nothing, and their verdicts can be inconsistent.
    """
    kinds = {1: "active", 2: "active", 3: "passive", 4: "active", 5: "active"}
    if n not in kinds:
        raise ScenarioError(f"no such lemma {n}")
    if scen.rules.theorem != "m2mba":
        raise ScenarioError("protocol-mismatch: pact lemmas run on 'he'")
    delta = scen.T - scen.t_pub
    f_a = scen.f_dep_a
    if focal is None:
        candidates = scen.coalition if kinds[n] == "active" else tuple(
            m.party for m in scen.miners if m.kind == "passive")
        if not candidates:
            raise ScenarioError("no miner of the required kind")
        focal = candidates[0]
    lam_i = scen.profile_of(focal).power
    lam_col = scen.lambda_col
    expect = _verdict_expectations()

    if n in (1, 2):
        view, mi, rest = coalition_view(scen, focal)
        if rest is None:
            # Both lemmas weigh a bribe that the rest of the coalition pays
            # by confiscating; a focal miner with all of its power has no
            # rest, so the bribe the hypothesis counts is never paid.
            raise ScenarioError(
                f"validation-error(power): lemma {n} needs a coalition "
                f"besides the focal miner, and {focal.id} holds all of "
                "its power")
    if n == 1:
        hyp = pact_hypothesis(1, scen, lam_i)
        pin = {scen.T + 1: rest}
        base = _attack_profile(view)
        accept = M2MbaActive("accept")
        verdict = dominance_check(view, mi, accept, [HonestFeeMax()], base,
                                  pin, expect=expect)
        income = expect(view, _attack_profile(view, {mi: accept}),
                        pin=pin).bribe_income.get(mi, Fraction(0))
        return LemmaVerdict("lemma1", hyp, verdict.verdict == "strict",
                            income - f_a, {"bribe_income": income,
                                           "verdict": verdict.verdict})
    if n == 2:
        hyp = pact_hypothesis(2, scen, lam_i)
        offer = M2MbaActive("race")
        verdict = dominance_check(view, mi, offer, [HonestFeeMax()],
                                  _attack_profile(view), expect=expect)
        return LemmaVerdict("lemma2", hyp, verdict.verdict == "strict",
                            detail={"verdict": verdict.verdict})
    if n == 3:
        view, mp, _ = passive_view(scen, focal)
        hyp = pact_hypothesis(3, scen, lam_i)
        wait = M2MbaPassive()
        verdict = dominance_check(view, mp, wait, [HonestFeeMax()],
                                  _attack_profile(view), expect=expect)
        return LemmaVerdict("lemma3", hyp, verdict.verdict == "strict",
                            detail={"verdict": verdict.verdict})
    if n == 4:
        view, mi, rest = coalition_view(scen, focal)
        x = lam_i / lam_col
        hyp = view.v_col > f_a and x < 1
        pin = {view.T + 1: mi}
        base = _attack_profile(view)
        utils = []
        for t_y in (view.T + 1, view.T + 2, view.T + 3):
            pol = M2MbaActive("race") if t_y == view.T + 1 else \
                M2MbaActive("race", defer_to=t_y)
            u = expect(view, _attack_profile(view, {mi: pol}), pin=pin).of(mi)
            utils.append(u)
        decreasing = all(utils[i] > utils[i + 1] for i in range(len(utils) - 1))
        return LemmaVerdict("lemma4", hyp, decreasing,
                            detail={"deferral_utilities": utils})
    # Lemma 5, per recipient: br_i = f_dep_a*(lam_col/lam_i)/delta + eps.
    # Token amounts are whole, so a fractional constant is rounded up,
    # which can only raise the income and never weakens the implication.
    if delta == 0:
        raise ScenarioError("validation-error(t_pub): lemma 5 spreads its "
                            "bribe over the T - t_pub censored blocks, "
                            "which needs t_pub < T")
    if lam_i == 0:
        raise ScenarioError(f"validation-error(power): lemma 5 needs a focal "
                            f"colluder of positive power, {focal.id} has 0")
    ratio = lam_col / lam_i
    exact_br = Fraction(f_a) * ratio / delta + scen.epsilon
    br_i = math.ceil(exact_br)
    predicted = f_a + (lam_i / lam_col) * delta * scen.epsilon
    hyp = scen.epsilon > 0
    bribes = {VIEW_MI: br_i}
    if lam_i < lam_col:
        rest_br = Fraction(f_a) * (lam_col / (lam_col - lam_i)) / delta \
            + scen.epsilon
        bribes[VIEW_REST] = math.ceil(rest_br)
    view, mi, _ = coalition_view(scen, focal, bribes)
    income = expect(view, _attack_profile(view)).bribe_income.get(
        mi, Fraction(0))
    concl = income > f_a
    return LemmaVerdict("lemma5", hyp, concl, income - f_a,
                        {"bribe_income": income, "predicted": predicted,
                         "exact_constant": exact_br})


@dataclass
class TheoremReport:
    all_dominant: bool
    per_miner: dict  # Party -> {"verdict": str, "witness": ...}
    hypothesis: dict  # Party -> {"holds": bool, "checks": {...}}

    @property
    def hypothesis_holds(self) -> bool:
        return all(h["holds"] for h in self.hypothesis.values())


def verify_theorem_m2mba(scen: Scenario) -> TheoremReport:
    """Brute-force the full-attack dominance claim, one miner at a time.

    It judges the pact's members (`Scenario.coalition`) and the passive
    miners; an active miner outside the pact plays `honest-fee-max` and
    gets no verdict.  For every passive miner the wait-then-confiscate
    policy must dominate both honest alternatives; for every member both
    the offer-and-confiscate and accept-bribe policies must.  Hypothesis
    inequalities are reported per miner; a violated hypothesis does not
    stop the dominance run.
    """
    if scen.rules.theorem != "m2mba":
        raise ScenarioError("protocol-mismatch")
    base = _attack_profile(scen)
    expect = _verdict_expectations()
    per_miner: dict = {}
    hypothesis: dict = {}
    all_dominant = True
    for m in scen.miners:
        party = m.party
        if m.kind == "active" and party not in scen.coalition:
            continue
        lemmas = (3,) if m.kind == "passive" else (1, 2)
        checks = {f"lemma{n}": pact_hypothesis(n, scen, m.power)
                  for n in lemmas}
        hypothesis[party] = {"holds": all(checks.values()), "checks": checks}
        # The attack policies first, then the two honest alternatives.
        space = policy_space(scen, party)
        candidates, honest_alts = space[:-2], space[-2:]
        results = []
        for cand in candidates:
            v = dominance_check(scen, party, cand, honest_alts, base,
                                expect=expect)
            results.append((cand.name, v))
            if v.verdict != "strict":
                all_dominant = False
        per_miner[party] = {name: {"verdict": v.verdict, "witness": v.witness}
                            for name, v in results}
    return TheoremReport(all_dominant, per_miner, hypothesis)


# ---------------------------------------------------------------------------
# Two-phase protocol verification.
# ---------------------------------------------------------------------------


@dataclass
class DembaReport:
    honest_best_alice: bool
    honest_best_bob: bool
    miner_timely_dominant: bool
    no_profitable_deviation: bool
    deviations: list  # (player, policy name, utility, honest utility)
    collusion_bounds_hold: bool
    alice_best_states: tuple
    grief_collateral_loss: Fraction
    delay_loss: Fraction

    @property
    def all_hold(self) -> bool:
        return (self.honest_best_alice and self.honest_best_bob
                and self.miner_timely_dominant and self.no_profitable_deviation
                and self.collusion_bounds_hold)


def _single_miner_play(expect, scen: Scenario, alice, bob,
                       miner_policy=None):
    m = scen.miner_parties()[0]
    profile = StrategyProfile(alice, bob, {
        p: (miner_policy or HonestFeeMax()) if p == m else HonestFeeMax()
        for p in scen.miner_parties()})
    return expect(scen, profile)


def verify_demba(scen: Scenario) -> DembaReport:
    """Mechanically check that honest play is a best response everywhere.

    (a) the payee's three redemption choices peak at the honest reveal;
    (b) the payer's pre-deadline commit beats any delay by exactly the
    deduction penalty; (c) every scheduled fee earns the miner strictly
    more at or before the deadline than after it; (d) no unilateral
    deviation from the all-honest profile is profitable; (e) under every
    profile in the space the payee never clears more than deposit plus her
    collateral, nor the payer more than his collateral.
    """
    if scen.rules.theorem != "demba":
        raise ScenarioError("protocol-mismatch")
    miner = scen.miner_parties()[0]
    alice_space, bob_space, miner_space = (
        policy_space(scen, player) for player in ("alice", "bob", miner))
    expect = _verdict_expectations()

    def uniform(alice, bob, miner_policy):
        return expect(scen, StrategyProfile(alice, bob, {
            p: miner_policy for p in scen.miner_parties()}))

    # (e) collusion bounds over the full cross product.  Its all-honest-miner
    # rows are every profile that (a), (b) and (d) read back from the memo.
    bounds_ok = True
    for a_pol, b_pol, m_pol in itertools.product(
            alice_space, bob_space, miner_space):
        eu = uniform(a_pol, b_pol, m_pol)
        bounds_ok &= (eu.of(ALICE) <= scen.v_dep + scen.v_col_a
                      and eu.of(BOB) <= scen.v_col_b)

    def honest_miners(alice, bob):
        return uniform(alice, bob, HonestFeeMax())

    honest = honest_miners(AliceHonest(), BobHonest(1))
    u_alice_honest = honest.of(ALICE)
    u_bob_honest = honest.of(BOB)

    # (a) payee redemption choices.
    offline = honest_miners(AliceOffline(), BobHonest(1))
    grief = honest_miners(AliceGrief(), BobHonest(1))
    honest_best_alice = (u_alice_honest > offline.of(ALICE)
                         and u_alice_honest > grief.of(ALICE))
    grief_collateral_loss = (u_alice_honest - grief.of(ALICE)) - scen.v_dep

    # (b) payer delay.
    delayed = honest_miners(AliceHonest(), BobDelay(2))
    delay_loss = u_bob_honest - delayed.of(BOB)
    honest_best_bob = delay_loss > 0

    # (c) timely inclusion earns strictly more, per scheduled path.
    miner_timely_dominant = _timely_inclusion_dominant(scen)

    # (d) unilateral deviations; a miner deviates alone, the others honest.
    deviations = []
    for pol in alice_space:
        u = honest_miners(pol, BobHonest(1)).of(ALICE)
        deviations.append(("alice", pol.name, u, u_alice_honest))
    for pol in bob_space:
        u = honest_miners(AliceHonest(), pol).of(BOB)
        deviations.append(("bob", pol.name, u, u_bob_honest))
    for pol in miner_space:
        u = _single_miner_play(expect, scen, AliceHonest(), BobHonest(1),
                               pol).of(miner)
        deviations.append(("miner", pol.name, u, honest.of(miner)))
    no_profit = all(u <= u_honest for _, _, u, u_honest in deviations)
    return DembaReport(honest_best_alice, honest_best_bob,
                       miner_timely_dominant, no_profit, deviations,
                       bounds_ok, ("nred-AB", "nred-ABT"),
                       grief_collateral_loss, delay_loss)


def verify_demba_lemma(n: int, scen: Scenario) -> LemmaVerdict:
    """Per-party dominance checks for the two-phase protocol (6, 7, 8)."""
    if scen.rules.theorem != "demba":
        raise ScenarioError("protocol-mismatch")
    expect = _verdict_expectations()
    if n == 6:
        hyp = scen.v_ded > 0
        honest, offline, grief = (
            _single_miner_play(expect, scen, alice, BobHonest(1)).of(ALICE)
            for alice in (AliceHonest(), AliceOffline(), AliceGrief()))
        # The double reveal must lose the deduction on top of the fee gap
        # relative to the plain late return.
        fee_gap = scen.fee_schedule.paid[PRE_AA2] - scen.fee_schedule.paid[PRE_A2]
        concl = (honest > offline and honest > grief
                 and offline - grief == scen.v_ded + fee_gap)
        return LemmaVerdict("lemma6", hyp, concl,
                            detail={"honest": honest, "offline": offline,
                                    "grief": grief})
    if n == 7:
        hyp = scen.v_ded > 0
        honest, delayed = (
            _single_miner_play(expect, scen, AliceHonest(), bob).of(BOB)
            for bob in (BobHonest(1), BobDelay(1)))
        concl = honest - delayed == scen.v_ded
        return LemmaVerdict("lemma7", hyp, concl,
                            detail={"honest": honest, "delayed": delayed})
    if n == 8:
        return LemmaVerdict("lemma8", scen.fee_schedule.alpha < 1,
                            _timely_inclusion_dominant(scen))
    raise ScenarioError(f"no such lemma {n}")


def _timely_inclusion_dominant(scen: Scenario) -> bool:
    """Every paid scheduled fee earns the miner less after the deadline."""
    sched = scen.fee_schedule
    for path, paid in sched.paid.items():
        if paid == 0:
            continue
        on_time = sched.split(path, sched.T)[0]
        for t in range(sched.T + 1, scen.horizon + 1):
            if sched.split(path, t)[0] >= on_time:
                return False
    return True


# ---------------------------------------------------------------------------
# Solo vs pool mining.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoolParams:
    h: Fraction  # miner hash rate
    H: Fraction  # network hash rate
    N: int  # pool size
    R: Fraction  # block reward
    f_pool: Fraction  # pool fee in [0, 1)
    lambda_net: Fraction  # network block rate per period
    alpha_risk: float = 1.0

    def __post_init__(self):
        for name, ok, rule in (
                ("h", 0 < self.h <= self.H, "need 0 < h <= H"),
                ("N", self.N >= 1, "pool size must be at least 1"),
                ("R", self.R >= 0, "block reward must be at least 0"),
                ("f_pool", 0 <= self.f_pool < 1, "pool fee must lie in [0, 1)"),
                ("lambda_net", self.lambda_net >= 0,
                 "block rate must be at least 0"),
                ("alpha_risk", 0 < self.alpha_risk < math.inf,
                 "risk aversion must be finite and above 0")):
            if not ok:
                raise ScenarioError(f"validation-error({name}): {rule}")


class PoolReport(NamedTuple):
    E_solo: Fraction
    E_pool: Fraction
    ratio: Fraction
    Var_solo: Fraction
    Var_pool: Fraction
    EU_solo: float
    EU_pool: float
    delta_U: float


def pool_math(p: PoolParams) -> PoolReport:
    """Exact first moments and the risk-utility Taylor comparison.

    Block finds are Poisson with per-period rate (h/H) * lambda_net, so the
    solo reward variance is that rate times the squared block reward.  The
    pool divides variance by its member count and scales the mean by one
    minus the fee; the utility gap uses the negative-exponential
    risk-aversion expansion.
    """
    lam_i = p.h / p.H * p.lambda_net
    E_solo = lam_i * p.R
    E_pool = (1 - p.f_pool) * E_solo
    ratio = Fraction(1) / (1 - p.f_pool)
    Var_solo = lam_i * p.R * p.R
    Var_pool = Var_solo / p.N
    a = p.alpha_risk
    EU_solo = -math.exp(-a * float(E_solo)) * (1 - a * a * float(Var_solo) / 2)
    EU_pool = -math.exp(-a * float(E_pool)) * (1 - a * a * float(Var_pool) / 2)
    delta_U = -math.exp(-a * float(E_solo)) * (
        a * float(p.f_pool) * float(E_solo)
        - a * a * float(Var_solo) / 2
        + a * a * float(Var_solo) / (2 * p.N))
    if not all(map(math.isfinite, (EU_solo, EU_pool, delta_U))):
        # A risk aversion this large underflows exp(-a E) to 0 while
        # a^2 Var overflows, and 0 * inf has no value.
        raise ScenarioError("validation-error(alpha_risk): risk aversion "
                            f"{a} leaves a risk-utility term without a "
                            "finite value")
    return PoolReport(E_solo, E_pool, ratio, Var_solo, Var_pool,
                      EU_solo, EU_pool, delta_U)


def pool_mc(p: PoolParams, trials: int, seed: int) -> dict:
    """Empirical reward moments under the same Poisson model.

    The pool member's payout is their 1/N share of the pool's block haul;
    the fee enters as a deterministic deduction from the mean, matching
    the variance model Var_pool = Var_solo / N.
    """
    if trials < 1:
        raise ScenarioError("trials must be at least 1")
    too_big = ScenarioError(f"validation-error(trials): the draw of {trials} "
                            "trials does not fit in memory")
    if trials > MAX_DRAW_ITEMS:
        raise too_big
    import numpy as np
    rng = np.random.default_rng(seed)
    lam_i = float(p.h / p.H * p.lambda_net)
    R = float(p.R)
    try:
        solo = rng.poisson(lam_i, size=trials) * R
        pool_blocks = rng.poisson(lam_i * p.N, size=trials)
    except MemoryError as e:
        raise too_big from e
    fee_cut = float(p.f_pool) * lam_i * R
    member = pool_blocks * R / p.N - fee_cut
    return {"mean_solo": float(solo.mean()),
            "var_solo": float(solo.var(ddof=1)) if trials > 1 else 0.0,
            "mean_pool": float(member.mean()),
            "var_pool": float(member.var(ddof=1)) if trials > 1 else 0.0,
            "trials": trials}
