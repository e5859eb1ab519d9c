"""Closed-form attack oracles and mechanical dominance verifiers.

Every attack has a closed-form predicted utility evaluated in exact
arithmetic; the verifiers re-derive the same numbers from simulated games
and check the dominance claims behind them.  A verdict records both the
hypothesis inequality and the simulated conclusion so that implication
(hypothesis => conclusion) can be asserted across parameter grids without
ever reconciling the two sides silently.

Active-miner checks run on the coalition view: colluding miners
renormalised to their conditional shares lambda_i / lambda_col, which is
the measure the per-block bribe arithmetic lives in.

Each verifier call computes each distinct (scenario, profile, pin)
expectation once: policies are stateless, so a profile is keyed by each
policy's class and constructor parameters.  The memo lives for that one
call and no longer.  (The two-phase lemmas 6 and 7 ask for no expectation
twice and call `expected_utilities` directly.)
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .core import ALICE, BOB, Party, ScenarioError, miner_party
from .contracts import PRE_A2, PRE_AA2
from .game import (MinerProfile, Scenario, StrategyProfile, dominance_check,
                   expected_utilities)
from .agents import (AliceCensoredFallback, AliceGrief, AliceHonest,
                     AliceOffline, BobDelay, BobHonest, CensorRelated,
                     HonestFeeMax, M2MbaActive, M2MbaPassive)


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
# One verdict's expectations.
# ---------------------------------------------------------------------------


def _policy_key(policy) -> tuple:
    # A stateless policy is its class and its constructor's parameters.
    return type(policy), tuple(sorted(vars(policy).items()))


def _verdict_expectations():
    """`expected_utilities` for one verdict, computing each distinct
    (scenario, profile, pin) once; scenarios are told apart by identity."""
    done: dict = {}

    def expect(scen: Scenario, profile: StrategyProfile,
               pin: Optional[dict] = None):
        key = (id(scen), _policy_key(profile.alice), _policy_key(profile.bob),
               tuple(sorted((p, _policy_key(pol))
                            for p, pol in profile.miners.items())),
               tuple(sorted((pin or {}).items())))
        if key not in done:
            # Holding the scenario keeps its id from being reused.
            done[key] = scen, expected_utilities(scen, profile, pin)
        return done[key][1]
    return expect


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


def coalition_view(scen: Scenario, focal: Party,
                   pact_bribes: Optional[dict] = None) -> tuple:
    """Renormalise the colluding coalition to conditional shares.

    Returns (scenario, focal_party, rest_party_or_None).  The focal miner
    keeps share lambda_i/lambda_col; the rest of the coalition is lumped
    into one miner.  This is the measure in which per-censored-block bribe
    expectations take the form (T - t_pub) * br * lambda_i / lambda_col.
    `pact_bribes`, keyed by VIEW_MI and VIEW_REST, overrides the scenario's.
    """
    lam_col = scen.lambda_col
    lam_i = scen.profile_of(focal).power
    if lam_col == 0 or lam_i > lam_col:
        raise ScenarioError("focal miner must belong to the colluding coalition")
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
    lam_i = scen.profile_of(focal).power
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
    miners = {}
    for m in scen.miners:
        if m.kind == "active" and m.colluding:
            miners[m.party] = M2MbaActive("race")
        elif m.kind == "passive":
            miners[m.party] = M2MbaPassive()
        else:
            miners[m.party] = HonestFeeMax()
    if overrides:
        miners.update(overrides)
    return StrategyProfile(AliceHonest(), BobHonest(), miners)


def verify_m2mba_lemma(n: int, scen: Scenario,
                       focal: Optional[Party] = None) -> LemmaVerdict:
    """Check one censorship-pact dominance lemma against the simulator.

    Hypotheses are the stated closed-form inequalities; conclusions are
    simulated dominance or income orderings.  Consistency means the
    hypothesis never holds while the simulated conclusion fails.
    """
    kinds = {1: "active", 2: "active", 3: "passive", 4: "active", 5: "active"}
    if n not in kinds:
        raise ScenarioError(f"no such lemma {n}")
    if scen.protocol != "he":
        raise ScenarioError("protocol-mismatch: pact lemmas run on 'he'")
    delta = scen.T - scen.t_pub
    f_a = scen.f_dep_a
    if focal is None:
        for m in scen.miners:
            if kinds[n] == "active" and m.colluding and m.kind == "active":
                focal = m.party
                break
            if kinds[n] == "passive" and m.kind == "passive":
                focal = m.party
                break
        if focal is None:
            raise ScenarioError("no miner of the required kind")
    lam_i = scen.profile_of(focal).power
    lam_col = scen.lambda_col
    expect = _verdict_expectations()

    if n == 1:
        hyp = pact_hypothesis(1, scen, lam_i)
        view, mi, rest = coalition_view(scen, focal)
        pin = {scen.T + 1: rest} if rest is not None else None
        base = _attack_profile(view)
        accept = M2MbaActive("accept")
        verdict = dominance_check(view, mi, accept,
                                  own_space=[accept, HonestFeeMax()],
                                  opponent_space=[base], pin=pin,
                                  expect=expect)
        income = expect(view, _attack_profile(view, {mi: accept}),
                        pin=pin).bribe_income.get(mi, Fraction(0))
        return LemmaVerdict("lemma1", hyp, verdict.verdict == "strict",
                            income - f_a, {"bribe_income": income,
                                           "verdict": verdict.verdict})
    if n == 2:
        hyp = pact_hypothesis(2, scen, lam_i)
        view, mi, rest = coalition_view(scen, focal)
        offer = M2MbaActive("race")
        verdict = dominance_check(view, mi, offer,
                                  own_space=[offer, HonestFeeMax()],
                                  opponent_space=[_attack_profile(view)],
                                  expect=expect)
        return LemmaVerdict("lemma2", hyp, verdict.verdict == "strict",
                            detail={"verdict": verdict.verdict})
    if n == 3:
        hyp = pact_hypothesis(3, scen, lam_i)
        view, mp, _ = passive_view(scen, focal)
        wait = M2MbaPassive()
        verdict = dominance_check(view, mp, wait,
                                  own_space=[wait, HonestFeeMax()],
                                  opponent_space=[_attack_profile(view)],
                                  expect=expect)
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
    income = expect(view, _attack_profile(view)) \
        .bribe_income.get(mi, Fraction(0))
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


def m2mba_policy_space(kind: str) -> list:
    if kind == "passive":
        return [M2MbaPassive(), HonestFeeMax(), CensorRelated(participate=False)]
    return [M2MbaActive("race"), M2MbaActive("accept"), HonestFeeMax(),
            CensorRelated(participate=False)]


def verify_theorem_m2mba(scen: Scenario) -> TheoremReport:
    """Brute-force the full-attack dominance claim, one miner at a time.

    For every passive miner the wait-then-confiscate policy must dominate
    both honest alternatives; for every colluding active both the
    offer-and-confiscate and accept-bribe policies must.  Hypothesis
    inequalities are reported per miner; a violated hypothesis does not
    stop the dominance run.
    """
    if scen.protocol != "he":
        raise ScenarioError("protocol-mismatch")
    base = _attack_profile(scen)
    expect = _verdict_expectations()
    per_miner: dict = {}
    hypothesis: dict = {}
    all_dominant = True
    for m in scen.miners:
        party = m.party
        lemmas = (3,) if m.kind == "passive" else (1, 2)
        checks = {f"lemma{n}": pact_hypothesis(n, scen, m.power)
                  for n in lemmas}
        hypothesis[party] = {"holds": all(checks.values()), "checks": checks}
        # The attack policies first, then the two honest alternatives.
        space = m2mba_policy_space(m.kind)
        candidates, honest_alts = space[:-2], space[-2:]
        results = []
        for cand in candidates:
            v = dominance_check(scen, party, cand, [cand] + honest_alts, [base],
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


def demba_deviation_spaces(scen: Scenario) -> dict:
    reveal_late = max(1, scen.T - 1)
    return {
        "alice": [AliceHonest(), AliceHonest(min(scen.t_pub + 1, scen.T)),
                  AliceOffline(), AliceGrief(), AliceCensoredFallback(),
                  AliceHonest(reveal_late)],
        "bob": [BobHonest(1), BobHonest(reveal_late), BobDelay(1), BobDelay(2)],
        "miners": [HonestFeeMax(), CensorRelated(participate=False)],
    }


def _single_miner_play(scen: Scenario, alice, bob, miner_policy=None,
                       expect=None):
    m = scen.miner_parties()[0]
    profile = StrategyProfile(alice, bob, {
        p: (miner_policy or HonestFeeMax()) if p == m else HonestFeeMax()
        for p in scen.miner_parties()})
    return (expect or expected_utilities)(scen, profile)


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
    if scen.protocol != "demba":
        raise ScenarioError("protocol-mismatch")
    spaces = demba_deviation_spaces(scen)
    expect = _verdict_expectations()

    def uniform(alice, bob, miner_policy):
        return expect(scen, StrategyProfile(alice, bob, {
            p: miner_policy for p in scen.miner_parties()}))

    # (e) collusion bounds over the full cross product.  Its all-honest-miner
    # rows are every profile that (a), (b) and (d) read back from the memo.
    bounds_ok = True
    for a_pol, b_pol, m_pol in itertools.product(
            spaces["alice"], spaces["bob"], spaces["miners"]):
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
    for pol in spaces["alice"]:
        u = honest_miners(pol, BobHonest(1)).of(ALICE)
        deviations.append(("alice", pol.name, u, u_alice_honest))
    for pol in spaces["bob"]:
        u = honest_miners(AliceHonest(), pol).of(BOB)
        deviations.append(("bob", pol.name, u, u_bob_honest))
    miner = scen.miner_parties()[0]
    for pol in spaces["miners"]:
        u = _single_miner_play(scen, AliceHonest(), BobHonest(1), pol,
                               expect).of(miner)
        deviations.append(("miner", pol.name, u, honest.of(miner)))
    no_profit = all(u <= u_honest for _, _, u, u_honest in deviations)
    return DembaReport(honest_best_alice, honest_best_bob,
                       miner_timely_dominant, no_profit, deviations,
                       bounds_ok, ("nred-AB", "nred-ABT"),
                       grief_collateral_loss, delay_loss)


def verify_demba_lemma(n: int, scen: Scenario) -> LemmaVerdict:
    """Per-party dominance checks for the two-phase protocol (6, 7, 8)."""
    if scen.protocol != "demba":
        raise ScenarioError("protocol-mismatch")
    if n == 6:
        hyp = scen.v_ded > 0
        honest = _single_miner_play(scen, AliceHonest(), BobHonest(1)).of(ALICE)
        offline = _single_miner_play(scen, AliceOffline(), BobHonest(1)).of(ALICE)
        grief = _single_miner_play(scen, AliceGrief(), BobHonest(1)).of(ALICE)
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
        honest = _single_miner_play(scen, AliceHonest(), BobHonest(1)).of(BOB)
        delayed = _single_miner_play(scen, AliceHonest(), BobDelay(1)).of(BOB)
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
        on_time = sched.split(path, paid, sched.T)[0]
        for t in range(sched.T + 1, scen.horizon + 1):
            if sched.split(path, paid, t)[0] >= on_time:
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
        if not (0 < self.h <= self.H):
            raise ScenarioError("need 0 < h <= H")
        if self.N < 1:
            raise ScenarioError("pool size must be at least 1")
        if not (0 <= self.f_pool < 1):
            raise ScenarioError("pool fee must lie in [0, 1)")


@dataclass
class PoolReport:
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
    rng = np.random.default_rng(seed)
    lam_i = float(p.h / p.H * p.lambda_net)
    R = float(p.R)
    solo = rng.poisson(lam_i, size=trials) * R
    pool_blocks = rng.poisson(lam_i * p.N, size=trials)
    fee_cut = float(p.f_pool) * lam_i * R
    member = pool_blocks * R / p.N - fee_cut
    return {"mean_solo": float(solo.mean()),
            "var_solo": float(solo.var(ddof=1)) if trials > 1 else 0.0,
            "mean_pool": float(member.mean()),
            "var_pool": float(member.var(ddof=1)) if trials > 1 else 0.0,
            "trials": trials}
