"""Closed forms, lemma and theorem verifiers, pool mathematics."""

from __future__ import annotations

import json
import math
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from htlc_arena import analysis, game
from htlc_arena.core import ALICE, BOB, ScenarioError, miner_party
from htlc_arena.analysis import (PoolParams, closed_form, pool_math,
                                 pool_mc, verify_demba, verify_demba_lemma,
                                 verify_m2mba_lemma, verify_theorem_m2mba)
from htlc_arena.agents import (AliceHonest, BobHonest, CensorRelated,
                               HonestFeeMax, M2MbaActive, M2MbaPassive,
                               policy_space)
from htlc_arena.contracts import CM2M_ID
from htlc_arena.game import MinerProfile, StrategyProfile, policy_key
from htlc_arena.runner import load_scenario, main

from conftest import (M1, M2, M3, M4, demba_scenario, demba_schedule,
                      he_scenario, mad_scenario, naive_scenario)
from test_acceptance import _m2mba_schedule, _theorem_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def count_exact_expectations(monkeypatch) -> list:
    """Record every exact expectation computed from now on: every reader
    of a pass's results reads its final frontier."""
    calls = []
    frontier = game.final_frontier

    def counted(scen, *args):
        if scen.mode[0] == "exact":
            calls.append((scen, *args))
        return frontier(scen, *args)

    monkeypatch.setattr(game, "final_frontier", counted)
    return calls


def m2mba_miners(lam_i="3/10", lam_other="3/10", lam_passive="4/10"):
    return (MinerProfile(M1, Fraction(lam_i), "active", True),
            MinerProfile(M2, Fraction(lam_other), "active", True),
            MinerProfile(M3, Fraction(lam_passive), "passive"))


@st.composite
def solvent_pacts(draw, lemma5=False):
    """`he` scenarios with two active colluders, the focal m1 holding a
    share in (0, 1) of the coalition, and maybe a passive miner, where the
    pact can pay what it owes: v_col >= (T - t_pub + 1) * br, and
    v_col > f_dep_a.  With `lemma5`, br is the larger of the two bribes
    lemma 5 sets, br_i and br_rest, which replace the scenario's."""
    T = draw(st.integers(2, 4))
    t_pub = draw(st.integers(1, T - 1))
    br, f_dep_a = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    epsilon = draw(st.integers(0, 3))
    weights = [draw(st.integers(1, 5)), draw(st.integers(1, 5)),
               draw(st.integers(0, 5))]
    if lemma5:
        # f_dep_a * (lambda_col / lambda) / delta + epsilon, rounded up,
        # for the focal miner and for the rest of the coalition.
        col = weights[0] + weights[1]
        br = max(math.ceil(Fraction(f_dep_a * col, w * (T - t_pub)) + epsilon)
                 for w in weights[:2])
    v_col = max((T - t_pub + 1) * br, f_dep_a + 1) + draw(st.integers(0, 20))
    miners = tuple(MinerProfile(party, Fraction(w, sum(weights)), kind,
                                kind == "active")
                   for party, w, kind in zip((M1, M2, M3), weights,
                                             ("active", "active", "passive"))
                   if w)
    return he_scenario(v_dep=60, v_col=v_col, T=T, t_pub=t_pub,
                       l=draw(st.integers(1, 2)), br=br, f_dep_a=f_dep_a,
                       f_dep_b=1, f_col_b=1, epsilon=epsilon, miners=miners)


@settings(max_examples=25, deadline=None)
@given(scen=solvent_pacts())
def test_solvent_pacts_pay_lemma_ones_closed_form(scen):
    # Where the pact is solvent, lemma 1's simulated bribe income is its
    # closed form delta * br * share exactly and its verdict consistent,
    # and no verdict of lemma 1 or 5 holds on a negative margin.
    delta = scen.T - scen.t_pub
    share = scen.profile_of(M1).power / scen.lambda_col
    one = verify_m2mba_lemma(1, scen, M1)
    assert one.detail["bribe_income"] == delta * scen.br * share
    assert one.consistent
    for v in (one, verify_m2mba_lemma(5, scen, M1)):
        assert not (v.hypothesis_holds and v.conclusion_holds and v.margin < 0)


@settings(max_examples=25, deadline=None)
@given(scen=solvent_pacts(lemma5=True))
def test_solvent_pacts_pay_lemma_fives_closed_form(scen):
    # Where the pact can pay lemma 5's own bribes, the focal colluder earns
    # its share of delta blocks' bribe, the exact constant rounded up:
    # never less than `predicted`, and exactly it when nothing is rounded.
    five = verify_m2mba_lemma(5, scen, M1)
    income, constant = (five.detail["bribe_income"],
                        five.detail["exact_constant"])
    share = scen.profile_of(M1).power / scen.lambda_col
    assert income == share * (scen.T - scen.t_pub) * math.ceil(constant)
    assert income >= five.detail["predicted"]
    if constant.denominator == 1:
        assert income == five.detail["predicted"]


@st.composite
def shared_verdicts(draw):
    """(verifier, args) of one verdict whose passes share a step memo: a
    pact lemma on a solvent pact (lemma 3 on its passive miner), the pact
    theorem on three miners, or the two-phase theorem or lemma 6 or 7 on
    one or two miners."""
    kind = draw(st.sampled_from((1, 2, 3, 4, 5, "theorem", "demba", 6, 7)))
    if kind in ("demba", 6, 7):
        T = draw(st.integers(2, 4))
        powers = draw(st.sampled_from(((1,), (Fraction(1, 2),) * 2,
                                       (Fraction(1, 3), Fraction(2, 3)))))
        miners = tuple(MinerProfile(p, Fraction(w))
                       for p, w in zip((M1, M2), powers))
        sched = demba_schedule(T, alpha=draw(st.sampled_from(
            (Fraction(1, 2), Fraction(1, 10), Fraction(1, 3)))))
        scen = demba_scenario(
            T=T, horizon=T + 4, v_ded=draw(st.sampled_from((1, 3, 7))),
            schedule=sched, miners=miners)
        if kind == "demba":
            return verify_demba, (scen,)
        return verify_demba_lemma, (kind, scen)
    scen = draw(solvent_pacts(lemma5=kind == 5))
    if kind == "theorem":
        assume(len(scen.miners) == 3)
        return verify_theorem_m2mba, (scen,)
    if kind == 3:
        assume(len(scen.miners) == 3)
        return verify_m2mba_lemma, (3, scen, M3)
    return verify_m2mba_lemma, (kind, scen, M1)


#: `scenarios/he_m2mba.json`'s game: two active colluders whose policies
#: share a round key, and a passive miner.
M2MBA_FILE = load_scenario(SCENARIOS / "he_m2mba.json")[0]
#: Lemma 4's game on four miners, two active colluders and two passive.
FOUR_MINERS = he_scenario(
    v_dep=60, v_col=40, T=2, t_pub=1, l=1, br=3, f_dep_a=2, f_dep_b=1,
    f_col_b=1, miners=tuple(
        MinerProfile(party, Fraction(1, 4), kind, kind == "active")
        for party, kind in zip((M1, M2, M3, M4),
                               ("active", "active", "passive", "passive"))))
#: The two-phase game on two miners of unequal power.
TWO_DEMBA_MINERS = demba_scenario(miners=(
    MinerProfile(M1, Fraction(1, 3)), MinerProfile(M2, Fraction(2, 3))))


@settings(max_examples=30, deadline=None)
@given(point=shared_verdicts())
@example(point=(verify_m2mba_lemma, (4, M2MBA_FILE, M1)))
@example(point=(verify_theorem_m2mba, (M2MBA_FILE,)))
@example(point=(verify_m2mba_lemma, (4, FOUR_MINERS, M1)))
@example(point=(verify_demba_lemma, (6, TWO_DEMBA_MINERS)))
@example(point=(verify_demba_lemma, (7, TWO_DEMBA_MINERS)))
def test_step_memo_leaves_every_verdict_as_fresh_passes_give_it(point):
    # A verdict's passes share one step cache (`game.StepMemo`), so a
    # pass takes steps that an earlier pass of the verdict kept; the
    # verdict must equal, field for field, the one computed with a fresh
    # pass per expectation.
    verify, args = point
    shared = verify(*args)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "expected_utilities",
                   lambda scen, profile, pin=None, memo=None:
                   game.expected_utilities(scen, profile, pin))
        fresh = verify(*args)
    assert shared == fresh


@pytest.mark.parametrize("verify,args", [
    *((verify_m2mba_lemma, (n, M2MBA_FILE, focal))
      for n, focal in ((1, M1), (2, M1), (3, M3), (4, M1), (5, M1))),
    (verify_theorem_m2mba, (M2MBA_FILE,)),
    (verify_demba_lemma, (6, TWO_DEMBA_MINERS)),
    (verify_demba_lemma, (7, TWO_DEMBA_MINERS)),
    (verify_demba, (TWO_DEMBA_MINERS,))], ids=[
    *(f"lemma-{n}" for n in range(1, 6)), "theorem", "lemma-6", "lemma-7",
    "demba"])
def test_every_pass_of_a_verdict_holds_its_memo(verify, args, monkeypatch):
    # Every verdict asks its expectations one way, through its memo
    # (`_verdict_expectations`): each pass it runs on one scenario holds
    # that scenario's one step cache.
    held = []
    frontier = game.final_frontier

    def spied(scen, profile, pin=None, memo=None):
        held.append((id(scen), memo))
        return frontier(scen, profile, pin, memo)

    monkeypatch.setattr(game, "final_frontier", spied)
    verify(*args)
    assert held and all(isinstance(memo, game.StepMemo) for _, memo in held)
    assert len({(scen, id(memo)) for scen, memo in held}) == len(
        {scen for scen, _ in held})


@st.composite
def solvent_perblock_pacts(draw):
    """Criterion 3's game with its grid drawn instead: four equal active
    colluders on `he`, a deadline T, a bribe br, a solvent collateral
    (v_col >= (k + 1) * br with k = T - t_pub, and v_col > f_dep_a), the
    miner of each censored round t_pub+1..T, and the confiscator, who
    mines round T+1.  Returns (scenario, window miners, confiscator)."""
    T, br = draw(st.integers(2, 6)), draw(st.integers(0, 6))
    k = T - 1
    v_col = max((k + 1) * br, 4) + draw(st.integers(0, 30))
    window = draw(st.lists(st.sampled_from((M1, M2, M3, M4)),
                           min_size=k, max_size=k))
    miners = tuple(MinerProfile(p, Fraction(1, 4), "active", True)
                   for p in (M1, M2, M3, M4))
    scen = he_scenario(v_dep=100, v_col=v_col, T=T, t_pub=1, l=2, br=br,
                       f=0, f_dep_a=3, f_dep_b=2, miners=miners)
    return scen, window, draw(st.sampled_from((M1, M2, M3, M4)))


@settings(max_examples=100, deadline=None)
@given(pact=solvent_perblock_pacts())
def test_solvent_perblock_pacts_pay_their_closed_form(pact):
    # Where the pact is solvent, the confiscator nets the closed form's
    # v_col - (k - k_mi) * br and every other colluder k_j * br, whether
    # or not the confiscator mined a censored block.
    scen, window, confiscator = pact
    parties = (M1, M2, M3, M4)
    out = game.play(scen, StrategyProfile(
        AliceHonest(), BobHonest(), {p: M2MbaActive() for p in parties}),
        _m2mba_schedule(parties, scen.t_pub, scen.T, scen.horizon, window,
                        confiscator))
    predicted = closed_form("m2mba-perblock", {
        "v_col": scen.v_col, "k": len(window),
        "k_mi": window.count(confiscator), "br": scen.br})["bribing-miner"]
    assert out.delta(confiscator) == predicted
    for p in parties:
        if p != confiscator:
            assert out.delta(p) == window.count(p) * scen.br


@st.composite
def miner_splits(draw):
    """`he` scenarios of 1-4 miners, each of any kind and colluding flag,
    whose powers sum to 1 (a zero power included)."""
    n = draw(st.integers(1, 4))
    weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)
                   .filter(any))
    miners = tuple(MinerProfile(party, Fraction(w, sum(weights)),
                                draw(st.sampled_from(("active", "passive"))),
                                draw(st.booleans()))
                   for party, w in zip((M1, M2, M3, M4), weights))
    return he_scenario(v_dep=60, v_col=30, T=3, t_pub=1, l=1, br=2,
                       miners=miners)


class _Focal(Exception):
    pass


def _default_focal(n: int, scen):
    """The miner lemma `n` takes when none is named, or None."""
    def stop(scen, focal, *args):
        raise _Focal(focal)

    name = "passive_view" if n == 3 else "coalition_view"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, name, stop)
        try:
            verify_m2mba_lemma(n, scen)
        except _Focal as e:
            return e.args[0]
        except ScenarioError as e:
            assert str(e) == "no miner of the required kind"
    return None


@settings(max_examples=60, deadline=None)
@given(scen=miner_splits())
@example(scen=he_scenario(v_dep=60, v_col=30, T=3, t_pub=1, l=1, br=2,
                          miners=(MinerProfile(M1, Fraction(0), "active",
                                               True),
                                  MinerProfile(M2, Fraction(1, 2), "passive",
                                               True),
                                  MinerProfile(M3, Fraction(1, 2), "active"))))
def test_the_coalition_is_the_active_colluders_everywhere(scen):
    # One rule decides who is in the pact: the scenario's coalition, its
    # power, the attack profile, the pact's default bribes and the lemmas'
    # default focal miners all read it.
    members = tuple(m.party for m in scen.miners
                    if m.kind == "active" and m.colluding)
    passive = tuple(m.party for m in scen.miners if m.kind == "passive")
    assert scen.coalition == members
    assert scen.lambda_col == sum((m.power for m in scen.miners
                                   if m.party in members), Fraction(0))
    profile = analysis._attack_profile(scen).miners
    assert {p for p, pol in profile.items()
            if policy_key(pol) == policy_key(M2MbaActive("race"))} \
        == set(members)
    assert {p for p, pol in profile.items()
            if isinstance(pol, M2MbaPassive)} == set(passive)
    state = M2MbaActive().setup(game.build_genesis(scen)[0], scen,
                                scen.miners[0].party)
    assert tuple(state.bribery[CM2M_ID].br.items()) \
        == tuple((p, scen.br) for p in members)
    assert _default_focal(1, scen) == (members[0] if members else None)
    assert _default_focal(3, scen) == (passive[0] if passive else None)


#: Every miner type: a (kind, colluding) pair.
MINER_TYPES = (("active", True), ("active", False), ("passive", True),
               ("passive", False))
BUILDERS = {"naive": naive_scenario, "mad": mad_scenario, "he": he_scenario,
            "demba": demba_scenario}


@st.composite
def any_protocol_games(draw):
    """A scenario of any protocol on 1-4 miners of positive power, each of
    any kind and colluding flag."""
    types = draw(st.lists(st.sampled_from(MINER_TYPES), min_size=1,
                          max_size=4))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(types),
                            max_size=len(types)))
    miners = tuple(MinerProfile(party, Fraction(w, sum(weights)), *kind)
                   for party, w, kind in zip((M1, M2, M3, M4), weights, types))
    return BUILDERS[draw(st.sampled_from(sorted(BUILDERS)))](miners=miners)


def _theorem_spaces(scen) -> dict:
    """Each miner the pact theorem judges, with the policies it weighs for
    it: its attack candidates in order, then their honest alternatives."""
    weighed: dict = {}

    def record(scen, player, candidate, alternatives, *args, **kwargs):
        assert all(alt is not candidate for alt in alternatives)
        weighed.setdefault(player, []).append([candidate, *alternatives])
        return analysis.DominanceVerdict("strict")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "dominance_check", record)
        verify_theorem_m2mba(scen)
    spaces = {}
    for party, own_spaces in weighed.items():
        honest = {tuple(map(policy_key, space[1:])) for space in own_spaces}
        assert len(honest) == 1, party
        spaces[party] = [space[0] for space in own_spaces] + own_spaces[0][1:]
    return spaces


@settings(max_examples=80, deadline=None)
@given(scen=any_protocol_games())
@example(scen=he_scenario(miners=tuple(
    MinerProfile(party, Fraction(1, 4), *kind)
    for party, kind in zip((M1, M2, M3, M4), MINER_TYPES))))
def test_every_player_has_one_space_valid_for_its_protocol(scen):
    # `policy_space` is every verdict's space: each policy in it is valid
    # for the protocol, only the pact's members are offered the pact's
    # policies, and the pact theorem weighs exactly it for every miner it
    # judges.
    honest = StrategyProfile(AliceHonest(), BobHonest(), {
        p: HonestFeeMax() for p in scen.miner_parties()})
    for player in ("alice", "bob", *scen.miner_parties()):
        space = policy_space(scen, player)
        assert space, player
        for pol in space:
            game._check_profile(scen, analysis._profile_with(honest, player, pol))
        if scen.protocol == "he" and player not in ("alice", "bob"):
            assert any(isinstance(pol, M2MbaActive) for pol in space) \
                == (player in scen.coalition)
    if scen.protocol != "he":
        return
    spaces = _theorem_spaces(scen)
    assert set(spaces) == {m.party for m in scen.miners
                           if m.party in scen.coalition or m.kind == "passive"}
    for party, space in spaces.items():
        assert list(map(policy_key, space)) \
            == list(map(policy_key, policy_space(scen, party)))


class TestClosedForm:
    def test_naive_worked_instance(self):
        got = closed_form("naive-bribery", {"v_dep": 100, "k": 4, "br": 2,
                                            "f_dep_b": 1, "f_cbob_b": 1})
        assert got["bob"] == 88

    def test_b3a_cases(self):
        p = {"v_dep": 100, "k": 4, "br": 2, "f_col_b": 2, "f_cbob_b": 1}
        assert closed_form("b3a-case1", p)["bob"] == 100 - (12 + 2 + 1)
        assert closed_form("b3a-case2", p)["bob"] == 100 - (12 + 2 + 1)

    def test_m2mba_equal_worked_instance(self):
        got = closed_form("m2mba-equal", {"v_col": 60, "k": 4, "k_mi": 1})
        assert got["each-miner"] == 15

    def test_m2mba_perblock_solo_degenerate(self):
        got = closed_form("m2mba-perblock", {"v_col": 60, "k": 3, "k_mi": 3,
                                             "br": 5})
        assert got["bribing-miner"] == 60

    def test_sdrba_and_hydra(self):
        assert closed_form("sdrba-worst", {"v_dep": 100, "v_col": 40,
                                           "epsilon": 5})["miner"] == 55
        got = closed_form("hydra-bob", {"v_col": 50, "epsilon": 20, "k": 4,
                                        "br": 2, "f_cbob_b": 1})
        assert got["bob"] == 50 + 20 - 10 - 1
        assert got["profitable"]  # 20 > 5 * 2 + 1
        got = closed_form("hydra-bob", {"v_col": 50, "epsilon": 11, "k": 4,
                                        "br": 2, "f_cbob_b": 1})
        assert not got["profitable"]  # needs epsilon > 11 at k = 4

    def test_hydra_alice_on_both_sides_of_its_threshold(self):
        # gain = v_dep + eps - ((k + 1) * br + f_calice_a), profitable
        # exactly when eps > (k + 1) * br + f_calice_a = 4 * 2 + 1 = 9.
        p = {"v_dep": 100, "k": 3, "br": 2, "f_calice_a": 1}
        above = closed_form("hydra-alice", {**p, "epsilon": 10})
        assert above == {"alice": 101, "profitable": True}
        at = closed_form("hydra-alice", {**p, "epsilon": 9})
        assert at == {"alice": 100, "profitable": False}
        below = closed_form("hydra-alice", {**p, "epsilon": 2})
        assert below == {"alice": 93, "profitable": False}

    def test_missing_parameter(self):
        with pytest.raises(ScenarioError) as e:
            closed_form("naive-bribery", {"v_dep": 100})
        assert "missing-parameter" in str(e.value)

    def test_unknown_attack(self):
        with pytest.raises(ScenarioError):
            closed_form("nope", {})


class TestM2MbaLemmas:
    def scen(self, **kw):
        defaults = dict(v_dep=60, v_col=30, T=5, t_pub=1, l=2, br=2, f=0,
                        f_dep_a=1, f_dep_b=1, f_col_b=1,
                        miners=m2mba_miners())
        defaults.update(kw)
        return he_scenario(**defaults)

    def test_lemma1_worked_instance(self):
        # lambda_i=0.3, lambda_col=0.6, delta=4, br=2: 4 > 1.
        v = verify_m2mba_lemma(1, self.scen(), M1)
        assert v.hypothesis_holds and v.conclusion_holds
        assert v.detail["bribe_income"] == 4

    def test_lemma1_computes_each_expectation_once(self, monkeypatch):
        # The accept profile's bribe income is dominance's candidate row.
        calls = count_exact_expectations(monkeypatch)
        verify_m2mba_lemma(1, self.scen(), M1)
        assert len(calls) == 2

    def test_theorem_computes_each_expectation_once(self, monkeypatch):
        # A candidate equal to the base profile, or an honest alternative
        # shared by two candidates, is computed once per verdict.
        calls = count_exact_expectations(monkeypatch)
        for kw in ({}, {"f_dep_a": 250}, {"br": 0}):
            verify_theorem_m2mba(_theorem_scenario(**kw)[1])
        assert len(calls) == 24

    def test_memo_keys_on_pin_and_policy_parameters(self, monkeypatch):
        calls = count_exact_expectations(monkeypatch)
        expect = analysis._verdict_expectations()
        scen = self.scen(T=3, l=1)

        def profile(m1_policy):
            return StrategyProfile(AliceHonest(), BobHonest(), {
                M1: m1_policy, M2: M2MbaActive(), M3: M2MbaPassive()})

        first = expect(scen, profile(M2MbaActive()))
        assert expect(scen, profile(M2MbaActive())) is first
        expect(scen, profile(M2MbaActive()), {2: M3})
        expect(scen, profile(M2MbaActive(defer_to=5)))
        assert len(calls) == 3
        # Two parametrisations that share a display name are two policies.
        expect(scen, profile(CensorRelated()))
        expect(scen, profile(CensorRelated(participate=False)))
        assert len(calls) == 5

    def test_step_memo_lives_for_one_verdict_and_scenario(self, monkeypatch):
        # Lemma 4's three deferrals share their steps up to the deadline,
        # so its verdict builds fewer blocks than its fresh passes would.
        # The memo is gone once the verdict returns, and a second verdict,
        # or a second expectation on an equal but distinct scenario,
        # reuses no step and builds them all again.
        builds = []
        mine = game._mine

        def counted(*args):
            builds.append(args[4])
            return mine(*args)

        memos = []

        class Recorded(game.StepMemo):
            def __init__(self):
                super().__init__()
                memos.append(weakref.ref(self))

        monkeypatch.setattr(game, "_mine", counted)
        monkeypatch.setattr(analysis, "StepMemo", Recorded)
        scen = self.scen(T=3, l=1)
        verify_m2mba_lemma(4, scen, M1)
        shared = len(builds)
        assert len(memos) == 1 and memos[0]() is None
        verify_m2mba_lemma(4, replace(scen), M1)
        assert len(builds) == 2 * shared
        with monkeypatch.context() as mp:
            mp.setattr(analysis, "expected_utilities",
                       lambda scen, profile, pin=None, memo=None:
                       game.expected_utilities(scen, profile, pin))
            verify_m2mba_lemma(4, scen, M1)
        assert shared < len(builds) - 2 * shared
        expect = analysis._verdict_expectations()
        profile = StrategyProfile(AliceHonest(), BobHonest(), {
            M1: M2MbaActive(), M2: M2MbaActive(), M3: M2MbaPassive()})
        del builds[:]
        expect(scen, profile)
        one = len(builds)
        expect(replace(scen), profile)
        assert one > 0 and len(builds) == 2 * one

    def test_a_verdict_builds_each_step_once(self, monkeypatch):
        # Every pass of a verdict reads and writes the verdict's step
        # cache, one-mover rounds included: lemma 4 pins round T+1 to the
        # focal colluder, and its two deferring passes share that round's
        # key.  No (setup parties, control key, round key, miner) is
        # built twice; every state's balances list the setup parties.
        built = Counter()
        mine = game._mine

        def counted(scen, profile, state, rnd, miner):
            built[id(scen), tuple(state.balances), state.control_key(),
                  profile.miners[miner].round_key(rnd, scen), miner] += 1
            return mine(scen, profile, state, rnd, miner)

        monkeypatch.setattr(game, "_mine", counted)
        verify_m2mba_lemma(4, M2MBA_FILE, M1)
        assert max(built.values()) == 1
        # Round T+1 leaves states of height T.
        assert any(key[2][0] == M2MBA_FILE.T for key in built)

    def test_lemma1_inverted_bribe_gives_none(self):
        scen = self.scen(T=3, br=0, f_dep_a=8, f_dep_b=8)
        v = verify_m2mba_lemma(1, scen, M1)
        assert not v.hypothesis_holds and not v.conclusion_holds
        assert v.consistent
        assert v.detail["verdict"] == "none"

    def test_lemma2_and_3(self):
        assert verify_m2mba_lemma(2, self.scen(), M1).conclusion_holds
        assert verify_m2mba_lemma(3, self.scen(), M3).conclusion_holds

    def test_lemma4_deferral_strictly_decays(self):
        v = verify_m2mba_lemma(4, self.scen(l=3), M1)
        assert v.hypothesis_holds and v.conclusion_holds
        utils = v.detail["deferral_utilities"]
        assert utils[0] > utils[1] > utils[2]

    def test_lemma5_strict_iff_epsilon_positive(self):
        # Integral constant: f_dep_a * (lam_col/lam_i) / delta = 4*2/2 = 4.
        scen = self.scen(T=3, f_dep_a=4, f_dep_b=4, epsilon=1)
        v = verify_m2mba_lemma(5, scen, M1)
        assert v.hypothesis_holds and v.conclusion_holds
        assert v.detail["bribe_income"] == v.detail["predicted"] == 4 + 1
        scen0 = self.scen(T=3, f_dep_a=4, f_dep_b=4, epsilon=0)
        v0 = verify_m2mba_lemma(5, scen0, M1)
        assert not v0.hypothesis_holds and not v0.conclusion_holds
        assert v0.detail["bribe_income"] == 4  # exactly the honest fee
        assert v0.consistent

    def test_protocol_mismatch(self):
        with pytest.raises(ScenarioError):
            verify_m2mba_lemma(1, demba_scenario())

    @pytest.mark.parametrize("n,focal", [
        (n, m) for n in (1, 2, 3, 4, 5)
        for m in (("m1", "m4") if n == 3 else ("m3", "m4"))])
    def test_a_focal_miner_of_the_wrong_kind_is_refused(self, n, focal):
        # Lemmas 1, 2, 4 and 5 are about an active colluder, lemma 3 about
        # a passive miner; M4 is active but outside the coalition.  Each
        # wrong focal has no more power than the coalition.
        scen = self.scen(miners=(
            MinerProfile(M1, Fraction(3, 10), "active", True),
            MinerProfile(M2, Fraction(3, 10), "active", True),
            MinerProfile(M3, Fraction(1, 5), "passive"),
            MinerProfile(M4, Fraction(1, 5), "active")))
        with pytest.raises(ScenarioError,
                           match=f"^focal miner {focal} is not "):
            verify_m2mba_lemma(n, scen, miner_party(focal))

    def test_a_lone_colluder_is_the_whole_coalition(self):
        # The one active colluder keeps a share of 1: its view has no rest
        # of the coalition to pin or bribe.  Lemmas 1 and 2 weigh a bribe
        # the rest pays by confiscating, which nobody would pay here, so
        # they refuse the view.  Lemmas 4 and 5 keep their verdicts; under
        # lemma 5 it mines every censored block, each reserving its bribe
        # f_dep_a / (T - t_pub) = 1/4, rounded up.
        scen = self.scen(miners=(
            MinerProfile(M1, Fraction(3, 5), "active", True),
            MinerProfile(M3, Fraction(2, 5), "passive")))
        view, mi, rest = analysis.coalition_view(scen, M1)
        assert rest is None
        assert view.miners == (MinerProfile(mi, Fraction(1), "active", True),)
        for n in (1, 2):
            with pytest.raises(ScenarioError, match=(
                    rf"^validation-error\(power\): lemma {n} needs a "
                    "coalition besides the focal miner, and m1 holds all "
                    "of its power$")):
                verify_m2mba_lemma(n, scen)
        verdicts = {n: verify_m2mba_lemma(n, scen) for n in (4, 5)}
        assert all(v.consistent for v in verdicts.values())
        assert verdicts[5].detail["bribe_income"] == scen.T - scen.t_pub

    @pytest.mark.parametrize("n", [0, 6])
    def test_unknown_lemma_number(self, n):
        with pytest.raises(ScenarioError, match=f"^no such lemma {n}$"):
            verify_m2mba_lemma(n, self.scen())


class TestTheoremM2Mba:
    def scen(self, f_dep_a=2, f_dep_b=2, br=30):
        miners = (MinerProfile(M1, Fraction(1, 2), "active", True),
                  MinerProfile(M2, Fraction(3, 10), "active", True),
                  MinerProfile(M3, Fraction(1, 5), "passive"))
        return he_scenario(v_dep=300, v_col=200, T=3, t_pub=1, l=1,
                           f=0, f_dep_a=f_dep_a, f_dep_b=f_dep_b, f_col_b=2,
                           br=br, miners=miners)

    def test_attack_dominates_when_hypotheses_hold(self):
        rep = verify_theorem_m2mba(self.scen())
        assert rep.hypothesis_holds and rep.all_dominant
        for res in rep.per_miner.values():
            assert all(v["verdict"] == "strict" for v in res.values())

    def test_fee_flip_breaks_passive_dominance(self):
        rep = verify_theorem_m2mba(self.scen(f_dep_a=250, f_dep_b=2))
        assert not rep.hypothesis[M3]["holds"]
        assert not rep.all_dominant
        verdicts = rep.per_miner[M3]
        assert any(v["verdict"] != "strict" and v["witness"] is not None
                   for v in verdicts.values())

    def test_bribe_flip_breaks_accept_dominance(self):
        rep = verify_theorem_m2mba(self.scen(br=0))
        assert not rep.hypothesis[M2]["checks"]["lemma1"]
        assert not rep.all_dominant
        accept = rep.per_miner[M2]["m2mba-active(accept)"]
        assert accept["verdict"] != "strict" and accept["witness"] is not None

    def test_solo_colluder_reduces_to_confiscation(self):
        solo = (MinerProfile(M1, Fraction(1), "active", True),)
        scen = he_scenario(v_dep=60, v_col=30, T=3, t_pub=1, l=1, f=0,
                           f_dep_a=2, f_dep_b=2, br=0, miners=solo)
        rep = verify_theorem_m2mba(scen)
        race = rep.per_miner[M1]["m2mba-active(race)"]
        assert race["verdict"] == "strict"  # v_col > f_dep_a

    def test_protocol_mismatch(self):
        with pytest.raises(ScenarioError):
            verify_theorem_m2mba(demba_scenario())

    @staticmethod
    def independent_m4_file(tmp_path):
        """`scenarios/he_m2mba.json` with m1 and m2 colluding at 3/10, m3
        passive at 1/5 and m4 active but outside the pact at 1/5."""
        doc = json.loads((SCENARIOS / "he_m2mba.json").read_text())
        doc["miners"] = [
            {"id": "m1", "power": "3/10", "kind": "active", "colluding": True},
            {"id": "m2", "power": "3/10", "kind": "active", "colluding": True},
            {"id": "m3", "power": "1/5", "kind": "passive"},
            {"id": "m4", "power": "1/5", "kind": "active"}]
        path = tmp_path / "he_m2mba_independent.json"
        path.write_text(json.dumps(doc))
        return path

    def test_an_active_miner_outside_the_pact_gets_no_verdict(
            self, tmp_path, capsys):
        # The theorem judges the pact's members and the passive miners.
        # m4 is active but does not collude: it plays honest-fee-max in the
        # attack profile, and the lemmas' coalition shares do not apply to
        # it, so it is neither judged nor given a hypothesis.
        path = self.independent_m4_file(tmp_path)
        scen, _ = load_scenario(path)
        rep = verify_theorem_m2mba(scen)
        assert M4 not in rep.per_miner and M4 not in rep.hypothesis
        assert set(rep.per_miner) == set(rep.hypothesis) == {M1, M2, M3}
        assert rep.all_dominant
        assert main(["lemmas", "--scenario", str(path)]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")]
        assert rows == [
            "lemma1\t-\tconsistent=true\thypothesis=True\tconclusion=True",
            "lemma2\t-\tconsistent=true\thypothesis=True\tconclusion=True",
            "lemma3\t-\tconsistent=true\thypothesis=True\tconclusion=True",
            "lemma4\t-\tconsistent=true\thypothesis=True\tconclusion=True",
            "lemma5\t-\tconsistent=true\thypothesis=False\tconclusion=False",
            "theorem-m2mba\t-\tdominant\t-\t-"]

    def test_a_miner_outside_the_pact_is_offered_no_pact_policy(
            self, tmp_path, capsys):
        # m4 is active but outside the pact: `dominance --player m4` weighs
        # its policy against the passive attack and honest play, never
        # against a pact that would lock its collateral and owe it nothing.
        path = self.independent_m4_file(tmp_path)
        scen, _ = load_scenario(path)
        assert [pol.name for pol in policy_space(scen, M4)] == [
            "m2mba-passive", "honest-fee-max", "censor-related"]
        assert [pol.name for pol in policy_space(scen, M1)] == [
            "m2mba-active(race)", "m2mba-active(accept)", "honest-fee-max",
            "censor-related"]
        assert main(["dominance", "--scenario", str(path),
                     "--player", "m4"]) == 0
        assert "m2mba-passive is strict for m4" in capsys.readouterr().out


class TestDembaVerification:
    def test_honest_profile_is_best_response_everywhere(self):
        rep = verify_demba(demba_scenario())
        assert rep.all_hold
        assert rep.grief_collateral_loss == 7 + (20 - 8)
        assert rep.delay_loss == 7

    def test_reads_every_all_honest_miner_profile_from_the_table(
            self, monkeypatch):
        # The 6 x 4 x 2 cross-product profiles; on one miner, the two miner
        # deviations are cross-product rows and come from the verdict's memo.
        calls = []
        expected_utilities = analysis.expected_utilities

        def counted(*args, **kw):
            calls.append(args)
            return expected_utilities(*args, **kw)

        monkeypatch.setattr(analysis, "expected_utilities", counted)
        assert verify_demba(demba_scenario()).all_hold
        assert len(calls) == 48

    def test_honest_oracle_values(self):
        from htlc_arena.agents import AliceHonest, BobHonest, HonestFeeMax
        from htlc_arena.game import StrategyProfile, expected_utilities
        scen = demba_scenario()
        eu = expected_utilities(scen, StrategyProfile(
            AliceHonest(), BobHonest(1), {M1: HonestFeeMax()}))
        sched = scen.fee_schedule
        assert eu.of(ALICE) == 100 + 50 - sched.paid["pre_A"]
        assert eu.of(BOB) == 40 - 100 - sched.paid["pre_B"]

    def test_no_decay_breaks_miner_lemma(self):
        scen = demba_scenario(schedule=demba_schedule(4, alpha=Fraction(1)))
        v = verify_demba_lemma(8, scen)
        assert not v.hypothesis_holds and not v.conclusion_holds
        assert v.consistent
        rep = verify_demba(scen)
        assert not rep.miner_timely_dominant and not rep.all_hold

    @pytest.mark.parametrize("scen", [TWO_DEMBA_MINERS], ids=["two-miners"])
    def test_lemma_6_builds_fewer_blocks_than_its_fresh_passes(
            self, scen, monkeypatch):
        # Lemma 6's three passes differ only in the payee's policy and
        # share one verdict memo, so each block that an earlier pass built
        # is taken from its step cache instead of built again.  (A pass
        # on one miner walks its one schedule and keeps no step.)
        builds = []
        mine = game._mine

        def counted(*args):
            builds.append(args)
            return mine(*args)

        monkeypatch.setattr(game, "_mine", counted)
        shared = verify_demba_lemma(6, scen)
        memo_builds = len(builds)
        with monkeypatch.context() as mp:
            mp.setattr(analysis, "expected_utilities",
                       lambda scen, profile, pin=None, memo=None:
                       game.expected_utilities(scen, profile, pin))
            fresh = verify_demba_lemma(6, scen)
        assert shared == fresh
        assert 0 < memo_builds < len(builds) - memo_builds

    def test_lemma_6_and_7_exact_losses(self):
        scen = demba_scenario(v_ded=9)
        v6 = verify_demba_lemma(6, scen)
        assert v6.hypothesis_holds and v6.conclusion_holds
        v7 = verify_demba_lemma(7, scen)
        assert v7.hypothesis_holds and v7.conclusion_holds
        assert (v7.detail["honest"] - v7.detail["delayed"]) == 9


class TestPool:
    def test_zero_fee_pool_matches_solo(self):
        p = PoolParams(h=Fraction(1, 10), H=Fraction(1), N=25, R=Fraction(1),
                       f_pool=Fraction(0), lambda_net=Fraction(100))
        rep = pool_math(p)
        assert rep.ratio == 1
        assert rep.E_solo == rep.E_pool == 10

    def test_two_percent_fee_ratio(self):
        p = PoolParams(h=Fraction(1, 10), H=Fraction(1), N=25, R=Fraction(1),
                       f_pool=Fraction(1, 50), lambda_net=Fraction(100))
        rep = pool_math(p)
        assert rep.ratio == Fraction(1, 1 - Fraction(1, 50)) == Fraction(50, 49)
        assert rep.Var_pool * p.N == rep.Var_solo

    def test_single_member_pool_is_pure_fee_penalty(self):
        p = PoolParams(h=Fraction(1, 10), H=Fraction(1), N=1, R=Fraction(1),
                       f_pool=Fraction(1, 50), lambda_net=Fraction(100))
        rep = pool_math(p)
        assert rep.Var_pool == rep.Var_solo
        assert rep.delta_U < 0
        expected = -math.exp(-float(rep.E_solo)) * (0.02 * float(rep.E_solo))
        assert rep.delta_U == pytest.approx(expected)

    def test_taylor_sign_flips_with_pool_size(self):
        base = dict(h=Fraction(1, 10), H=Fraction(1), R=Fraction(1),
                    f_pool=Fraction(1, 50), lambda_net=Fraction(100),
                    alpha_risk=1.0)
        assert pool_math(PoolParams(N=25, **base)).delta_U > 0
        assert pool_math(PoolParams(N=1, **base)).delta_U < 0

    def test_invalid_params(self):
        with pytest.raises(ScenarioError):
            PoolParams(h=Fraction(2), H=Fraction(1), N=1, R=Fraction(1),
                       f_pool=Fraction(0), lambda_net=Fraction(1))
        with pytest.raises(ScenarioError):
            PoolParams(h=Fraction(1), H=Fraction(1), N=0, R=Fraction(1),
                       f_pool=Fraction(0), lambda_net=Fraction(1))
        with pytest.raises(ScenarioError):
            PoolParams(h=Fraction(1), H=Fraction(1), N=1, R=Fraction(1),
                       f_pool=Fraction(1), lambda_net=Fraction(1))

    @pytest.mark.parametrize("field,value", [
        ("R", Fraction(-1)), ("lambda_net", Fraction(-5)),
        ("alpha_risk", 0.0), ("alpha_risk", -1000.0),
        ("alpha_risk", math.nan), ("alpha_risk", math.inf)])
    def test_negative_rates_and_odd_risk_aversion_are_refused(self, field,
                                                              value):
        params = dict(h=Fraction(1, 10), H=Fraction(1), N=25, R=Fraction(1),
                      f_pool=Fraction(0), lambda_net=Fraction(1))
        params[field] = value
        with pytest.raises(ScenarioError,
                           match=rf"^validation-error\({field}\): "):
            PoolParams(**params)

    def test_risk_aversion_without_finite_utilities_is_refused(self):
        # At a = 1e300, exp(-a E) underflows to 0 while a^2 Var / 2
        # overflows, so each risk-utility term would be 0 * -inf = nan.
        p = PoolParams(h=Fraction(1, 10), H=Fraction(1), N=25, R=Fraction(1),
                       f_pool=Fraction(1, 50), lambda_net=Fraction(100),
                       alpha_risk=1e300)
        with pytest.raises(ScenarioError,
                           match=r"^validation-error\(alpha_risk\): "):
            pool_math(p)

    def test_mc_zero_rate_gives_zero_rewards(self):
        p = PoolParams(h=Fraction(1, 10), H=Fraction(1), N=5, R=Fraction(1),
                       f_pool=Fraction(0), lambda_net=Fraction(0))
        mc = pool_mc(p, trials=100, seed=1)
        assert mc["mean_solo"] == 0 and mc["mean_pool"] == 0

    def test_mc_moments_match_theory(self):
        p = PoolParams(h=Fraction(1, 10), H=Fraction(1), N=25, R=Fraction(1),
                       f_pool=Fraction(1, 50), lambda_net=Fraction(100))
        rep = pool_math(p)
        mc = pool_mc(p, trials=100_000, seed=7)
        se_mean = math.sqrt(float(rep.Var_solo) / mc["trials"])
        assert abs(mc["mean_solo"] - float(rep.E_solo)) <= 3 * se_mean
        assert abs(mc["mean_pool"] - float(rep.E_pool)) <= 3 * se_mean
        assert mc["var_solo"] == pytest.approx(float(rep.Var_solo), rel=0.05)
        assert mc["var_pool"] == pytest.approx(float(rep.Var_pool), rel=0.05)

    def test_mc_variance_scales_inversely_with_pool_size(self):
        base = dict(h=Fraction(1, 10), H=Fraction(1), R=Fraction(1),
                    f_pool=Fraction(0), lambda_net=Fraction(100))
        mc25 = pool_mc(PoolParams(N=25, **base), trials=100_000, seed=11)
        mc1 = pool_mc(PoolParams(N=1, **base), trials=100_000, seed=13)
        ratio = mc25["var_pool"] / mc1["var_pool"]
        assert abs(ratio - 1 / 25) <= 0.1 * (1 / 25)
