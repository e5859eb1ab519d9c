"""Game engine: plays, expectations, dominance, labels, determinism."""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from htlc_arena import agents, analysis, game, runner
from htlc_arena.core import (ALICE, BOB, ArenaError, LedgerError,
                             ScenarioError, miner_party)
from htlc_arena.contracts import DEP_A, DEP_ID, PRE_A, FeeSchedule
from htlc_arena.agents import (AliceHonest, AliceOffline, BobB3a, BobHonest,
                               BobNaiveBriber, CensorRelated, HonestFeeMax,
                               M2MbaActive, M2MbaPassive, payment_tx)
from htlc_arena.analysis import dominance_check
from htlc_arena.game import (MinerProfile, Scenario, Schedule,
                             StrategyProfile, enumerate_schedules,
                             expected_utilities, play)
from htlc_arena.ledger import ChainState
from htlc_arena.runner import (TTC_PATHS, _completion_round,
                               _ttc_profile, ttc)

from conftest import (M1, M2, M3, demba_scenario, demba_schedule,
                      flat_schedule, frontier_settlements, he_scenario,
                      mad_scenario, monte_carlo, naive_scenario,
                      play_settlement, same_parts)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _no_draw(seed):
    raise AssertionError("drew a schedule")


def _no_pass(*args):
    raise AssertionError("ran a forward pass")


def relabelled(monkeypatch, scen, label):
    """`scen` built again once its protocol's record labels states by
    `label` (`ProtocolRules.label`)."""
    rules = game.PROTOCOLS[scen.protocol]
    monkeypatch.setitem(game.PROTOCOLS, scen.protocol,
                        rules._replace(label=label))
    return replace(scen)


def honest_profile(scen, miner_policy=None):
    miners = {m.party: (miner_policy or HonestFeeMax())
              for m in scen.miners}
    return StrategyProfile(AliceHonest(), BobHonest(1), miners)


class TestScenario:
    def test_every_field_is_frozen(self):
        scen = naive_scenario()
        for f in fields(Scenario):
            with pytest.raises(FrozenInstanceError):
                setattr(scen, f.name, getattr(scen, f.name))

    def test_replaced_scenario_plays_its_own_deposit(self):
        scen = naive_scenario(v_dep=100, t_pub=2, f_dep_a=3)
        profile = honest_profile(scen)
        assert play(scen, profile, flat_schedule(scen)).delta(ALICE) == 97
        bigger = replace(scen, v_dep=500)
        assert play(bigger, profile, flat_schedule(bigger)).delta(ALICE) == 497
        assert play(scen, profile, flat_schedule(scen)).delta(ALICE) == 97

    def test_replace_checks_the_new_parameters(self):
        with pytest.raises(ScenarioError):
            replace(naive_scenario(), t_pub=0)

    @pytest.mark.parametrize("mode", [
        ("mc", 5), ("monte-carlo", 5, 7), ("exact", 5), (), "exact",
        ["exact"], ("monte-carlo",), ("monte-carlo", 0), ("monte-carlo", "5"),
        ("monte-carlo", True), ("monte-carlo", 2.0)])
    def test_mode_is_exact_or_monte_carlo_with_a_positive_count(self, mode):
        with pytest.raises(ScenarioError) as e:
            naive_scenario(mode=mode)
        assert str(e.value).startswith("validation-error(mode): ")
        assert "\n" not in str(e.value)

    @pytest.mark.parametrize("power,why", [
        (0.5, "expected a rational number, got 0.5"),
        ("1/2", "expected a rational number, got '1/2'"),
        (Fraction(-1, 2), "must not be negative, got -1/2")])
    def test_a_power_is_a_non_negative_rational(self, power, why):
        # A float power used to pass and fail in exact mode's first round.
        with pytest.raises(ScenarioError) as e:
            MinerProfile(M1, power)
        assert str(e.value) == f"validation-error(power): {why}"

    @pytest.mark.parametrize("powers,total", [
        ((Fraction(1, 2), Fraction(1, 3)), "5/6"), ((1, 1), "2")])
    def test_power_sum_line_names_the_exact_sum(self, powers, total):
        miners = tuple(MinerProfile(miner_party(f"m{i}"), p)
                       for i, p in enumerate(powers))
        with pytest.raises(ScenarioError) as e:
            naive_scenario(miners=miners)
        assert str(e.value) == (f"validation-error(power-sum): miner powers "
                                f"sum to {total}, need exactly 1")

    def test_fee_schedule_deadline_must_match(self):
        with pytest.raises(ScenarioError,
                           match=r"^validation-error\(fee_schedule\): "):
            demba_scenario(T=4, schedule=demba_schedule(6))
        assert demba_scenario(T=6, schedule=demba_schedule(6)).T == 6

    def test_fee_schedule_and_pact_bribes_are_read_only(self):
        paid = dict(demba_schedule(4).paid)
        scen = demba_scenario(schedule=FeeSchedule(paid, Fraction(1, 2), 4))
        profile = honest_profile(scen)
        before = expected_utilities(scen, profile)
        paid[PRE_A] = 30
        with pytest.raises(TypeError):
            scen.fee_schedule.paid[PRE_A] = 30
        assert expected_utilities(scen, profile) == before
        assert before.of(ALICE) == 142

        bribes = {M1: 5, M2: 1}
        pact = he_scenario(T=3, l=1, br=2, pact_bribes=bribes, miners=(
            MinerProfile(M1, Fraction(1, 3), "active", True),
            MinerProfile(M2, Fraction(2, 3), "active", True)))
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {M1: M2MbaActive(), M2: M2MbaActive()})
        before = expected_utilities(pact, profile)
        bribes[M1] = 50
        with pytest.raises(TypeError):
            pact.pact_bribes[M2] = 50
        assert expected_utilities(pact, profile) == before
        assert before.bribe_income[M1] == Fraction(10, 3)


class TestPlay:
    def test_honest_naive_baseline(self):
        scen = naive_scenario(t_pub=2, f_dep_a=3)
        out = play(scen, honest_profile(scen), flat_schedule(scen),
                   check_invariants=True)
        assert out.delta(ALICE) == scen.v_dep - scen.f_dep_a
        assert out.terminal == "dep-A"
        # fee lands with the miner of the first round after the broadcast
        assert out.state.redemptions["dep"][1] == 3

    def test_naive_bribery_matches_closed_form(self):
        scen = naive_scenario(v_dep=100, T=5, t_pub=1, br=2, f_dep_b=1,
                              f_cbob_b=1)
        profile = StrategyProfile(AliceHonest(), BobNaiveBriber(),
                                  {M1: CensorRelated()})
        out = play(scen, profile, flat_schedule(scen), check_invariants=True)
        k = scen.T - scen.t_pub
        assert out.delta(BOB) == 100 - ((k + 1) * 2 + 1 + 1) == 88

    def test_m2mba_per_block_oracle(self):
        miners = tuple(MinerProfile(miner_party(f"m{i}"), Fraction(1, 4),
                                    "active", True) for i in range(1, 5))
        scen = he_scenario(v_dep=100, v_col=50, T=5, t_pub=1, l=2, br=2, f=0,
                           f_dep_a=3, f_dep_b=2, miners=miners)
        parties = scen.miner_parties()
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {p: M2MbaActive() for p in parties})
        # window blocks by m1, m2, m3, m4; m3 takes the collateral at T+1
        sched = Schedule((parties[0], parties[0], parties[1], parties[2],
                          parties[3], parties[2], parties[0], parties[0],
                          parties[0]))
        out = play(scen, profile, sched, check_invariants=True)
        assert out.delta(parties[2]) == 50 - 3 * 2
        for p in (parties[0], parties[1], parties[3]):
            assert out.delta(p) == 2
        assert out.burned == 100

    def test_m2mba_equal_split(self):
        miners = tuple(MinerProfile(miner_party(f"m{i}"), Fraction(1, 4),
                                    "active", True) for i in range(1, 5))
        scen = he_scenario(v_dep=100, v_col=60, T=5, t_pub=1, l=2, f=0,
                           f_dep_a=3, f_dep_b=2, miners=miners,
                           m2mba_split="equal")
        parties = scen.miner_parties()
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {p: M2MbaActive() for p in parties})
        sched = Schedule((parties[0], parties[0], parties[1], parties[2],
                          parties[3], parties[2], parties[0], parties[0],
                          parties[0]))
        out = play(scen, profile, sched, check_invariants=True)
        # v_col * k_i / k with k = 4 and one censored block each
        for p in parties:
            assert out.delta(p) == Fraction(60, 4)
        assert out.conserves()

    def test_the_equal_split_is_played_on_he_alone(self):
        # On mad too a colluder confiscates the collateral after the
        # payer's refund reveals pre_B, but only the pact on he shares a
        # confiscation by the censored window's blocks.
        miners = tuple(MinerProfile(p, Fraction(1, 2), "active", True)
                       for p in (M1, M2))
        scen = mad_scenario(miners=miners)
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {p: M2MbaPassive() for p in (M1, M2)})
        out = play(scen, profile, Schedule((M1, M2) * 4))
        assert out.state.redemptions["col"][0] == "col-M"
        equal = play(replace(scen, m2mba_split="equal"), profile,
                     Schedule((M1, M2) * 4))
        assert equal.deltas == out.deltas

    def test_short_schedule_rejected(self):
        scen = naive_scenario()
        with pytest.raises(ScenarioError):
            play(scen, honest_profile(scen), Schedule((M1,)))


class TestProtocolFlows:
    def test_he_reveal_pays_both_sides(self):
        scen = he_scenario(T=5, t_pub=2, l=2, f=1, f_dep_a=3)
        out = play(scen, honest_profile(scen), flat_schedule(scen),
                   check_invariants=True)
        assert out.delta(ALICE) == scen.v_dep - scen.f_dep_a
        assert out.delta(BOB) == scen.v_col
        assert out.terminal == "dep-A"

    def test_he_staged_refund_arrives_after_delay(self):
        scen = he_scenario(T=5, l=2, f=1, f_dep_b=2, f_col_b=2)
        profile = StrategyProfile(AliceOffline(), BobHonest(),
                                  {M1: HonestFeeMax()})
        out = play(scen, profile, flat_schedule(scen), check_invariants=True)
        assert out.delta(BOB) == (scen.v_dep + scen.v_col
                                  - scen.f_dep_b - scen.f_col_b)
        assert out.state.redemptions["col"][:2] == ("col-B", scen.T + scen.l + 1)

    def test_naive_refund_when_payee_silent(self):
        scen = naive_scenario(T=5, f_dep_b=2)
        profile = StrategyProfile(AliceOffline(), BobHonest(),
                                  {M1: HonestFeeMax()})
        out = play(scen, profile, flat_schedule(scen), check_invariants=True)
        assert out.delta(BOB) == scen.v_dep - scen.f_dep_b
        assert out.trace[-1] == "nred-nrev"  # the reveal never went public

    def test_mad_confiscation_when_payer_cheats(self):
        # The payer's refund attempt reveals his preimage; a waiting miner
        # takes both pots instead of including it.
        scen = mad_scenario(T=5, f=0, f_dep_a=3)
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {M1: M2MbaPassive()})
        out = play(scen, profile, flat_schedule(scen), check_invariants=True)
        assert out.delta(M1) == scen.v_dep + scen.v_col
        assert out.delta(BOB) == 0 and out.delta(ALICE) == 0
        assert out.terminal == "dep-M"
        assert out.trace[-1] == "nred-rev"

    def test_a_passive_miner_censors_through_T_and_no_later(self):
        # The b3a payer's refund, which carries the payer's preimage, goes
        # public in round T + 1.  A passive miner that mines every round
        # lands the payee's reveal in T + 1; one that still censored then
        # would confiscate both pots in T + 2.
        scen = mad_scenario(T=3, miners=(
            MinerProfile(M1, Fraction(1, 2), "passive"),
            MinerProfile(M2, Fraction(1, 2), "passive")))
        profile = StrategyProfile(AliceHonest(), BobB3a(),
                                  {M1: M2MbaPassive(), M2: M2MbaPassive()})
        out = play(scen, profile, flat_schedule(scen), check_invariants=True)
        assert out.terminal == "dep-A"
        assert out.state.redemptions[DEP_ID][:2] == (DEP_A, scen.T + 1)


class TestExpectations:
    def test_single_miner_degenerates_to_one_play(self):
        scen = naive_scenario(t_pub=2)
        profile = honest_profile(scen)
        eu = expected_utilities(scen, profile)
        out = play(scen, profile, flat_schedule(scen))
        for party, value in eu.utilities.items():
            assert value == out.delta(party)

    def test_conditional_bribe_income_is_exact(self):
        # lambda_i = 0.3, lambda_col = 0.6 seen as a coalition share of 1/2:
        # expected income must equal (T - t_pub) * br * lambda_i/lambda_col.
        mi, rest = miner_party("mi"), miner_party("rest")
        scen = he_scenario(v_dep=60, v_col=30, T=5, t_pub=1, l=2, br=2, f=0,
                           f_dep_a=1, f_dep_b=1, f_col_b=1,
                           miners=(MinerProfile(mi, Fraction(1, 2), "active", True),
                                   MinerProfile(rest, Fraction(1, 2), "active", True)))
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {mi: M2MbaActive(), rest: M2MbaActive()})
        eu = expected_utilities(scen, profile)
        assert eu.bribe_income[mi] == 4 * 2 * Fraction(1, 2) == 4

    def test_exact_expectation_is_order_independent(self):
        mi, rest = miner_party("mi"), miner_party("rest")
        scen = he_scenario(T=3, t_pub=1, l=1, br=2, f=0,
                           miners=(MinerProfile(mi, Fraction(1, 3), "active", True),
                                   MinerProfile(rest, Fraction(2, 3), "active", True)))
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {mi: M2MbaActive(), rest: M2MbaActive()})
        pairs = [(s.weight, play(scen, profile, s).deltas)
                 for s in enumerate_schedules(scen)]
        fwd: dict = {}
        back: dict = {}
        for w, deltas in pairs:
            for p, d in deltas.items():
                fwd[p] = fwd.get(p, Fraction(0)) + w * d
        for w, deltas in reversed(pairs):
            for p, d in deltas.items():
                back[p] = back.get(p, Fraction(0)) + w * d
        assert fwd == back
        assert sum(w for w, _ in pairs) == 1

    def test_mc_mean_within_its_own_ci_of_exact(self):
        mi, rest = miner_party("mi"), miner_party("rest")
        scen = he_scenario(T=3, t_pub=1, l=1, br=2, f=0, v_dep=60, v_col=30,
                           miners=(MinerProfile(mi, Fraction(1, 2), "active", True),
                                   MinerProfile(rest, Fraction(1, 2), "active", True)),
                           seed=20240811)
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {mi: M2MbaActive(), rest: M2MbaActive()})
        exact = expected_utilities(scen, profile).of(mi)
        mc = expected_utilities(monte_carlo(scen, 3000), profile)
        lo, hi = mc.ci[mi]
        assert lo <= float(exact) <= hi

    def test_mc_is_seed_deterministic(self):
        scen = naive_scenario(miners=(MinerProfile(M1, Fraction(1, 2)),
                                      MinerProfile(M2, Fraction(1, 2))),
                              seed=5)
        profile = honest_profile(scen)
        a = expected_utilities(monte_carlo(scen, 200), profile)
        b = expected_utilities(monte_carlo(scen, 200), profile)
        assert a.utilities == b.utilities and a.ci == b.ci

    def test_results_print_alike_under_any_hash_seed(self):
        # Parties hash by their id strings, which each process salts anew.
        script = "\n".join([
            "from fractions import Fraction",
            "from htlc_arena.agents import AliceHonest, BobHonest, M2MbaActive",
            "from htlc_arena.game import (MinerProfile, StrategyProfile,",
            "                             expected_utilities)",
            "from conftest import M1, M2, he_scenario, monte_carlo",
            "scen = he_scenario(T=3, l=1, miners=(",
            "    MinerProfile(M1, Fraction(1, 3), 'active', True),",
            "    MinerProfile(M2, Fraction(2, 3), 'active', True)))",
            "profile = StrategyProfile(AliceHonest(), BobHonest(),",
            "                          {M1: M2MbaActive(), M2: M2MbaActive()})",
            "print(repr(expected_utilities(scen, profile)))",
            "print(repr(expected_utilities(monte_carlo(scen, 20), profile)))"])
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        outs = [subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, env=dict(os.environ, PYTHONHASHSEED=seed,
                                 PYTHONPATH=path)).stdout
            for seed in ("1", "2")]
        assert outs[0] == outs[1]
        assert outs[0].count("ExpectedUtilities(") == 2

    def test_weight_sum_check_survives_optimised_mode(self, monkeypatch):
        scen = naive_scenario()
        # Every round's only branch carries weight 1/2 instead of 1.
        object.__setattr__(scen, "_weights", (((M1, 1),), 2))
        with pytest.raises(ArenaError):
            expected_utilities(scen, honest_profile(scen))

    @pytest.mark.parametrize("trials", [None, 9])
    def test_lost_final_entry_fails_the_mass_check(self, monkeypatch, trials):
        # The pass loses part of one payoff group's mass from its final
        # frontier: the expectation read from it raises the mass check.
        scen = naive_scenario(miners=(MinerProfile(M1, Fraction(1, 2)),
                                      MinerProfile(M2, Fraction(1, 2))))
        if trials is not None:
            scen = monte_carlo(scen, trials)
        profile = StrategyProfile(AliceHonest(), BobNaiveBriber(),
                                  {M1: CensorRelated(), M2: HonestFeeMax()})
        forward = game._forward

        def lossy(*args):
            payoffs, entries = forward(*args)
            (state, groups), *rest = entries
            lost, m = next(iter(groups.items()))
            assert m  # an int weight, or a list of trials
            part = m[1:] if trials else m - 1
            return payoffs, [(state, {**groups, lost: part}), *rest]

        monkeypatch.setattr(game, "_forward", lossy)
        with pytest.raises(ArenaError, match="final masses sum to"):
            expected_utilities(scen, profile)

    #: Both shapes of the pass: a one-miner game and a one-powered-miner
    #: Monte-Carlo job walk their one schedule, and a two-miner game
    #: merges its prefixes.
    PASS_SHAPES = {
        "one-miner": naive_scenario(),
        "two-miners": naive_scenario(miners=tuple(
            MinerProfile(m, Fraction(1, 2)) for m in (M1, M2))),
        "one-powered-miner-mc": monte_carlo(naive_scenario(miners=(
            MinerProfile(M1, Fraction(1)), MinerProfile(M2, Fraction(0)))), 5),
    }

    @pytest.mark.parametrize("shape", sorted(PASS_SHAPES))
    def test_exact_expectation_checks_conservation(self, monkeypatch, shape):
        apply_block = game.apply_block

        def leaky(state, block):
            state = apply_block(state, block).draft()
            state.credit(M1, 1)  # a token from nowhere
            return state.seal()

        monkeypatch.setattr(game, "apply_block", leaky)
        scen = self.PASS_SHAPES[shape]
        with pytest.raises(ScenarioError,
                           match="conservation violated at round 1"):
            expected_utilities(scen, honest_profile(scen))

    @pytest.mark.parametrize("shape", sorted(PASS_SHAPES))
    def test_exact_expectation_checks_label_order(self, monkeypatch, shape):
        scen = relabelled(monkeypatch, self.PASS_SHAPES[shape], lambda state:
                          "red" if state.height == 3 else "nred-A")
        with pytest.raises(ScenarioError, match="regressed to red at 3"):
            expected_utilities(scen, honest_profile(scen))

    def test_enumeration_cap(self, monkeypatch):
        # 4 miners over a 12-round horizon: 4^12 > 10^7 schedules.
        miners = tuple(MinerProfile(miner_party(f"m{i}"), Fraction(1, 4))
                       for i in range(1, 5))
        scen = naive_scenario(T=10, miners=miners)
        assert scen.horizon == 12 and 4 ** 12 > game.ENUM_CAP
        played = []  # the pass's block half: no round may be mined
        monkeypatch.setattr(game, "_mine", lambda *args: played.append(args))
        with pytest.raises(ScenarioError) as e:
            expected_utilities(scen, honest_profile(scen))
        assert "enumeration-cap-exceeded: 4^12 schedules" in str(e.value)
        assert not played

    def test_sampler_draws_the_scenario_trials_and_seed(self):
        scen = monte_carlo(naive_scenario(
            miners=(MinerProfile(M1, Fraction(1, 2)),
                    MinerProfile(M2, Fraction(1, 2)))), 7, seed=11)
        profile = honest_profile(scen)
        # The reference: one `sample_schedule` and one `play` per trial.
        rng = np.random.default_rng(11)
        want = Counter(play_settlement(play(scen, profile,
                                            game.sample_schedule(scen, rng)))
                       for _ in range(7))
        frontier = game.final_frontier(scen, profile)
        got = frontier_settlements(scen, frontier)
        assert frontier.total == 7
        assert got == want and len(got) > 1

    def test_one_miner_monte_carlo_draws_nothing(self, monkeypatch):
        # Every pick would name the one miner with power, so neither
        # sampler draws; the patched generator proves it by raising.
        monkeypatch.setattr(np.random, "default_rng", _no_draw)
        scen = monte_carlo(naive_scenario(), 30)
        profile = StrategyProfile(AliceHonest(), BobNaiveBriber(),
                                  {M1: CensorRelated()})
        out = play(scen, profile, flat_schedule(scen))
        eu = expected_utilities(scen, profile)
        assert eu.utilities == out.deltas
        path = "alice-redeems"
        done = _completion_round(
            play(scen, _ttc_profile(scen, path), flat_schedule(scen)),
            scen, path)
        assert ttc(scen, path) == {"mean": done, "half_width": 0.0,
                                   "trials": 30, "l": scen.l}
        two = replace(scen, miners=(MinerProfile(M1, Fraction(1, 2)),
                                    MinerProfile(M2, Fraction(1, 2))))
        with pytest.raises(AssertionError, match="drew a schedule"):
            expected_utilities(two, honest_profile(two))

    @pytest.mark.parametrize("pin", [None, {1: M2}, {6: M2}])
    def test_a_powerless_miner_is_never_drawn(self, monkeypatch, pin):
        # M2 has no power, so every trial plays the one schedule M1 mines
        # (M2 where pinned): the sample mean is exact mode's value, with
        # no spread.
        monkeypatch.setattr(np.random, "default_rng", _no_draw)
        scen = naive_scenario(miners=(MinerProfile(M1, Fraction(1)),
                                      MinerProfile(M2, Fraction(0))))
        profile = StrategyProfile(AliceHonest(), BobNaiveBriber(),
                                  {M1: CensorRelated(), M2: HonestFeeMax()})
        exact = expected_utilities(scen, profile, pin)
        mc = expected_utilities(monte_carlo(scen, 40, seed=3), profile, pin)
        assert mc.utilities == exact.utilities
        assert mc.bribe_income == exact.bribe_income
        assert mc.burned == exact.burned
        assert mc.ci == {p: (float(u), float(u))
                         for p, u in exact.utilities.items()}

    def test_linearity_under_token_scaling(self):
        # All integer amounts scaled by c scale every utility by exactly c.
        for c in (1, 3):
            scen = naive_scenario(v_dep=100 * c, br=2 * c, f=1 * c,
                                  f_dep_a=3 * c, f_dep_b=1 * c, f_cbob_b=1 * c)
            profile = StrategyProfile(AliceHonest(), BobNaiveBriber(),
                                      {M1: CensorRelated()})
            out = play(scen, profile, flat_schedule(scen))
            assert out.delta(BOB) == 88 * c


class TestDominance:
    def test_single_strategy_space_is_trivially_strict(self):
        scen = naive_scenario()
        profile = honest_profile(scen)
        candidate = profile.miners[M1]
        verdict = dominance_check(scen, M1, candidate, [], profile)
        assert verdict.verdict == "strict"

    def test_a_tie_is_no_win(self):
        # Against honest parties the fee-max miner earns the same as an
        # equal policy and more than a censor: a tie alone is none, and a
        # tie beside a win is weak.
        scen = naive_scenario()
        profile = honest_profile(scen)
        fee_max = profile.miners[M1]
        tie = dominance_check(scen, M1, fee_max, [HonestFeeMax()], profile)
        assert tie.verdict == "none"
        assert (tie.witness["candidate_utility"]
                == tie.witness["alternative_utility"])
        assert dominance_check(scen, M1, fee_max, [CensorRelated()],
                               profile).verdict == "strict"
        assert dominance_check(scen, M1, fee_max,
                               [CensorRelated(), HonestFeeMax()],
                               profile).verdict == "weak"

    def test_accept_bribe_dominates_when_hypothesis_holds(self):
        mi, rest = miner_party("mi"), miner_party("rest")
        scen = he_scenario(v_dep=60, v_col=30, T=5, t_pub=1, l=2, br=2, f=0,
                           f_dep_a=1, f_dep_b=1,
                           miners=(MinerProfile(mi, Fraction(1, 2), "active", True),
                                   MinerProfile(rest, Fraction(1, 2), "active", True)))
        base = StrategyProfile(AliceHonest(), BobHonest(),
                               {mi: M2MbaActive(), rest: M2MbaActive()})
        accept = M2MbaActive("accept")
        verdict = dominance_check(scen, mi, accept, [HonestFeeMax()], base,
                                  pin={scen.T + 1: rest})
        assert verdict.verdict == "strict"

    def test_tiny_bribe_flips_to_none_with_witness(self):
        # Bribe low enough that including the reveal beats censoring.
        mi, rest = miner_party("mi"), miner_party("rest")
        scen = he_scenario(v_dep=60, v_col=30, T=3, t_pub=1, l=2, br=0, f=0,
                           f_dep_a=8, f_dep_b=8,
                           miners=(MinerProfile(mi, Fraction(1, 2), "active", True),
                                   MinerProfile(rest, Fraction(1, 2), "active", True)))
        base = StrategyProfile(AliceHonest(), BobHonest(),
                               {mi: M2MbaActive(), rest: M2MbaActive()})
        accept = M2MbaActive("accept")
        verdict = dominance_check(scen, mi, accept, [HonestFeeMax()], base,
                                  pin={scen.T + 1: rest})
        assert verdict.verdict == "none"
        assert verdict.witness["alternative"] == "honest-fee-max"
        assert (verdict.witness["alternative_utility"]
                > verdict.witness["candidate_utility"])


class TestLabels:
    def test_fresh_game_is_red(self):
        scen = he_scenario()
        out = play(scen, StrategyProfile(AliceOffline(), BobHonest(),
                                         {M1: HonestFeeMax()}),
                   flat_schedule(scen))
        assert out.trace[0] == "red"

    def test_demba_honest_reaches_nred_ab(self):
        scen = demba_scenario()
        out = play(scen, honest_profile(scen), flat_schedule(scen))
        assert out.trace[-1] == "nred-AB"
        assert out.terminal == "to-Alice"

    def test_demba_late_payer_gets_t_suffix(self):
        from htlc_arena.agents import AliceGrief, BobDelay
        scen = demba_scenario(horizon=10)
        profile = StrategyProfile(AliceGrief(), BobDelay(1),
                                  {M1: HonestFeeMax()})
        out = play(scen, profile, flat_schedule(scen))
        assert out.trace[-1] == "nred-AA'BT"
        assert out.terminal == "burn"

    def test_labels_never_regress(self):
        scen = naive_scenario(t_pub=2)
        out = play(scen, honest_profile(scen), flat_schedule(scen))
        seen_nonred = False
        for label in out.trace:
            if label != "red":
                seen_nonred = True
            assert not (seen_nonred and label == "red")


class TestRoundHalves:
    """The pass mines once per (control state, miner) and lets the parties
    act once per mined control state."""

    def two_miners(self):
        return naive_scenario(miners=(MinerProfile(M1, Fraction(1, 2)),
                                      MinerProfile(M2, Fraction(1, 2))))

    @pytest.mark.parametrize("label,raises", [
        ("red", True), ("all-red", True), ("nred-rev", False),
        ("nred-A", False)])
    def test_merged_predecessors_keep_the_higher_label_rank(
            self, monkeypatch, label, raises):
        # In round 2 the censor keeps the game red and the honest miner
        # lands the payee's redemption (nred-A): two control states.
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {M1: CensorRelated(), M2: HonestFeeMax()})
        real_apply = game.apply_block
        real_label = game.PROTOCOLS["naive"].label
        first: dict = {}

        def apply_block(state, block):
            # Every round-3 block lands on the first round-2 state (the red
            # one), so round-3 states mined from both round-2 states merge.
            if state.height == 2:
                state = first.setdefault(2, state)
            return real_apply(state, block)

        monkeypatch.setattr(game, "apply_block", apply_block)
        scen = relabelled(monkeypatch, self.two_miners(), lambda state: (
            label if state.height >= 3 else real_label(state)))
        if raises:
            with pytest.raises(ScenarioError,
                               match=f"state label regressed to {label} at 3"):
                expected_utilities(scen, profile)
        else:
            expected_utilities(scen, profile)
        assert real_label(first[2]) == "red"

    def test_parties_act_once_per_mined_state(self, monkeypatch):
        # Unequal policies mine their own blocks, and in most rounds the
        # two reach one control state.
        scen = self.two_miners()
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {M1: HonestFeeMax(), M2: CensorRelated()})
        want = expected_utilities(scen, profile)
        mined, acted = [], Counter()
        real_apply = game.apply_block

        def apply_block(state, block):
            out = real_apply(state, block)
            mined.append(out.control_key())
            return out

        def broadcasts(state, rnd, scen):
            acted[state.control_key(), rnd] += 1
            return AliceHonest.broadcasts(profile.alice, state, rnd, scen)

        monkeypatch.setattr(game, "apply_block", apply_block)
        monkeypatch.setattr(profile.alice, "broadcasts", broadcasts)
        assert expected_utilities(scen, profile) == want
        assert set(acted) == {(key, key[0]) for key in mined}
        assert set(acted.values()) == {1} and len(acted) < len(mined)


class TestControlMerge:
    """Prefixes that differ only in what they were paid share one control
    state, and so one block per miner and one party half per round."""

    @pytest.mark.parametrize("path", TTC_PATHS)
    def test_four_equal_miners_keep_one_control_state_per_round(
            self, monkeypatch, path):
        # An unpinned Monte-Carlo pass, as `arena expect --mode mc` runs
        # one, on the scenario of the benchmark's `ttc` jobs: he, four
        # equal miners, ten rounds, the `ttc` path's honest parties and
        # honest miners, whose fees pay whoever mines.  Every miner builds
        # its own block, but all four blocks of a round reach one control
        # state, so each round runs one party half.
        miners = tuple(MinerProfile(miner_party(f"m{i}"), Fraction(1, 4),
                                    kind, kind == "active")
                       for i, kind in enumerate(
                           ("active", "active", "passive", "passive"), 1))
        scen = monte_carlo(he_scenario(
            v_dep=300, v_col=200, T=3, t_pub=1, l=1, br=30, f=0, f_dep_a=2,
            f_dep_b=2, f_col_b=2, horizon=10, miners=miners), 50)
        profile = _ttc_profile(scen, path)
        mined, acted = Counter(), Counter()
        real_mine, real_act = game._mine, game._act

        def mine(scen, profile, state, rnd, miner):
            mined[rnd] += 1
            return real_mine(scen, profile, state, rnd, miner)

        def act(scen, profile, state, rnd, rank):
            acted[rnd] += 1
            return real_act(scen, profile, state, rnd, rank)

        monkeypatch.setattr(game, "_mine", mine)
        monkeypatch.setattr(game, "_act", act)
        entries, total, _ = game.final_frontier(scen, profile)
        masses = [m for _, groups in entries for m in groups.values()]
        assert sum(masses) == total == 50 and len(masses) > 1
        rounds = range(1, scen.horizon + 1)
        assert mined == {rnd: 4 for rnd in rounds}
        assert acted == {rnd: 1 for rnd in rounds}
        # `ttc` walks the one schedule pinned to one miner: one block and
        # one party half a round, no draw, and no forward pass or payoff.
        mined.clear()
        acted.clear()
        monkeypatch.setattr(np.random, "default_rng", _no_draw)
        for name in ("final_frontier", "_forward", "_Payoffs"):
            monkeypatch.setattr(game, name, _no_pass)
        assert ttc(scen, path)["half_width"] == 0.0
        assert acted == mined == {rnd: 1 for rnd in rounds}

    def test_unequal_policies_with_equal_steps_take_rounds_whole(
            self, monkeypatch):
        # Two censors whose policies differ build the same blocks here: the
        # payee stays offline and no fee pays a miner, so every round's
        # two steps reach one successor with one increment, and the
        # sampled pass moves its trials whole and draws nothing.
        scen = monte_carlo(naive_scenario(
            f=0, f_dep_b=0, miners=(MinerProfile(M1, Fraction(1, 2)),
                                    MinerProfile(M2, Fraction(1, 2)))),
            30, seed=3)
        profile = StrategyProfile(AliceOffline(), BobHonest(), {
            M1: CensorRelated(), M2: CensorRelated(participate=False)})
        rng = np.random.default_rng(3)
        want = Counter()
        for _ in range(30):
            out = play(scen, profile, game.sample_schedule(scen, rng))
            want.update(out.deltas)
        monkeypatch.setattr(np.random, "default_rng", _no_draw)
        eu = expected_utilities(scen, profile)
        assert eu.utilities == {p: Fraction(d, 30) for p, d in want.items()}
        assert eu.utilities[BOB] > 0


class TestOneMoverRounds:
    """A pass whose every round has one mover walks its one schedule, with
    a verdict's memo or without: one block a round, and no step cache,
    round key or control key.  Any other pass without a memo asks no
    round key and caches no step."""

    @staticmethod
    def counted(monkeypatch) -> Counter:
        """Counts of blocks mined, control keys and round keys built."""
        calls = Counter()

        def counted(name, fn):
            def run(*args):
                calls[name] += 1
                return fn(*args)
            return run

        monkeypatch.setattr(game, "_mine", counted("blocks", game._mine))
        monkeypatch.setattr(ChainState, "control_key", counted(
            "control_key", ChainState.control_key))
        for cls in vars(agents).values():
            if isinstance(cls, type) and "round_key" in vars(cls):
                monkeypatch.setattr(cls, "round_key",
                                    counted("round_key", cls.round_key))
        return calls

    @pytest.mark.parametrize("argv", [
        ["expect", "--scenario", str(SCENARIOS / "naive_bribery.json"),
         "--mode", "mc", "--trials", "50"],
        ["ttc", "--scenario", str(SCENARIOS / "he_m2mba.json"),
         "--path", "bob-both", "--trials", "50"]])
    def test_a_one_miner_job_keys_nothing(self, monkeypatch, argv):
        # A one-miner Monte-Carlo `expect` job, whose pass has one mover
        # a round, and a `ttc` job, which walks its pinned schedule: each
        # walks one schedule, one block a round, and keys nothing.
        calls = self.counted(monkeypatch)
        assert runner.main(argv) == 0
        horizon = runner.load_scenario(argv[2])[0].horizon
        assert calls == Counter(blocks=horizon)

    def test_a_one_miner_verdict_walks_under_its_memo(self, monkeypatch):
        # Lemma 6 on one miner runs three passes through its verdict's
        # memo, and each walks: one block a round, and nothing keyed.
        scen = demba_scenario()
        calls = self.counted(monkeypatch)
        assert analysis.verify_demba_lemma(6, scen).consistent
        assert calls == Counter(blocks=3 * scen.horizon)

    def test_a_pass_without_a_memo_keys_no_round(self, monkeypatch,
                                                 capsys):
        # An exact `expect` on three miners merges, outside any verdict:
        # each miner takes its step from a control state once, so the
        # pass asks no round key and builds one block per control state
        # and miner that can mine its round.
        calls = self.counted(monkeypatch)
        assert runner.main(["expect", "--scenario",
                            str(SCENARIOS / "he_m2mba.json")]) == 0
        assert calls["round_key"] == 0 and calls["blocks"] == 51

    @pytest.mark.parametrize("pin", [None, {4: M3}])
    def test_a_pass_keeps_no_state_of_an_earlier_round(self, monkeypatch,
                                                       pin):
        # Exact mode on three miners, with a one-mover round where pinned:
        # when round `rnd` starts mining, the states the pass still holds
        # are the setup's and those of round `rnd - 1`.  A control key
        # holds the height, so no later round could read an earlier
        # round's steps.
        scen, profile = runner.load_scenario(SCENARIOS / "he_m2mba.json")
        meta = game.build_genesis(scen)[0].meta
        held = {}
        real_mine = game._mine

        def mine(scen, profile, state, rnd, miner):
            if rnd not in held:
                held[rnd] = {s.height for s in gc.get_objects()
                             if type(s) is ChainState and s.meta is meta}
            return real_mine(scen, profile, state, rnd, miner)

        monkeypatch.setattr(game, "_mine", mine)
        expected_utilities(scen, profile, pin)
        assert held == {rnd: {0, rnd - 1}
                        for rnd in range(1, scen.horizon + 1)}


class TestTtcWalk:
    """`ttc` walks the schedule pinned to the first miner with power, with
    the checks of every pass: conservation and the label rule each round,
    and no party paid that held no balance at setup."""

    #: The first miner has no power, so the pin passes it over.
    SCEN = monte_carlo(naive_scenario(miners=(
        MinerProfile(M1, Fraction(0)), MinerProfile(M2, Fraction(1, 2)),
        MinerProfile(M3, Fraction(1, 2)))), 5)

    def test_it_mines_every_round_with_the_first_miner_with_power(
            self, monkeypatch):
        miners = []
        real_mine = game._mine

        def mine(scen, profile, state, rnd, miner):
            miners.append(miner)
            return real_mine(scen, profile, state, rnd, miner)

        monkeypatch.setattr(game, "_mine", mine)
        assert ttc(self.SCEN, "alice-redeems")["trials"] == 5
        assert miners == [M2] * self.SCEN.horizon

    def test_it_checks_conservation(self, monkeypatch):
        apply_block = game.apply_block

        def leaky(state, block):
            state = apply_block(state, block).draft()
            state.credit(M2, 1)  # a token from nowhere
            return state.seal()

        monkeypatch.setattr(game, "apply_block", leaky)
        with pytest.raises(ScenarioError,
                           match="conservation violated at round 1"):
            ttc(self.SCEN, "alice-redeems")

    def test_it_checks_the_label_rule(self, monkeypatch):
        scen = relabelled(monkeypatch, self.SCEN, lambda state:
                          "red" if state.height == 3 else "nred-A")
        with pytest.raises(ScenarioError, match="regressed to red at 3"):
            ttc(scen, "alice-redeems")

    @pytest.mark.parametrize("read", ["ttc", "expect"])
    def test_a_party_with_no_setup_balance_fails_the_walk(self, monkeypatch,
                                                          read):
        # A step moves one token to a party that genesis never funded: the
        # total is kept, but no payoff could hold the new party.
        apply_block = game.apply_block
        stranger = miner_party("stranger")

        def paying(state, block):
            state = apply_block(state, block).draft()
            state.debit(M2, 1)
            state.credit(stranger, 1)
            return state.seal()

        monkeypatch.setattr(game, "apply_block", paying)
        with pytest.raises(ArenaError, match="^a step paid a party with no "
                           "balance at setup$"):
            if read == "ttc":
                ttc(self.SCEN, "alice-redeems")
            else:
                pin = dict.fromkeys(range(1, self.SCEN.horizon + 1), M2)
                expected_utilities(self.SCEN, honest_profile(self.SCEN), pin)


def _staged_refund_game():
    # The payer's staged refund redeems two contracts and pays fill and
    # fees to two miners.
    scen = he_scenario(T=3, l=2, f=1, f_dep_b=2, f_col_b=2, miners=(
        MinerProfile(M1, Fraction(1, 2)), MinerProfile(M2, Fraction(1, 2))))
    profile = StrategyProfile(AliceOffline(), BobHonest(),
                              {M1: HonestFeeMax(), M2: HonestFeeMax()})
    return scen, profile


def _equal_split_pact_game():
    # Both miners censor in the pact's window, each mining window blocks,
    # and one of them confiscates the collateral, which the equal split
    # shares out by those blocks.
    scen = he_scenario(v_col=60, T=4, l=2, f=0, m2mba_split="equal", miners=(
        MinerProfile(M1, Fraction(1, 2), "active", True),
        MinerProfile(M2, Fraction(1, 2), "active", True)))
    profile = StrategyProfile(AliceHonest(), BobHonest(),
                              {M1: M2MbaActive(), M2: M2MbaActive()})
    return scen, profile


def _censor_bribe_game():
    # Both miners take the naive briber's bribe and censor.
    scen = naive_scenario(T=4, miners=(MinerProfile(M1, Fraction(1, 2)),
                                       MinerProfile(M2, Fraction(1, 2))))
    profile = StrategyProfile(AliceHonest(), BobNaiveBriber(),
                              {M1: CensorRelated(), M2: CensorRelated()})
    return scen, profile


class TestPayoffs:
    """A payoff group's key: what settles it beyond setup."""

    def test_a_payoff_is_the_sum_of_its_steps(self):
        # The two miners mine in turn, in either order.  At every round the
        # setup's zero payoff with each step added settles as `_outcome`
        # settles the state that order's schedule reaches: each party's
        # delta (with the equal split of a col-M confiscation, by the
        # schedule's window blocks), the burned total and the censor-bribe
        # income.  Each order's last state reaches what its game is there
        # for, the pact's with window blocks of both miners in its payoff.
        for make, reached in (
                (_staged_refund_game,
                 lambda state, out, window: len(state.redemptions) == 2),
                (_equal_split_pact_game,
                 lambda state, out, window:
                 state.redemptions["col"][0] == "col-M" and len(window) == 2),
                (_censor_bribe_game,
                 lambda state, out, window: len(out.bribe_income) == 2)):
            scen, profile = make()
            setup, baseline, escrow0 = game._setup(scen, profile)
            payoffs = game._Payoffs(scen, setup, baseline)
            for order in ((M1, M2), (M2, M1)):
                schedule = Schedule(tuple(order[rnd % 2] for rnd in
                                          range(1, scen.horizon + 1)))
                state, payoff = setup, payoffs.zero
                for rnd, miner in enumerate(schedule.miners, 1):
                    block, mined = game._mine(scen, profile, state, rnd,
                                              miner)
                    payoff = payoffs.add(payoff,
                                         payoffs.step(state, mined, block))
                    state = game._act(scen, profile, mined, rnd, -1)[0]
                    out = game._outcome(scen, state, baseline, escrow0, (),
                                        schedule)
                    deltas, burned, income = payoffs.settle(
                        scen, game._split_confiscator(scen, state), payoff)
                    assert dict(zip(payoffs.parties, deltas)) == out.deltas, \
                        (make, rnd)
                    assert ((burned, income) == (out.burned, out.bribe_income)
                            ), (make, rnd)
                assert reached(state, out, payoffs._window(payoff[0])), \
                    (make, order)

    @settings(max_examples=30, deadline=None)
    @given(make=st.sampled_from((_staged_refund_game, _equal_split_pact_game,
                                 _censor_bribe_game)), data=st.data())
    def test_a_walked_payoff_is_the_fold_of_its_steps(self, make, data):
        # A fixed schedule's payoff, read from its final state and its
        # window blocks, is the setup's zero payoff with each step added.
        scen, profile = make()
        schedule = data.draw(st.lists(st.sampled_from((M1, M2)),
                                      min_size=scen.horizon,
                                      max_size=scen.horizon))
        setup, baseline, _ = game._setup(scen, profile)
        payoffs = game._Payoffs(scen, setup, baseline)
        state, payoff = setup, payoffs.zero
        for rnd, miner in enumerate(schedule, 1):
            block, mined = game._mine(scen, profile, state, rnd, miner)
            payoff = payoffs.add(payoff, payoffs.step(state, mined, block))
            state = game._act(scen, profile, mined, rnd, -1)[0]
        window = Counter(schedule[rnd - 1]
                         for rnd in game._window_rounds(scen))
        assert payoffs.walked(state, window) == payoff


class PayingMiner(HonestFeeMax):
    """An honest miner whose round-2 block also carries a payment of
    `amount` from m1 to the payee, in place of one filler."""

    name = "paying"

    def __init__(self, amount):
        self.amount = amount

    def build_block(self, state, rnd, miner, scen):
        block = super().build_block(state, rnd, miner, scen)
        if rnd != 2:
            return block
        pay = payment_tx("tx.pay", M1, ALICE, self.amount)
        return block._replace(txs=(*block.txs, pay),
                              unrelated_fill=block.unrelated_fill - 1)


class TestBalanceChecks:
    """The pass checks the balances of every payoff group it merges, not
    only those of the state it builds blocks on."""

    def game(self, amount_over_start):
        # Whoever mines round 1 earns its fill, in idle blocks, so every
        # prefix reaches one control state in two payoff groups.  In round
        # 2 every block pays the payee from m1's balance.
        scen = naive_scenario(miners=(MinerProfile(M1, Fraction(1, 2)),
                                      MinerProfile(M2, Fraction(1, 2))))
        start = game.build_genesis(scen)[0].balances[M1]
        return scen, honest_profile(scen,
                                    PayingMiner(start + amount_over_start))

    @pytest.mark.parametrize("trials", [None, 20])
    def test_one_overdrawn_group_raises_the_ledgers_error(self, trials):
        # One token over m1's genesis balance: m1 funds it if it mined
        # round 1 or mines round 2 (the payee's fee comes first), but not
        # if m2 mines both, and the pass must raise what that play raises.
        scen, profile = self.game(1)
        play(scen, profile, Schedule((M1,) * scen.horizon))
        play(scen, profile, Schedule((M2, M1) + (M2,) * scen.horizon))
        with pytest.raises(LedgerError) as refused:
            play(scen, profile, Schedule((M2,) * scen.horizon))
        assert "over-spend" in str(refused.value)
        if trials is not None:
            scen = monte_carlo(scen, trials)
        with pytest.raises(LedgerError) as merged:
            expected_utilities(scen, profile)
        assert str(merged.value) == str(refused.value)

    def test_a_group_that_can_fund_every_draw_plays_on(self):
        # At exactly m1's genesis balance every prefix funds the payment.
        scen, profile = self.game(0)
        want = Counter()
        for schedule in enumerate_schedules(scen):
            for party, d in play(scen, profile, schedule).deltas.items():
                want[party] += schedule.weight * d
        assert expected_utilities(scen, profile).utilities == dict(want)


class RefundingPayee(HonestFeeMax):
    """An honest miner whose round-1 block pays the payee `amount` from
    the payer and whose round-2 block pays the payer `back` from the
    payee, each in place of one filler."""

    name = "refunding"

    def __init__(self, amount, back):
        self.amount, self.back = amount, back

    def build_block(self, state, rnd, miner, scen):
        block = super().build_block(state, rnd, miner, scen)
        pay = {1: payment_tx("tx.pay", BOB, ALICE, self.amount),
               2: payment_tx("tx.back", ALICE, BOB, self.back)}.get(rnd)
        if pay is None:
            return block
        return block._replace(txs=(*block.txs, pay),
                              unrelated_fill=block.unrelated_fill - 1)


class TestCredits:
    """A group's draw is checked against its payoff, credits included."""

    @pytest.mark.parametrize("trials", [None, 20])
    def test_a_credit_funds_a_later_draw_past_genesis(self, trials):
        # Round 2 takes more than the payee's genesis balance, which round
        # 1's credit funds on every schedule, so the pass plays on and
        # settles as the plays of its schedules do.
        scen = naive_scenario(miners=(MinerProfile(M1, Fraction(1, 2)),
                                      MinerProfile(M2, Fraction(1, 2))))
        start = game.build_genesis(scen)[0].balances[ALICE]
        profile = honest_profile(scen, RefundingPayee(start // 2,
                                                      start + start // 4))
        if trials is None:
            plays = [(s.weight, play(scen, profile, s))
                     for s in enumerate_schedules(scen)]
        else:
            scen = monte_carlo(scen, trials)
            rng = np.random.default_rng(scen.seed)
            plays = [(Fraction(1, trials), play(
                scen, profile, game.sample_schedule(scen, rng)))
                for _ in range(trials)]
        want = Counter()
        for w, out in plays:
            for party, d in out.deltas.items():
                want[party] += w * d
        assert expected_utilities(scen, profile).utilities == dict(want)
        assert want[ALICE] < 0  # the round-2 refund outweighs the credit


class TestIdleBlocks:
    """Every miner mines its own block at each control state it reaches,
    whatever its policy's round key, and the merged pass still equals
    plays over every schedule."""

    def game(self, bob, first=None, second=None):
        scen = naive_scenario(f=0, T=4, miners=(
            MinerProfile(M1, Fraction(1, 2)), MinerProfile(M2, Fraction(1, 2))))
        return scen, StrategyProfile(AliceHonest(), bob, {
            M1: first or CensorRelated(), M2: second or CensorRelated()})

    def mined(self, monkeypatch, scen, profile) -> Counter:
        """(round, miner) -> blocks the exact pass mines, checked against
        plays over every schedule."""
        mined = Counter()
        real_mine = game._mine

        def mine(scen, profile, state, rnd, miner):
            mined[rnd, miner] += 1
            return real_mine(scen, profile, state, rnd, miner)

        with monkeypatch.context() as patched:
            patched.setattr(game, "_mine", mine)
            eu = expected_utilities(scen, profile)
        want = Counter()
        for schedule in enumerate_schedules(scen):
            for party, d in play(scen, profile, schedule).deltas.items():
                want[party] += schedule.weight * d
        assert eu.utilities == dict(want)
        return mined

    def test_unequal_policies_mine_their_own_blocks(self, monkeypatch):
        # The same blocks, from policies whose keys differ.
        scen, profile = self.game(
            BobHonest(), second=CensorRelated(participate=False))
        mined = self.mined(monkeypatch, scen, profile)
        assert all(mined[rnd, M2] == mined[rnd, M1]
                   for rnd in range(1, scen.horizon + 1))

    def test_a_block_that_names_its_miner_is_never_shared(self, monkeypatch):
        # A bribe request that the budget cannot cover changes nothing, so
        # its block writes nothing, but it names its miner: each miner
        # mines its own.
        scen, profile = self.game(BobNaiveBriber(br=200))
        steps = []
        real_apply = game.apply_block

        def apply_block(state, block):
            steps.append((block, state, real_apply(state, block)))
            return steps[-1][2]

        monkeypatch.setattr(game, "apply_block", apply_block)
        play(scen, profile, flat_schedule(scen))
        monkeypatch.undo()
        assert any(block.txs and same_parts(before, after)
                   for block, before, after in steps)
        mined = self.mined(monkeypatch, scen, profile)
        assert all(mined[rnd, M2] == mined[rnd, M1]
                   for rnd in range(1, scen.horizon + 1))
