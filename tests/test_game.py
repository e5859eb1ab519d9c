"""Game engine: plays, expectations, dominance, labels, determinism."""

from __future__ import annotations

import os
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from htlc_arena import game
from htlc_arena.core import ALICE, BOB, ArenaError, ScenarioError, miner_party
from htlc_arena.contracts import PRE_A, FeeSchedule
from htlc_arena.agents import (AliceHonest, AliceOffline, BobHonest,
                               BobNaiveBriber, CensorRelated, HonestFeeMax,
                               M2MbaActive)
from htlc_arena.game import (MinerProfile, Scenario, Schedule,
                             StrategyProfile, dominance_check,
                             enumerate_schedules, expected_utilities, play)

from conftest import (M1, M2, demba_scenario, demba_schedule, flat_schedule,
                      he_scenario, mad_scenario, monte_carlo, naive_scenario)


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
        from htlc_arena.agents import M2MbaPassive
        scen = mad_scenario(T=5, f=0, f_dep_a=3)
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {M1: M2MbaPassive()})
        out = play(scen, profile, flat_schedule(scen), check_invariants=True)
        assert out.delta(M1) == scen.v_dep + scen.v_col
        assert out.delta(BOB) == 0 and out.delta(ALICE) == 0
        assert out.terminal == "dep-M"
        assert out.trace[-1] == "nred-rev"


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
        monkeypatch.setattr(game, "_round_branches",
                            lambda scen, rnd, pin: (((M1, 1),), 2))
        with pytest.raises(ArenaError):
            expected_utilities(scen, honest_profile(scen))

    @pytest.mark.parametrize("trials", [None, 9])
    def test_lost_final_entry_fails_the_mass_check(self, monkeypatch, trials):
        scen = naive_scenario(miners=(MinerProfile(M1, Fraction(1, 2)),
                                      MinerProfile(M2, Fraction(1, 2))))
        if trials is not None:
            scen = monte_carlo(scen, trials)
        profile = StrategyProfile(AliceHonest(), BobNaiveBriber(),
                                  {M1: CensorRelated(), M2: HonestFeeMax()})
        pairs, _ = game.final_outcomes(scen, profile)
        assert len(pairs) > 1
        forward = game._forward
        monkeypatch.setattr(game, "_forward",
                            lambda *args: forward(*args)[1:])
        with pytest.raises(ArenaError, match="final masses sum to"):
            expected_utilities(scen, profile)

    def test_exact_expectation_checks_conservation(self, monkeypatch):
        apply_block = game.apply_block

        def leaky(state, block):
            state = apply_block(state, block)
            state.balances[M1] += 1  # a token from nowhere
            return state

        monkeypatch.setattr(game, "apply_block", leaky)
        scen = naive_scenario()
        with pytest.raises(ScenarioError, match="conservation violated"):
            expected_utilities(scen, honest_profile(scen))

    def test_exact_expectation_checks_label_order(self, monkeypatch):
        monkeypatch.setattr(game, "state_label", lambda state, protocol:
                            "red" if state.height == 3 else "nred-A")
        scen = naive_scenario()
        with pytest.raises(ScenarioError, match="regressed to red at 3"):
            expected_utilities(scen, honest_profile(scen))

    def test_enumeration_cap(self, monkeypatch):
        # 4 miners over a 12-round horizon: 4^12 > 10^7 schedules.
        miners = tuple(MinerProfile(miner_party(f"m{i}"), Fraction(1, 4))
                       for i in range(1, 5))
        scen = naive_scenario(T=10, miners=miners)
        assert scen.horizon == 12 and 4 ** 12 > game.ENUM_CAP
        played = []
        monkeypatch.setattr(game, "_play_round",
                            lambda *args: played.append(args))
        with pytest.raises(ScenarioError) as e:
            expected_utilities(scen, honest_profile(scen))
        assert "enumeration-cap-exceeded: 4^12 schedules" in str(e.value)
        assert not played

    def test_sampler_draws_the_scenario_trials_and_seed(self):
        scen = monte_carlo(naive_scenario(
            miners=(MinerProfile(M1, Fraction(1, 2)),
                    MinerProfile(M2, Fraction(1, 2)))), 7, seed=11)
        profile = honest_profile(scen)

        def settled(out):
            return (tuple(out.deltas.items()), out.burned, out.minted,
                    tuple(out.bribe_income.items()), out.escrow_delta,
                    out.terminal, out.state.merge_key())

        # The reference: one `sample_schedule` and one `play` per trial.
        rng = np.random.default_rng(11)
        want = Counter(settled(play(scen, profile,
                                    game.sample_schedule(scen, rng)))
                       for _ in range(7))
        got = Counter()
        pairs, total = game.final_outcomes(scen, profile)
        for out, n in pairs:
            got[settled(out)] += n
        assert total == 7
        assert got == want and len(got) > 1

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
        verdict = dominance_check(scen, M1, candidate, [candidate], [profile])
        assert verdict.verdict == "strict"

    def test_accept_bribe_dominates_when_hypothesis_holds(self):
        mi, rest = miner_party("mi"), miner_party("rest")
        scen = he_scenario(v_dep=60, v_col=30, T=5, t_pub=1, l=2, br=2, f=0,
                           f_dep_a=1, f_dep_b=1,
                           miners=(MinerProfile(mi, Fraction(1, 2), "active", True),
                                   MinerProfile(rest, Fraction(1, 2), "active", True)))
        base = StrategyProfile(AliceHonest(), BobHonest(),
                               {mi: M2MbaActive(), rest: M2MbaActive()})
        accept = M2MbaActive("accept")
        verdict = dominance_check(scen, mi, accept, [accept, HonestFeeMax()],
                                  [base], pin={scen.T + 1: rest})
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
        verdict = dominance_check(scen, mi, accept, [accept, HonestFeeMax()],
                                  [base], pin={scen.T + 1: rest})
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
