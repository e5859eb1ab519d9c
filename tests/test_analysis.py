"""Closed forms, lemma and theorem verifiers, pool mathematics."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from htlc_arena import analysis, game
from htlc_arena.core import ALICE, BOB, ScenarioError
from htlc_arena.analysis import (PoolParams, closed_form, pool_math,
                                 pool_mc, verify_demba, verify_demba_lemma,
                                 verify_m2mba_lemma, verify_theorem_m2mba)
from htlc_arena.agents import (AliceHonest, BobHonest, M2MbaActive,
                               M2MbaPassive)
from htlc_arena.game import MinerProfile, StrategyProfile

from conftest import M1, M2, M3, demba_scenario, demba_schedule, he_scenario
from test_acceptance import _theorem_scenario


def count_exact_expectations(monkeypatch) -> list:
    """Record every exact expectation computed from now on."""
    calls = []
    final = game.final_outcomes

    def counted(scen, *args):
        if scen.mode[0] == "exact":
            calls.append((scen, *args))
        return final(scen, *args)

    monkeypatch.setattr(game, "final_outcomes", counted)
    return calls


def m2mba_miners(lam_i="3/10", lam_other="3/10", lam_passive="4/10"):
    return (MinerProfile(M1, Fraction(lam_i), "active", True),
            MinerProfile(M2, Fraction(lam_other), "active", True),
            MinerProfile(M3, Fraction(lam_passive), "passive"))


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
