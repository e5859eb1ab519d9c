"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Oracle equivalence is integer-exact throughout: simulated utilities must
reproduce the closed-form attack gains, the lemma grids must be implication
-consistent at every point, and the trend criteria mirror the qualitative
claims.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from htlc_arena.core import BOB, miner_party
from htlc_arena.agents import (AliceCensoredFallback, AliceGrief, AliceHonest,
                               AliceOffline, B3aAccomplice, BobB3a, BobDelay,
                               BobHonest, BobHydraBriber, BobNaiveBriber,
                               CensorRelated, HonestFeeMax, HydraAccomplice,
                               M2MbaActive, M2MbaPassive, SdrbaBriber)
from htlc_arena.analysis import (PoolParams, closed_form, pool_math, pool_mc,
                                 verify_demba, verify_demba_lemma,
                                 verify_m2mba_lemma, verify_theorem_m2mba)
from htlc_arena.contracts import PRE_A, PRE_AA2
from htlc_arena.game import MinerProfile, Schedule, StrategyProfile, play
from htlc_arena.runner import ttc

from conftest import (M1, demba_scenario, demba_schedule, flat_schedule,
                      he_scenario, mad_scenario, monte_carlo, naive_scenario,
                      solo_miner)


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} {criterion}" + (f": {detail}" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


# -- 1. naive bribery oracle -------------------------------------------------


def test_criterion_1_naive_bribery_oracle():
    start = time.perf_counter()
    cases = 0
    for k, v_dep, br, f_dep_b, f_cbob in itertools.product(
            (2, 3, 4, 5), (60, 100, 250), (1, 2), (1, 3), (1,)):
        if (k + 1) * br + f_dep_b + f_cbob >= v_dep:
            continue
        scen = naive_scenario(v_dep=v_dep, T=k + 1, t_pub=1, br=br,
                              f_dep_b=f_dep_b, f_cbob_b=f_cbob)
        profile = StrategyProfile(AliceHonest(), BobNaiveBriber(),
                                  {M1: CensorRelated()})
        out = play(scen, profile, flat_schedule(scen))
        predicted = closed_form("naive-bribery", {
            "v_dep": v_dep, "k": k, "br": br, "f_dep_b": f_dep_b,
            "f_cbob_b": f_cbob})["bob"]
        assert out.delta(BOB) == predicted, (k, v_dep, br, f_dep_b)
        cases += 1
    elapsed = time.perf_counter() - start
    report("criterion-1 naive-bribery oracle",
           cases >= 20 and elapsed < 1.0,
           f"{cases} parameter sets integer-exact in {elapsed:.2f}s")


# -- 2. B3A oracle -----------------------------------------------------------


def test_criterion_2_b3a_oracle():
    cases = 0
    for case, k, v_dep, v_col, br, f_col_b in itertools.product(
            (1, 2), (2, 3, 4), (200, 400), (50, 100), (2, 3), (2,)):
        scen = mad_scenario(v_dep=v_dep, v_col=v_col, T=k + 1, t_pub=1, br=br,
                            f_col_b=f_col_b, f_cbob_b=1,
                            miners=solo_miner("active", True))
        profile = StrategyProfile(AliceHonest(), BobB3a(case=case),
                                  {M1: B3aAccomplice(case=case)})
        out = play(scen, profile, flat_schedule(scen))
        params = {"v_dep": v_dep, "k": k, "br": br, "f_col_b": f_col_b,
                  "f_cbob_b": 1}
        predicted = closed_form(f"b3a-case{case}", params)["bob"]
        # Net gain excludes recovery of the payer's own pre-funded collateral.
        assert out.delta(BOB) - v_col == predicted, (case, k, v_dep, v_col, br)
        cases += 1
    # Cost relative to naive bribery: one extra br when f_col_b = f_dep_b.
    for k, v_dep, br in itertools.product((2, 4), (200, 500), (2, 5)):
        fee = 2
        naive = closed_form("naive-bribery", {
            "v_dep": v_dep, "k": k, "br": br, "f_dep_b": fee, "f_cbob_b": 1})
        b3a = closed_form("b3a-case1", {
            "v_dep": v_dep, "k": k, "br": br, "f_col_b": fee, "f_cbob_b": 1})
        assert naive["bob"] - b3a["bob"] == br
    # Against the hybrid reverse bribery: whenever eps > (k+1)br + f_cbob the
    # partial-block gain beats the hybrid gain minus eps.
    checked = 0
    for k, v_dep, v_col, br, eps in itertools.product(
            (2, 4), (200, 500), (50, 100), (2, 3), (12, 30, 60)):
        if eps <= (k + 1) * br + 1:
            continue
        b3a = closed_form("b3a-case1", {
            "v_dep": v_dep, "k": k, "br": br, "f_col_b": 2, "f_cbob_b": 1})
        hydra = closed_form("hydra-bob", {
            "v_col": v_col, "epsilon": eps, "k": k, "br": br, "f_cbob_b": 1})
        assert b3a["bob"] > hydra["bob"] - eps, (k, v_dep, v_col, br, eps)
        checked += 1
    report("criterion-2 b3a oracle", cases >= 20 and checked >= 10,
           f"{cases} simulated sets, {checked} hybrid comparisons")


# -- 3. M2MBA oracles --------------------------------------------------------


def _m2mba_schedule(parties, t_pub, T, horizon, window_miners, confiscator):
    miners = [parties[0]] * horizon
    for i, m in enumerate(window_miners):
        miners[t_pub + i] = m  # rounds t_pub+1 .. T
    miners[T] = confiscator  # round T+1
    return Schedule(tuple(miners))


def test_criterion_3_m2mba_oracles():
    counted = 0
    for v_col, br, pattern in itertools.product(
            (50, 60, 120), (1, 2, 5),
            ((0, 1, 2, 3), (2, 2, 1, 0), (3, 3, 3, 3), (0, 0, 1, 2))):
        parties = tuple(miner_party(f"m{i}") for i in range(1, 5))
        miners = tuple(MinerProfile(p, Fraction(1, 4), "active", True)
                       for p in parties)
        scen = he_scenario(v_dep=100, v_col=v_col, T=5, t_pub=1, l=2, br=br,
                           f=0, f_dep_a=3, f_dep_b=2, miners=miners)
        window = [parties[i] for i in pattern]
        confiscator = parties[pattern[-1]]
        sched = _m2mba_schedule(parties, 1, 5, scen.horizon, window,
                                confiscator)
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {p: M2MbaActive() for p in parties})
        out = play(scen, profile, sched)
        k = len(window)
        k_mi = sum(1 for m in window if m == confiscator)
        predicted = closed_form("m2mba-perblock", {
            "v_col": v_col, "k": k, "k_mi": k_mi, "br": br})["bribing-miner"]
        assert out.delta(confiscator) == predicted
        for p in parties:
            if p != confiscator:
                k_mj = sum(1 for m in window if m == p)
                assert out.delta(p) == k_mj * br
        counted += 1
    # Equal split, including the worked instance k=4, k_mi=1, v_col=60.
    equal_counts = 0
    for v_col in (60, 120):
        parties = tuple(miner_party(f"m{i}") for i in range(1, 5))
        miners = tuple(MinerProfile(p, Fraction(1, 4), "active", True)
                       for p in parties)
        scen = he_scenario(v_dep=100, v_col=v_col, T=5, t_pub=1, l=2, f=0,
                           f_dep_a=3, f_dep_b=2, miners=miners,
                           m2mba_split="equal")
        window = list(parties)
        sched = _m2mba_schedule(parties, 1, 5, scen.horizon, window,
                                parties[2])
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {p: M2MbaActive() for p in parties})
        out = play(scen, profile, sched)
        for p in parties:
            assert out.delta(p) == closed_form(
                "m2mba-equal", {"v_col": v_col, "k": 4, "k_mi": 1})["each-miner"]
        equal_counts += 1
    # Solo-confiscation degenerate case: k = k_mi pays no bribes.
    assert closed_form("m2mba-perblock",
                       {"v_col": 77, "k": 3, "k_mi": 3, "br": 9})[
        "bribing-miner"] == 77
    report("criterion-3 m2mba oracles", counted >= 30 and equal_counts == 2,
           f"{counted} per-block sets, worked equal-split instance exact")


# -- 4. lemma grids ----------------------------------------------------------


def _coalition_scenario(share: Fraction, delta: int, br: int, fee: int,
                        v_dep: int, v_col: int, l: int = 1, eps: int = 0):
    lam_col = Fraction(3, 5)
    mi = miner_party("gi")
    other = miner_party("go")
    passive = miner_party("gp")
    miners = (MinerProfile(mi, share * lam_col, "active", True),
              MinerProfile(other, (1 - share) * lam_col, "active", True),
              MinerProfile(passive, 1 - lam_col, "passive"))
    scen = he_scenario(v_dep=v_dep, v_col=v_col, T=1 + delta, t_pub=1, l=l,
                       br=br, f=0, f_dep_a=fee, f_dep_b=fee, f_col_b=1,
                       epsilon=eps, miners=miners)
    return scen, mi, passive


def test_criterion_4_lemma_grids():
    start = time.perf_counter()
    points = {n: 0 for n in (1, 2, 3, 4, 5, 6, 7, 8)}

    shares = (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
    for share, delta, br, fee in itertools.product(
            shares, (2, 3), (0, 1, 2, 4, 8), (1, 3, 6)):
        scen, mi, _ = _coalition_scenario(share, delta, br, fee,
                                          v_dep=60, v_col=40)
        v = verify_m2mba_lemma(1, scen, mi)
        assert v.consistent, ("lemma1", share, delta, br, fee)
        points[1] += 1

    for share, delta, br, fee in itertools.product(
            shares, (2, 3), (0, 1, 2, 4, 8), (1, 3, 6)):
        scen, mi, _ = _coalition_scenario(share, delta, br, fee,
                                          v_dep=60, v_col=40)
        v = verify_m2mba_lemma(2, scen, mi)
        assert v.consistent, ("lemma2", share, delta, br, fee)
        points[2] += 1
    # Span the negative side of the inequality too (small share, big bribe).
    for delta, br in itertools.product((2, 3), (6, 10)):
        scen, mi, _ = _coalition_scenario(Fraction(1, 4), delta, br, 6,
                                          v_dep=90, v_col=80)
        v = verify_m2mba_lemma(2, scen, mi)
        assert v.consistent
        points[2] += 1

    for lam_p, delta, v_col, fee in itertools.product(
            (Fraction(1, 5), Fraction(3, 10), Fraction(2, 5), Fraction(3, 5)),
            (2, 3), (10, 40, 90, 150), (1, 4, 8, 16)):
        mp = miner_party("fp")
        rest = miner_party("fr")
        scen = he_scenario(
            v_dep=60, v_col=v_col, T=1 + delta, t_pub=1, l=1, br=0, f=0,
            f_dep_a=fee, f_dep_b=fee, f_col_b=1,
            miners=(MinerProfile(mp, lam_p, "passive"),
                    MinerProfile(rest, 1 - lam_p, "active", True)))
        v = verify_m2mba_lemma(3, scen, mp)
        assert v.consistent, ("lemma3", lam_p, delta, v_col, fee)
        points[3] += 1

    for share, v_col, fee, l in itertools.product(
            shares, (10, 25, 40, 80), (1, 6, 12, 25, 44), (3,)):
        scen, mi, _ = _coalition_scenario(share, 2, 1, fee, v_dep=60,
                                          v_col=v_col, l=l)
        v = verify_m2mba_lemma(4, scen, mi)
        assert v.consistent, ("lemma4", share, v_col, fee)
        points[4] += 1
    for share in shares:  # extra coverage at a second deposit size
        for v_col in (20, 80):
            for fee in (2, 9):
                scen, mi, _ = _coalition_scenario(share, 2, 1, fee, v_dep=100,
                                                  v_col=v_col, l=3)
                assert verify_m2mba_lemma(4, scen, mi).consistent
                points[4] += 1
    for share in shares:
        for v_col in (15, 60):
            for fee in (3, 30):
                scen, mi, _ = _coalition_scenario(share, 2, 1, fee, v_dep=40,
                                                  v_col=v_col, l=3)
                assert verify_m2mba_lemma(4, scen, mi).consistent
                points[4] += 1

    for ratio, delta, fee, eps in itertools.product(
            (2, 3, 4, 6), (2, 4), (4, 8, 12, 16), (0, 1, 2, 3)):
        share = Fraction(1, ratio)
        scen, mi, _ = _coalition_scenario(share, delta, 0, fee,
                                          v_dep=60, v_col=200, eps=eps)
        v = verify_m2mba_lemma(5, scen, mi)
        assert v.consistent, ("lemma5", ratio, delta, fee, eps)
        if eps > 0:
            assert v.conclusion_holds
        points[5] += 1

    for v_ded, paid_a, v_col_a, T in itertools.product(
            (0, 1, 3, 7, 11), (6, 8, 10, 12, 14), (50, 80), (3, 4)):
        sched = demba_schedule(T, pre_a=paid_a, pre_a2=paid_a + 4,
                               pre_aa2=2 * paid_a + 6, pre_b=paid_a)
        scen = demba_scenario(v_ded=v_ded, v_col_a=v_col_a, T=T,
                              horizon=T + 4, schedule=sched)
        v = verify_demba_lemma(6, scen)
        assert v.consistent, ("lemma6", v_ded, paid_a, v_col_a, T)
        points[6] += 1
        v = verify_demba_lemma(7, scen)
        assert v.consistent, ("lemma7", v_ded, paid_a, v_col_a, T)
        points[7] += 1

    for alpha, paid_a, paid_b, T in itertools.product(
            (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
             Fraction(3, 4), Fraction(1)), (8, 10, 12, 16, 20), (6, 8), (3, 4)):
        sched = demba_schedule(T, pre_a=paid_a, pre_a2=paid_a + 1,
                               pre_aa2=paid_a + 2, pre_b=paid_b, alpha=alpha)
        scen = demba_scenario(T=T, horizon=T + 4, schedule=sched)
        v = verify_demba_lemma(8, scen)
        assert v.consistent, ("lemma8", alpha, paid_a, paid_b, T)
        assert v.hypothesis_holds == (alpha < 1)
        points[8] += 1

    elapsed = time.perf_counter() - start
    ok = all(n >= 100 for n in points.values()) and elapsed < 60
    report("criterion-4 lemma grids", ok,
           f"points per lemma {dict(points)}, {elapsed:.1f}s")


# -- 5. miner-pact theorem ---------------------------------------------------


def _theorem_scenario(f_dep_a=2, f_dep_b=2, br=30):
    m1, m2, m3 = (miner_party("t1"), miner_party("t2"), miner_party("t3"))
    miners = (MinerProfile(m1, Fraction(1, 2), "active", True),
              MinerProfile(m2, Fraction(3, 10), "active", True),
              MinerProfile(m3, Fraction(1, 5), "passive"))
    return (m1, m2, m3), he_scenario(v_dep=300, v_col=200, T=3, t_pub=1, l=1,
                                     f=0, f_dep_a=f_dep_a, f_dep_b=f_dep_b,
                                     f_col_b=2, br=br, miners=miners)


def test_criterion_5_theorem_m2mba():
    (m1, m2, m3), scen = _theorem_scenario()
    rep = verify_theorem_m2mba(scen)
    assert rep.hypothesis_holds
    assert rep.all_dominant
    _, flipped_fee = _theorem_scenario(f_dep_a=250, f_dep_b=2)
    rep_fee = verify_theorem_m2mba(flipped_fee)
    assert not rep_fee.all_dominant
    witness_fee = any(v["witness"] is not None
                      for res in rep_fee.per_miner.values()
                      for v in res.values() if v["verdict"] != "strict")
    (m1b, m2b, m3b), flipped_br = _theorem_scenario(br=0)
    rep_br = verify_theorem_m2mba(flipped_br)
    assert not rep_br.hypothesis[m2b]["checks"]["lemma1"]
    assert not rep_br.all_dominant
    witness_br = rep_br.per_miner[m2b]["m2mba-active(accept)"]["witness"]
    report("criterion-5 miner-pact theorem",
           witness_fee and witness_br is not None,
           "dominant under hypotheses; each flip yields a witness")


# -- 6. two-phase theorem ----------------------------------------------------


def test_criterion_6_theorem_demba():
    scen = demba_scenario()
    rep = verify_demba(scen)
    assert rep.no_profitable_deviation
    assert rep.honest_best_alice and rep.honest_best_bob
    assert rep.collusion_bounds_hold
    sched = scen.fee_schedule
    grief_expected = scen.v_ded + (sched.paid[PRE_AA2] - sched.paid[PRE_A])
    assert rep.grief_collateral_loss == grief_expected
    assert rep.delay_loss == scen.v_ded
    # The grief deviation also burns the whole deposit.
    profile = StrategyProfile(AliceGrief(), BobHonest(1), {M1: HonestFeeMax()})
    out = play(scen, profile, flat_schedule(scen))
    assert out.burned >= scen.v_dep and out.terminal == "burn"
    report("criterion-6 two-phase theorem", True,
           f"zero profitable deviations; grief loses v_ded+fee gap "
           f"({grief_expected}) plus the burned deposit; delay loses "
           f"exactly v_ded ({scen.v_ded})")


# -- 7. solo vs pool ---------------------------------------------------------


def test_criterion_7_pool_identities():
    p = PoolParams(h=Fraction(1, 10), H=Fraction(1), N=25, R=Fraction(1),
                   f_pool=Fraction(1, 50), lambda_net=Fraction(100),
                   alpha_risk=1.0)
    rep = pool_math(p)
    assert rep.E_solo / rep.E_pool == Fraction(1) / (1 - p.f_pool)
    assert rep.Var_pool * p.N == rep.Var_solo
    mc = pool_mc(p, trials=100_000, seed=17)
    lam = float(p.h / p.H * p.lambda_net)
    se_mean_solo = math.sqrt(float(rep.Var_solo) / mc["trials"])
    se_mean_pool = math.sqrt(float(rep.Var_pool) / mc["trials"])
    assert abs(mc["mean_solo"] - float(rep.E_solo)) <= 3 * se_mean_solo
    assert abs(mc["mean_pool"] - float(rep.E_pool)) <= 3 * se_mean_pool
    se_var_solo = float(rep.Var_solo) * math.sqrt((2 + 1 / lam) / mc["trials"])
    se_var_pool = float(rep.Var_pool) * math.sqrt(
        (2 + 1 / (lam * p.N)) / mc["trials"])
    assert abs(mc["var_solo"] - float(rep.Var_solo)) <= 3 * se_var_solo
    assert abs(mc["var_pool"] - float(rep.Var_pool)) <= 3 * se_var_pool
    assert rep.delta_U > 0
    solo = pool_math(PoolParams(h=p.h, H=p.H, N=1, R=p.R, f_pool=p.f_pool,
                                lambda_net=p.lambda_net, alpha_risk=1.0))
    assert solo.delta_U < 0
    report("criterion-7 pool identities", True,
           "exact ratio and variance identities; MC within 3 SE; "
           "delta-U signs match")


# -- 8. time-to-complete trend -----------------------------------------------


def test_criterion_8_ttc_trend():
    trials, seed = 10_000, 2024
    v_col = 10
    he_means = []
    for mult in (1, 2, 4):
        scen = he_scenario(v_dep=mult * v_col, v_col=v_col, l=0, f=0, T=3)
        he_means.append(ttc(monte_carlo(scen, trials, seed),
                            "bob-both")["mean"])
    assert he_means[0] < he_means[1] < he_means[2]
    mad_means = [ttc(monte_carlo(mad_scenario(v_dep=m * v_col, v_col=v_col,
                                              T=3, f=0), trials, seed),
                     "bob-both")["mean"] for m in (1, 2, 4)]
    demba_means = [ttc(monte_carlo(demba_scenario(v_dep=m * v_col, T=3,
                                                  horizon=7), trials, seed),
                       "bob-both")["mean"] for m in (1, 2, 4)]
    assert max(mad_means) - min(mad_means) < 0.1
    assert max(demba_means) - min(demba_means) < 0.1
    report("criterion-8 ttc trend", True,
           f"staged-refund means {he_means} strictly increase; "
           f"mad spread {max(mad_means) - min(mad_means)}, "
           f"demba spread {max(demba_means) - min(demba_means)}")


# -- 9. conservation fuzz ----------------------------------------------------


def _fuzz_pools():
    naive = ([AliceHonest(), AliceCensoredFallback()],
             [BobHonest(), BobNaiveBriber()],
             [HonestFeeMax(), CensorRelated(),
              CensorRelated(participate=False)])
    mad = ([AliceHonest()],
           [BobHonest(), BobNaiveBriber(), BobB3a(case=1), BobB3a(case=2),
            BobHydraBriber()],
           [HonestFeeMax(), CensorRelated(), M2MbaPassive(),
            B3aAccomplice(case=1), B3aAccomplice(case=1, defective=True),
            B3aAccomplice(case=2), HydraAccomplice(), SdrbaBriber()])
    he = ([AliceHonest(), AliceCensoredFallback()],
          [BobHonest()],
          [HonestFeeMax(), CensorRelated(participate=False), M2MbaPassive(),
           M2MbaActive("race"), M2MbaActive("accept")])
    demba = ([AliceHonest(), AliceOffline(), AliceGrief(),
              AliceCensoredFallback()],
             [BobHonest(1), BobDelay(1), BobDelay(2)],
             [HonestFeeMax(), CensorRelated(participate=False)])
    return {"naive": naive, "mad": mad, "he": he, "demba": demba}


def _fuzz_scenario(protocol: str, rng: random.Random, miners):
    v_dep = rng.choice((60, 100, 150))
    v_col = rng.choice((30, 50))
    br = rng.choice((0, 1, 2))
    if protocol == "naive":
        return naive_scenario(v_dep=v_dep, T=4, br=br, miners=miners)
    if protocol == "mad":
        return mad_scenario(v_dep=v_dep, v_col=v_col, T=4, br=br,
                            miners=miners, epsilon=rng.choice((0, 5)))
    if protocol == "he":
        return he_scenario(v_dep=v_dep, v_col=v_col, T=4, l=2, br=br,
                           miners=miners)
    return demba_scenario(v_dep=v_dep, v_col_a=v_col, v_col_b=v_col,
                          v_ded=rng.choice((1, 7)), T=4, horizon=8,
                          miners=miners)


def test_criterion_9_conservation_fuzz():
    rng = random.Random(0xA11CE)
    pools = _fuzz_pools()
    parties = (miner_party("f1"), miner_party("f2"))
    total = 0
    for protocol in ("naive", "mad", "he", "demba"):
        alice_pool, bob_pool, miner_pool = pools[protocol]
        kind = "active" if protocol in ("mad", "he") else "passive"
        miners = (MinerProfile(parties[0], Fraction(1, 2), kind, True),
                  MinerProfile(parties[1], Fraction(1, 2), kind, True))
        for _ in range(2500):
            scen = _fuzz_scenario(protocol, rng, miners)
            profile = StrategyProfile(
                rng.choice(alice_pool), rng.choice(bob_pool),
                {p: rng.choice(miner_pool) for p in parties})
            schedule = Schedule(tuple(rng.choice(parties)
                                      for _ in range(scen.horizon)))
            out = play(scen, profile, schedule, check_invariants=True)
            assert out.conserves()
            for cid, entry in out.state.redemptions.items():
                assert not out.state.contracts[cid].redeemable
            total += 1
    report("criterion-9 conservation fuzz", total == 10_000,
           f"{total} random plays, conservation checked per block")
