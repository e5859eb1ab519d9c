"""Input universes of the four workloads, built from plain parameters.

Every input is reproducible from its parameters alone, so the stored
references can be keyed by them.  The scenario shapes mirror the
acceptance criteria (4 and 5 for the verifiers, 8 for time-to-complete,
9 for the conservation fuzz) but are restated here so that the benchmark
does not depend on the test suite's helpers.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from htlc_arena.agents import (AliceCensoredFallback, AliceGrief, AliceHonest,
                               AliceOffline, B3aAccomplice, BobB3a, BobDelay,
                               BobHonest, BobHydraBriber, BobNaiveBriber,
                               CensorRelated, HonestFeeMax, HydraAccomplice,
                               M2MbaActive, M2MbaPassive, SdrbaBriber)
from htlc_arena.contracts import PRE_A, PRE_A2, PRE_AA2, PRE_B, FeeSchedule
from htlc_arena.core import miner_party
from htlc_arena.game import MinerProfile, Scenario

M1 = miner_party("m1")
SHARES = (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))


def he_scenario(v_dep=100, v_col=50, T=5, t_pub=1, l=2, br=2, f=0, f_dep_a=3,
                f_dep_b=2, f_col_b=2, miners=None, **kw):
    return Scenario(protocol="he", v_dep=v_dep, v_col=v_col, T=T, t_pub=t_pub,
                    l=l, br=br, f=f, f_dep_a=f_dep_a, f_dep_b=f_dep_b,
                    f_col_b=f_col_b,
                    miners=miners or (MinerProfile(M1, Fraction(1)),), **kw)


def naive_scenario(v_dep=100, T=5, br=2, miners=None):
    return Scenario(protocol="naive", v_dep=v_dep, T=T, t_pub=1, br=br, f=1,
                    f_dep_a=3, f_dep_b=1, f_cbob_b=1, miners=miners)


def mad_scenario(v_dep=100, v_col=50, T=5, br=2, miners=None, epsilon=0):
    return Scenario(protocol="mad", v_dep=v_dep, v_col=v_col, T=T, t_pub=1,
                    br=br, f=0, f_dep_a=3, f_dep_b=1, f_col_b=2, f_cbob_b=1,
                    miners=miners, epsilon=epsilon)


def demba_schedule(T, pre_a=8, pre_a2=12, pre_aa2=20, pre_b=8, alpha=None):
    return FeeSchedule({PRE_A: pre_a, PRE_A2: pre_a2, PRE_AA2: pre_aa2,
                        PRE_B: pre_b}, alpha or Fraction(1, 2), T)


def demba_scenario(v_dep=100, v_col_a=50, v_col_b=40, v_ded=7, T=4,
                   horizon=8, schedule=None, miners=None):
    return Scenario(protocol="demba", v_dep=v_dep, v_col_a=v_col_a,
                    v_col_b=v_col_b, v_ded=v_ded, T=T, t_pub=1, f=0,
                    horizon=horizon, fee_schedule=schedule or demba_schedule(T),
                    miners=miners or (MinerProfile(M1, Fraction(1)),))


# ---------------------------------------------------------------------------
# exact-verify: the criterion-4 lemma grids and the criterion-5 theorem.
# ---------------------------------------------------------------------------


def _coalition(share, delta, br, fee, v_dep, v_col, l=1, eps=0):
    lam_col = Fraction(3, 5)
    gi, go, gp = miner_party("gi"), miner_party("go"), miner_party("gp")
    miners = (MinerProfile(gi, share * lam_col, "active", True),
              MinerProfile(go, (1 - share) * lam_col, "active", True),
              MinerProfile(gp, 1 - lam_col, "passive"))
    return he_scenario(v_dep=v_dep, v_col=v_col, T=1 + delta, t_pub=1, l=l,
                       br=br, f=0, f_dep_a=fee, f_dep_b=fee, f_col_b=1,
                       epsilon=eps, miners=miners), gi


def _passive(lam_p, delta, v_col, fee):
    fp, fr = miner_party("fp"), miner_party("fr")
    return he_scenario(v_dep=60, v_col=v_col, T=1 + delta, t_pub=1, l=1, br=0,
                       f=0, f_dep_a=fee, f_dep_b=fee, f_col_b=1,
                       miners=(MinerProfile(fp, lam_p, "passive"),
                               MinerProfile(fr, 1 - lam_p, "active", True))), fp


def _theorem(f_dep_a=2, f_dep_b=2, br=30):
    miners = (MinerProfile(miner_party("t1"), Fraction(1, 2), "active", True),
              MinerProfile(miner_party("t2"), Fraction(3, 10), "active", True),
              MinerProfile(miner_party("t3"), Fraction(1, 5), "passive"))
    return he_scenario(v_dep=300, v_col=200, T=3, t_pub=1, l=1, f=0,
                       f_dep_a=f_dep_a, f_dep_b=f_dep_b, f_col_b=2, br=br,
                       miners=miners)


THEOREMS = {"base": {}, "fee-flip": {"f_dep_a": 250}, "br-flip": {"br": 0}}


def lemma_points() -> dict:
    """Lemma number -> list of parameter dicts, exactly the criterion-4 grids."""
    pts = {n: [] for n in range(1, 9)}
    for share, delta, br, fee in itertools.product(SHARES, (2, 3),
                                                   (0, 1, 2, 4, 8), (1, 3, 6)):
        for n in (1, 2):
            pts[n].append(dict(share=share, delta=delta, br=br, fee=fee,
                               v_dep=60, v_col=40))
    for delta, br in itertools.product((2, 3), (6, 10)):
        pts[2].append(dict(share=Fraction(1, 4), delta=delta, br=br, fee=6,
                           v_dep=90, v_col=80))
    for lam_p, delta, v_col, fee in itertools.product(
            (Fraction(1, 5), Fraction(3, 10), Fraction(2, 5), Fraction(3, 5)),
            (2, 3), (10, 40, 90, 150), (1, 4, 8, 16)):
        pts[3].append(dict(lam_p=lam_p, delta=delta, v_col=v_col, fee=fee))
    for share, v_col, fee in itertools.product(SHARES, (10, 25, 40, 80),
                                               (1, 6, 12, 25, 44)):
        pts[4].append(dict(share=share, delta=2, br=1, fee=fee, v_dep=60,
                           v_col=v_col, l=3))
    for v_dep, v_cols, fees in ((100, (20, 80), (2, 9)), (40, (15, 60), (3, 30))):
        for share, v_col, fee in itertools.product(SHARES, v_cols, fees):
            pts[4].append(dict(share=share, delta=2, br=1, fee=fee,
                               v_dep=v_dep, v_col=v_col, l=3))
    for ratio, delta, fee, eps in itertools.product((2, 3, 4, 6), (2, 4),
                                                    (4, 8, 12, 16), (0, 1, 2, 3)):
        pts[5].append(dict(share=Fraction(1, ratio), delta=delta, br=0, fee=fee,
                           v_dep=60, v_col=200, eps=eps))
    for v_ded, paid_a, v_col_a, T in itertools.product(
            (0, 1, 3, 7, 11), (6, 8, 10, 12, 14), (50, 80), (3, 4)):
        for n in (6, 7):
            pts[n].append(dict(v_ded=v_ded, v_col_a=v_col_a, T=T, pre_a=paid_a,
                               pre_a2=paid_a + 4, pre_aa2=2 * paid_a + 6,
                               pre_b=paid_a))
    for alpha, paid_a, paid_b, T in itertools.product(
            (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
             Fraction(3, 4), Fraction(1)), (8, 10, 12, 16, 20), (6, 8), (3, 4)):
        pts[8].append(dict(T=T, pre_a=paid_a, pre_a2=paid_a + 1,
                           pre_aa2=paid_a + 2, pre_b=paid_b, alpha=alpha))
    return pts


def point_key(kind, params: dict) -> str:
    return f"{kind}:" + json.dumps({k: str(v) for k, v in params.items()},
                                   sort_keys=True, separators=(",", ":"))


def build_point(kind, params: dict):
    """(verifier name, positional args) for one lemma or theorem point."""
    p = dict(params)
    if kind == "theorem":
        return "verify_theorem_m2mba", (_theorem(**THEOREMS[p["variant"]]),)
    n = kind
    if n in (1, 2, 4, 5):
        scen, focal = _coalition(**p)
        return "verify_m2mba_lemma", (n, scen, focal)
    if n == 3:
        scen, focal = _passive(**p)
        return "verify_m2mba_lemma", (n, scen, focal)
    T = p.pop("T")
    sched = demba_schedule(T, **{k: p.pop(k) for k in
                                 ("pre_a", "pre_a2", "pre_aa2", "pre_b", "alpha")
                                 if k in p})
    return "verify_demba_lemma", (n, demba_scenario(T=T, horizon=T + 4,
                                                    schedule=sched, **p))


# ---------------------------------------------------------------------------
# Scenario files for the Monte-Carlo workloads.
# ---------------------------------------------------------------------------


def _doc(protocol, amounts, fees, timing, miners, policies=None, br=None):
    doc = {"protocol": protocol, "amounts": amounts, "fees": fees,
           "timing": timing, "miners": miners, "mode": "exact", "seed": 0}
    if policies:
        doc["policies"] = policies
    if br is not None:
        doc["bribes"] = {"br": br}
    return doc


def mc_repeat_docs() -> dict:
    """Single-miner scenario files: every trial replays one schedule.

    The nine criterion-8 `bob-both` scenarios plus the two single-miner
    sample scenarios of the repository.
    """
    solo = [{"id": "m1", "power": 1}]
    solo_active = [{"id": "m1", "power": 1, "kind": "active",
                    "colluding": True}]
    demba_fees = {"f": 0, "schedule": {
        "paid": {"pre_A": 8, "pre_A'": 12, "pre_AA'": 20, "pre_B": 8},
        "alpha": "1/2"}}
    docs = {}
    for mult in (1, 2, 4):
        docs[f"ttc-he-x{mult}"] = _doc(
            "he", {"v_dep": 10 * mult, "v_col": 10},
            {"f": 0, "f_dep_a": 3, "f_dep_b": 2, "f_col_b": 2},
            {"T": 3, "t_pub": 1}, solo, br=2)
        docs[f"ttc-mad-x{mult}"] = _doc(
            "mad", {"v_dep": 10 * mult, "v_col": 10},
            {"f": 0, "f_dep_a": 3, "f_dep_b": 1, "f_col_b": 2, "f_cbob_b": 1},
            {"T": 3, "t_pub": 1}, solo_active, br=2)
        docs[f"ttc-demba-x{mult}"] = _doc(
            "demba", {"v_dep": 10 * mult, "v_col_a": 50, "v_col_b": 40,
                      "v_ded": 7},
            demba_fees, {"T": 3, "t_pub": 1, "horizon": 7}, solo)
    docs["sample-demba-honest"] = _doc(
        "demba", {"v_dep": 100, "v_col_a": 50, "v_col_b": 40, "v_ded": 7},
        demba_fees, {"T": 4, "t_pub": 1, "horizon": 8}, solo,
        {"alice": {"name": "honest"},
         "bob": {"name": "honest", "reveal_round": 1}})
    docs["sample-naive-bribery"] = _doc(
        "naive", {"v_dep": 100},
        {"f": 1, "f_dep_a": 3, "f_dep_b": 1, "f_cbob_b": 1},
        {"T": 5, "t_pub": 1}, solo,
        {"alice": {"name": "honest"}, "bob": {"name": "naive-briber"},
         "miners": {"default": {"name": "censor-related"}}}, br=2)
    return docs


def repeat_ttc_path(name: str) -> str:
    """The ttc path a mc-repeat job measures on scenario `name`.

    The naive sample pays the payer's refund fee f_dep_b = f, which no
    fee-maximising miner includes, so only the payee's path completes.
    """
    return "alice-redeems" if name == "sample-naive-bribery" else "bob-both"


def mc_distinct_doc() -> dict:
    """Four equal miners over ten rounds: about a million distinct schedules."""
    miners = [{"id": "m1", "power": "1/4", "kind": "active", "colluding": True},
              {"id": "m2", "power": "1/4", "kind": "active", "colluding": True},
              {"id": "m3", "power": "1/4", "kind": "passive"},
              {"id": "m4", "power": "1/4", "kind": "passive"}]
    return _doc("he", {"v_dep": 300, "v_col": 200},
                {"f": 0, "f_dep_a": 2, "f_dep_b": 2, "f_col_b": 2},
                {"T": 3, "t_pub": 1, "l": 1, "horizon": 10}, miners,
                {"alice": {"name": "honest"}, "bob": {"name": "honest"},
                 "miners": {"m1": {"name": "m2mba-active"},
                            "m2": {"name": "m2mba-active"},
                            "default": {"name": "m2mba-passive"}}}, br=30)


def doc_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# ---------------------------------------------------------------------------
# play-fuzz: criterion-9 style one-off plays.
# ---------------------------------------------------------------------------

PROTOCOLS = ("naive", "mad", "he", "demba")


def fuzz_pools() -> dict:
    """The criterion-9 policy pools: (alice, bob, miner) per protocol."""
    return {
        "naive": ([AliceHonest(), AliceCensoredFallback()],
                  [BobHonest(), BobNaiveBriber()],
                  [HonestFeeMax(), CensorRelated(),
                   CensorRelated(participate=False)]),
        "mad": ([AliceHonest()],
                [BobHonest(), BobNaiveBriber(), BobB3a(case=1), BobB3a(case=2),
                 BobHydraBriber()],
                [HonestFeeMax(), CensorRelated(), M2MbaPassive(),
                 B3aAccomplice(case=1), B3aAccomplice(case=1, defective=True),
                 B3aAccomplice(case=2), HydraAccomplice(), SdrbaBriber()]),
        "he": ([AliceHonest(), AliceCensoredFallback()],
               [BobHonest()],
               [HonestFeeMax(), CensorRelated(participate=False),
                M2MbaPassive(), M2MbaActive("race"), M2MbaActive("accept")]),
        "demba": ([AliceHonest(), AliceOffline(), AliceGrief(),
                   AliceCensoredFallback()],
                  [BobHonest(1), BobDelay(1), BobDelay(2)],
                  [HonestFeeMax(), CensorRelated(participate=False)]),
    }


FUZZ_MINERS = (miner_party("f1"), miner_party("f2"))
#: Longest fuzz horizon (he and demba); shorter games ignore the tail.
FUZZ_ROUNDS = 8


def fuzz_params(rng, pool_sizes: dict) -> tuple:
    """One play as plain data: protocol, amounts, policy indices, schedule."""
    protocol = rng.choice(PROTOCOLS)
    n_alice, n_bob, n_miner = pool_sizes[protocol]
    extra = {"mad": (0, 5), "demba": (1, 7)}.get(protocol, (0,))
    amounts = (rng.choice((60, 100, 150)), rng.choice((30, 50)),
               rng.choice((0, 1, 2)), rng.choice(extra))
    policies = (rng.randrange(n_alice), rng.randrange(n_bob),
                rng.randrange(n_miner), rng.randrange(n_miner))
    schedule = tuple(rng.randrange(2) for _ in range(FUZZ_ROUNDS))
    return protocol, amounts, policies, schedule


def fuzz_scenario(protocol, amounts) -> Scenario:
    v_dep, v_col, br, extra = amounts
    kind = "active" if protocol in ("mad", "he") else "passive"
    miners = tuple(MinerProfile(p, Fraction(1, 2), kind, True)
                   for p in FUZZ_MINERS)
    if protocol == "naive":
        return naive_scenario(v_dep=v_dep, T=4, br=br, miners=miners)
    if protocol == "mad":
        return mad_scenario(v_dep=v_dep, v_col=v_col, T=4, br=br,
                            miners=miners, epsilon=extra)
    if protocol == "he":
        return he_scenario(v_dep=v_dep, v_col=v_col, T=4, l=2, br=br,
                           miners=miners)
    return demba_scenario(v_dep=v_dep, v_col_a=v_col, v_col_b=v_col,
                          v_ded=extra, T=4, horizon=8, miners=miners)
