"""The four workloads: seeded inputs, the timed call, and its check.

Each workload turns (seed, seconds) into a list of units.  A unit's `call`
is the one program call that is timed; `check` compares its output with
the references stored under `refs/`.  Run sizes are fixed unit counts,
scaled from `seconds` by the rates measured at the commit that defined
the benchmark, so that two commits always time the same units.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import random
from array import array
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from htlc_arena import analysis, game, runner
from htlc_arena.core import Party
from htlc_arena.game import Schedule, StrategyProfile

import inputs

REFS = Path(__file__).resolve().parent / "refs"

#: Units per second of each workload when the benchmark was defined.
#: exact-verify draws points per lemma and adds the three theorem verdicts;
#: the two-phase lemmas (6-8) cost about a millisecond, so fewer of them
#: are drawn and the median verdict sits among the pact lemmas (1-5).
PACT_POINTS_PER_S = 2.0
TWO_PHASE_POINTS_PER_S = 0.4
#: The three theorem verdicts alone take about 11 s; shorter runs skip them.
THEOREM_MIN_SECONDS = 3
MC_REPEAT_JOBS_PER_S = 56
MC_DISTINCT_JOBS_PER_S = 54
FUZZ_PLAYS_PER_S = 2200

#: Trials per Monte-Carlo job.
MC_TRIALS = 50


@dataclass
class Unit:
    key: str
    call: Callable
    #: Checks one output against the references; the second argument is
    #: the refs object returned by `load_refs`.
    check: Callable


def canon(obj):
    """JSON-ready canonical form: exact fractions as 'p/q', parties by id."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, Party):
        return obj.id
    if dataclasses.is_dataclass(obj):
        return {f.name: canon(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(canon(k)): canon(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canon(x) for x in obj]
    return obj


def canon_text(obj) -> str:
    return json.dumps(canon(obj), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# exact-verify
# ---------------------------------------------------------------------------


def exact_verify_points(seed: int, seconds: float) -> list:
    """(kind, params) of the sampled lemma points plus the three theorems."""
    rng = random.Random(seed)
    points = []
    for n, pts in inputs.lemma_points().items():
        rate = PACT_POINTS_PER_S if n <= 5 else TWO_PHASE_POINTS_PER_S
        per_lemma = max(1, round(seconds * rate))
        # Equal draws from each horizon (delta) stratum: the horizon sets
        # the enumeration width, so every run mixes narrow and wide
        # enumerations in the same proportions.
        strata: dict = {}
        for p in pts:
            strata.setdefault(p.get("delta"), []).append(p)
        for group in strata.values():
            points += [(n, p) for p in
                       rng.sample(group, max(1, per_lemma // len(strata)))]
    if seconds >= THEOREM_MIN_SECONDS:
        points += [("theorem", {"variant": v}) for v in inputs.THEOREMS]
    rng.shuffle(points)
    return points


def exact_verify_units(seed: int, seconds: float, workdir: Path) -> list:
    units = []
    for kind, params in exact_verify_points(seed, seconds):
        fn_name, args = inputs.build_point(kind, params)
        key = inputs.point_key(kind, params)
        units.append(Unit(
            key,
            lambda fn_name=fn_name, args=args: getattr(analysis, fn_name)(*args),
            lambda out, refs, key=key: canon_text(out) == refs[key]))
    return units


# ---------------------------------------------------------------------------
# mc-repeat and mc-distinct: in-process `arena` jobs.
# ---------------------------------------------------------------------------


def run_cli(argv: list) -> tuple:
    """One `arena` invocation in process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = runner.main(argv)
    return code, buf.getvalue()


def _write_docs(docs: dict, workdir: Path) -> dict:
    paths = {}
    for name, doc in docs.items():
        path = workdir / f"{name}.json"
        path.write_text(inputs.doc_text(doc), encoding="utf-8")
        paths[name] = path
    return paths


def _mc_unit(name: str, path: Path, sub: str, arg: str, mc_seed: int) -> Unit:
    if sub == "ttc":
        argv = ["ttc", "--scenario", str(path), "--path", arg]
    else:
        argv = ["expect", "--scenario", str(path), "--mode", "mc"]
    argv += ["--trials", str(MC_TRIALS), "--seed", str(mc_seed)]
    return Unit(f"{name}:{sub}:{arg}", lambda: run_cli(argv),
                lambda out, refs: check_mc(out, refs[name], sub, arg))


def check_mc(out: tuple, exact: dict, sub: str, arg: str) -> bool:
    """Exit code 0 and every estimate within twice its 95% half-width.

    `exact` holds the brute-force values for the scenario: the mean
    completion round per ttc path, and each party's expected utility.
    """
    code, text = out
    if code != 0:
        return False
    records = runner.Report.parse(text).records
    if sub == "ttc":
        want = {"-": exact["ttc"][arg]}
        got = [r for r in records if r[0] == "ttc-mean-rounds"]
    else:
        want = exact["expect"]
        got = [r for r in records if r[0] == "utility"]
    if sorted(r[1] for r in got) != sorted(want):
        return False
    for _, party, value, lo, hi in got:
        value, lo, hi = float(value), float(lo), float(hi)
        tolerance = (hi - lo) + 1e-9 * max(1.0, abs(value))
        if abs(float(Fraction(want[party])) - value) > tolerance:
            return False
    return True


def mc_repeat_units(seed: int, seconds: float, workdir: Path) -> list:
    rng = random.Random(seed)
    paths = _write_docs(inputs.mc_repeat_docs(), workdir)
    names = sorted(paths)
    units = []
    for _ in range(max(1, round(seconds * MC_REPEAT_JOBS_PER_S))):
        name = rng.choice(names)
        sub = rng.choice(("ttc", "expect"))
        arg = inputs.repeat_ttc_path(name) if sub == "ttc" else "mc"
        units.append(_mc_unit(name, paths[name], sub, arg,
                              rng.randrange(2**31)))
    return units


def mc_distinct_units(seed: int, seconds: float, workdir: Path) -> list:
    rng = random.Random(seed)
    paths = _write_docs({"distinct-he4": inputs.mc_distinct_doc()}, workdir)
    units = []
    for _ in range(max(1, round(seconds * MC_DISTINCT_JOBS_PER_S))):
        units.append(_mc_unit("distinct-he4", paths["distinct-he4"], "ttc",
                              rng.choice(runner.TTC_PATHS),
                              rng.randrange(2**31)))
    return units


# ---------------------------------------------------------------------------
# play-fuzz
# ---------------------------------------------------------------------------


def outcome_digest(out) -> int:
    """32-bit digest of every exact field of a play outcome."""
    text = canon_text({"deltas": out.deltas, "burned": out.burned,
                       "minted": out.minted, "trace": out.trace,
                       "terminal": out.terminal,
                       "bribe_income": out.bribe_income,
                       "escrow_delta": out.escrow_delta})
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=4).digest(),
                          "little")


def check_play(out, refs, index: int) -> bool:
    if not out.conserves():
        return False
    state = out.state
    if any(state.contracts[cid].redeemable for cid in state.redemptions):
        return False
    return refs is None or index >= len(refs) or outcome_digest(out) == refs[index]


def play_fuzz_units(seed: int, seconds: float, workdir: Path) -> list:
    rng = random.Random(seed)
    pools = inputs.fuzz_pools()
    sizes = {p: tuple(len(pool) for pool in pp) for p, pp in pools.items()}
    units = []
    for i in range(max(1, round(seconds * FUZZ_PLAYS_PER_S))):
        protocol, amounts, policies, picks = inputs.fuzz_params(rng, sizes)
        alice_pool, bob_pool, miner_pool = pools[protocol]
        a, b, m1, m2 = policies

        def call(protocol=protocol, amounts=amounts, picks=picks,
                 alice=alice_pool[a], bob=bob_pool[b],
                 miners=(miner_pool[m1], miner_pool[m2])):
            scen = inputs.fuzz_scenario(protocol, amounts)
            profile = StrategyProfile(alice, bob, dict(zip(inputs.FUZZ_MINERS,
                                                           miners)))
            schedule = Schedule(tuple(inputs.FUZZ_MINERS[k] for k in picks))
            return game.play(scen, profile, schedule, check_invariants=True)

        units.append(Unit(str(i), call,
                          lambda out, refs, i=i: check_play(out, refs, i)))
    return units


# ---------------------------------------------------------------------------
# Registry and references.
# ---------------------------------------------------------------------------

WORKLOADS = {
    "exact-verify": exact_verify_units,
    "mc-repeat": mc_repeat_units,
    "mc-distinct": mc_distinct_units,
    "play-fuzz": play_fuzz_units,
}
MC_WORKLOADS = ("mc-repeat", "mc-distinct")
#: Seeds whose play-fuzz outcomes are stored: the default and a held-out one.
FUZZ_REF_SEEDS = (0, 1)


def fuzz_ref_path(seed: int) -> Path:
    return REFS / f"play-fuzz-seed{seed}.u32"


def load_refs(workload: str, seed: int):
    """The stored reference object that a workload's checks read."""
    if workload == "exact-verify":
        return json.loads((REFS / "exact-verify.json").read_text())
    if workload in MC_WORKLOADS:
        return json.loads((REFS / "mc-exact.json").read_text())
    path = fuzz_ref_path(seed)
    if not path.exists():
        return None
    digests = array("I")
    digests.frombytes(path.read_bytes())
    return digests


def save_fuzz_refs(seed: int, digests: list) -> None:
    fuzz_ref_path(seed).write_bytes(array("I", digests).tobytes())
