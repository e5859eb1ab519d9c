"""Regenerate the stored references under refs/ from the brute-force oracle.

    python3 perfbench/make_refs.py [exact-verify|mc-repeat|mc-distinct|play-fuzz ...]

The oracle is schedule enumeration plus `play`: every exact expectation
the verifiers ask for is recomputed here as the weighted sum of plays
over `enumerate_schedules`, independent of the engine's own expectation
code.  Run it only on a commit whose outputs are trusted; a change that
claims identical results must pass against the stored files unchanged.
The mc-distinct values enumerate 4^10 schedules per path and take
several minutes each.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from htlc_arena import analysis, game, runner  # noqa: E402
from htlc_arena.core import EXTERNAL  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from workloads import REFS, canon_text  # noqa: E402


def oracle_expectation(scen, profile, pin=None, mode=None):
    """Exact expected utilities as the weighted sum over every schedule."""
    utilities: dict = {}
    bribes: dict = {}
    burned = Fraction(0)
    for schedule in game.enumerate_schedules(scen, pin):
        out = game.play(scen, profile, schedule)
        w = schedule.weight
        for party, d in out.deltas.items():
            utilities[party] = utilities.get(party, Fraction(0)) + w * d
        for party, b in out.bribe_income.items():
            bribes[party] = bribes.get(party, Fraction(0)) + w * b
        burned += w * out.burned
    return game.ExpectedUtilities(utilities, bribes, burned, "exact")


def exact_verify_refs() -> None:
    saved = game.expected_utilities, analysis.expected_utilities
    game.expected_utilities = analysis.expected_utilities = oracle_expectation
    try:
        points = [(n, p) for n, pts in inputs.lemma_points().items() for p in pts]
        points += [("theorem", {"variant": v}) for v in inputs.THEOREMS]
        refs = {}
        for kind, params in points:
            fn_name, args = inputs.build_point(kind, params)
            t0 = time.perf_counter()
            out = getattr(analysis, fn_name)(*args)
            ms = (time.perf_counter() - t0) * 1e3
            key = inputs.point_key(kind, params)
            refs[key] = canon_text(out)
            print(f"{ms:9.1f} ms  {key}", file=sys.stderr)
    finally:
        game.expected_utilities, analysis.expected_utilities = saved
    (REFS / "exact-verify.json").write_text(
        json.dumps(refs, indent=0, sort_keys=True) + "\n")


def _frac(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def oracle_ttc(scen, path: str) -> Fraction:
    profile = runner._ttc_profile(scen, path)
    total = Fraction(0)
    for schedule in game.enumerate_schedules(scen):
        out = game.play(scen, profile, schedule)
        total += schedule.weight * runner._completion_round(out, scen, path)
    return total


def mc_refs(names) -> None:
    docs = dict(inputs.mc_repeat_docs(), **{"distinct-he4":
                                            inputs.mc_distinct_doc()})
    target = REFS / "mc-exact.json"
    refs = json.loads(target.read_text()) if target.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            path = Path(tmp) / f"{name}.json"
            path.write_text(inputs.doc_text(docs[name]))
            scen, profile = runner.load_scenario(path)
            t0 = time.perf_counter()
            if name == "distinct-he4":
                entry = {"ttc": {p: _frac(oracle_ttc(scen, p))
                                 for p in runner.TTC_PATHS}}
            else:
                eu = oracle_expectation(scen, profile)
                ttc_path = inputs.repeat_ttc_path(name)
                entry = {"ttc": {ttc_path: _frac(oracle_ttc(scen, ttc_path))},
                         "expect": {p.id: _frac(v) for p, v in eu.utilities.items()
                                    if p != EXTERNAL}}
            refs[name] = entry
            print(f"{time.perf_counter() - t0:8.1f} s  {name} {entry}",
                  file=sys.stderr)
            target.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def play_fuzz_refs(seconds: float = 10) -> None:
    for seed in workloads.FUZZ_REF_SEEDS:
        digests = [workloads.outcome_digest(unit.call())
                   for unit in workloads.play_fuzz_units(seed, seconds, None)]
        workloads.save_fuzz_refs(seed, digests)
        print(f"play-fuzz seed {seed}: {len(digests)} digests", file=sys.stderr)


if __name__ == "__main__":
    REFS.mkdir(exist_ok=True)
    wanted = sys.argv[1:] or ["exact-verify", "mc-repeat", "mc-distinct",
                              "play-fuzz"]
    if "exact-verify" in wanted:
        exact_verify_refs()
    if "mc-repeat" in wanted:
        mc_refs(sorted(inputs.mc_repeat_docs()))
    if "mc-distinct" in wanted:
        mc_refs(["distinct-he4"])
    if "play-fuzz" in wanted:
        play_fuzz_refs()
