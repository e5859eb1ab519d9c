"""Every stored exact-verify verdict of the benchmark, recomputed.

`perfbench/refs/exact-verify.json` holds the canonical verdict that the
brute-force oracle (`enumerate_schedules` + `play`) gave for each
criterion-4 lemma point and each criterion-5 theorem variant.  This test
rebuilds all of them through `perfbench/inputs.py` and asks the engine's
verifiers for the same verdicts, so that any change to the exact path is
held to the whole reference set, not only to the benchmark's sample.  It
reads those files and writes nothing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from htlc_arena import analysis

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import inputs  # noqa: E402
from workloads import canon_text  # noqa: E402


def test_every_exact_verify_reference_matches():
    refs = json.loads((PERFBENCH / "refs" / "exact-verify.json").read_text())
    points = [(n, p) for n, pts in inputs.lemma_points().items() for p in pts]
    points += [("theorem", {"variant": v}) for v in inputs.THEOREMS]
    keys = [inputs.point_key(kind, params) for kind, params in points]
    assert sorted(keys) == sorted(refs)
    mismatched = []
    for (kind, params), key in zip(points, keys):
        fn_name, args = inputs.build_point(kind, params)
        if canon_text(getattr(analysis, fn_name)(*args)) != refs[key]:
            mismatched.append(key)
    assert not mismatched, f"{len(mismatched)} of {len(keys)}: {mismatched[:5]}"
