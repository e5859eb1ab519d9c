"""Byte-identity battery: 117 `arena` jobs whose bytes never drift.

For each of seeds 0, 1 and 7 and each file in `scenarios/`, the battery
runs `simulate`; `expect`; `expect --mode mc --trials 300`; `lemmas`;
`dominance` for alice, bob, m1, m2, m3 and an unknown player; and
`ttc --trials 300` on each of `runner.TTC_PATHS`.  Jobs that end in an
error line (a path a protocol lacks, a player a scenario lacks) are kept:
their exit code and error bytes are part of the contract too.

`tests/golden/battery.json` holds each job's argv, exit code, and the
sha256 of its stdout and of its stderr.  The test recomputes them in
process, from the repository root, so that relative scenario paths read
the same everywhere.  The readable goldens of `test_golden.py` say what
moved; this manifest says that nothing else did.  Regenerate it only when
a report is meant to change, and name the moved jobs in CHANGES.md:

    PYTHONPATH=src python tests/test_battery.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

from htlc_arena.runner import TTC_PATHS, main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "battery.json"
SEEDS = (0, 1, 7)
PLAYERS = ("alice", "bob", "m1", "m2", "m3", "nobody")


def jobs() -> list:
    """Every battery argv, scenario paths relative to the repository root."""
    out = []
    for seed in SEEDS:
        for path in sorted((ROOT / "scenarios").glob("*.json")):
            common = ["--scenario", f"scenarios/{path.name}",
                      "--seed", str(seed)]
            out += [["simulate", *common], ["expect", *common],
                    ["expect", *common, "--mode", "mc", "--trials", "300"],
                    ["lemmas", *common]]
            out += [["dominance", *common, "--player", p] for p in PLAYERS]
            out += [["ttc", *common, "--path", p, "--trials", "300"]
                    for p in TTC_PATHS]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list) -> dict:
    """One job's manifest entry; the working directory is the root's."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue())}


def test_battery_bytes_match_manifest(monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert [e["argv"] for e in expected] == jobs()
    for entry in expected:
        assert run(entry["argv"]) == entry


if __name__ == "__main__":
    os.chdir(ROOT)
    entries = [run(argv) for argv in jobs()]
    lines = ",\n".join(json.dumps(e) for e in entries)
    MANIFEST.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    codes = [e["exit"] for e in entries]
    print(f"wrote {len(entries)} jobs: "
          + ", ".join(f"{codes.count(c)} exit {c}" for c in sorted(set(codes))))
