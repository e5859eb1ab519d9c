"""Byte-identity battery: 153 `arena` jobs whose bytes never drift.

For each of seeds 0, 1 and 7 and each file in `scenarios/`, the battery
runs `simulate`; `expect`; `expect --mode mc --trials 300`; `lemmas`;
`dominance` for alice, bob, m1, m2, m3 and an unknown player; and
`ttc --trials 300` on each of `runner.TTC_PATHS`.  Then, on a Monte-Carlo
copy of each file (its `mode` set to 300 trials, written to `mc/` under
a temporary directory), it runs `lemmas` and `dominance` for alice, bob
and m1, the verdicts that take no `--mode` option.  Jobs that end in an
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
import tempfile
from pathlib import Path

from htlc_arena.runner import TTC_PATHS, main

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "battery.json"
SEEDS = (0, 1, 7)
PLAYERS = ("alice", "bob", "m1", "m2", "m3", "nobody")
MC_PLAYERS = ("alice", "bob", "m1")
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))


def jobs() -> list:
    """Every battery argv: scenario paths under `scenarios/` are relative
    to the repository root, those under `mc/` to `write_mc_copies`'s
    directory."""
    out = []
    for seed in SEEDS:
        for path in SCENARIOS:
            common = ["--scenario", f"scenarios/{path.name}",
                      "--seed", str(seed)]
            out += [["simulate", *common], ["expect", *common],
                    ["expect", *common, "--mode", "mc", "--trials", "300"],
                    ["lemmas", *common]]
            out += [["dominance", *common, "--player", p] for p in PLAYERS]
            out += [["ttc", *common, "--path", p, "--trials", "300"]
                    for p in TTC_PATHS]
    for seed in SEEDS:
        for path in SCENARIOS:
            common = ["--scenario", f"mc/{path.name}", "--seed", str(seed)]
            out += [["lemmas", *common]]
            out += [["dominance", *common, "--player", p] for p in MC_PLAYERS]
    return out


def write_mc_copies(directory: Path) -> None:
    """Write each `scenarios/` file to `directory/mc/` with its mode set
    to 300 Monte-Carlo trials."""
    (directory / "mc").mkdir()
    for path in SCENARIOS:
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["mode"] = {"monte-carlo": 300}
        (directory / "mc" / path.name).write_text(
            json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _workdir(argv: list, copies: Path) -> Path:
    """The directory `argv`'s scenario path is relative to."""
    return copies if argv[2].startswith("mc/") else ROOT


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list) -> dict:
    """One job's manifest entry; the working directory is the root's."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue())}


def test_battery_bytes_match_manifest(monkeypatch, tmp_path):
    write_mc_copies(tmp_path)
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert [e["argv"] for e in expected] == jobs()
    for entry in expected:
        monkeypatch.chdir(_workdir(entry["argv"], tmp_path))
        assert run(entry["argv"]) == entry


if __name__ == "__main__":
    entries = []
    with tempfile.TemporaryDirectory() as tmp:
        write_mc_copies(Path(tmp))
        for argv in jobs():
            os.chdir(_workdir(argv, Path(tmp)))
            entries.append(run(argv))
        os.chdir(ROOT)
    lines = ",\n".join(json.dumps(e) for e in entries)
    MANIFEST.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    codes = [e["exit"] for e in entries]
    print(f"wrote {len(entries)} jobs: "
          + ", ".join(f"{codes.count(c)} exit {c}" for c in sorted(set(codes))))
