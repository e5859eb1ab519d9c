"""Byte-identity guard: CLI reports for the sample scenarios never drift.

Each run below writes its report to `tests/golden/<name>.txt`.  The test
compares the bytes a run prints today with the stored file.  Regenerate the
files only when a report is meant to change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from htlc_arena.runner import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
SAMPLES = ("naive_bribery", "he_m2mba", "demba_honest")
TTC_PATHS = {"naive_bribery": ("alice-redeems",),
             "he_m2mba": ("alice-redeems", "bob-collateral", "bob-both"),
             "demba_honest": ("alice-redeems", "bob-collateral", "bob-both")}


def _runs() -> dict:
    runs = {"pool": ["pool"]}
    for name in SAMPLES:
        scen = ["--scenario", str(SCENARIOS / f"{name}.json")]
        runs[f"{name}.simulate"] = ["simulate", *scen, "--seed", "3"]
        runs[f"{name}.expect"] = ["expect", *scen]
        runs[f"{name}.expect-mc"] = ["expect", *scen, "--mode", "mc",
                                     "--trials", "200"]
        for path in TTC_PATHS[name]:
            runs[f"{name}.ttc-{path}"] = ["ttc", *scen, "--path", path,
                                          "--trials", "200"]
    for name in ("demba_honest", "he_m2mba"):
        runs[f"{name}.lemmas"] = [
            "lemmas", "--scenario", str(SCENARIOS / f"{name}.json")]
    for name, player in (("naive_bribery", "bob"), ("he_m2mba", "m1"),
                         ("demba_honest", "alice")):
        runs[f"{name}.dominance-{player}"] = [
            "dominance", "--scenario", str(SCENARIOS / f"{name}.json"),
            "--player", player]
    return runs


RUNS = _runs()


def render(argv: list) -> bytes:
    """The exit code must be 0; returns the report exactly as printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_bytes_match_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert render(RUNS[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(RUNS.items()):
        (GOLDEN / f"{name}.txt").write_bytes(render(argv))
        print(f"wrote {name}")
