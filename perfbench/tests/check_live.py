"""Live self-test of the benchmark at minimal size.

    python3 -m pytest -q perfbench/tests/check_live.py

The file name keeps it out of the repository's own test collection; it
runs every workload in process and checks the benchmark itself: every
declared metric is reported, the outputs pass their checks, a perturbed
reference fails every unit, and a traced run leaves no wrapper behind.
"""

from __future__ import annotations

import json
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_engine()

import spans  # noqa: E402
import workloads  # noqa: E402
from htlc_arena import game  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
MINIMAL = ["--seed", "0", "--seconds", "0.2"]


def bench(capsys, workload: str, trace: int) -> dict:
    assert run.main(["--workload", workload, "--trace", str(trace)]
                    + MINIMAL) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_present_and_outputs_correct(capsys, workload):
    result = bench(capsys, workload, 0)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["end_to_end"]}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    for m in DECLARED["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def wrapped_sites() -> dict:
    sites = [(owner, attr) for owner, attr, _ in spans.span_targets()]
    sites += [(owner, attr) for owner, attr, _ in spans.COUNT_TARGETS]
    sites.append((game, "enumerate_schedules"))
    return {(owner, attr): vars(owner)[attr] for owner, attr in sites}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_layers_and_restores_wrappers(capsys, workload):
    before = wrapped_sites()
    result = bench(capsys, workload, 1)
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in before.items())
    assert set(result["metrics"]) == {m["name"] for m in DECLARED["per_layer"]}
    for m in DECLARED["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["failed"] == 0 and result["correct"]
    assert result["metrics"]["game.play.calls"]["value"] > 0


def perturb(workload: str, refs):
    """Every reference value changed, so every unit must fail its check."""
    if workload == "play-fuzz":
        return array(refs.typecode, (d ^ 1 for d in refs))
    if workload == "exact-verify":
        return {key: text + " " for key, text in refs.items()}
    return {name: {kind: {k: str(Fraction(v) + 1) for k, v in values.items()}
                   for kind, values in entry.items()}
            for name, entry in refs.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_reference_fails_every_unit(capsys, monkeypatch, workload):
    load = workloads.load_refs
    monkeypatch.setattr(workloads, "load_refs",
                        lambda name, seed: perturb(name, load(name, seed)))
    result = bench(capsys, workload, 0)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
