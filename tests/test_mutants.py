"""The kept mutant catalogue (`mutants.py`) still fits the code it breaks."""

from __future__ import annotations

import subprocess

import mutants
from mutants import MUTANTS, ROOT, outcome


def test_every_snippet_matches_exactly_once():
    stale = [m.id for m in MUTANTS
             if (ROOT / m.file).read_text(encoding="utf-8").count(m.old) != 1]
    assert not stale, stale


def test_every_mutant_names_its_killers():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        # A mutant is killed by the tests it names or argued equivalent.
        assert bool(m.killers) != bool(m.equivalent) and m.old != m.new, m.id
        for test in m.killers:
            path, *_, name = test.split("::")
            source = (ROOT / path).read_text(encoding="utf-8")
            assert f"def {name.split('[')[0]}(" in source, (m.id, test)


def test_only_a_failing_run_kills():
    # pytest exits 1 when a test failed.  It exits 4 for a node id it
    # cannot find and 5 when it collects no test: neither tested the
    # mutant, so neither is a kill.
    assert [outcome(code) for code in (1, 0, 4, 5, 2, 3)] == [
        "killed", "survived", "error", "error", "error", "error"]


def test_a_run_that_tested_nothing_fails_the_catalogue(monkeypatch, capsys):
    mutant = next(m for m in MUTANTS if m.killers)
    seen = {"killed": 0, "error": 1, "survived": 1}
    # Every reading of the clock is 2.5 s after the one before it.
    clock = iter(range(100))
    monkeypatch.setattr(mutants, "perf_counter", lambda: 2.5 * next(clock))
    for kind, code in seen.items():
        monkeypatch.setattr(mutants, "outcomes",
                            lambda m, kind=kind: {t: kind for t in m.killers})
        assert mutants.main([mutant.id]) == code, kind
    lines = capsys.readouterr().out.splitlines()
    assert lines[2] == (f"{mutant.id}: 0/{len(mutant.killers)} killers "
                        f"failed; error: {' '.join(mutant.killers)} (2.5 s)")
    assert lines[3] == "total: 7.5 s"


def test_every_killer_runs_at_one_hypothesis_seed(monkeypatch):
    # The mutated copy holds no Hypothesis example database, so only a
    # fixed seed makes a killer draw the same examples in every run.
    mutant = next(m for m in MUTANTS if len(m.killers) > 1)
    commands = []

    def run(command, **kwargs):
        commands.append(command)
        return subprocess.CompletedProcess(command, 1)

    monkeypatch.setattr(mutants.subprocess, "run", run)
    assert set(mutants.outcomes(mutant).values()) == {"killed"}
    assert [command[-2:] for command in commands] == [
        ["--hypothesis-seed=0", test] for test in mutant.killers]
