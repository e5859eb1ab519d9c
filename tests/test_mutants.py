"""The kept mutant catalogue (`mutants.py`) still fits the code it breaks."""

from __future__ import annotations

from mutants import MUTANTS, ROOT


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
