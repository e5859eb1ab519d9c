"""The benchmark tracer's call sites are still bound.

`perfbench/spans.py` records layer spans by replacing engine names on their
owners (module globals and policy methods).  A renamed or deleted name only
shows when a traced benchmark runs; this reads the tracer's tables and checks
every (owner, attribute) it patches is still there.  It patches nothing.
"""

from __future__ import annotations

import sys
from pathlib import Path

from htlc_arena import game

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402


def test_every_traced_name_is_bound():
    sites = [(owner, attr) for owner, attr, _ in spans.span_targets()]
    sites += [(owner, attr) for owner, attr, _ in spans.COUNT_TARGETS]
    sites.append((game, "enumerate_schedules"))
    missing = [f"{owner.__name__}.{attr}" for owner, attr in sites
               if attr not in vars(owner)]
    assert not missing, missing
