"""The benchmark's call sites are still bound.

`perfbench/spans.py` records layer spans by replacing engine names on their
owners (module globals and policy methods).  A renamed or deleted name only
shows when a traced benchmark runs; this reads the tracer's tables and checks
every (owner, attribute) it patches is still there, and that the engine
still answers the calls the tracer and the workloads make.  It patches
nothing.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import htlc_arena
from htlc_arena import analysis, game, runner
from htlc_arena.agents import AliceHonest, BobHonest, HonestFeeMax
from htlc_arena.game import StrategyProfile

from conftest import flat_schedule, naive_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_name_is_bound():
    sites = [(owner, attr) for owner, attr, _ in spans.span_targets()]
    sites += [(owner, attr) for owner, attr, _ in spans.COUNT_TARGETS]
    sites.append((game, "enumerate_schedules"))
    missing = [f"{owner.__name__}.{attr}" for owner, attr in sites
               if attr not in vars(owner)]
    assert not missing, missing


def test_one_dominance_check_under_every_traced_name():
    # The tracer wraps the check where `analysis` and `runner` call it;
    # the package exports the same function.
    assert runner.dominance_check is analysis.dominance_check \
        is htlc_arena.dominance_check


def test_every_called_name_answers():
    # Beyond what it patches, the tracer notes each applied state by its
    # `snapshot_key`, and play-fuzz plays with `check_invariants` and
    # checks each play's final state (`check_play`), reading the status of
    # every contract it redeemed.
    assert "state.snapshot_key()" in inspect.getsource(
        spans.Tracer._note_state)
    assert "check_invariants=True" in inspect.getsource(
        workloads.play_fuzz_units)
    assert "state.contracts[cid].redeemable" in inspect.getsource(
        workloads.check_play)
    scen = naive_scenario()
    profile = StrategyProfile(AliceHonest(), BobHonest(),
                              {m.party: HonestFeeMax() for m in scen.miners})
    out = game.play(scen, profile, flat_schedule(scen), check_invariants=True)
    assert isinstance(out.state.snapshot_key(), tuple)
    assert out.state.redemptions and workloads.check_play(out, None, 0)
