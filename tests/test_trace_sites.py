"""The benchmark's call sites are still bound.

`perfbench/spans.py` records layer spans by replacing engine names on their
owners (module globals and policy methods).  A renamed or deleted name only
shows when a traced benchmark runs; this reads the tracer's tables and checks
every (owner, attribute) it patches is still there, and that the engine
still answers the calls the tracer and the workloads make.  Only the
counted-call test patches a name, as the tracer does.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

import htlc_arena
from htlc_arena import analysis, game, ledger, runner
from htlc_arena.agents import (AliceHonest, BobHonest, HonestFeeMax,
                               M2MbaActive, call_tx)
from htlc_arena.contracts import CM2M_ID
from htlc_arena.game import StrategyProfile, build_genesis
from htlc_arena.ledger import Block

from conftest import M1, flat_schedule, he_scenario, naive_scenario

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


def test_a_bribery_call_passes_the_counted_site(monkeypatch):
    # The tracer counts `contracts.bribery_step.calls` by wrapping the name
    # the ledger calls each bribery contract's step through; a step called
    # any other way would read 0 in every traced run.
    calls = []
    step = ledger.bribery_contract_step

    def counting(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(ledger, "bribery_contract_step", counting)
    scen = he_scenario()
    state = M2MbaActive().setup(build_genesis(scen)[0], scen, M1)
    request = call_tx("tx.cm2m.req.1", M1, CM2M_ID, "requestBribe")
    after = ledger.apply_block(state, Block(round=1, miner=M1,
                                            txs=(request,)))
    assert len(calls) == 1
    assert after.bribery[CM2M_ID].reserved == {M1: 1}
