"""Property tests over the arithmetic-heavy corners."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from htlc_arena import game
from htlc_arena.core import (ALICE, BOB, LedgerError, credit, debit,
                             miner_party)
from htlc_arena.contracts import (BriberyCall, CensorBriberyContract,
                                  FeeSchedule, PRE_A, PRE_A2, PRE_AA2, PRE_B,
                                  bribery_contract_step)
from htlc_arena.agents import AliceHonest, BobHonest, HonestFeeMax
from htlc_arena.game import MinerProfile, StrategyProfile, play
from htlc_arena.ledger import Block, apply_block
from htlc_arena.runner import Report

from conftest import M1, flat_schedule, naive_scenario
from test_acceptance import _fuzz_pools, _fuzz_scenario


fees = st.integers(min_value=0, max_value=50)
alphas = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(1),
                      max_denominator=20)


@given(base=fees, alpha=alphas, path=st.sampled_from(
           (PRE_A, PRE_A2, PRE_AA2, PRE_B)),
       t_offset=st.integers(0, 12), T=st.integers(1, 8))
def test_fee_split_conserves_and_burn_is_shaped(base, alpha, path, t_offset,
                                                T):
    # The burn shape `check_fee_schedule` does not re-derive at run time:
    # nothing burns up to T, and the burn never shrinks later.
    sched = FeeSchedule({PRE_A: base, PRE_A2: base + 1, PRE_AA2: base + 2,
                         PRE_B: base + 3}, alpha, T)
    paid = sched.paid[path]
    rnd = T - 1 + t_offset
    earned, burned = sched.split(path, rnd)
    assert earned + burned == paid
    assert 0 <= earned <= paid
    if rnd <= T:
        assert burned == 0
    later_earned, later_burned = sched.split(path, rnd + 1)
    assert later_earned <= earned
    assert later_burned >= burned


@given(start=st.integers(0, 100), amounts=st.lists(st.integers(0, 60),
                                                   max_size=8))
def test_balances_never_go_negative(start, amounts):
    balances = {ALICE: start}
    for a in amounts:
        try:
            debit(balances, ALICE, a)
        except LedgerError:
            pass
        assert balances[ALICE] >= 0
        credit(balances, ALICE, a // 2)
        assert balances[ALICE] >= 0


record_text = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                           exclude_characters="\t#"),
    min_size=1, max_size=12)


@given(st.lists(st.tuples(record_text, record_text, record_text,
                          record_text, record_text),
                min_size=0, max_size=10))
def test_report_records_round_trip(records):
    rep = Report({"subcommand": "x", "seed": 1})
    for metric, party, value, lo, hi in records:
        rep.add(metric, party, value, lo, hi)
    assert Report.parse(rep.render()).records == rep.records


@settings(max_examples=30, deadline=None)
@given(t_pub=st.integers(1, 4), v_dep=st.integers(10, 500),
       f_dep_a=st.integers(1, 9), f=st.integers(0, 0))
def test_honest_exchange_always_pays_the_reveal(t_pub, v_dep, f_dep_a, f):
    scen = naive_scenario(v_dep=v_dep, T=5, t_pub=t_pub, f=f,
                          f_dep_a=f_dep_a)
    profile = StrategyProfile(AliceHonest(), BobHonest(),
                              {M1: HonestFeeMax()})
    out = play(scen, profile, flat_schedule(scen), check_invariants=True)
    assert out.delta(ALICE) == v_dep - f_dep_a
    assert out.terminal == "dep-A"
    assert out.conserves()


class _View:
    def __init__(self, miner):
        self._miner = miner

    def block_miner(self):
        return self._miner

    def target_included_ever(self):
        return False

    def target_included_by_deadline(self):
        return False

    def settlement_landed(self):
        return True

    def confiscator(self):
        return None

    def attack_window_over(self):
        return False


@given(calls=st.lists(st.sampled_from(["requestBribe", "claimBribe",
                                       "refundToBob"]),
                      min_size=1, max_size=12),
       br=st.integers(1, 9), budget=st.integers(0, 80))
def test_bribery_step_dispatch_never_overpays(calls, br, budget):
    contract = CensorBriberyContract(BOB, br, T=6, pre_a_value="s-a")
    view = _View(M1)
    contract, _ = bribery_contract_step(
        contract, BriberyCall("init", BOB, {"val": budget}), 0, view)
    paid = 0
    for rnd, method in enumerate(calls, start=1):
        args = {"preimage": "s-a"} if method == "claimBribe" else {}
        contract, payouts = bribery_contract_step(
            contract, BriberyCall(method, M1, args), rnd, view)
        paid += sum(amount for _, amount, _ in payouts)
        assert contract.bal_left >= 0
    assert paid <= budget


FORGERS = (miner_party("f1"), miner_party("f2"))
POOLS = _fuzz_pools()


def _forged_game(data) -> tuple:
    """One criterion-9 game in which every round mines a block that no
    policy need build: transactions drawn, in any order and with repeats,
    from all the game has seen (the mempool, the block of every pool
    policy for every miner, and what earlier rounds mined), any fill up to
    capacity, and a coinbase some pool block carried or none.  A block
    the ledger refuses gives way to an empty one.  Returns (blocks
    accepted, blocks refused)."""
    protocol = data.draw(st.sampled_from(sorted(POOLS)))
    alice_pool, bob_pool, miner_pool = POOLS[protocol]
    kind = "active" if protocol in ("mad", "he") else "passive"
    scen = _fuzz_scenario(protocol, random.Random(data.draw(
        st.integers(0, 2**32 - 1))), tuple(
            MinerProfile(p, Fraction(1, 2), kind, True) for p in FORGERS))
    profile = StrategyProfile(
        data.draw(st.sampled_from(alice_pool)),
        data.draw(st.sampled_from(bob_pool)),
        {p: data.draw(st.sampled_from(miner_pool)) for p in FORGERS})
    state = game._setup(scen, profile)[0]
    total = state.conservation_total()
    seen: dict = {}  # tx_id -> each distinct transaction of that id

    def hear(txs) -> None:
        for tx in txs:
            kept = seen.setdefault(tx.tx_id, [])
            if tx not in kept:  # a call's arguments are not hashable
                kept.append(tx)

    coinbases = {()}
    accepted = refused = 0
    for rnd in range(1, scen.horizon + 1):
        blocks = [pol.build_block(state, rnd, p, scen)
                  for pol in miner_pool for p in FORGERS]
        hear(state.mempool.values())
        hear(tx for block in blocks for tx in block.txs)
        coinbases.update(block.coinbase for block in blocks)
        heard = [tx for kept in seen.values() for tx in kept]
        txs = data.draw(st.lists(st.sampled_from(heard),
                                 max_size=scen.capacity)) if heard else []
        miner = data.draw(st.sampled_from(FORGERS))
        block = Block(rnd, miner, tuple(txs),
                      data.draw(st.integers(0, scen.capacity - len(txs))),
                      data.draw(st.sampled_from(sorted(coinbases, key=repr))))
        try:
            mined = apply_block(state, block)
        except LedgerError:
            refused += 1
            mined = apply_block(state, Block(rnd, miner))
        else:
            accepted += 1
        assert mined.conservation_total() == total, (protocol, rnd, block)
        # Nor may a part go below zero to keep the total: no double spend.
        assert min((*mined.balances.values(), *mined.live.values(),
                    *(c.pool_total() for c in mined.bribery.values())),
                   default=0) >= 0, (protocol, rnd, block)
        state = game._act(scen, profile, mined, rnd, -1)[0]
    return accepted, refused


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_block_no_policy_builds_is_refused_or_conserves(data):
    # A miner chooses its block, so the ledger must hold any block to the
    # game's conservation total: `apply_block` refuses it with one
    # `LedgerError` or returns a state that keeps the setup's total.
    _forged_game(data)
