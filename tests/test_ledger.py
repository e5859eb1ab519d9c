"""Ledger-level validation, application, and conservation behaviour."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from htlc_arena import game, ledger
from htlc_arena.core import (ALICE, BOB, EXTERNAL, LedgerError, credit, debit,
                             miner_party)
from htlc_arena.agents import (AliceHonest, BobHonest, BobNaiveBriber,
                               HonestFeeMax, M2MbaActive, call_tx,
                               honest_miner_select, payment_tx, tx_commit,
                               tx_reveal_dep_a)
from htlc_arena.contracts import (BURNED, CBOB_ID, CM2M_ID, COL_M, DEP_A,
                                  DEP_B, DEP_BURN, DEP_ID, PRE_A, PRE_A2,
                                  PRE_AA2, PRE_B,
                                  ContractInstance, build_he_htlc,
                                  build_naive_htlc)
from htlc_arena.game import (MinerProfile, Schedule, StrategyProfile,
                             build_genesis, play)
from htlc_arena.ledger import (CONTRACT_CALL, PAYMENT, Block, ChainState,
                               ChainView, TxRecord, Witness, apply_block,
                               broadcast, fee_split, validate_tx)

from conftest import (M1, M2, PARTS, demba_scenario, he_scenario,
                      mad_scenario, naive_scenario, state_identity)
from test_acceptance import _fuzz_pools, _fuzz_scenario


def fresh_naive(v_dep=100, T=10, capacity=8, f=0):
    dep = build_naive_htlc(ALICE, BOB, v_dep, "s-a", T)
    state = ChainState(contracts={"dep": dep}, live={"dep": v_dep},
                       balances={ALICE: 50, BOB: 50, EXTERNAL: 1000, M1: 0},
                       meta={"T": T, "capacity": capacity, "f": f})
    return state


def alice_tx(fee=3):
    w = Witness(frozenset({("dep", PRE_A, "s-a")}), frozenset({ALICE}))
    return TxRecord("tx.depA", ALICE, consumes=(("dep", DEP_A),), witness=w,
                    declared_fee=fee)


def bob_tx(fee=1):
    return TxRecord("tx.depB", BOB, consumes=(("dep", DEP_B),),
                    witness=Witness(signers=frozenset({BOB})),
                    declared_fee=fee)


class TestValidate:
    def test_preimage_redeem_before_timeout_ok(self):
        state = fresh_naive(T=10)
        validate_tx(state, alice_tx(), 9)

    def test_refund_before_timeout_is_timelocked(self):
        state = fresh_naive(T=10)
        with pytest.raises(LedgerError) as e:
            validate_tx(state, bob_tx(), 9)
        assert e.value.code == "predicate-failed"
        assert "timelock" in e.value.detail

    def test_a_timelock_window_holds_both_its_ends(self):
        # dep-A is open through round T = 10 and dep-B from round 11 on.
        state = fresh_naive(T=10)
        validate_tx(state, alice_tx(), 10)
        validate_tx(state, bob_tx(), 11)
        for tx, rnd in ((alice_tx(), 11), (bob_tx(), 10)):
            with pytest.raises(LedgerError) as e:
                validate_tx(state, tx, rnd)
            assert (e.value.code, e.value.detail) == ("predicate-failed",
                                                      "timelock")

    def test_overspend_rejected(self):
        state = fresh_naive(v_dep=100)
        tx = alice_tx(fee=101)
        with pytest.raises(LedgerError) as e:
            validate_tx(state, tx, 3)
        assert e.value.code == "over-spend"

    def test_a_fee_of_the_whole_deposit_is_no_overspend(self):
        # The bound is the deposit itself: a fee of all 100 leaves the
        # payee a rest of 0.
        state = fresh_naive(v_dep=100)
        after = apply_block(state, Block(round=1, miner=M1,
                                         txs=(alice_tx(fee=100),)))
        assert (after.balances[ALICE], after.balances[M1]) == (50, 100)

    def test_unknown_output(self):
        state = fresh_naive()
        tx = TxRecord("tx.x", ALICE, consumes=(("nope", DEP_A),))
        with pytest.raises(LedgerError) as e:
            validate_tx(state, tx, 1)
        assert e.value.code == "unknown-output"

    def test_wrong_preimage_fails_hashlock(self):
        state = fresh_naive()
        w = Witness(frozenset({("dep", PRE_A, "wrong")}), frozenset({ALICE}))
        tx = TxRecord("tx.bad", ALICE, consumes=(("dep", DEP_A),), witness=w,
                      declared_fee=0)
        with pytest.raises(LedgerError) as e:
            validate_tx(state, tx, 3)
        assert "hashlock" in e.value.detail

    def test_missing_signer_fails(self):
        state = fresh_naive()
        w = Witness(frozenset({("dep", PRE_A, "s-a")}))
        tx = TxRecord("tx.nosig", ALICE, consumes=(("dep", DEP_A),), witness=w)
        with pytest.raises(LedgerError) as e:
            validate_tx(state, tx, 3)
        assert "signature" in e.value.detail

    def test_a_negative_payment_is_refused(self):
        # A payment of -5 would credit its payer and drive the payee below
        # zero, as a briber's negative epsilon once did.
        state = fresh_naive()
        tx = payment_tx("tx.pay", ALICE, BOB, -5)
        with pytest.raises(LedgerError) as e:
            validate_tx(state, tx, 1)
        assert (e.value.code, e.value.detail) == (
            "invalid-tx", "negative payment amount -5")

    def test_a_tx_of_unknown_kind_is_invalid(self):
        # `apply_block` applies three kinds; any other never validates, so
        # a block carrying one is refused before it is applied.
        state = fresh_naive()
        tx = alice_tx()._replace(kind="relatd")
        with pytest.raises(LedgerError) as e:
            validate_tx(state, tx, 3)
        assert e.value.code == "invalid-tx" and "relatd" in e.value.detail
        with pytest.raises(LedgerError) as e:
            apply_block(state, Block(round=1, miner=M1, txs=(tx,)))
        assert e.value.code == "invalid-tx"


def _refuse_manual_auto_path():
    scen = demba_scenario(T=4)
    state = build_genesis(scen)[0]
    path = next(p for p in state.contracts[DEP_ID].paths if p.auto_only)
    return state, TxRecord("tx.auto", ALICE, consumes=((DEP_ID, path.name),))


def _refuse_spent_contract():
    state = apply_block(fresh_naive(), Block(round=1, miner=M1,
                                             txs=(alice_tx(),)))
    return state, alice_tx(0)


def _refuse_unknown_path():
    return fresh_naive(), TxRecord("tx.nope", ALICE,
                                   consumes=(("dep", "nope"),))


def _refuse_double_spend_in_one_tx():
    tx = alice_tx()
    return fresh_naive(), tx._replace(consumes=tx.consumes * 2)


def _refuse_block_over_capacity():
    # A block declares no capacity of its own: one transaction and two
    # fillers overfill a game of capacity 2, whatever the block says.
    return fresh_naive(capacity=2), Block(round=1, miner=M1,
                                          txs=(alice_tx(),), unrelated_fill=2)


def _refuse_negative_fill():
    # A fill of -3 at f = 1 would pay the external traffic 3 of the
    # miner's tokens, and drive a miner holding fewer below zero.
    return fresh_naive(f=1), Block(round=1, miner=M1, unrelated_fill=-3)


def _briber_setup():
    """A naive game's state after the naive briber's setup, and the init
    of its censorship bribery contract, which waits in the mempool."""
    scen = naive_scenario()
    state = BobNaiveBriber().setup(build_genesis(scen)[0], scen)
    return scen, state, state.mempool["tx.cbob.init"]


def _refuse_init_mined_again():
    # `tx.cbob.init` left the mempool in round 1; mined again in round 2
    # it would debit a second budget that the contract does not hold.
    _, state, init = _briber_setup()
    return apply_block(state, Block(round=1, miner=M1, txs=(init,))), init


def _refuse_init_copy_in_one_block():
    # A copy of the init under another id, mined after it in one block.
    _, state, init = _briber_setup()
    return state, Block(round=1, miner=M1,
                        txs=(init, init._replace(tx_id="tx.cbob.init.2")))


def _refuse_init_of_settled_contract():
    # The payee's reveal lands in the round the budget is funded, and the
    # ledger refunds it at once: the settled contract, which keeps its
    # deposit, takes no new budget.
    scen, state, init = _briber_setup()
    state = apply_block(state, Block(round=1, miner=M1, txs=(
        init, tx_reveal_dep_a(scen))))
    assert state.bribery[CBOB_ID].settled
    return state, init


#: case -> (a maker of the (state, offer) pair, the code and the exact
#: detail of the ledger's refusal), the offer being a transaction or a
#: whole block, offered in the round after the state's.  No other test
#: holds these refusals to their exact line.
REFUSALS = {
    "block-over-capacity": (
        _refuse_block_over_capacity, "invalid-tx", "block over capacity"),
    "negative-fill": (_refuse_negative_fill, "invalid-tx", "negative fill -3"),
    "manual-redeem-disabled": (
        _refuse_manual_auto_path, "predicate-failed", "manual-redeem-disabled"),
    "payment-without-destination": (
        lambda: (fresh_naive(), TxRecord("tx.pay", ALICE, PAYMENT)),
        "invalid-tx", "payment without destination"),
    "call-without-contract": (
        lambda: (fresh_naive(), TxRecord("tx.call", M1, CONTRACT_CALL)),
        "unknown-output", "no such bribery contract"),
    "call-to-unknown-contract": (
        lambda: (fresh_naive(), call_tx("tx.call", M1, CBOB_ID,
                                        "requestBribe")),
        "unknown-output", "no such bribery contract"),
    "related-consumes-nothing": (
        lambda: (fresh_naive(), TxRecord("tx.none", ALICE)),
        "unknown-output", "related tx consumes nothing"),
    "payment-over-balance": (
        lambda: (fresh_naive(), payment_tx("tx.pay", ALICE, BOB, 51)),
        "over-spend", "alice cannot fund payment"),
    "contract-already-redeemed": (
        _refuse_spent_contract, "unknown-output",
        "dep already ('redeemed', 'dep-A')"),
    "double-spend-in-one-tx": (
        _refuse_double_spend_in_one_tx, "duplicate-spend-in-block", "dep"),
    "unknown-path": (
        _refuse_unknown_path, "unknown-output", "dep has no path 'nope'"),
    # A negative fee would pay its creator: at -5 the naive dep-A reveal
    # would pay Alice 105 from a deposit of 100 and leave its miner at -5.
    "negative-fee-related": (
        lambda: (fresh_naive(), alice_tx(fee=-5)),
        "invalid-tx", "negative fee -5"),
    "negative-fee-call": (
        lambda: (fresh_naive(), call_tx("tx.call", M1, CBOB_ID,
                                        "requestBribe", fee=-5)),
        "invalid-tx", "negative fee -5"),
    "init-mined-again": (
        _refuse_init_mined_again, "invalid-tx", "cbob already funded"),
    "init-copy-in-one-block": (
        _refuse_init_copy_in_one_block, "invalid-tx",
        "tx 1 (tx.cbob.init.2): invalid-tx(cbob already funded)"),
    "init-of-settled-contract": (
        _refuse_init_of_settled_contract, "invalid-tx", "cbob already funded"),
    "negative-fee-payment": (
        lambda: (fresh_naive(), payment_tx("tx.pay", ALICE, BOB, 5)._replace(
            declared_fee=-5)),
        "invalid-tx", "negative fee -5"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_refusal_keeps_its_code_and_detail(case):
    make, code, detail = REFUSALS[case]
    state, offer = make()
    rnd = state.height + 1
    if isinstance(offer, Block):
        # The block is refused whole, in one line.
        block, line = offer, (code, detail)
    else:
        with pytest.raises(LedgerError) as e:
            validate_tx(state, offer, rnd)
        assert (e.value.code, e.value.detail) == (code, detail)
        # A block carrying the transaction is refused with the same line,
        # wrapped as an invalid transaction.
        block = Block(round=rnd, miner=M1, txs=(offer,))
        line = ("invalid-tx", f"tx 0 ({offer.tx_id}): {code}({detail})")
    with pytest.raises(LedgerError) as e:
        apply_block(state, block)
    assert (e.value.code, e.value.detail) == line


def test_a_block_over_capacity_is_refused_whole():
    with pytest.raises(LedgerError) as e:
        apply_block(fresh_naive(capacity=8), Block(
            round=1, miner=M1, txs=(alice_tx(),), unrelated_fill=8))
    assert (e.value.code, e.value.detail) == ("invalid-tx",
                                              "block over capacity")


def he_confiscation():
    """An he state at height 5 and the block of round 6 that spends both of
    its contracts: the payer's forward of the deposit, then a miner's
    confiscation of the collateral pot."""
    dep, col = build_he_htlc(ALICE, BOB, 100, 50,
                             {PRE_A: "s-a", PRE_B: "s-b"}, T=5, l=2)
    state = ChainState(contracts={"dep": dep, "col": col},
                       live={"dep": 150, "col": 0},
                       balances={ALICE: 0, BOB: 0, EXTERNAL: 100, M1: 0},
                       meta={"T": 5, "capacity": 8, "f": 0})
    state.height = 5
    w_b = Witness(frozenset({("dep", PRE_B, "s-b")}), frozenset({BOB}))
    fwd = TxRecord("tx.depB", BOB, consumes=(("dep", DEP_B),), witness=w_b,
                   declared_fee=2)
    w_m = Witness(frozenset({("col", PRE_A, "s-a"), ("col", PRE_B, "s-b")}))
    confiscate = TxRecord("tx.colM", M1, consumes=(("col", COL_M),),
                          witness=w_m, declared_fee=0)
    return state, Block(round=6, miner=M1, txs=(fwd, confiscate))


class TestApply:
    def test_empty_block_only_increments_height(self):
        state = fresh_naive()
        before = dict(state.balances)
        after = apply_block(state, Block(round=1, miner=M1))
        assert after.height == 1
        assert after.balances == before
        assert state.height == 0  # input untouched

    def test_reveal_block_moves_deposit_and_registers(self):
        state = fresh_naive(v_dep=100)
        total = state.conservation_total()
        after = apply_block(state, Block(round=1, miner=M1, txs=(alice_tx(3),)))
        assert after.balances[ALICE] == 50 + 100 - 3
        assert after.balances[M1] == 3
        assert after.revealed[("dep", PRE_A)] == ("s-a", 1)
        assert after.conservation_total() == total
        assert after.contracts["dep"].status == ("redeemed", DEP_A)

    def test_he_collateral_confiscation_burns_deposit(self):
        state, block = he_confiscation()
        total = state.conservation_total()
        after = apply_block(state, block)
        assert after.burned == 100
        assert after.balances[M1] == 2 + (150 - 2 - 100)
        assert after.conservation_total() == total

    def test_a_confiscation_of_known_preimages_writes_no_knowledge(self):
        # `known` maps a slot to its value: once the payee's and payer's
        # deposit reveals are broadcast, the col-M confiscation that
        # repeats both slots on the collateral teaches nothing, so the
        # block keeps the parent's part.
        state, block = he_confiscation()
        w_a = Witness(frozenset({("dep", PRE_A, "s-a")}), frozenset({ALICE}))
        state = broadcast(state, [block.txs[0], TxRecord(
            "tx.depA", ALICE, consumes=(("dep", DEP_A),), witness=w_a)])
        assert dict(state.known) == {PRE_A: "s-a", PRE_B: "s-b"}
        after = apply_block(state, block)
        assert after.redemptions["col"][0] == COL_M
        assert after.known is state.known

    @pytest.mark.parametrize("spends", [1, 2])
    def test_a_block_walks_each_spend_once(self, monkeypatch, spends):
        # Validation looks each spent path up and prices it; application
        # applies what validation returned, so a block of k spends asks
        # for k paths and k outflows.
        if spends == 1:
            state = fresh_naive()
            block = Block(round=1, miner=M1, txs=(alice_tx(),))
        else:
            state, block = he_confiscation()
        calls = Counter()
        path, outflow = ContractInstance.path, ledger._path_outflow

        def counted_path(contract, name):
            calls["path"] += 1
            return path(contract, name)

        def counted_outflow(path, rnd):
            calls["outflow"] += 1
            return outflow(path, rnd)

        monkeypatch.setattr(ContractInstance, "path", counted_path)
        monkeypatch.setattr(ledger, "_path_outflow", counted_outflow)
        apply_block(state, block)
        assert calls == Counter(path=spends, outflow=spends)

    def test_stale_round_rejected(self):
        state = fresh_naive()
        with pytest.raises(LedgerError) as e:
            apply_block(state, Block(round=2, miner=M1))
        assert e.value.code == "stale-round"

    def test_duplicate_spend_in_block(self):
        state = fresh_naive()
        block = Block(round=1, miner=M1, txs=(alice_tx(), alice_tx(0)))
        with pytest.raises(LedgerError) as e:
            apply_block(state, block)
        assert "duplicate-spend-in-block" in str(e.value)

    def test_second_redeem_attempt_is_error(self):
        state = fresh_naive()
        state = apply_block(state, Block(round=1, miner=M1, txs=(alice_tx(),)))
        with pytest.raises(LedgerError):
            validate_tx(state, alice_tx(0), 2)

    def test_unrelated_fill_pays_miner(self):
        state = fresh_naive(f=2)
        after = apply_block(state, Block(round=1, miner=M1, unrelated_fill=8))
        assert after.balances[M1] == 16
        assert after.balances[EXTERNAL] == 1000 - 16

    def test_filler_pays_the_games_fee(self):
        # The fee is genesis's `f`, not the block's to declare: two
        # fillers at f = 3 pay the miner 6.
        state, _, _ = build_genesis(naive_scenario(f=3))
        after = apply_block(state, Block(round=1, miner=M1, unrelated_fill=2))
        assert after.balances[M1] - state.balances[M1] == 6
        assert after.conservation_total() == state.conservation_total()

    def test_a_block_holds_only_what_its_miner_chooses(self):
        assert Block._fields == ("round", "miner", "txs", "unrelated_fill",
                                 "coinbase")

    def test_capacity_enforced(self):
        state = fresh_naive(capacity=8)
        with pytest.raises(LedgerError):
            apply_block(state, Block(round=1, miner=M1, txs=(alice_tx(),),
                                     unrelated_fill=8))

    def test_demba_deposit_resolves_in_the_block_both_commits_land(self):
        # The deposit is the one contract with automatic paths; it fires
        # from inside the block that publishes both collateral reveals,
        # and never again once redeemed.
        scen = demba_scenario(T=4)
        state, _, _ = build_genesis(scen)
        assert state.meta["auto_ids"] == (DEP_ID,)
        after = apply_block(state, Block(round=1, miner=M1, txs=(
            tx_commit(scen, PRE_A), tx_commit(scen, PRE_B))))
        assert after.redemptions[DEP_ID] == (DEP_A, 1, M1)
        assert after.contracts[DEP_ID].status == ("redeemed", DEP_A)
        assert DEP_ID not in after.live
        assert after.conservation_total() == state.conservation_total()
        later = apply_block(after, Block(round=2, miner=M2))
        assert later.redemptions is after.redemptions
        assert later.contracts is after.contracts

    def test_demba_deposit_burns_when_both_payee_slots_land(self):
        # The payee's double reveal after T publishes pre_A and pre_A'
        # together, so the deposit's all-burn path fires: the contract is
        # burned, not redeemed.
        scen = demba_scenario(T=4)
        state, _, _ = build_genesis(scen)
        total = state.conservation_total()
        for rnd in range(1, scen.T + 1):
            state = apply_block(state, Block(round=rnd, miner=M1))
        state = apply_block(state, Block(round=scen.T + 1, miner=M1, txs=(
            tx_commit(scen, PRE_AA2),)))
        assert state.redemptions[DEP_ID][0] == DEP_BURN
        assert state.contracts[DEP_ID].status == BURNED
        assert state.conservation_total() == total


def coinbase_block(rnd, party, amount, reason):
    return Block(round=rnd, miner=M1, coinbase=((party, amount, reason),))


class TestMint:
    def test_zero_mint_only_logs(self):
        state = fresh_naive()
        after = apply_block(state, coinbase_block(1, BOB, 0, "noop"))
        assert after.balances == state.balances
        assert after.mint_log == [(BOB, 0, "noop")]

    def test_mint_credits_and_nets_out_of_conservation(self):
        state = fresh_naive()
        total = state.conservation_total()
        after = apply_block(apply_block(state, coinbase_block(1, BOB, 7, "a")),
                            coinbase_block(2, ALICE, 5, "b"))
        assert after.balances[BOB] == state.balances[BOB] + 7
        assert after.balances[ALICE] == state.balances[ALICE] + 5
        assert after.burned == state.burned
        assert after.conservation_total() == total

    def test_coinbase_in_block_is_logged(self):
        state = fresh_naive()
        after = apply_block(state, Block(round=1, miner=M1,
                                         coinbase=((BOB, 9, "bribe"),)))
        assert after.mint_log == [(BOB, 9, "bribe")]
        assert after.conservation_total() == state.conservation_total()


class TestFeeSplit:
    """The schedule splits a fee only on the paths it lists."""

    def test_without_a_schedule_the_miner_earns_all(self):
        assert fee_split(fresh_naive(), DEP_A, 3, 20) == (3, 0)

    def test_schedule_splits_only_its_own_paths(self):
        scen = demba_scenario(T=4)  # paid pre_A' = 12, alpha = 1/2
        state, _, _ = build_genesis(scen)
        assert fee_split(state, DEP_A, 5, 9) == (5, 0)
        assert fee_split(state, PRE_A2, 12, 4) == (12, 0)
        assert fee_split(state, PRE_A2, 12, 6) == (3, 9)

    def test_a_fee_off_the_schedule_is_refused_by_the_ledger(self):
        # The payee's commit declares 9 where the schedule says 8: the
        # ledger refuses it with the schedule's detail, the honest probe
        # skips it, and a block carrying it is refused in one line.
        scen = demba_scenario(T=4)
        state, _, _ = build_genesis(scen)
        tx = tx_commit(scen, PRE_A)._replace(declared_fee=9)
        line = ("fee-mismatch", "path 'pre_A' pays 8, declared 9")
        with pytest.raises(LedgerError) as e:
            validate_tx(state, tx, 1)
        assert (e.value.code, e.value.detail) == line
        assert honest_miner_select(broadcast(state, [tx]), 1, scen) == []
        with pytest.raises(LedgerError) as e:
            apply_block(state, Block(round=1, miner=M1, txs=(tx,)))
        assert (e.value.code, e.value.detail) == (
            "invalid-tx", "tx 0 (tx.col.pre_A): fee-mismatch(path 'pre_A' "
            "pays 8, declared 9)")

    def test_a_late_burn_starts_the_round_after_its_bound(self):
        # Bob's commit burns v_ded = 7 when it lands after T = 4, not at T.
        scen = demba_scenario(T=4)
        genesis, _, _ = build_genesis(scen)
        total = genesis.conservation_total()
        for rnd, burned in ((scen.T, 0), (scen.T + 1, 7 + 4)):
            state = genesis
            for r in range(1, rnd):
                state = apply_block(state, Block(round=r, miner=M1))
            state = apply_block(state, Block(round=rnd, miner=M1, txs=(
                tx_commit(scen, PRE_B),)))
            assert state.burned == burned  # the decayed fee burns 4 of 8
            assert state.conservation_total() == total

    def test_late_commit_burns_the_decayed_remainder(self):
        scen = demba_scenario(T=4)
        state, _, _ = build_genesis(scen)
        total = state.conservation_total()
        for rnd in range(1, scen.T + 2):
            state = apply_block(state, Block(round=rnd, miner=M1))
        before = state.balances[M1]
        state = apply_block(state, Block(round=scen.T + 2, miner=M1,
                                         txs=(tx_commit(scen, PRE_A2),)))
        assert state.balances[M1] - before == 3  # floor(12 / 4)
        assert state.burned == 9
        assert state.conservation_total() == total



class TestChainView:
    def test_a_target_landing_at_the_deadline_is_in_time(self):
        # Alice reveals at t_pub = 2, so dep-A lands in round 3, which is
        # T itself: the protected transfer made the deadline.
        scen = he_scenario(T=3, t_pub=2)
        out = play(scen, StrategyProfile(AliceHonest(), BobHonest(),
                                         {M1: HonestFeeMax()}),
                   Schedule((M1,) * scen.horizon))
        assert out.state.redemptions[DEP_ID][:2] == (DEP_A, scen.T)
        view = ChainView(out.state, scen.horizon, M1)
        assert view.target_included_by_deadline()
        assert view.target_included_ever() and not view.settlement_landed()

    @pytest.mark.parametrize("build", [naive_scenario, mad_scenario,
                                       he_scenario, demba_scenario])
    def test_the_honest_payees_transfer_is_the_target(self, build):
        # On every protocol the payee's honest redemption, or her commit
        # on demba, is the protected transfer the guards read.
        scen = build()
        out = play(scen, StrategyProfile(AliceHonest(), BobHonest(),
                                         {M1: HonestFeeMax()}),
                   Schedule((M1,) * scen.horizon))
        view = ChainView(out.state, scen.horizon, M1)
        assert view.target_included_by_deadline()
        assert view.target_included_ever() and not view.settlement_landed()

class TestInvariants:
    def test_replay_determinism(self):
        blocks = [Block(round=1, miner=M1, unrelated_fill=3),
                  Block(round=2, miner=M1, txs=(alice_tx(),)),
                  Block(round=3, miner=M1)]

        def run():
            s = fresh_naive(f=1)
            for b in blocks:
                s = apply_block(s, b)
            return s

        assert run().snapshot_key() == run().snapshot_key()

    def test_preimage_registry_is_append_only(self):
        state = fresh_naive()
        state = apply_block(state, Block(round=1, miner=M1, txs=(alice_tx(),)))
        entry = state.revealed[("dep", PRE_A)]
        for rnd in (2, 3, 4):
            state = apply_block(state, Block(round=rnd, miner=M1))
            assert state.revealed[("dep", PRE_A)] == entry

    def test_balance_never_wraps(self):
        balances = {ALICE: 3}
        with pytest.raises(LedgerError) as e:
            debit(balances, ALICE, 4)
        assert e.value.code == "balance-underflow"
        assert balances[ALICE] == 3
        credit(balances, ALICE, 4)
        debit(balances, ALICE, 7)
        assert balances[ALICE] == 0

    def test_broadcast_updates_knowledge_not_chain(self):
        state = fresh_naive()
        after = broadcast(state, [alice_tx()])
        assert PRE_A in after.known
        assert ("dep", PRE_A) not in after.revealed
        assert "tx.depA" in after.mempool
        assert "tx.depA" not in state.mempool


#: Every part of a chain state, as the ledger names them.
def rebuilt(state):
    """A state built afresh from `state`'s part contents, so that none of
    its cached keys or sums is carried over."""
    fresh = ChainState(meta=state.meta).draft()
    for name in PARTS:
        part = fresh.write(name)
        if isinstance(part, list):
            part.extend(getattr(state, name))
        else:
            part.update(getattr(state, name))
    fresh.burn(state.burned)
    fresh.height = state.height
    return fresh.seal()


def assert_read_only(state):
    for name in PARTS:
        part = getattr(state, name)
        with pytest.raises(TypeError):
            part.clear()
        if isinstance(part, list):
            with pytest.raises(TypeError):
                part.append(None)
        else:
            with pytest.raises(TypeError):
                part["x"] = None
            with pytest.raises(TypeError):
                part.pop("x", None)
        with pytest.raises(TypeError):
            state.write(name)
    with pytest.raises(TypeError):
        state.burn(1)
    with pytest.raises(TypeError):
        state.meta["T"] = 0


class TestParts:
    """A state is built from read-only parts that a step shares unless it
    writes them."""

    def test_block_that_changes_nothing_shares_every_part(self):
        scen = he_scenario(f=0)
        state, _, _ = build_genesis(scen)
        key = state.control_key()
        after = apply_block(state, Block(round=1, miner=M1, unrelated_fill=8))
        assert all(getattr(after, n) is getattr(state, n) for n in PARTS)
        assert after.control_key() == (1, key[1])
        assert after.control_key()[1] is key[1]

    def test_control_key_keeps_only_a_confiscators_miner(self):
        # States that differ only in who mined a redemption play alike, so
        # they share a control key, unless the redemption is a col-M
        # confiscation, whose miner a pact contract reads.
        state = fresh_naive()

        def redeemed(path, miner):
            s = state.draft()
            s.write("redemptions")["col"] = (path, 3, miner)
            return s.seal()

        by_m1, by_m2 = redeemed(DEP_B, M1), redeemed(DEP_B, M2)
        assert by_m1.control_key() == by_m2.control_key()
        assert state_identity(by_m1) != state_identity(by_m2)
        assert (redeemed(COL_M, M1).control_key()
                != redeemed(COL_M, M2).control_key())

    def test_zero_credit_writes_only_a_new_party(self):
        state = fresh_naive()
        draft = state.draft()
        draft.credit(M1, 0)
        draft.debit(ALICE, 0)
        assert draft.balances is state.balances
        draft.credit(M2, 0)
        after = draft.seal()
        assert after.balances == {**state.balances, M2: 0}
        assert state.balances.get(M2) is None

    def test_step_writes_only_its_parts(self):
        state = fresh_naive(f=3)
        after = apply_block(state, Block(round=1, miner=M1, unrelated_fill=2))
        shared = [n for n in PARTS if getattr(after, n) is getattr(state, n)]
        assert shared == [n for n in PARTS if n != "balances"]
        assert after.conservation_total() == state.conservation_total()

    def test_finished_states_refuse_writes(self):
        state = fresh_naive()
        assert_read_only(state)
        assert_read_only(apply_block(state, Block(round=1, miner=M1,
                                                  txs=(alice_tx(),))))
        with pytest.raises(TypeError):
            state.draft().draft()

    def test_contract_values_refuse_writes(self):
        scen = naive_scenario()
        state = BobNaiveBriber().setup(build_genesis(scen)[0], scen)
        state = apply_block(state, Block(
            round=1, miner=M1, txs=(state.mempool["tx.cbob.init"],)))
        key, total = state.control_key(), state.conservation_total()
        with pytest.raises(FrozenInstanceError):
            state.contracts["dep"].status = BURNED
        assert state.contracts["dep"].redeemable
        cbob = state.bribery[CBOB_ID]
        with pytest.raises(FrozenInstanceError):
            cbob.deposit = 0
        with pytest.raises(TypeError):
            cbob.reserved[M1] = 1
        assert (cbob.deposit, dict(cbob.reserved)) == (scen.v_dep, {})
        fresh = rebuilt(state)
        assert (fresh.control_key(),
                fresh.conservation_total()) == (key, total)
        scen = he_scenario(miners=(MinerProfile(M1, Fraction(1), "active",
                                                True),))
        state = M2MbaActive().setup(build_genesis(scen)[0], scen, M1)
        key, total = state.control_key(), state.conservation_total()
        pact = state.bribery[CM2M_ID]
        with pytest.raises(FrozenInstanceError):
            pact.settled = True
        for name in ("locked", "reserved", "br"):
            with pytest.raises(TypeError):
                getattr(pact, name)[M1] = 0
        assert dict(pact.locked) == {M1: scen.v_col} and not pact.settled
        fresh = rebuilt(state)
        assert (fresh.control_key(),
                fresh.conservation_total()) == (key, total)

    def test_seal_keeps_the_written_part_and_makes_it_read_only(self):
        # A step copies each part it writes once: the sealed state holds
        # the very object `write` handed out, which now refuses every write,
        # and a later draft's write copies it again.
        state = fresh_naive()
        before = dict(state.balances), list(state.mint_log)
        draft = state.draft()
        balances, mint_log = draft.write("balances"), draft.write("mint_log")
        balances[M2] = 5
        mint_log.append((M2, 5, "test"))
        after = draft.seal()
        assert after.balances is balances and after.mint_log is mint_log
        writes = {
            "balances": [lambda p: p.__setitem__(M2, 0),
                         lambda p: p.__delitem__(M2), lambda p: p.clear(),
                         lambda p: p.pop(M2), lambda p: p.popitem(),
                         lambda p: p.setdefault(M1, 0),
                         lambda p: p.update({M1: 0}),
                         lambda p: p.__ior__({M1: 0})],
            "mint_log": [lambda p: p.__setitem__(0, None),
                         lambda p: p.__delitem__(0), lambda p: p.clear(),
                         lambda p: p.append(None), lambda p: p.extend([None]),
                         lambda p: p.insert(0, None), lambda p: p.pop(),
                         lambda p: p.remove(p[0]), lambda p: p.reverse(),
                         lambda p: p.sort(), lambda p: p.__iadd__([None]),
                         lambda p: p.__imul__(2)]}
        for name, part in (("balances", balances), ("mint_log", mint_log)):
            for write in writes[name]:
                with pytest.raises(TypeError):
                    write(part)
        assert (dict(balances), list(mint_log)) == (
            {**before[0], M2: 5}, [*before[1], (M2, 5, "test")])
        later = after.draft()
        again = later.write("balances")
        assert again is not balances
        again[M2] = 7
        assert balances[M2] == 5 and later.seal().balances[M2] == 7
        assert (dict(state.balances), list(state.mint_log)) == before

    def test_records_refuse_attribute_writes(self):
        tx = alice_tx()
        dep = build_he_htlc(ALICE, BOB, 100, 50, {PRE_A: "a", PRE_B: "b"},
                            4, 2)[0]
        demba_dep = build_genesis(demba_scenario())[0].contracts[DEP_ID]
        records = [tx, tx.witness, *dep.paths,
                   *(e for p in dep.paths for e in p.effects),
                   *(e for p in demba_dep.paths for e in p.effects),
                   *(r for p in demba_dep.paths for r in p.cross_reads)]
        assert {type(r).__name__ for r in records} == {
            "TxRecord", "Witness", "RedeemPath", "Transfer", "Burn",
            "Forward", "CrossRead"}
        for record in records:
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)
            with pytest.raises(AttributeError):
                record.extra = None


def _checked(step):
    """`step` (apply_block or broadcast), checked on every call: the input
    keeps its parts, contents, control key and total; the output's cached
    control key and total equal a rebuilt state's; and the output refuses
    writes."""

    def run(state, arg):
        parts = {n: getattr(state, n) for n in PARTS}
        contents = {n: list(p) if isinstance(p, list) else dict(p)
                    for n, p in parts.items()}
        key, total = state.control_key(), state.conservation_total()
        out = step(state, arg)
        assert all(getattr(state, n) is p for n, p in parts.items())
        assert {n: list(p) if isinstance(p, list) else dict(p)
                for n, p in parts.items()} == contents
        assert (state.control_key(), state.conservation_total()) == (key, total)
        again = rebuilt(state)
        assert (again.control_key(),
                again.conservation_total()) == (key, total)
        fresh = rebuilt(out)
        assert fresh.control_key() == out.control_key()
        assert fresh.conservation_total() == out.conservation_total()
        assert_read_only(out)
        return out

    return run


@settings(max_examples=60, deadline=None)
@given(protocol=st.sampled_from(("naive", "mad", "he", "demba")),
       n_miners=st.integers(1, 3), capacity=st.sampled_from((1, 2, 8)),
       f=st.sampled_from((0, 3)), seed=st.integers(0, 2 ** 32 - 1))
def test_steps_share_parts_keep_caches_and_refuse_writes(
        protocol, n_miners, capacity, f, seed):
    # Criterion-9 pools, at 1-3 miners, small and default capacities and a
    # zero and a positive unrelated fee: a seeded play, then a Monte-Carlo
    # pass that merges states, both through checked steps.
    rng = random.Random(seed)
    alice_pool, bob_pool, miner_pool = _fuzz_pools()[protocol]
    parties = tuple(miner_party(f"f{i}") for i in range(1, n_miners + 1))
    kind = "active" if protocol in ("mad", "he") else "passive"
    miners = tuple(MinerProfile(p, Fraction(1, n_miners), kind, True)
                   for p in parties)
    scen = replace(_fuzz_scenario(protocol, rng, miners), capacity=capacity,
                   f=f)
    profile = StrategyProfile(rng.choice(alice_pool), rng.choice(bob_pool),
                              {p: rng.choice(miner_pool) for p in parties})
    schedule = Schedule(tuple(rng.choice(parties)
                              for _ in range(scen.horizon)))
    with patch.object(game, "apply_block", _checked(game.apply_block)), \
            patch.object(game, "broadcast", _checked(game.broadcast)):
        out = play(scen, profile, schedule, check_invariants=True)
        entries, total, _ = game.final_frontier(
            replace(scen, mode=("monte-carlo", 6), seed=seed % 1000), profile)
    assert out.conserves()
    assert sum(m for _, groups in entries for m in groups.values()) == total


@settings(max_examples=60, deadline=None)
@given(protocol=st.sampled_from(("naive", "mad", "he", "demba")),
       n_miners=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_broadcast_writes_only_the_mempool_and_knowledge(protocol, n_miners,
                                                         seed):
    # The premise on which the forward pass checks conservation once per
    # step, on the mined state (`game._enter`), and not again after the
    # parties' broadcasts: on the states of a criterion-9 play, a
    # broadcast of any of the game's transactions (the parties' and those
    # in blocks) keeps every other part, the height and the burned total,
    # so the conservation total too.
    rng = random.Random(seed)
    alice_pool, bob_pool, miner_pool = _fuzz_pools()[protocol]
    parties = tuple(miner_party(f"f{i}") for i in range(1, n_miners + 1))
    kind = "active" if protocol in ("mad", "he") else "passive"
    miners = tuple(MinerProfile(p, Fraction(1, n_miners), kind, True)
                   for p in parties)
    scen = _fuzz_scenario(protocol, rng, miners)
    profile = StrategyProfile(rng.choice(alice_pool), rng.choice(bob_pool),
                              {p: rng.choice(miner_pool) for p in parties})
    schedule = Schedule(tuple(rng.choice(parties)
                              for _ in range(scen.horizon)))
    states, txs = [], []

    def apply_block(state, block):
        txs.extend(block.txs)
        states.append(real_apply(state, block))
        return states[-1]

    def sent(state, emitted):
        txs.extend(emitted)
        states.append(broadcast(state, emitted))
        return states[-1]

    real_apply = game.apply_block
    with patch.object(game, "apply_block", apply_block), \
            patch.object(game, "broadcast", sent):
        play(scen, profile, schedule)
    kept = [n for n in PARTS if n not in ("mempool", "known")]
    for state in states:
        total = state.conservation_total()
        out = broadcast(state, rng.sample(txs, min(len(txs), 4)))
        assert (out.height, out.burned) == (state.height, state.burned)
        assert out.meta is state.meta
        assert all(getattr(out, n) is getattr(state, n) for n in kept)
        assert rebuilt(out).conservation_total() == total
        assert out.conservation_total() == total


#: A sealed chain state's slots: its height, burned total, fixed meta and
#: parts, the lowest balances of the step that made it, the caches of its
#: control key and total, and the draft marker.
STATE_SLOTS = ("height", "burned", "meta", *PARTS, "lows", "_control",
               "_total", "_written")


@settings(max_examples=100, deadline=None)
@given(protocol=st.sampled_from(("naive", "mad", "he", "demba")),
       n_miners=st.integers(1, 3), exact=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_pass_leaves_every_state_it_reads_as_it_was(
        protocol, n_miners, exact, seed):
    # Criterion-9 pools in both modes: each state that the block half
    # (`game._mine`) or the party half (`game._act`) receives holds the
    # same object in every slot once the pass is over, and no part of it
    # keeps anything in an instance dict.
    assert sorted(ChainState.__slots__) == sorted(STATE_SLOTS)
    rng = random.Random(seed)
    alice_pool, bob_pool, miner_pool = _fuzz_pools()[protocol]
    parties = tuple(miner_party(f"f{i}") for i in range(1, n_miners + 1))
    kind = "active" if protocol in ("mad", "he") else "passive"
    miners = tuple(MinerProfile(p, Fraction(1, n_miners), kind, True)
                   for p in parties)
    scen = replace(_fuzz_scenario(protocol, rng, miners), seed=seed % 1000,
                   mode=("exact",) if exact else ("monte-carlo", 6))
    profile = StrategyProfile(rng.choice(alice_pool), rng.choice(bob_pool),
                              {p: rng.choice(miner_pool) for p in parties})
    received = []

    def recorded(half):
        def run(scen, profile, state, *args):
            state.control_key()  # fill both caches first: a later fill
            state.conservation_total()  # is no change of value
            received.append((state, [getattr(state, n) for n in STATE_SLOTS]))
            return half(scen, profile, state, *args)
        return run

    with patch.object(game, "_mine", recorded(game._mine)), \
            patch.object(game, "_act", recorded(game._act)):
        entries, total, _ = game.final_frontier(scen, profile)
    assert sum(m for _, groups in entries for m in groups.values()) == total
    assert len(received) >= 2 * scen.horizon
    for state, slots in received:
        assert all(getattr(state, n) is v for n, v in zip(STATE_SLOTS, slots))
        assert not any(hasattr(getattr(state, n), "__dict__") for n in PARTS)
