"""Ledger-level validation, application, and conservation behaviour."""

from __future__ import annotations

import pytest

from htlc_arena.core import ALICE, BOB, EXTERNAL, LedgerError, credit, debit
from htlc_arena.agents import tx_commit
from htlc_arena.contracts import (COL_M, DEP_A, DEP_B, PRE_A, PRE_A2, PRE_B,
                                  build_he_htlc, build_naive_htlc)
from htlc_arena.game import build_genesis
from htlc_arena.ledger import (Block, ChainState, TxRecord, Witness,
                               apply_block, broadcast, fee_split, validate_tx)

from conftest import M1, demba_scenario


def fresh_naive(v_dep=100, T=10):
    dep = build_naive_htlc(ALICE, BOB, v_dep, "s-a", T)
    state = ChainState(contracts={"dep": dep}, live={"dep": v_dep},
                       balances={ALICE: 50, BOB: 50, EXTERNAL: 1000, M1: 0},
                       meta={"T": T})
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

    def test_overspend_rejected(self):
        state = fresh_naive(v_dep=100)
        tx = alice_tx(fee=101)
        with pytest.raises(LedgerError) as e:
            validate_tx(state, tx, 3)
        assert e.value.code == "over-spend"

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
        dep, col = build_he_htlc(ALICE, BOB, 100, 50,
                                 {PRE_A: "s-a", PRE_B: "s-b"}, T=5, l=2)
        state = ChainState(contracts={"dep": dep, "col": col},
                           live={"dep": 150, "col": 0},
                           balances={ALICE: 0, BOB: 0, EXTERNAL: 100, M1: 0},
                           meta={"T": 5})
        state.height = 5
        w_b = Witness(frozenset({("dep", PRE_B, "s-b")}), frozenset({BOB}))
        fwd = TxRecord("tx.depB", BOB, consumes=(("dep", DEP_B),), witness=w_b,
                       declared_fee=2)
        w_m = Witness(frozenset({("col", PRE_A, "s-a"), ("col", PRE_B, "s-b")}))
        confiscate = TxRecord("tx.colM", M1, consumes=(("col", COL_M),),
                              witness=w_m, declared_fee=0)
        total = state.conservation_total()
        after = apply_block(state, Block(round=6, miner=M1,
                                         txs=(fwd, confiscate)))
        assert after.burned == 100
        assert after.balances[M1] == 2 + (150 - 2 - 100)
        assert after.conservation_total() == total

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
        state = fresh_naive()
        after = apply_block(state, Block(round=1, miner=M1, unrelated_fill=8,
                                         unrelated_fee=2))
        assert after.balances[M1] == 16
        assert after.balances[EXTERNAL] == 1000 - 16

    def test_capacity_enforced(self):
        state = fresh_naive()
        with pytest.raises(LedgerError):
            apply_block(state, Block(round=1, miner=M1, txs=(alice_tx(),),
                                     unrelated_fill=8, capacity=8))


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


class TestInvariants:
    def test_replay_determinism(self):
        blocks = [Block(round=1, miner=M1, unrelated_fill=3, unrelated_fee=1),
                  Block(round=2, miner=M1, txs=(alice_tx(),)),
                  Block(round=3, miner=M1)]

        def run():
            s = fresh_naive()
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
        assert ("dep", PRE_A) in after.known
        assert ("dep", PRE_A) not in after.revealed
        assert "tx.depA" in after.mempool
        assert "tx.depA" not in state.mempool
