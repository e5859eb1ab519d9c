"""Fork-free discrete-round ledger.

One block per round, applied functionally: apply_block returns a fresh
ChainState and never touches its input, so states are safe to keep as
snapshots.  Conservation is the load-bearing invariant: balances plus live
deposits plus bribery pools plus burned tokens, net of explicit mints, is
constant across every block.

Unrelated traffic is modelled as an inexhaustible supply of filler
transactions, each paying exactly the scenario's base fee; blocks carry
them as a count rather than as objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (BLOCK_MINER, BURN_SINK, EXTERNAL, LedgerError, Party,
                   check_amount, credit, debit)
from .contracts import (BURNED, Burn, COL_ID, COL_M, CensorBriberyContract,
                        ContractInstance, Forward, REST, RedeemPath, Transfer,
                        bribery_contract_step, resolve_demba_dep)

RELATED = "related"
UNRELATED = "unrelated"
CONTRACT_CALL = "contract-call"
PAYMENT = "payment"


@dataclass(frozen=True, slots=True)
class Witness:
    """Exact-witness evidence: asserted signers and bit-exact preimages."""

    preimages: frozenset = frozenset()  # (contract_id, slot, value)
    signers: frozenset = frozenset()  # Party


EMPTY_WITNESS = Witness()


@dataclass(frozen=True, slots=True)
class TxRecord:
    tx_id: str
    creator: Party
    kind: str = RELATED
    consumes: tuple = ()  # ((contract_id, path_name), ...)
    witness: Witness = EMPTY_WITNESS
    declared_fee: int = 0
    call: Optional[tuple] = None  # (contract_id, BriberyCall)
    payment: Optional[tuple] = None  # (to_party, amount)


@dataclass(frozen=True, slots=True)
class Block:
    round: int
    miner: Party
    txs: tuple = ()
    unrelated_fill: int = 0
    unrelated_fee: int = 0
    capacity: int = 8
    coinbase: tuple = ()  # ((party, amount, reason), ...)


class ChainState:
    """Ledger snapshot: live contract outputs, balances, reveals, mempool.

    `meta` holds the game's fixed parameters, set by genesis: the deadline
    `T`, the refund delay `l`, and the contract and path of the protected
    transfer, `target_contract` and `target_path`.  An equal-split pact
    game also sets `split_window` (first, last): `window_blocks` counts the
    blocks each miner mined in those rounds, and stays empty without it.
    """

    __slots__ = ("height", "contracts", "live", "balances", "burned",
                 "revealed", "mempool", "mint_log", "bribery", "redemptions",
                 "fee_schedule", "meta", "known", "bribe_log", "window_blocks")

    def __init__(self, contracts=None, live=None, balances=None,
                 fee_schedule=None, meta=None):
        self.height = 0
        self.contracts: dict = contracts or {}
        self.live: dict = live or {}
        self.balances: dict = balances or {}
        self.burned = 0
        self.revealed: dict = {}  # (cid, slot) -> (value, round)
        self.mempool: dict = {}  # tx_id -> TxRecord
        self.mint_log: list = []
        self.bribery: dict = {}  # cid -> contract object
        self.redemptions: dict = {}  # cid -> (path, round, miner)
        self.fee_schedule = fee_schedule
        self.meta: dict = meta or {}
        self.known: dict = {}  # (cid, slot) -> value, mempool-or-chain knowledge
        self.bribe_log: list = []  # (party, amount, tag)
        self.window_blocks: dict = {}  # Party -> blocks mined in the window

    def clone(self) -> "ChainState":
        s = ChainState.__new__(ChainState)
        s.height = self.height
        s.contracts = dict(self.contracts)
        s.live = dict(self.live)
        s.balances = dict(self.balances)
        s.burned = self.burned
        s.revealed = dict(self.revealed)
        s.mempool = dict(self.mempool)
        s.mint_log = list(self.mint_log)
        s.bribery = dict(self.bribery)
        s.redemptions = dict(self.redemptions)
        s.fee_schedule = self.fee_schedule
        s.meta = self.meta
        s.known = dict(self.known)
        s.bribe_log = list(self.bribe_log)
        s.window_blocks = dict(self.window_blocks)
        return s

    # -- queries ----------------------------------------------------------

    def revealed_slots(self) -> dict:
        out: dict = {}
        for (cid, slot) in self.revealed:
            out.setdefault(cid, set()).add(slot)
        return out

    def reveal_round(self, cid: str, slot: str):
        entry = self.revealed.get((cid, slot))
        return entry[1] if entry else None

    def conservation_total(self) -> int:
        return (sum(self.balances.values()) + sum(self.live.values())
                + sum(c.pool_total() for c in self.bribery.values())
                + self.burned - sum(m[1] for m in self.mint_log))

    def snapshot_key(self) -> tuple:
        """Canonical value for replay-determinism comparisons."""
        return (self.height,
                tuple(sorted((p.id, v) for p, v in self.balances.items())),
                self.burned,
                tuple(sorted(self.live.items())),
                tuple(sorted((cid, slot, v, r) for (cid, slot), (v, r)
                             in self.revealed.items())),
                tuple(sorted((cid, c.status if isinstance(c.status, str)
                              else c.status[1])
                             for cid, c in self.contracts.items())),
                tuple(sorted(m[0].id for m in self.mint_log)))

    def merge_key(self) -> tuple:
        """Canonical value of every field that a policy, contract, label or
        outcome reads: two states of one game with equal keys play out
        identically from the same round on.

        Within one game a transaction id names its content, so the mempool
        enters by ids; contracts change only in status, and the fee
        schedule and meta never change after genesis.
        """
        return (self.height, frozenset(self.balances.items()), self.burned,
                frozenset(self.live.items()), frozenset(self.revealed.items()),
                frozenset(self.mempool), tuple(self.mint_log),
                tuple(self.bribe_log), frozenset(self.redemptions.items()),
                frozenset((cid, c.status) for cid, c in self.contracts.items()),
                frozenset(self.known.items()),
                frozenset((cid, c.key()) for cid, c in self.bribery.items()),
                frozenset(self.window_blocks.items()))


def broadcast(state: ChainState, txs) -> ChainState:
    """Admit transactions to the mempool; preimages become common knowledge."""
    if not txs:
        return state
    s = state.clone()
    for tx in txs:
        s.mempool[tx.tx_id] = tx
        for (cid, slot, value) in tx.witness.preimages:
            s.known[(cid, slot)] = value
    return s


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def _check_path_predicate(state: ChainState, contract: ContractInstance,
                          path: RedeemPath, witness: Witness, rnd: int) -> None:
    if path.auto_only:
        raise LedgerError("predicate-failed", "manual-redeem-disabled")
    if not path.in_window(rnd):
        raise LedgerError("predicate-failed", "timelock")
    if not path.required_signers <= witness.signers:
        raise LedgerError("predicate-failed", "signature")
    supplied = {slot: value for (cid, slot, value) in witness.preimages
                if cid == contract.contract_id}
    for slot in path.required_preimages:
        if supplied.get(slot) != contract.digests.get(slot):
            raise LedgerError("predicate-failed", f"hashlock:{slot}")
    if path.cross_reads:
        slots = state.revealed_slots()
        if not all(cr.holds(slots) for cr in path.cross_reads):
            raise LedgerError("predicate-failed", "cross-read")


def _path_outflow(path: RedeemPath, rnd: int) -> int:
    total = 0
    for eff in path.effects:
        amt = eff.amount
        if amt != REST:
            total += amt
    if path.late_burn and rnd > path.late_burn[0]:
        total += path.late_burn[1]
    return total


def validate_tx(state: ChainState, tx: TxRecord, rnd: int) -> None:
    """Raise LedgerError unless `tx` is valid against `state` at `rnd`."""
    if tx.kind == UNRELATED:
        check_amount(tx.declared_fee, "fee")
        return
    if tx.kind == CONTRACT_CALL:
        if tx.call is None or tx.call[0] not in state.bribery:
            raise LedgerError("unknown-output", "no such bribery contract")
        return
    if tx.kind == PAYMENT:
        if tx.payment is None:
            raise LedgerError("invalid-tx", "payment without destination")
        need = tx.payment[1] + tx.declared_fee
        if state.balances.get(tx.creator, 0) < need:
            raise LedgerError("over-spend", f"{tx.creator.id} cannot fund payment")
        return
    if not tx.consumes:
        raise LedgerError("unknown-output", "related tx consumes nothing")
    seen = set()
    for (cid, path_name) in tx.consumes:
        if cid in seen:
            raise LedgerError("duplicate-spend-in-block", cid)
        seen.add(cid)
        contract = state.contracts.get(cid)
        if contract is None:
            raise LedgerError("unknown-output", cid)
        if not contract.redeemable:
            raise LedgerError("unknown-output", f"{cid} already {contract.status}")
        path = contract.path(path_name)
        _check_path_predicate(state, contract, path, tx.witness, rnd)
        value = state.live.get(cid, 0)
        if _path_outflow(path, rnd) + tx.declared_fee > value:
            raise LedgerError("over-spend",
                              f"{cid} holds {value}, tx needs more")


# ---------------------------------------------------------------------------
# Application.
# ---------------------------------------------------------------------------


def fee_split(state: ChainState, path: str, fee: int, rnd: int) -> tuple:
    """(earned, burned) of a `fee` paid on `path` and included at `rnd`:
    the fee schedule's split on a path it lists, else all to the miner."""
    schedule = state.fee_schedule
    if schedule is None or path not in schedule.paid:
        return fee, 0
    return schedule.split(path, fee, rnd)


def _apply_redeem(s: ChainState, cid: str, path: RedeemPath, tx: TxRecord,
                  rnd: int, block_miner: Party) -> None:
    value = s.live.pop(cid)
    fee = tx.declared_fee
    earned, fee_burn = fee_split(s, path.name, fee, rnd)
    rest = value - fee - _path_outflow(path, rnd)
    if path.late_burn and rnd > path.late_burn[0]:
        s.burned += path.late_burn[1]
    for eff in path.effects:
        amt = rest if eff.amount == REST else eff.amount
        if isinstance(eff, Transfer):
            to = block_miner if eff.to == BLOCK_MINER else eff.to
            if to == BURN_SINK:
                s.burned += amt
            else:
                credit(s.balances, to, amt)
        elif isinstance(eff, Burn):
            s.burned += amt
        elif isinstance(eff, Forward):
            if eff.to_contract not in s.live:
                raise LedgerError("unknown-output", f"forward to {eff.to_contract}")
            s.live[eff.to_contract] += amt
        else:  # pragma: no cover - effect union is closed
            raise LedgerError("invalid-tx", f"unknown effect {eff!r}")
    credit(s.balances, block_miner, earned)
    s.burned += fee_burn
    contract = s.contracts[cid].copy()
    if all(isinstance(e, Burn) for e in path.effects):
        contract.status = BURNED
    else:
        contract.status = ("redeemed", path.name)
    s.contracts[cid] = contract
    s.redemptions[cid] = (path.name, rnd, block_miner)
    for (c, slot, value_) in tx.witness.preimages:
        if (c, slot) not in s.revealed:
            s.revealed[(c, slot)] = (value_, rnd)
            s.known[(c, slot)] = value_


def _apply_call(s: ChainState, tx: TxRecord, rnd: int, block_miner: Party) -> None:
    cid, call = tx.call
    contract = s.bribery[cid].copy_for_step()
    s.bribery[cid] = contract
    lock = 0
    if call.method == "init":
        lock = call.args["val"]
        debit(s.balances, call.caller, lock)
    view = ChainView(s, rnd, block_miner)
    payouts = bribery_contract_step(contract, call, rnd, view)
    for party, amount, tag in payouts:
        credit(s.balances, party, amount)
        s.bribe_log.append((party, amount, tag))
    if tx.declared_fee:
        debit(s.balances, tx.creator, tx.declared_fee)
        credit(s.balances, block_miner, tx.declared_fee)


class ChainView:
    """The settlement facts of one chain state, asked by bribery contracts
    as guard clauses and by miner policies: did the protected transfer
    land, and who confiscated the collateral?"""

    __slots__ = ("_s", "_rnd", "_miner")

    def __init__(self, state: ChainState, rnd: int, block_miner: Party):
        self._s = state
        self._rnd = rnd
        self._miner = block_miner

    def block_miner(self) -> Party:
        return self._miner

    def _target(self):
        return self._s.redemptions.get(self._s.meta["target_contract"])

    def target_included_by_deadline(self) -> bool:
        entry = self._target()
        return (entry is not None and entry[0] == self._s.meta["target_path"]
                and entry[1] <= self._s.meta["T"])

    def target_included_ever(self) -> bool:
        entry = self._target()
        return entry is not None and entry[0] == self._s.meta["target_path"]

    def settlement_landed(self) -> bool:
        """The target contract settled by any path but the protected one."""
        entry = self._target()
        return entry is not None and entry[0] != self._s.meta["target_path"]

    def confiscator(self):
        entry = self._s.redemptions.get(COL_ID)
        if entry is None or entry[0] != COL_M:
            return None
        return entry[2]

    def attack_window_over(self) -> bool:
        meta = self._s.meta
        return self._rnd > meta["T"] + meta["l"] + 1


def _resolve_auto_contracts(s: ChainState, rnd: int, block_miner: Party) -> None:
    slots = None
    for cid, contract in list(s.contracts.items()):
        if not contract.redeemable:
            continue
        if not any(p.auto_only for p in contract.paths):
            continue
        if slots is None:
            slots = s.revealed_slots()
        path = resolve_demba_dep(contract, slots, rnd)
        if path is not None:
            auto_tx = TxRecord(f"auto.{cid}.{rnd}", block_miner)
            _apply_redeem(s, cid, path, auto_tx, rnd, block_miner)


def _auto_refund_bribery(s: ChainState, rnd: int, block_miner: Party) -> None:
    """Release bribery funds the moment their claim is provably dead.

    Anyone may trigger the refund methods, so the model fires them promptly
    rather than leaving funds hostage to who mines next: the censorship
    budget returns to its owner once the target tx has landed, and pact
    collateral returns once no eligible confiscation claim can ever succeed.
    """
    view = None
    for cid, contract in list(s.bribery.items()):
        if contract.settled:
            continue
        if view is None:
            view = ChainView(s, rnd, block_miner)
        if isinstance(contract, CensorBriberyContract):
            if not (view.target_included_ever() and contract.deposit > 0):
                continue
            fresh = contract.copy_for_step()
            payouts = fresh.refund_owner(True)
        else:  # MinerPactContract
            # Dead once the target landed, or once the collateral went to
            # the payer or to a non-member: neither holds a lock.
            if not (view.target_included_ever() or (
                    COL_ID in s.redemptions
                    and contract.locked.get(view.confiscator(), 0) == 0)):
                continue
            fresh = contract.copy_for_step()
            payouts = fresh.refund_all()
        for party, amount, tag in payouts:
            credit(s.balances, party, amount)
            s.bribe_log.append((party, amount, tag))
        s.bribery[cid] = fresh


def apply_block(state: ChainState, block: Block) -> ChainState:
    """Validate and apply one block; returns the successor state."""
    if block.round != state.height + 1:
        raise LedgerError("stale-round",
                          f"block {block.round} onto height {state.height}")
    if len(block.txs) + block.unrelated_fill > block.capacity:
        raise LedgerError("invalid-tx", "block over capacity")
    s = state.clone()
    consumed_this_block: set = set()
    for i, tx in enumerate(block.txs):
        for (cid, _) in tx.consumes:
            if cid in consumed_this_block:
                raise LedgerError("duplicate-spend-in-block", f"tx {i}: {cid}")
        try:
            validate_tx(s, tx, block.round)
        except LedgerError as e:
            raise LedgerError("invalid-tx", f"tx {i} ({tx.tx_id}): {e}") from e
        if tx.kind == RELATED:
            for (cid, path_name) in tx.consumes:
                path = s.contracts[cid].path(path_name)
                _apply_redeem(s, cid, path, tx, block.round, block.miner)
                consumed_this_block.add(cid)
        elif tx.kind == UNRELATED:
            debit(s.balances, EXTERNAL, tx.declared_fee)
            credit(s.balances, block.miner, tx.declared_fee)
        elif tx.kind == PAYMENT:
            to, amount = tx.payment
            debit(s.balances, tx.creator, amount + tx.declared_fee)
            credit(s.balances, to, amount)
            credit(s.balances, block.miner, tx.declared_fee)
        else:
            _apply_call(s, tx, block.round, block.miner)
        s.mempool.pop(tx.tx_id, None)
    if block.unrelated_fill:
        total = block.unrelated_fill * block.unrelated_fee
        debit(s.balances, EXTERNAL, total)
        credit(s.balances, block.miner, total)
    for party, amount, reason in block.coinbase:
        check_amount(amount)
        credit(s.balances, party, amount)
        s.mint_log.append((party, amount, reason))
    _resolve_auto_contracts(s, block.round, block.miner)
    _auto_refund_bribery(s, block.round, block.miner)
    window = s.meta.get("split_window")
    if window is not None and window[0] <= block.round <= window[1]:
        s.window_blocks[block.miner] = s.window_blocks.get(block.miner, 0) + 1
    s.height = block.round
    return s
