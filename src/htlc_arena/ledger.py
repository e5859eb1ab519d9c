"""Fork-free discrete-round ledger.

One block per round, applied functionally: apply_block returns a successor
ChainState and never touches its input, so states are safe to keep as
snapshots.  Conservation is the load-bearing invariant: balances plus live
deposits plus bribery pools plus burned tokens, net of explicit mints, is
constant across every block.

A chain state is built from read-only parts (balances, live deposits,
reveals, mempool, mint and bribe logs, redemptions, contracts, known
preimages and bribery contracts), shared by reference between a state
and its successor.  Each part caches, on first use, the sum it adds to
`ChainState.conservation_total` and, if it is a control part (below), its
share of `ChainState.control_key`.  Every write goes through one step:
`draft` a successor that shares every part, `write` a part, which copies
it on its first write into the part type's writable twin, and `seal`,
which turns each written twin into its read-only type in place.  So a
step copies each part it writes once and every part it does not write
not at all: a block that changes nothing shares its parent's parts,
control key and total.

The six control parts (live deposits, reveals, mempool, known preimages,
bribery contracts and redemptions, whose miner counts only on a col-M
confiscation) fix all that a policy, a contract guard, a label or a
terminal tag reads: `ChainState.control_key`.  Contract statuses are read
too, but the redemptions imply them: at genesis every status is
`REDEEMABLE` and no contract is redeemed, and the one status write, in
`_apply_redeem`, comes with the contract's redemption, whose path fixes
it: `BURNED` if every effect of the path burns, else `("redeemed", path)`.
The payoff parts (balances, the burned total, the mint and bribe logs,
and the miner of every other redemption) are only ever added to.
The ledger reads balances in two checks alone, the over-spend check on a
payment and `debit`'s underflow check, and both fail exactly when a
debit takes a balance below zero; so a step records each debited party's
lowest balance (`ChainState.lows`), which tells how far below its start
the step took each balance.

Unrelated traffic is modelled as an inexhaustible supply of filler
transactions, each paying exactly the game's base fee `meta["f"]`; blocks
carry them as a count, held with their transactions to `meta["capacity"]`.

`validate_tx` checks a transaction and returns the spends it checked: for
a related transaction, per contract it consumes, the contract id, the
`RedeemPath`, the path's outflow and the fee's (earned, burned) split.
`apply_block` validates each transaction of a block and applies exactly
those spends, so each spend's path lookup, outflow and fee split happen
once; a block without transactions skips that walk.  Miner policies probe
a transaction's validity and earned fee through the same call.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple, Optional

from .core import (BLOCK_MINER, EXTERNAL, LedgerError, Party, check_amount,
                   credit, debit)
from .contracts import (BURNED, Burn, COL_ID, COL_M, CensorBriberyContract,
                        ContractInstance, Forward, REST, RedeemPath, Transfer,
                        bribery_contract_step, resolve_demba_dep)

RELATED = "related"
CONTRACT_CALL = "contract-call"
PAYMENT = "payment"


class Witness(NamedTuple):
    """Exact-witness evidence: asserted signers and bit-exact preimages.
    A named tuple, as `TxRecord` is: a party's transactions carry a
    witness built afresh each time a policy broadcasts them."""

    preimages: frozenset = frozenset()  # (contract_id, slot, value)
    signers: frozenset = frozenset()  # Party


EMPTY_WITNESS = Witness()


class TxRecord(NamedTuple):
    """One transaction.  A named tuple: policies build a transaction each
    time they broadcast or mine one, and a tuple builds in a third of a
    frozen dataclass's time or less."""

    tx_id: str
    creator: Party
    kind: str = RELATED
    consumes: tuple = ()  # ((contract_id, path_name), ...)
    witness: Witness = EMPTY_WITNESS
    declared_fee: int = 0
    call: Optional[tuple] = None  # (contract_id, BriberyCall)
    payment: Optional[tuple] = None  # (to_party, amount)


class Block(NamedTuple):
    """One round's block: only what its miner chooses, as the game's
    capacity and filler fee are the chain state's (`meta`).  A named tuple:
    blocks are built once per mined branch, and a tuple builds in about
    half a frozen dataclass's time."""

    round: int
    miner: Party
    txs: tuple = ()
    unrelated_fill: int = 0
    coinbase: tuple = ()  # ((party, amount, reason), ...)


def _refuse(self, *args, **kwargs):
    raise TypeError("chain-state parts are read-only; write a part "
                    "through ChainState.draft")


class _Cached:
    """What a part derives from its contents, computed on first use: the
    sum it adds to the conservation total and, for a mapping, its key
    (`Part.key`).  Build a part with `of`, which starts both caches empty."""

    __slots__ = ()

    @classmethod
    def of(cls, items=()):
        part = cls(items)
        part._key = part._total = None
        return part

    def total(self) -> int:
        if self._total is None:
            self._total = self._make_total()
        return self._total


class Part(_Cached, dict):
    """A read-only mapping part; its key is its items, its sum its values.
    A control part's key is its share of `ChainState.control_key`."""

    __slots__ = ("_key", "_total")
    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def key(self):
        if self._key is None:
            self._key = self._make_key()
        return self._key

    def _make_key(self):
        return frozenset(self.items())

    def _make_total(self) -> int:
        return sum(self.values())


class Mempool(Part):
    """tx_id -> TxRecord.  Within one game a transaction id names its
    content, so the key holds the ids only."""

    __slots__ = ()

    def _make_key(self):
        return frozenset(self)


class Bribery(Part):
    """cid -> bribery contract.  The contracts are frozen: a step that
    changes one puts the contract it returns in its place."""

    __slots__ = ()

    def _make_key(self):
        return frozenset((cid, c.key()) for cid, c in self.items())

    def _make_total(self) -> int:
        return sum(c.pool_total() for c in self.values())


class Redemptions(Part):
    """cid -> (path, round, miner).  A miner is read only as the
    confiscator of a col-M redemption (`ChainView.confiscator`), so the
    control key keeps it there alone."""

    __slots__ = ()

    def _make_key(self):
        return frozenset((cid, path, rnd, miner if path == COL_M else None)
                         for cid, (path, rnd, miner) in self.items())


class Log(_Cached, list):
    """A read-only log of (party, amount, tag) entries; its sum is the
    amounts'.  A log is a payoff part and has no key; it has the slot only
    so that every part starts its caches alike."""

    __slots__ = ("_key", "_total")
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = clear = extend = insert = pop = remove = reverse = sort = _refuse

    def _make_total(self) -> int:
        return sum(entry[1] for entry in self)


def _writable(cls):
    """The writable twin of part type `cls`: a subclass that puts back
    every write `cls` refuses.  It adds no slot, so `seal` can turn a twin
    into a `cls` in place by assigning its class."""
    base = dict if issubclass(cls, dict) else list
    writes = {name: getattr(base, name) for name in dir(cls)
              if getattr(cls, name) is _refuse}
    return type(f"Writable{cls.__name__}", (cls,), {"__slots__": (), **writes})


#: The type each part is sealed as.
_PART_TYPES = {"balances": Part, "live": Part, "revealed": Part,
               "mempool": Mempool, "mint_log": Log, "bribe_log": Log,
               "redemptions": Redemptions, "contracts": Part,
               "known": Part, "bribery": Bribery}
#: The writable twin of each part's type, which `ChainState.write` hands out.
_WRITABLE = {name: _writable(cls) for name, cls in _PART_TYPES.items()}
#: Empty parts: read-only, so every state may share them.
_EMPTY, _EMPTY_MEMPOOL, _EMPTY_LOG, _EMPTY_BRIBERY, _EMPTY_REDEMPTIONS = (
    Part.of(), Mempool.of(), Log.of(), Bribery.of(), Redemptions.of())
#: The lows of a step that debited no one.
_NO_LOWS = MappingProxyType({})
#: The parts `conservation_total` sums.
_SUMMED = frozenset({"balances", "live", "mint_log", "bribery"})
#: The parts `control_key` reads.
_CONTROL = frozenset({"live", "revealed", "mempool", "known", "bribery",
                      "redemptions"})


class ChainState:
    """Ledger snapshot: a plain value of a height, the burned total, the
    game's fixed `meta` and the read-only parts, plus the lowest balance
    of each party the step that made it debited (`lows`).

    The parts are `balances` (Party -> tokens), `live` (cid -> deposit),
    `revealed` ((cid, slot) -> (value, round)), `mempool`, `mint_log` and
    `bribe_log` ((party, amount, tag) entries), `redemptions`
    (cid -> (path, round, miner)), `contracts`, `known` (slot -> value,
    mempool-or-chain knowledge) and `bribery`.
    Each caches its share of `conservation_total` and, if it is a control
    part, of `control_key` (`Part`), and the state caches its total and its
    control key, so both cost nothing on a state whose parts are all its
    parent's.

    A state is written only as a draft: `draft()` returns a successor that
    shares every part, `write(name)` hands out the draft's own writable
    copy of one part, and `credit`, `debit` and `burn` write through it.
    The copy is made on the part's first write in the draft, as the writable
    twin of the part's type (`_writable`), and that write drops the cached
    total or control key the part is in.  `seal()` turns each written twin
    into its read-only type in place, with empty caches, so the sealed
    state holds the very object `write` handed out, now refusing writes,
    and a step copies each part it writes once.  A sealed state refuses
    writes.  A draft starts with no `lows`; each debit
    records the debited party's balance after it if that is the lowest so
    far.

    `meta` holds the game's fixed parameters, set by genesis: the deadline
    `T`, the refund delay `l`, the block `capacity`, the filler fee `f` and
    the protected transfer's `target_contract` and `target_path`.  It may
    also hold the `fee_schedule` (`fee_split`) and `auto_ids`, the contracts
    that have an automatic path, which are the only ones a block may
    resolve on its own; either is taken as none when absent.
    """

    __slots__ = ("height", "burned", "meta", *_PART_TYPES, "lows",
                 "_control", "_total", "_written")

    def __init__(self, contracts=None, live=None, balances=None, meta=None):
        self.height = 0
        self.burned = 0
        self.meta = MappingProxyType(dict(meta or {}))
        self.contracts = Part.of(contracts or ())
        self.live = Part.of(live or ())
        self.balances = Part.of(balances or ())
        self.revealed = self.known = _EMPTY
        self.redemptions = _EMPTY_REDEMPTIONS
        self.mempool = _EMPTY_MEMPOOL
        self.mint_log = self.bribe_log = _EMPTY_LOG
        self.bribery = _EMPTY_BRIBERY
        self.lows = _NO_LOWS
        self._control = self._total = None
        self._written = None

    # -- the one write path -------------------------------------------------

    def draft(self) -> "ChainState":
        """A successor that shares every part (and so the control key and
        total)."""
        if self._written is not None:
            raise TypeError("cannot draft from an unsealed chain state")
        s = ChainState.__new__(ChainState)
        s.height = self.height
        s.burned = self.burned
        s.meta = self.meta
        s.balances = self.balances
        s.live = self.live
        s.revealed = self.revealed
        s.mempool = self.mempool
        s.mint_log = self.mint_log
        s.bribe_log = self.bribe_log
        s.redemptions = self.redemptions
        s.contracts = self.contracts
        s.known = self.known
        s.bribery = self.bribery
        s.lows = _NO_LOWS
        s._control = self._control
        s._total = self._total
        s._written = {}
        return s

    def write(self, name: str):
        """This draft's own writable copy of part `name`, the twin of the
        part's type, made on the part's first write in this draft."""
        written = self._written
        if written is None:
            raise TypeError("a sealed chain state is read-only")
        part = written.get(name)
        if part is None:
            part = written[name] = _WRITABLE[name](getattr(self, name))
            setattr(self, name, part)
            if name in _SUMMED:
                self._total = None
            if name in _CONTROL:
                self._control = None
        return part

    def credit(self, party: Party, amount: int) -> None:
        """Credit `party`; a zero credit to a holder writes nothing."""
        balances = self.balances
        if type(balances) is Part:  # not written yet in this draft
            if not amount and party in balances:
                return
            balances = self.write("balances")
        credit(balances, party, amount)

    def debit(self, party: Party, amount: int) -> None:
        """Debit `party` (never below 0) and keep its lowest balance in
        `lows`; a zero debit writes nothing."""
        balances = self.balances
        if type(balances) is Part:  # not written yet in this draft
            if not amount and party in balances:
                return
            balances = self.write("balances")
        debit(balances, party, amount)
        lows = self.lows
        if lows is _NO_LOWS:
            lows = self.lows = {}
        have = balances[party]
        if have < lows.get(party, have + 1):
            lows[party] = have

    def burn(self, amount: int) -> None:
        """Add `amount` to the burned total; burning 0 writes nothing."""
        if amount:
            if self._written is None:
                raise TypeError("a sealed chain state is read-only")
            self.burned += amount
            self._total = None

    def seal(self) -> "ChainState":
        """Make the parts this draft wrote read-only, in place and with
        empty caches; returns the finished state."""
        for name, part in self._written.items():
            part.__class__ = _PART_TYPES[name]
            part._key = part._total = None  # as `of` does
        self._written = None
        return self

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
        total = self._total
        if total is None:
            total = self._total = (
                self.balances.total() + self.live.total()
                + self.bribery.total() + self.burned - self.mint_log.total())
        return total

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

    def control_key(self) -> tuple:
        """Canonical value of every field that a policy, contract guard,
        label or terminal tag reads: two states of one game with equal
        control keys build the same blocks, make the same broadcasts and
        carry the same labels from the same round on, whatever their payoff
        parts hold.

        It is (height, body key), and the body key is the six control
        parts' cached keys, with a redemption's miner kept only on a col-M
        confiscation (`Redemptions`); meta never changes after genesis.  A
        successor that writes no control part keeps its parent's body key.
        Contract statuses are left out: `_apply_redeem` writes one only
        with the redemption that implies it (see the module docstring).
        """
        key = self._control
        if key is None:
            key = self._control = (
                self.live.key(), self.revealed.key(), self.mempool.key(),
                self.known.key(), self.bribery.key(), self.redemptions.key())
        return self.height, key


def broadcast(state: ChainState, txs) -> ChainState:
    """Admit transactions to the mempool; preimages become common knowledge."""
    if not txs:
        return state
    s = state.draft()
    for tx in txs:
        held = s.mempool.get(tx.tx_id)
        if held is None or held != tx:
            s.write("mempool")[tx.tx_id] = tx
        for (_, slot, value) in tx.witness.preimages:
            if s.known.get(slot) != value:
                s.write("known")[slot] = value
    return s.seal()


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def _check_path_predicate(contract: ContractInstance, path: RedeemPath,
                          witness: Witness, rnd: int) -> None:
    # Only auto-only paths have `cross_reads`; `resolve_demba_dep` reads them.
    if path.auto_only:
        raise LedgerError("predicate-failed", "manual-redeem-disabled")
    if not path.in_window(rnd):
        raise LedgerError("predicate-failed", "timelock")
    if not path.required_signers <= witness.signers:
        raise LedgerError("predicate-failed", "signature")
    if path.required_preimages:
        supplied = {slot: value for (cid, slot, value) in witness.preimages
                    if cid == contract.contract_id}
        for slot in path.required_preimages:
            if supplied.get(slot) != contract.digests.get(slot):
                raise LedgerError("predicate-failed", f"hashlock:{slot}")


def _path_outflow(path: RedeemPath, rnd: int) -> int:
    total = 0
    for eff in path.effects:
        amt = eff.amount
        if amt != REST:
            total += amt
    if path.late_burn and rnd > path.late_burn[0]:
        total += path.late_burn[1]
    return total


def validate_tx(state: ChainState, tx: TxRecord, rnd: int):
    """Raise LedgerError unless `tx` is valid against `state` at `rnd`: a
    fee below 0, a kind other than `apply_block`'s three, or an init of a
    censorship bribery contract that is already funded is invalid.

    Returns the spends it checked, which `apply_block` applies as they
    are: for a related tx one (contract id, `RedeemPath`, outflow, earned
    fee, burned fee) tuple per contract it consumes, in order, where the
    outflow is what the path pays out besides the fee and rest (its fixed
    effects and any late burn) and the fee split is `fee_split`'s; for the
    other kinds, which spend no contract, ().
    """
    fee = tx.declared_fee
    if fee < 0:
        raise LedgerError("invalid-tx", f"negative fee {fee}")
    if tx.kind == CONTRACT_CALL:
        if tx.call is None or tx.call[0] not in state.bribery:
            raise LedgerError("unknown-output", "no such bribery contract")
        cid, call = tx.call
        contract = state.bribery[cid]
        # `_apply_call` debits every init, and an init sets the deposit.
        # Only a funded contract settles, and a settled one keeps its
        # deposit, so this refuses an init of a settled contract too.
        if (call.method == "init"
                and isinstance(contract, CensorBriberyContract)
                and contract.deposit):
            raise LedgerError("invalid-tx", f"{cid} already funded")
        return ()
    if tx.kind == PAYMENT:
        if tx.payment is None:
            raise LedgerError("invalid-tx", "payment without destination")
        amount = tx.payment[1]
        if amount < 0:
            raise LedgerError("invalid-tx", f"negative payment amount {amount}")
        if state.balances.get(tx.creator, 0) < amount + fee:
            raise LedgerError("over-spend", f"{tx.creator.id} cannot fund payment")
        return ()
    if tx.kind != RELATED:
        raise LedgerError("invalid-tx", f"unknown kind {tx.kind!r}")
    if not tx.consumes:
        raise LedgerError("unknown-output", "related tx consumes nothing")
    spends = []
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
        if path is None:
            raise LedgerError("unknown-output",
                              f"{cid} has no path {path_name!r}")
        _check_path_predicate(contract, path, tx.witness, rnd)
        value = state.live.get(cid, 0)
        outflow = _path_outflow(path, rnd)
        if outflow + fee > value:
            raise LedgerError("over-spend",
                              f"{cid} holds {value}, tx needs more")
        spends.append((cid, path, outflow, *fee_split(state, path_name, fee,
                                                      rnd)))
    return spends


# ---------------------------------------------------------------------------
# Application.
# ---------------------------------------------------------------------------


def fee_split(state: ChainState, path: str, fee: int, rnd: int) -> tuple:
    """(earned, burned) of a `fee` paid on `path` and included at `rnd`:
    the fee schedule's split on a path it lists, else all to the miner.
    A fee other than the one the schedule lists for its path is refused
    here alone, with the schedule's detail."""
    schedule = state.meta.get("fee_schedule")
    if schedule is None or path not in schedule.paid:
        return fee, 0
    paid = schedule.paid[path]
    if fee != paid:
        raise LedgerError("fee-mismatch",
                          f"path {path!r} pays {paid}, declared {fee}")
    return schedule.split(path, rnd)


def _apply_redeem(s: ChainState, spend: tuple, fee: int, preimages,
                  rnd: int, block_miner: Party) -> None:
    """Apply one spend as `validate_tx` returned it, paying `fee` and
    publishing `preimages`; the path's effects decide the contract's new
    status in the same pass that applies them."""
    cid, path, outflow, earned, fee_burn = spend
    live = s.write("live")
    rest = live.pop(cid) - fee - outflow
    if path.late_burn and rnd > path.late_burn[0]:
        s.burn(path.late_burn[1])
    burns_only = True
    for eff in path.effects:
        amt = rest if eff.amount == REST else eff.amount
        if isinstance(eff, Transfer):
            s.credit(block_miner if eff.to == BLOCK_MINER else eff.to, amt)
        elif isinstance(eff, Burn):
            s.burn(amt)
            continue
        elif isinstance(eff, Forward):
            if eff.to_contract not in live:
                raise LedgerError("unknown-output", f"forward to {eff.to_contract}")
            live[eff.to_contract] += amt
        else:  # pragma: no cover - effect union is closed
            raise LedgerError("invalid-tx", f"unknown effect {eff!r}")
        burns_only = False
    s.credit(block_miner, earned)
    s.burn(fee_burn)
    c = s.contracts[cid]
    s.write("contracts")[cid] = ContractInstance(
        c.contract_id, c.digests, c.paths,
        BURNED if burns_only else ("redeemed", path.name))
    s.write("redemptions")[cid] = (path.name, rnd, block_miner)
    for (c, slot, value) in preimages:
        if (c, slot) not in s.revealed:
            s.write("revealed")[(c, slot)] = (value, rnd)
            if s.known.get(slot) != value:
                s.write("known")[slot] = value


def _apply_call(s: ChainState, tx: TxRecord, rnd: int, block_miner: Party) -> None:
    cid, call = tx.call
    if call.method == "init":
        s.debit(call.caller, call.args["val"])
    before = s.bribery[cid]
    after, payouts = bribery_contract_step(before, call, rnd,
                                           ChainView(s, rnd, block_miner))
    if after is not before:
        s.write("bribery")[cid] = after
    _pay(s, payouts)
    if tx.declared_fee:
        s.debit(tx.creator, tx.declared_fee)
        s.credit(block_miner, tx.declared_fee)


def _pay(s: ChainState, payouts) -> None:
    """Credit a bribery contract's payouts and log each one."""
    for party, amount, tag in payouts:
        s.credit(party, amount)
        s.write("bribe_log").append((party, amount, tag))


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


def _apply_txs(s: ChainState, txs: tuple, rnd: int, block_miner: Party) -> None:
    """Validate and apply a block's transactions, in order, to draft `s`."""
    spent: set = set()
    for i, tx in enumerate(txs):
        for (cid, _) in tx.consumes:
            if cid in spent:
                raise LedgerError("duplicate-spend-in-block", f"tx {i}: {cid}")
        try:
            spends = validate_tx(s, tx, rnd)
        except LedgerError as e:
            raise LedgerError("invalid-tx", f"tx {i} ({tx.tx_id}): {e}") from e
        if tx.kind == RELATED:
            for spend in spends:
                _apply_redeem(s, spend, tx.declared_fee, tx.witness.preimages,
                              rnd, block_miner)
                spent.add(spend[0])
        elif tx.kind == PAYMENT:
            to, amount = tx.payment
            s.debit(tx.creator, amount + tx.declared_fee)
            s.credit(to, amount)
            s.credit(block_miner, tx.declared_fee)
        else:  # CONTRACT_CALL, the one kind left that validates
            _apply_call(s, tx, rnd, block_miner)
        if tx.tx_id in s.mempool:
            del s.write("mempool")[tx.tx_id]


def _resolve_auto_contracts(s: ChainState, auto_ids: tuple, rnd: int,
                            block_miner: Party) -> None:
    """Fire the automatic path of each contract in `auto_ids` that is
    still redeemable and whose condition now holds."""
    slots = None
    for cid in auto_ids:
        contract = s.contracts[cid]
        if not contract.redeemable:
            continue
        if slots is None:
            slots = s.revealed_slots()
        path = resolve_demba_dep(contract, slots, rnd)
        if path is not None:
            # An automatic path is taken by no transaction: it pays no fee
            # and publishes nothing.
            _apply_redeem(s, (cid, path, _path_outflow(path, rnd), 0, 0), 0,
                          (), rnd, block_miner)


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
            if not view.target_included_ever():
                continue
            fresh, payouts = contract.refund_owner(True)
            if fresh is contract:  # an unfunded budget waits for its funding
                continue
        else:  # MinerPactContract
            # Dead once the target landed, or once the collateral went to
            # the payer or to a non-member: neither holds a lock.
            if not (view.target_included_ever() or (
                    COL_ID in s.redemptions
                    and contract.locked.get(view.confiscator(), 0) == 0)):
                continue
            fresh, payouts = contract.refund_all()
        _pay(s, payouts)
        s.write("bribery")[cid] = fresh


def apply_block(state: ChainState, block: Block) -> ChainState:
    """Validate and apply one block; returns the successor state.

    Each transaction is validated against the state the block's earlier
    transactions left, then applied as `validate_tx` checked it, so each
    spend's path, outflow and fee split are found once.  A block without
    transactions skips that walk.
    """
    rnd = block.round
    if rnd != state.height + 1:
        raise LedgerError("stale-round",
                          f"block {rnd} onto height {state.height}")
    txs, fill = block.txs, block.unrelated_fill
    if fill < 0:
        raise LedgerError("invalid-tx", f"negative fill {fill}")
    if len(txs) + fill > state.meta["capacity"]:
        raise LedgerError("invalid-tx", "block over capacity")
    s = state.draft()
    if txs:
        _apply_txs(s, txs, rnd, block.miner)
    if fill:
        total = fill * s.meta["f"]
        s.debit(EXTERNAL, total)
        s.credit(block.miner, total)
    for party, amount, reason in block.coinbase:
        check_amount(amount)
        s.credit(party, amount)
        s.write("mint_log").append((party, amount, reason))
    auto_ids = s.meta.get("auto_ids")
    if auto_ids:
        _resolve_auto_contracts(s, auto_ids, rnd, block.miner)
    if s.bribery:
        _auto_refund_bribery(s, rnd, block.miner)
    s.height = rnd
    return s.seal()
