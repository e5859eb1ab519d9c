"""Predicate-guarded deposit contracts for the four protocol variants.

A contract is a deposit, whose value the chain state holds, plus a list
of redeem paths.  Each path names the hashlock slots and signers it
requires, an inclusion window, and an ordered effect list.  Exactly one
effect per path carries the REST sentinel: it receives whatever is left
of the deposit after fixed effects and the transaction fee, which is how
a UTXO-style "fee = inputs - outputs" model falls out of the data.

Also here: the fee schedule of the two-phase commit protocol and the two
adversarial bribery contracts miners and payers use to coordinate
censorship.  The fee rule: a commit on a scheduled path pays exactly its
scheduled fee; a miner including it at round t <= T earns all of it, and
after T earns floor(alpha^(t-T) * fee) while the rest burns
(`FeeSchedule.split`; `ledger.fee_split` refuses any other fee on a
scheduled path and splits the paid one).
`check_fee_schedule` holds a schedule to Eq.1/Eq.2 when a demba deposit
is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple, Optional, Union

from .core import BLOCK_MINER, ContractError, Party, check_amount

# Redeem path names.
DEP_A = "dep-A"
DEP_B = "dep-B"
DEP_M = "dep-M"
COL_B = "col-B"
COL_M = "col-M"
DEP_BURN = "dep-Burn"
PRE_A = "pre_A"
PRE_A2 = "pre_A'"
PRE_AA2 = "pre_AA'"
PRE_B = "pre_B"

# Contract ids: the builders' protocol contracts, then the bribery contracts.
DEP_ID = "dep"
COL_ID = "col"
COL_A_ID = "col-A"
COL_B_ID = "col-B-contract"
CBOB_ID = "cbob"
CM2M_ID = "cm2m"

#: Preimage of each hashlock slot.  Contracts store these values as their
#: digests (exact-witness model), so a witness must carry them bit-exact.
SECRETS = {PRE_A: "secret:pre_A", PRE_A2: "secret:pre_A'", PRE_B: "secret:pre_B"}

#: Sentinel amount: deposit minus fee minus all fixed effects.
REST = "rest"

Amount = Union[int, str]


class Transfer(NamedTuple):
    """Pay `amount` to a party (`core.BLOCK_MINER`: the including miner).
    A named tuple, as every record a contract builder makes: each genesis
    builds its paths and effects afresh, and a tuple builds in about half
    a frozen dataclass's time."""

    to: Party
    amount: Amount


class Burn(NamedTuple):
    """Burn `amount`.  A named tuple, as `Transfer` is."""

    amount: Amount


class Forward(NamedTuple):
    """Move `amount` into another contract's live deposit.  A named
    tuple, as `Transfer` is."""

    to_contract: str
    amount: Amount


Effect = Union[Transfer, Burn, Forward]


class CrossRead(NamedTuple):
    """Condition over another contract's on-chain revealed slots.  A named
    tuple, as `Transfer` is."""

    contract_id: str
    must_have: frozenset
    must_not: frozenset = frozenset()

    def holds(self, revealed_slots) -> bool:
        """True if `revealed_slots` (contract_id -> set of slot names) has
        every `must_have` slot and no `must_not` slot of the contract."""
        have = revealed_slots.get(self.contract_id, frozenset())
        return self.must_have <= have and not have & self.must_not


class RedeemPath(NamedTuple):
    """One way to spend a contract.  A named tuple, as `Transfer` is."""

    name: str
    effects: tuple
    required_preimages: frozenset = frozenset()
    required_signers: frozenset = frozenset()
    earliest: int = 0
    latest: Optional[int] = None  # None = open-ended
    cross_reads: tuple = ()
    # Extra burn applied when the tx lands strictly after the given round.
    late_burn: Optional[tuple] = None  # (after_round, amount)
    # Auto paths fire from inside apply_block; manual redemption is invalid.
    auto_only: bool = False

    def in_window(self, rnd: int) -> bool:
        if rnd < self.earliest:
            return False
        return self.latest is None or rnd <= self.latest


REDEEMABLE = "redeemable"
BURNED = "burned"


@dataclass(frozen=True, slots=True)
class ContractInstance:
    """A single deposit output with one-shot redemption; what it holds
    is the chain state's `live` part alone.

    Frozen, so a chain state that shares it cannot see it change: a
    redemption replaces the instance with one of the new status.
    """

    contract_id: str
    digests: dict  # slot -> expected preimage value (exact-witness model)
    paths: tuple
    status: object = REDEEMABLE  # REDEEMABLE | ("redeemed", path) | BURNED

    def path(self, name: str) -> Optional[RedeemPath]:
        for p in self.paths:
            if p.name == name:
                return p
        return None

    @property
    def redeemable(self) -> bool:
        return self.status == REDEEMABLE


# ---------------------------------------------------------------------------
# Fee schedule: paid vs earned with geometric post-deadline decay.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeeSchedule:
    """Paid fees per commit path, with earned fees decaying after round T.

    For a tx landing at round t <= T the miner earns the full paid fee.
    After T the miner earns floor(alpha^(t-T) * paid) and the remainder is
    burned.  The alpha exponent restarts at T so the honest era has a zero
    paid/earned gap.
    """

    paid: dict  # path name -> int, held as a read-only copy
    alpha: Fraction
    T: int

    def __post_init__(self):
        object.__setattr__(self, "paid", MappingProxyType(dict(self.paid)))

    def split(self, path: str, inclusion_round: int) -> tuple:
        """(miner_earned, burned) of `path`'s paid fee at `inclusion_round`;
        `ledger.fee_split` refuses a transaction that declares another."""
        base = self.paid[path]
        if base == 0 or inclusion_round <= self.T:
            return base, 0
        k = inclusion_round - self.T
        n, d = self.alpha.as_integer_ratio()
        earned = min(base, base * n**k // d**k)
        return earned, base - earned


def check_fee_schedule(schedule: FeeSchedule) -> None:
    """Raise ContractError at the first violation of Eq.1/Eq.2.

    Paid fees must be non-negative ints, given for the four commit paths
    and no other, that rise strictly across the payee's three.
    0 < alpha <= 1, and the derived miner-earned ordering must run the
    other way: each further deviation path is priced one extra decay
    step, so in exact arithmetic
    paid[pre_A] > alpha*paid[pre_A'] > alpha^2*paid[pre_AA'] must hold,
    which makes the earned tuple strictly decreasing at every round.
    alpha = 1 never burns and so voids the deterrent; it is accepted, and
    its earned ordering (which the paid ordering contradicts) is not asked.

    The burn shape needs no check: `FeeSchedule.split` burns nothing up to
    T, and for 0 < alpha <= 1 the decayed share alpha^(t-T) never grows
    with t, so the burn never shrinks in a later round.
    """
    def invalid(violation: str) -> ContractError:
        return ContractError(f"invalid fee schedule (Eq.1/Eq.2): {violation}",
                             "fee_schedule")

    p = schedule.paid
    paths = (PRE_A, PRE_A2, PRE_AA2, PRE_B)
    for name in p:
        if name not in paths:
            # The ledger would charge this path's txs a fee none declares.
            raise invalid(f"paid fee for {name!r}, which is not one of "
                          f"{', '.join(paths)}")
    for name in paths:
        if name not in p:
            raise invalid(f"missing paid fee for {name}")
        if type(p[name]) is not int or p[name] < 0:
            raise invalid(f"paid fee for {name} must be a non-negative int, "
                          f"got {p[name]!r}")
    if not (p[PRE_A] < p[PRE_A2] < p[PRE_AA2]):
        raise invalid(f"paid ordering violated: need {p[PRE_A]} < "
                      f"{p[PRE_A2]} < {p[PRE_AA2]}")
    # In integers: alpha = n/d with d > 0, so the ordering is scaled by d^2.
    n, d = schedule.alpha.as_integer_ratio()
    if n <= 0:
        raise invalid("alpha must be positive")
    if n > d:
        raise invalid("alpha above 1 would grow fees")
    if n < d and not (p[PRE_A] * d * d > n * d * p[PRE_A2]
                      > n * n * p[PRE_AA2]):
        raise invalid("earned ordering violated: decayed fees do not "
                      "decrease across paths")


# ---------------------------------------------------------------------------
# Protocol builders.
# ---------------------------------------------------------------------------


def build_naive_htlc(alice: Party, bob: Party, v_dep: int, digest_a: str,
                     T: int) -> ContractInstance:
    """Single deposit: payee path on the preimage until T, payer refund after."""
    if v_dep <= 0:
        raise ContractError("deposit must be positive", "v_dep")
    if T <= 0:
        raise ContractError("timeout must be positive", "T")
    paths = (
        RedeemPath(DEP_A, (Transfer(alice, REST),),
                   required_preimages=frozenset({PRE_A}),
                   required_signers=frozenset({alice}), earliest=0, latest=T),
        RedeemPath(DEP_B, (Transfer(bob, REST),),
                   required_signers=frozenset({bob}), earliest=T + 1),
    )
    check_amount(v_dep, "v_dep")
    return ContractInstance(DEP_ID, {PRE_A: digest_a}, paths)


def _require_positive(v_dep: int, v_col: int) -> None:
    if v_dep <= 0:
        raise ContractError("deposit must be positive", "v_dep")
    if v_col <= 0:
        raise ContractError("collateral must be positive", "v_col")


def build_mad_htlc(alice: Party, bob: Party, v_dep: int, v_col: int,
                   digests: dict, T: int) -> tuple:
    """Deposit plus payer collateral, both confiscatable on a double reveal."""
    _require_positive(v_dep, v_col)
    both = frozenset({PRE_A, PRE_B})
    dep = ContractInstance(
        DEP_ID, dict(digests),
        (
            RedeemPath(DEP_A, (Transfer(alice, REST),),
                       required_preimages=frozenset({PRE_A}),
                       required_signers=frozenset({alice})),
            RedeemPath(DEP_B, (Transfer(bob, REST),),
                       required_signers=frozenset({bob}), earliest=T + 1),
            RedeemPath(DEP_M, (Transfer(BLOCK_MINER, REST),),
                       required_preimages=both),
        ),
    )
    col = ContractInstance(
        COL_ID, dict(digests),
        (
            RedeemPath(COL_B, (Transfer(bob, REST),),
                       required_signers=frozenset({bob}), earliest=T + 1),
            RedeemPath(COL_M, (Transfer(BLOCK_MINER, REST),),
                       required_preimages=both),
        ),
    )
    return dep, col


def build_he_htlc(alice: Party, bob: Party, v_dep: int, v_col: int,
                  digests: dict, T: int, l: int) -> tuple:
    """Deposit-and-collateral variant that burns the deposit on confiscation.

    The payer's refund is staged: dep-B forwards everything into the
    collateral contract, whose payer path only opens l rounds later, leaving
    a confiscation window in which miners can take v_col while v_dep burns.
    """
    _require_positive(v_dep, v_col)
    if l < 1:
        raise ContractError("delay l must be at least 1", "l")
    both = frozenset({PRE_A, PRE_B})
    dep = ContractInstance(
        DEP_ID, dict(digests),
        (
            RedeemPath(DEP_A, (Transfer(bob, v_col), Transfer(alice, REST)),
                       required_preimages=frozenset({PRE_A}),
                       required_signers=frozenset({alice})),
            RedeemPath(DEP_B, (Forward(COL_ID, REST),),
                       required_preimages=frozenset({PRE_B}),
                       required_signers=frozenset({bob}), earliest=T + 1),
        ),
    )
    # The collateral pot starts empty; dep-B funds it.
    col = ContractInstance(
        COL_ID, dict(digests),
        (
            RedeemPath(COL_B, (Transfer(bob, REST),),
                       required_signers=frozenset({bob}), earliest=T + l + 1),
            RedeemPath(COL_M, (Burn(v_dep), Transfer(BLOCK_MINER, REST)),
                       required_preimages=both),
        ),
    )
    return dep, col


def derive_he_delay(v_dep: int, v_col: int, f: int) -> int:
    """Smallest refund delay satisfying v_col >= v_dep/(kappa-1) + f, l = ceil(kappa)."""
    if v_col <= f:
        raise ContractError("collateral must exceed the unrelated fee", "v_col")
    # l = ceil(kappa) = ceil(v_dep / (v_col - f)) + 1, in integers.
    return max(1, -(-v_dep // (v_col - f)) + 1)


def build_demba(alice: Party, bob: Party, v_dep: int, v_col_a: int,
                v_col_b: int, v_ded: int, digests: dict, T: int,
                schedule: FeeSchedule) -> tuple:
    """Two-phase exchange: both sides commit via collateral reveals.

    The deposit contract has no manual spend; it resolves automatically from
    the slots the two collateral contracts have published (see
    resolve_demba_dep).  Late or contradictory commits forfeit v_ded.
    """
    # A zero penalty builds fine (it just voids the deterrent); negative is
    # meaningless.
    check_amount(v_ded, "v_ded")
    check_fee_schedule(schedule)
    check_amount(v_col_a, "v_col_a")
    check_amount(v_col_b, "v_col_b")
    check_amount(v_dep, "v_dep")
    col_a = ContractInstance(
        COL_A_ID, {PRE_A: digests[PRE_A], PRE_A2: digests[PRE_A2]},
        (
            RedeemPath(PRE_A, (Transfer(alice, REST),),
                       required_preimages=frozenset({PRE_A}),
                       required_signers=frozenset({alice}), latest=T),
            RedeemPath(PRE_A2, (Transfer(alice, REST),),
                       required_preimages=frozenset({PRE_A2}),
                       required_signers=frozenset({alice}), earliest=T + 1),
            RedeemPath(PRE_AA2, (Burn(v_ded), Transfer(alice, REST)),
                       required_preimages=frozenset({PRE_A, PRE_A2}),
                       required_signers=frozenset({alice}), earliest=T + 1),
        ),
    )
    col_b = ContractInstance(
        COL_B_ID, {PRE_B: digests[PRE_B]},
        (
            RedeemPath(PRE_B, (Transfer(bob, REST),),
                       required_preimages=frozenset({PRE_B}),
                       required_signers=frozenset({bob}), late_burn=(T, v_ded)),
        ),
    )
    dep = ContractInstance(
        DEP_ID, {},
        (
            RedeemPath(DEP_A, (Transfer(alice, REST),), auto_only=True,
                       cross_reads=(
                           CrossRead(COL_A_ID, frozenset({PRE_A}), frozenset({PRE_A2})),
                           CrossRead(COL_B_ID, frozenset({PRE_B})),
                       )),
            RedeemPath(DEP_B, (Transfer(bob, REST),), auto_only=True, earliest=T + 1,
                       cross_reads=(
                           CrossRead(COL_A_ID, frozenset({PRE_A2}), frozenset({PRE_A})),
                           CrossRead(COL_B_ID, frozenset({PRE_B})),
                       )),
            RedeemPath(DEP_BURN, (Burn(REST),), auto_only=True, earliest=T + 1,
                       cross_reads=(
                           CrossRead(COL_A_ID, frozenset({PRE_A, PRE_A2})),
                       )),
        ),
    )
    return dep, col_a, col_b


def resolve_demba_dep(dep: ContractInstance, revealed_slots, rnd: int):
    """Classify the automatic deposit resolution at `rnd`.

    `revealed_slots` maps contract_id -> set of slot names already published
    on chain.  Returns the matching auto path, or None while pending.  The
    three conditions are mutually exclusive by construction: the to-payee
    path requires the payer-return slot absent and vice versa, and the burn
    path requires both of the payee's slots.
    """
    if not dep.redeemable:
        return None
    for path in dep.paths:
        if not path.auto_only or not path.in_window(rnd):
            continue
        if all(cr.holds(revealed_slots) for cr in path.cross_reads):
            return path
    return None


# ---------------------------------------------------------------------------
# Bribery contracts.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class BriberyCall:
    method: str
    caller: Party
    args: dict = field(default_factory=dict)


#: The read-only empty map a settled contract holds.
_NO_ENTRIES = MappingProxyType({})


def _freeze(contract, *names) -> None:
    """Hold each named map of a frozen `contract` as a read-only copy,
    which no write can reach; a read-only map is kept as it is."""
    for name in names:
        value = getattr(contract, name)
        if type(value) is not MappingProxyType:
            object.__setattr__(contract, name, MappingProxyType(dict(value)))


@dataclass(frozen=True, slots=True)
class CensorBriberyContract:
    """Payer-funded censorship pact: reserve a bribe per censored block.

    Miners that mine a block in the censorship era call request_bribe once
    per own block to reserve `br`.  After the payer's refund (or a
    confiscation) lands without the target tx ever having been included, any
    knower of the payee's preimage can call claim_bribe: every reservation
    pays out, the caller's includer earns one extra `br`, and the remainder
    returns to the payer.  Failed guards are silent no-ops, and an
    unfunded contract (deposit 0) has nothing to claim or refund: it stays
    open for its init, which the ledger refuses once the contract is
    funded (`ledger.validate_tx`).

    Frozen, with a read-only `reserved`, so a chain state's cached key and
    total cannot go stale: each step returns the contract after it, and
    the contract itself when a guard fails.  A step builds the contract
    after it directly: `dataclasses.replace` costs twice as much.
    """

    owner: Party
    br: int
    T: int
    pre_a_value: str
    deposit: int = 0
    bal_left: int = 0
    reserved: MappingProxyType = field(default_factory=dict)  # Party -> count
    settled: bool = False
    last_request_round: int = -1

    def __post_init__(self):
        _freeze(self, "reserved")

    def pool_total(self) -> int:
        return self.deposit if not self.settled else 0

    def key(self) -> tuple:
        """Canonical value of the fields a step can change.

        The parameters fixed at deployment are shared by every state of
        one game, and `last_request_round` only guards a second request in
        the same block, so neither is part of the key.
        """
        return (self.deposit, self.bal_left, frozenset(self.reserved.items()),
                self.settled)

    def init(self, val: int) -> "CensorBriberyContract":
        """The contract funded with a bribe budget of `val`."""
        check_amount(val, "bribe budget")
        return CensorBriberyContract(
            self.owner, self.br, self.T, self.pre_a_value, val, val,
            self.reserved, self.settled, self.last_request_round)

    def request_bribe(self, caller: Party, block_miner: Party,
                      rnd: int) -> "CensorBriberyContract":
        if self.settled or caller != block_miner or rnd == self.last_request_round:
            return self
        if rnd > self.T or self.bal_left < self.br:
            return self
        reserved = dict(self.reserved)
        reserved[caller] = reserved.get(caller, 0) + 1
        return CensorBriberyContract(
            self.owner, self.br, self.T, self.pre_a_value, self.deposit,
            self.bal_left - self.br, MappingProxyType(reserved), self.settled,
            rnd)

    def claim_bribe(self, caller: Party, preimage: str, target_included: bool,
                    settlement_landed: bool) -> tuple:
        """(contract, [(party, amount, tag)] payouts); no payouts when a
        guard fails."""
        if self.settled or not self.deposit or preimage != self.pre_a_value:
            return self, []
        if target_included or not settlement_landed:
            return self, []
        count = sum(self.reserved.values())
        if self.deposit - (count + 1) * self.br < 0:
            return self, []
        payouts = [(party, self.br * n, "censor-bribe") for party, n in sorted(
            self.reserved.items(), key=lambda kv: kv[0].id)]
        payouts.append((caller, self.br, "claim-bonus"))
        remainder = self.deposit - (count + 1) * self.br
        if remainder > 0:
            payouts.append((self.owner, remainder, "remainder"))
        return self._settled(), payouts

    def refund_owner(self, target_included: bool) -> tuple:
        # Once the target tx lands at any height, bribes are unclaimable and
        # the whole budget returns to the payer.
        if self.settled or not self.deposit or not target_included:
            return self, []
        return self._settled(), [(self.owner, self.deposit, "refund")]

    def _settled(self) -> "CensorBriberyContract":
        return CensorBriberyContract(
            self.owner, self.br, self.T, self.pre_a_value, self.deposit,
            self.bal_left, _NO_ENTRIES, True, self.last_request_round)


@dataclass(frozen=True, slots=True)
class MinerPactContract:
    """Miner-to-miner pact: lock collateral, censor, split the confiscation.

    Colluding miners lock `lock_amount` each.  Censoring-era blocks mined by
    members reserve a per-recipient bribe.  Once the collateral contract has
    been confiscated, claim_bribe pays each reservation from the
    confiscator's locked collateral, pays the caller one bribe, and returns
    every remaining lock.  refund_all returns locks when the attack is dead.

    Frozen like `CensorBriberyContract`, with read-only maps: each step
    returns the contract after it, built directly, as there.
    """

    T: int
    pre_a_value: str
    br: MappingProxyType  # Party -> per-block bribe owed to that miner
    locked: MappingProxyType = field(default_factory=dict)  # Party -> amount
    reserved: MappingProxyType = field(default_factory=dict)  # Party -> count
    settled: bool = False
    last_request_round: int = -1

    def __post_init__(self):
        _freeze(self, "br", "locked", "reserved")

    def pool_total(self) -> int:
        return sum(self.locked.values())

    def key(self) -> tuple:
        """Canonical value of the fields a step can change (see
        `CensorBriberyContract.key`)."""
        return (frozenset(self.locked.items()),
                frozenset(self.reserved.items()), self.settled)

    def lock_collateral(self, caller: Party, val: int) -> "MinerPactContract":
        locked = dict(self.locked)
        locked[caller] = locked.get(caller, 0) + check_amount(val)
        return MinerPactContract(self.T, self.pre_a_value, self.br,
                                 MappingProxyType(locked), self.reserved,
                                 self.settled, self.last_request_round)

    def request_bribe(self, caller: Party, block_miner: Party,
                      rnd: int) -> "MinerPactContract":
        if self.settled or caller != block_miner or rnd == self.last_request_round:
            return self
        if rnd > self.T or caller not in self.locked:
            return self
        reserved = dict(self.reserved)
        reserved[caller] = reserved.get(caller, 0) + 1
        return MinerPactContract(self.T, self.pre_a_value, self.br, self.locked,
                                 MappingProxyType(reserved), self.settled, rnd)

    def claim_bribe(self, caller: Party, preimage: str, target_included_by_T: bool,
                    confiscator) -> tuple:
        """(contract, payouts), as `CensorBriberyContract.claim_bribe`."""
        if self.settled or preimage != self.pre_a_value:
            return self, []
        if target_included_by_T or confiscator is None:
            return self, []
        owed = sum(self.br.get(p, 0) * n for p, n in self.reserved.items())
        stake = self.locked.get(confiscator, 0)
        caller_cut = self.br.get(caller, 0)
        if stake - owed - caller_cut < 0:
            return self, []
        payouts = []
        for party, n in sorted(self.reserved.items(), key=lambda kv: kv[0].id):
            payouts.append((party, self.br.get(party, 0) * n, "censor-bribe"))
        payouts.append((caller, caller_cut, "claim-bonus"))
        locked = dict(self.locked)
        locked[confiscator] = stake - owed - caller_cut
        for party, amount in sorted(locked.items(), key=lambda kv: kv[0].id):
            if amount > 0:
                payouts.append((party, amount, "refund"))
        return self._settled(), payouts

    def refund_all(self) -> tuple:
        """(contract, payouts): every lock back to its miner."""
        if self.settled:
            return self, []
        out = [(p, a, "refund") for p, a in
               sorted(self.locked.items(), key=lambda kv: kv[0].id) if a > 0]
        return self._settled(), out

    def _settled(self) -> "MinerPactContract":
        return MinerPactContract(self.T, self.pre_a_value, self.br,
                                 _NO_ENTRIES, _NO_ENTRIES, True,
                                 self.last_request_round)


def bribery_contract_step(contract, call: BriberyCall, rnd: int, chain) -> tuple:
    """Dispatch one call against a bribery contract; silent no-op on guard failure.

    `chain` must answer three questions: was the protected target tx ever
    included by its deadline, has the settlement (refund or confiscation)
    landed, and who confiscated the collateral contract, if anyone.
    Returns (contract after the call, [(party, amount, tag)] payouts); the
    contract is the one passed in when the call changes nothing.
    """
    m = call.method
    if isinstance(contract, CensorBriberyContract):
        if m == "init":
            return contract.init(call.args["val"]), []
        if m == "requestBribe":
            return contract.request_bribe(call.caller, chain.block_miner(),
                                          rnd), []
        if m == "claimBribe":
            return contract.claim_bribe(
                call.caller, call.args.get("preimage", ""),
                chain.target_included_ever(), chain.settlement_landed())
        if m == "refundToBob":
            return contract.refund_owner(chain.target_included_ever())
        raise ContractError(f"unknown method {m!r}")
    if isinstance(contract, MinerPactContract):
        if m == "requestBribe":
            return contract.request_bribe(call.caller, chain.block_miner(),
                                          rnd), []
        if m == "claimBribe":
            return contract.claim_bribe(
                call.caller, call.args.get("preimage", ""),
                chain.target_included_by_deadline(), chain.confiscator())
        if m == "refundToMiners":
            if chain.target_included_by_deadline() or chain.attack_window_over():
                return contract.refund_all()
            return contract, []
        raise ContractError(f"unknown method {m!r}")
    raise ContractError(f"not a bribery contract: {contract!r}")
