"""Named behaviour policies for the payee, the payer, and the miners.

Every policy is a deterministic, stateless function of the chain state, the
round, the scenario (a miner policy also of its miner) and its own
parameters; none sees the strategy profile, and evaluating one twice on the
same inputs emits identical actions.  Party policies return what they
broadcast at the end of a round (eligible from the next block), a
redemption only while the contracts it spends are open (`_if_open`).  Miner
policies return the round's `ledger.Block`, built by `make_block`, which
fills the free room with unrelated traffic at fee `f`; a block may carry
transactions its miner creates (confiscations, bribery-contract calls),
which never pass through the mempool.

The miner policy contract: a miner policy's `round_key` tells apart what
it does in one round, so at one control state and round, policies with
equal round keys build equal blocks for the same miner.  The forward pass
builds each miner's block once per control state and round key, in the
one step cache that a verdict's passes share (`game._forward`,
`game.StepMemo`).  Every policy, miner or party, reads only what a
state's control key fixes (`ledger.ChainState.control_key`), never
balances or logs, so the pass builds blocks and broadcasts once per
control state.

Every miner block that is not a bespoke attack block follows one assembly
rule (`_assemble`): the policy's own head transactions, then the honest
fee-maximal picks that spend no contract the head spends, then its tail
transactions, cut to the block capacity, so a full block drops its tail
first.  A bespoke attack block (B3a, Hydra, SDRBA) is mined whole or not
at all: one that does not fit the capacity or spends a contract that is
no longer open (`_whole`) gives way to the policy's ordinary block, as a
B3a block does when the briber rejects it.  Policies
read settlement facts through `ledger.ChainView`, the view bribery
contracts see.

Protocol facts come from the scenario's record (`Scenario.rules`): the
protected transfer's transaction ids and the two-phase commit.  A policy
compares protocol names only for how it plays each one itself (the
payer's refund and collateral moves, the confiscation block and the
verdict spaces), and its `protocols` set names those it fits
(`game.fits`).
"""

from __future__ import annotations

import inspect
from typing import Optional

from .core import ALICE, BOB, LedgerError, Party
from .contracts import (BriberyCall, CBOB_ID, CM2M_ID, COL_A_ID, COL_B,
                        COL_B_ID, COL_ID, COL_M, CensorBriberyContract, DEP_A,
                        DEP_B, DEP_ID, DEP_M, MinerPactContract, PRE_A, PRE_A2,
                        PRE_AA2, PRE_B, SECRETS)
from .ledger import (CONTRACT_CALL, PAYMENT, RELATED, Block, ChainView,
                     TxRecord, Witness, broadcast, validate_tx)
from .game import Scenario, fits, policy_key


def _preimages_known(state, slots) -> bool:
    return all(s in state.known for s in slots)


# ---------------------------------------------------------------------------
# Transaction factories.
# ---------------------------------------------------------------------------


def tx_reveal_dep_a(scen: Scenario) -> TxRecord:
    w = Witness(frozenset({(DEP_ID, PRE_A, SECRETS[PRE_A])}),
                frozenset({ALICE}))
    return TxRecord("tx.depA", ALICE, RELATED, ((DEP_ID, DEP_A),), w,
                    scen.f_dep_a)


def tx_refund_dep_b(scen: Scenario) -> TxRecord:
    pre = frozenset()
    if scen.protocol in ("mad", "he"):
        pre = frozenset({(DEP_ID, PRE_B, SECRETS[PRE_B])})
    return TxRecord("tx.depB", BOB, RELATED, ((DEP_ID, DEP_B),),
                    Witness(pre, frozenset({BOB})), scen.f_dep_b)


def tx_col_b(scen: Scenario) -> TxRecord:
    return TxRecord("tx.colB", BOB, RELATED, ((COL_ID, COL_B),),
                    Witness(signers=frozenset({BOB})), scen.f_col_b)


def tx_confiscate(state, creator: Party, cid: str, path: str,
                  collude_bob: bool = False) -> TxRecord:
    """Self-created double-preimage redemption.

    Confiscators normally know only what was broadcast; an accomplice
    colluding with the payer holds pre_B off-chain as well.
    """
    values = {s: state.known.get(s) for s in (PRE_A, PRE_B)}
    if collude_bob:
        values[PRE_B] = SECRETS[PRE_B]
    pre = frozenset({(cid, s, v) for s, v in values.items()})
    return TxRecord(f"tx.{path}.{creator.id}", creator, RELATED,
                    ((cid, path),), Witness(pre), 0)


def _protected_transfer(scen: Scenario) -> TxRecord:
    """The payee's honest redemption, the protected transfer that a
    censor keeps out (`Scenario.rules.target_tx_ids`): her commit of
    pre_A in the two-phase protocol, her deposit redemption otherwise."""
    if scen.rules.two_phase:
        return tx_commit(scen, PRE_A)
    return tx_reveal_dep_a(scen)


def tx_commit(scen: Scenario, path: str) -> TxRecord:
    """A two-phase-protocol collateral commit for the given path."""
    if path == PRE_B:
        w = Witness(frozenset({(COL_B_ID, PRE_B, SECRETS[PRE_B])}),
                    frozenset({BOB}))
        return TxRecord("tx.colPreB", BOB, RELATED, ((COL_B_ID, PRE_B),), w,
                        scen.fee_schedule.paid[PRE_B])
    slots = {PRE_A: (PRE_A,), PRE_A2: (PRE_A2,), PRE_AA2: (PRE_A, PRE_A2)}[path]
    w = Witness(frozenset({(COL_A_ID, s, SECRETS[s]) for s in slots}),
                frozenset({ALICE}))
    return TxRecord(f"tx.col.{path}", ALICE, RELATED, ((COL_A_ID, path),), w,
                    scen.fee_schedule.paid[path])


def call_tx(tx_id: str, creator: Party, cid: str, method: str,
            args: Optional[dict] = None, fee: int = 0) -> TxRecord:
    return TxRecord(tx_id, creator, CONTRACT_CALL, declared_fee=fee,
                    call=(cid, BriberyCall(method, creator, args or {})))


def payment_tx(tx_id: str, creator: Party, to: Party, amount: int) -> TxRecord:
    return TxRecord(tx_id, creator, PAYMENT, payment=(to, amount))


# ---------------------------------------------------------------------------
# Shared selection logic.
# ---------------------------------------------------------------------------


def _spends(state, tx: TxRecord, rnd: int):
    """What `validate_tx` returns for `tx` (its priced spends), or None
    where the ledger refuses it."""
    try:
        return validate_tx(state, tx, rnd)
    except LedgerError:
        return None


def honest_miner_select(state, rnd: int, scen: Scenario,
                        exclude=frozenset()) -> list:
    """Greedy fee-maximal selection from the mempool.

    Orders candidates by descending miner-earned fee with ties broken by
    tx id, keeps the ones whose earned fee beats the unrelated fee, and
    skips anything that conflicts with an earlier pick.  At most
    `scen.capacity` transactions are picked.
    """
    if not state.mempool:
        return []
    candidates = []
    for tx in state.mempool.values():
        # A spent contract's transaction is skipped before the ledger
        # raises and formats its error for it.
        if tx.tx_id in exclude or not _open(state, tx):
            continue
        spends = _spends(state, tx, rnd)
        if spends is None:
            continue
        # A related tx earns its fee's split on each spend (`fee_split`).
        earned = (sum(spend[3] for spend in spends) if tx.kind == RELATED
                  else tx.declared_fee)
        if earned > scen.f:
            candidates.append((-earned, tx.tx_id, tx))
    candidates.sort()
    picked: list = []
    consumed: set = set()
    for _, _, tx in candidates:
        if len(picked) >= scen.capacity:
            break
        cids = {cid for (cid, _) in tx.consumes}
        if cids & consumed:
            continue
        picked.append(tx)
        consumed |= cids
    return picked


def make_block(rnd: int, miner: Party, scen: Scenario, txs,
               coinbase: tuple = ()) -> Block:
    """The block `miner` mines in round `rnd`: `txs`, then as many
    fillers as the block has room left for under `scen.capacity`, which
    the ledger pays at the game's fee `f`."""
    # Positional: a named tuple binds keywords in Python, at twice the cost.
    return Block(rnd, miner, tuple(txs), max(0, scen.capacity - len(txs)),
                 coinbase)


def _assemble(state, rnd: int, miner: Party, scen: Scenario, head=(),
              tail=(), exclude=frozenset()) -> Block:
    """`head`, then the honest picks that spend no contract `head` spends,
    then `tail`, cut to capacity (so a full block loses its tail first).

    `head` ids never enter the honest picks, nor do the `exclude` ids.
    """
    if not head:
        picked = honest_miner_select(state, rnd, scen, exclude)
        return make_block(rnd, miner, scen,
                          [*picked, *tail][:scen.capacity] if tail else picked)
    exclude = exclude | {tx.tx_id for tx in head}
    spent = {cid for tx in head for (cid, _) in tx.consumes}
    picked = honest_miner_select(state, rnd, scen, exclude)
    if spent:
        picked = [tx for tx in picked
                  if spent.isdisjoint(cid for (cid, _) in tx.consumes)]
    return make_block(rnd, miner, scen, [*head, *picked, *tail][:scen.capacity])


# ---------------------------------------------------------------------------
# Party policies.
# ---------------------------------------------------------------------------


def _open(state, tx: TxRecord) -> bool:
    """The open-contract rule: whether every contract `tx` spends exists
    and is still redeemable."""
    contracts = state.contracts
    for (cid, _) in tx.consumes:
        if cid not in contracts or not contracts[cid].redeemable:
            return False
    return True


def _whole(state, scen: Scenario, txs) -> bool:
    """Whether a bespoke attack block of `txs` can be mined whole: it fits
    the capacity and every contract it spends is open (`_open`)."""
    return len(txs) <= scen.capacity and all(_open(state, tx) for tx in txs)


def _if_open(state, *txs) -> list:
    """The open-contract broadcast rule: of `txs`, those whose spent
    contracts are all still redeemable (`_open`)."""
    return [tx for tx in txs if _open(state, tx)]


class PartyPolicy:
    name = "party"
    protocols: Optional[frozenset] = None

    def setup(self, state, scen: Scenario):
        return state

    def broadcasts(self, state, rnd: int, scen: Scenario) -> list:
        return []


class AliceHonest(PartyPolicy):
    """Reveal the commit preimage exactly once, at t_pub."""

    def __init__(self, t_pub: Optional[int] = None):
        self.t_pub = t_pub
        self.name = f"honest(t_pub={t_pub if t_pub is not None else 'scenario'})"

    def _round(self, scen):
        return self.t_pub if self.t_pub is not None else scen.t_pub

    def broadcasts(self, state, rnd, scen):
        if rnd != self._round(scen):
            return []
        return _if_open(state, _protected_transfer(scen))


class AliceOffline(PartyPolicy):
    """Never reveal in time; fall back to the post-deadline return path."""

    name = "offline-then-refund"

    def broadcasts(self, state, rnd, scen):
        if not scen.rules.two_phase or rnd != scen.T:
            return []
        return _if_open(state, tx_commit(scen, PRE_A2))


class AliceGrief(PartyPolicy):
    """Skip the honest reveal, then double-reveal after the deadline."""

    name = "grief-double-reveal"
    protocols = frozenset({"demba"})

    def broadcasts(self, state, rnd, scen):
        if rnd != scen.T:
            return []
        return _if_open(state, tx_commit(scen, PRE_AA2))


class AliceCensoredFallback(PartyPolicy):
    """Reveal honestly; if censored through the deadline, double-reveal."""

    def __init__(self, t_pub: Optional[int] = None):
        self.t_pub = t_pub
        self.name = "censored-fallback"

    def broadcasts(self, state, rnd, scen):
        t_pub = self.t_pub if self.t_pub is not None else scen.t_pub
        if rnd == t_pub:
            return _if_open(state, _protected_transfer(scen))
        if scen.rules.two_phase and rnd == scen.T:
            return _if_open(state, tx_commit(scen, PRE_AA2))
        return []


class BobHonest(PartyPolicy):
    """Commit or refund per protocol; reveal round applies to the commit."""

    def __init__(self, reveal_round: int = 1):
        self.reveal_round = reveal_round
        self.name = f"honest(reveal={reveal_round})"

    def broadcasts(self, state, rnd, scen):
        if scen.rules.two_phase:
            if rnd == self.reveal_round:
                return _if_open(state, tx_commit(scen, PRE_B))
            return []
        out = []
        if rnd == scen.T:
            out.append(tx_refund_dep_b(scen))
            if scen.protocol == "mad":
                out.append(tx_col_b(scen))
        if (scen.protocol == "he" and rnd == scen.T + scen.l
                and state.live.get(COL_ID, 0) > 0):
            out.append(tx_col_b(scen))
        return _if_open(state, *out)


class BobDelay(PartyPolicy):
    """Two-phase commit deliberately delayed past the deadline."""

    protocols = frozenset({"demba"})

    def __init__(self, d: int = 1):
        self.d = d
        self.name = f"delay({d})"

    def broadcasts(self, state, rnd, scen):
        if rnd == scen.T + self.d:
            return _if_open(state, tx_commit(scen, PRE_B))
        return []


class _BriberyDeployer(PartyPolicy):
    """Shared setup: deploy the censorship bribery contract and fund it."""

    def __init__(self, br: Optional[int] = None, budget: Optional[int] = None):
        self.br = br
        self.budget = budget

    def setup(self, state, scen):
        br = self.br if self.br is not None else scen.br
        budget = self.budget if self.budget is not None else scen.v_dep
        s = state.draft()
        s.write("bribery")[CBOB_ID] = CensorBriberyContract(
            BOB, br, scen.T, SECRETS[PRE_A])
        init = call_tx("tx.cbob.init", BOB, CBOB_ID, "init",
                       {"val": budget}, fee=scen.f_cbob_b)
        return broadcast(s.seal(), [init])


class BobNaiveBriber(_BriberyDeployer):
    """Bribe per censored block, then refund after the timeout."""

    protocols = frozenset({"naive", "mad"})

    def __init__(self, br=None, budget=None):
        super().__init__(br, budget)
        self.name = f"naive-briber(br={br if br is not None else 'scenario'})"

    def broadcasts(self, state, rnd, scen):
        if rnd == scen.T:
            return _if_open(state, tx_refund_dep_b(scen))
        return []


class BobB3a(_BriberyDeployer):
    """Censor via bribes, then settle through an accomplice's partial block."""

    protocols = frozenset({"mad"})

    def __init__(self, br=None, case: int = 1, budget=None):
        super().__init__(br, budget)
        self.case = case
        self.name = f"b3a(case={case})"

    def broadcasts(self, state, rnd, scen):
        # Abort to the honest refund if no acceptable partial block arrived.
        if rnd == scen.T + 1:
            return _if_open(state, tx_refund_dep_b(scen))
        return []


class BobHydraBriber(_BriberyDeployer):
    """Censor via bribes, then sell the confiscation to an accomplice."""

    name = "hydra-briber"
    protocols = frozenset({"mad"})


#: Every party policy, by the name scenario files use.
ALICE_POLICIES = {"honest": AliceHonest, "offline-then-refund": AliceOffline,
                  "grief-double-reveal": AliceGrief,
                  "censored-fallback": AliceCensoredFallback}
BOB_POLICIES = {"honest": BobHonest, "delay": BobDelay,
                "naive-briber": BobNaiveBriber, "b3a": BobB3a,
                "hydra-briber": BobHydraBriber}


def make_party_policy(role: str, name: str, **params) -> PartyPolicy:
    """Factory keyed by the names scenario files use."""
    table = ALICE_POLICIES if role == "alice" else BOB_POLICIES
    return _build_policy(table, f"{role} policy", name, params)


def _parameters(cls) -> dict:
    """Each parameter `cls`'s constructor takes -> the type a value of it
    must have: its default's, or int where that default is None."""
    return {key: int if p.default is None else type(p.default)
            for key, p in inspect.signature(cls).parameters.items()}


def _build_policy(table: dict, what: str, name: str, params: dict):
    """Construct the named policy, holding each parameter to one its
    constructor takes and to the type of its default (`_PARAMETERS`),
    and an int to 0 or more: every int parameter is an amount, a round
    or a case number."""
    if name not in table:
        raise ValueError(f"unknown {what} {name!r}")
    cls = table[name]
    wanted = _PARAMETERS[cls]
    for key, value in params.items():
        if key not in wanted:
            # repr() keeps a key with a line break on the one error line.
            raise ValueError(f"{name} takes no parameter {key!r}")
        want = wanted[key]
        if type(value) is not want:
            raise ValueError(f"{key} must be {want.__name__}, got {value!r}")
        if want is int and value < 0:
            raise ValueError(f"{key} must be 0 or more, got {value!r}")
    return cls(**params)


# ---------------------------------------------------------------------------
# Miner policies.
# ---------------------------------------------------------------------------


class MinerPolicy:
    """A miner's block rule: `build_block` returns the block `miner` mines
    at `state` in round `rnd`.

    The contract every policy keeps: it reads only what the state's
    control key fixes, and policies with equal `round_key(rnd, scen)`
    build, at any state of round `rnd`, equal blocks for the same miner.
    The forward pass relies on it to build a miner's block once per
    control state and round key (`game.StepMemo`).
    """

    name = "miner"
    protocols: Optional[frozenset] = None

    def setup(self, state, scen: Scenario, party: Party):
        return state

    def build_block(self, state, rnd: int, miner: Party,
                    scen: Scenario) -> Block:
        raise NotImplementedError

    def round_key(self, rnd: int, scen: Scenario) -> tuple:
        """What tells this policy's blocks in round `rnd` apart: by
        default the policy itself (`game.policy_key`)."""
        return policy_key(self)


class HonestFeeMax(MinerPolicy):
    name = "honest-fee-max"

    def build_block(self, state, rnd, miner, scen):
        return _assemble(state, rnd, miner, scen)


class CensorRelated(MinerPolicy):
    """Exclude protocol transactions until the deadline, then act honest.

    With a censorship bribery contract deployed, also participates in it:
    reserves bribes while censoring, lands the payer's settlement as soon as
    the deadline passes, and settles the bribes in the same block.
    """

    def __init__(self, participate: bool = True):
        self.participate = participate
        self.name = "censor-related"

    def build_block(self, state, rnd, miner, scen):
        cbob = state.bribery.get(CBOB_ID) if self.participate else None
        head: list = []
        tail: list = []
        if cbob is not None and "tx.cbob.init" in state.mempool:
            head.append(state.mempool["tx.cbob.init"])
        refund = state.mempool.get("tx.depB")
        settled_now = (rnd > scen.T and refund is not None
                       and state.contracts[DEP_ID].redeemable
                       and _spends(state, refund, rnd) is not None)
        if settled_now:
            head.append(refund)
        if cbob is not None and not cbob.settled:
            view = ChainView(state, rnd, miner)
            pre_a = state.known.get(PRE_A)
            if rnd <= scen.T:
                if any(t in state.mempool for t in scen.rules.target_tx_ids):
                    head.append(call_tx(f"tx.cbob.req.{rnd}", miner, CBOB_ID,
                                        "requestBribe"))
            elif view.target_included_ever():
                tail.append(call_tx(f"tx.cbob.refund.{rnd}", miner, CBOB_ID,
                                    "refundToBob"))
            elif pre_a is not None and (settled_now
                                        or view.settlement_landed()):
                tail.append(call_tx(f"tx.cbob.claim.{rnd}", miner, CBOB_ID,
                                    "claimBribe", {"preimage": pre_a}))
        exclude = scen.rules.target_tx_ids if rnd <= scen.T else frozenset()
        return _assemble(state, rnd, miner, scen, head, tail, exclude)


class M2MbaPassive(MinerPolicy):
    """Censor quietly, then confiscate at the first chance; no pact calls."""

    name = "m2mba-passive"
    protocols = frozenset({"he", "mad"})

    def build_block(self, state, rnd, miner, scen):
        if rnd <= scen.T and not _preimages_known(state, (PRE_A, PRE_B)):
            return _assemble(state, rnd, miner, scen,
                             exclude=scen.rules.target_tx_ids)
        return _confiscation_block(state, rnd, miner, scen, pact=False)


def _confiscation_block(state, rnd, miner, scen, pact: bool,
                        claim_only: bool = False) -> Block:
    """Post-deadline attack block: land the refund, confiscate, settle."""
    head: list = []
    dep_open = state.contracts[DEP_ID].redeemable
    both_known = _preimages_known(state, (PRE_A, PRE_B))
    refund = state.mempool.get("tx.depB")
    refund_lands = False
    if scen.protocol == "mad" and dep_open and both_known and not claim_only:
        # Confiscation beats letting the payer spend the deposit.
        head.append(tx_confiscate(state, miner, DEP_ID, DEP_M))
    elif (dep_open and refund is not None
          and _spends(state, refund, rnd) is not None):
        # In he the staged refund must land before the collateral pot is
        # spendable.
        head.append(refund)
        refund_lands = True
    can_confiscate = (state.contracts[COL_ID].redeemable and not claim_only
                      and both_known)
    if scen.protocol == "he":
        dep_entry = state.redemptions.get(DEP_ID)
        if dep_entry is not None and dep_entry[0] == DEP_B:
            pot = state.live.get(COL_ID, 0)
        elif refund_lands:
            pot = state.live.get(DEP_ID, 0) - refund.declared_fee
        else:
            pot = 0
        # The confiscation burns the deposit; skip if the pot cannot cover it.
        can_confiscate = can_confiscate and pot >= scen.v_dep
    if can_confiscate:
        head.append(tx_confiscate(state, miner, COL_ID, COL_M))
    pact_obj = state.bribery.get(CM2M_ID) if pact else None
    if pact_obj is not None and not pact_obj.settled:
        view = ChainView(state, rnd, miner)
        pre_a = state.known.get(PRE_A)
        if pre_a is not None and (can_confiscate
                                  or view.confiscator() is not None):
            head.append(call_tx(f"tx.cm2m.claim.{rnd}", miner, CM2M_ID,
                                "claimBribe", {"preimage": pre_a}))
        elif view.attack_window_over():
            # Nothing confiscated in the attack window: recover the locks.
            head.append(call_tx(f"tx.cm2m.refund.{rnd}", miner, CM2M_ID,
                                "refundToMiners"))
    return _assemble(state, rnd, miner, scen, head,
                     exclude=frozenset({"tx.depB"}))


class M2MbaActive(MinerPolicy):
    """Colluding active miner: lock collateral, censor for bribes, confiscate.

    role "race" confiscates at the first own block after the deadline;
    "accept" never confiscates (it sells its censorship and lets another
    colluder redeem).  With `defer_to` set, it confiscates no earlier than
    round `defer_to`.
    """

    protocols = frozenset({"he"})

    def __init__(self, role: str = "race", defer_to: Optional[int] = None):
        if role not in ("race", "accept"):
            raise ValueError(f"role must be 'race' or 'accept', got {role!r}")
        self.role = role
        self.defer_to = defer_to
        self.name = (f"m2mba-active({role})" if defer_to is None
                     else f"m2mba-active({role},defer_to={defer_to})")

    def setup(self, state, scen, party):
        if scen.m2mba_split == "equal":
            return state
        pact = state.bribery.get(CM2M_ID)
        if pact is None:
            bribes = scen.pact_bribes or dict.fromkeys(scen.coalition,
                                                       scen.br)
            pact = MinerPactContract(scen.T, SECRETS[PRE_A], bribes)
        s = state.draft()
        s.write("bribery")[CM2M_ID] = pact.lock_collateral(party, scen.v_col)
        s.debit(party, scen.v_col)
        return s.seal()

    def _claim_only(self, rnd: int) -> bool:
        """Whether a block after the deadline leaves the confiscation."""
        return self.role == "accept" or (
            self.defer_to is not None and rnd < self.defer_to)

    def round_key(self, rnd, scen):
        # Up to T the block reads neither `role` nor `defer_to`; after T
        # it reads them only through `_claim_only`.
        return type(self), rnd > scen.T and self._claim_only(rnd)

    def build_block(self, state, rnd, miner, scen):
        if rnd <= scen.T:
            head = []
            if scen.m2mba_split != "equal":
                pact = state.bribery.get(CM2M_ID)
                if (pact is not None and not pact.settled
                        and any(t in state.mempool
                                for t in scen.rules.target_tx_ids)):
                    head.append(call_tx(f"tx.cm2m.req.{rnd}", miner, CM2M_ID,
                                        "requestBribe"))
            return _assemble(state, rnd, miner, scen, head,
                             exclude=scen.rules.target_tx_ids)
        return _confiscation_block(state, rnd, miner, scen,
                                   pact=scen.m2mba_split != "equal",
                                   claim_only=self._claim_only(rnd))


class B3aAccomplice(MinerPolicy):
    """Mines the partial settlement block the briber finalises.

    The handshake is collapsed into an atomic acceptance predicate: the
    partial block is only mined if it fits the capacity and the briber's
    checks pass, otherwise the accomplice falls back to an ordinary block
    and the attack aborts.
    """

    protocols = frozenset({"mad"})

    def __init__(self, case: int = 1, defective: bool = False):
        self.case = case
        self.defective = defective
        self.name = f"b3a-accomplice(case={self.case})"

    def build_block(self, state, rnd, miner, scen):
        pre_a = state.known.get(PRE_A)
        if (rnd <= scen.T or pre_a is None
                or not state.contracts[DEP_ID].redeemable):
            return CensorRelated().build_block(state, rnd, miner, scen)
        br = scen.br
        txs = [tx_confiscate(state, miner, DEP_ID, DEP_M, collude_bob=True)]
        if self.case == 1:
            coinbase = ((BOB, scen.v_dep - br, "b3a-coinbase"),)
            txs.append(tx_col_b(scen))
        else:
            coinbase = ((BOB, scen.v_dep + scen.v_col - 2 * br, "b3a-coinbase"),)
            txs.append(tx_confiscate(state, miner, COL_ID, COL_M,
                                     collude_bob=True))
        cbob = state.bribery.get(CBOB_ID)
        if cbob is not None and not cbob.settled:
            txs.append(call_tx(f"tx.cbob.claim.{rnd}", miner, CBOB_ID,
                               "claimBribe", {"preimage": pre_a}))
        if self.defective:
            coinbase = ()
        block = make_block(rnd, miner, scen, txs, coinbase)
        if (not _whole(state, scen, txs)
                or not b3a_bob_policy(block, scen, self.case)):
            return CensorRelated().build_block(state, rnd, miner, scen)
        return block


def b3a_bob_policy(block: Block, scen: Scenario, case: int) -> bool:
    """The briber's acceptance predicate over an accomplice's partial block."""
    ids = [tx.tx_id for tx in block.txs]
    expected_mint = (scen.v_dep - scen.br if case == 1
                     else scen.v_dep + scen.v_col - 2 * scen.br)
    coinbase_ok = any(party == BOB and amount == expected_mint
                      for (party, amount, _) in block.coinbase)
    has_dep_m = any(i.startswith(f"tx.{DEP_M}.") for i in ids)
    has_claim = any(i.startswith("tx.cbob.claim") for i in ids)
    if case == 1:
        settlement_ok = "tx.colB" in ids
    else:
        settlement_ok = any(i.startswith(f"tx.{COL_M}.") for i in ids)
    return coinbase_ok and has_dep_m and has_claim and settlement_ok


class SdrbaBriber(MinerPolicy):
    """Pay the payer off-protocol, contingent on redeeming the deposit."""

    protocols = frozenset({"mad"})

    def __init__(self, epsilon: Optional[int] = None):
        self.epsilon = epsilon
        self.name = "sdrba-briber"

    def build_block(self, state, rnd, miner, scen):
        eps = self.epsilon if self.epsilon is not None else scen.epsilon
        dep = state.contracts[DEP_ID]
        if dep.redeemable and PRE_A in state.known:
            txs = [tx_confiscate(state, miner, DEP_ID, DEP_M,
                                 collude_bob=True),
                   payment_tx(f"tx.sdrba.pay.{rnd}", miner, BOB,
                              scen.v_col + eps)]
            if _whole(state, scen, txs):
                return make_block(rnd, miner, scen, txs)
        return _assemble(state, rnd, miner, scen)


class HydraAccomplice(MinerPolicy):
    """Censor for the briber, then buy the confiscation rights after T."""

    protocols = frozenset({"mad"})

    def __init__(self, epsilon: Optional[int] = None):
        self.epsilon = epsilon
        self.name = "hydra-accomplice"

    def build_block(self, state, rnd, miner, scen):
        pre_a = state.known.get(PRE_A)
        if (rnd > scen.T and pre_a is not None
                and state.contracts[DEP_ID].redeemable):
            eps = self.epsilon if self.epsilon is not None else scen.epsilon
            txs = [tx_confiscate(state, miner, DEP_ID, DEP_M,
                                 collude_bob=True),
                   tx_confiscate(state, miner, COL_ID, COL_M,
                                 collude_bob=True),
                   payment_tx(f"tx.hydra.pay.{rnd}", miner, BOB,
                              scen.v_col + eps)]
            cbob = state.bribery.get(CBOB_ID)
            if cbob is not None and not cbob.settled:
                txs.append(call_tx(f"tx.cbob.claim.{rnd}", miner, CBOB_ID,
                                   "claimBribe", {"preimage": pre_a}))
            if _whole(state, scen, txs):
                return make_block(rnd, miner, scen, txs)
        return CensorRelated().build_block(state, rnd, miner, scen)


#: Every miner policy, by the name scenario files use.
MINER_POLICIES = {"honest-fee-max": HonestFeeMax,
                  "censor-related": CensorRelated,
                  "m2mba-active": M2MbaActive, "m2mba-passive": M2MbaPassive,
                  "b3a-accomplice": B3aAccomplice, "sdrba-briber": SdrbaBriber,
                  "hydra-accomplice": HydraAccomplice}


#: Each named policy's parameters (`_parameters`), derived once.
_PARAMETERS = {cls: _parameters(cls) for table in (
    ALICE_POLICIES, BOB_POLICIES, MINER_POLICIES) for cls in table.values()}


def make_miner_policy(name: str, **params) -> MinerPolicy:
    return _build_policy(MINER_POLICIES, "miner policy", name, params)


def policy_space(scen: Scenario, player) -> list:
    """The policies `player` ("alice", "bob" or a miner's `Party`) may play
    on `scen`, in the order a dominance verdict weighs them
    (`analysis.dominance_check` names the first that beats its candidate).

    On he a miner in the pact (`Scenario.coalition`) is offered the pact's
    policies and any other miner the passive attack; no player is offered
    a policy that does not fit the scenario's protocol (`game.fits`).
    """
    two_phase = scen.rules.two_phase
    late = max(1, scen.T - 1)
    if player == "alice":
        space = ([AliceHonest(), AliceHonest(min(scen.t_pub + 1, scen.T)),
                  AliceOffline(), AliceGrief(), AliceCensoredFallback(),
                  AliceHonest(late)] if two_phase
                 else [AliceHonest(), AliceOffline()])
    elif player == "bob":
        space = ([BobHonest(1), BobHonest(late), BobDelay(1), BobDelay(2)]
                 if two_phase else [BobHonest(), BobNaiveBriber(), BobB3a(),
                                    BobHydraBriber()])
    elif scen.protocol in ("naive", "mad"):
        space = [HonestFeeMax(), CensorRelated()]
    else:
        space = [HonestFeeMax(), CensorRelated(participate=False)]
        if scen.protocol == "he":
            space[:0] = ([M2MbaActive("race"), M2MbaActive("accept")]
                         if player in scen.coalition else [M2MbaPassive()])
    return [p for p in space if fits(p, scen)]
