"""Named behaviour policies for the payee, the payer, and the miners.

Every policy is a deterministic, stateless function of the chain state, the
round, and its own parameters: evaluating it twice on the same inputs emits
identical actions.  Party policies broadcast transactions at the end of a
round (eligible from the next block); miner policies assemble the block for
a round, including any transactions they create themselves (confiscations,
bribery-contract calls), which never pass through the mempool.

Every miner block that is not a bespoke attack block follows one assembly
rule (`_assemble`): the policy's own head transactions, then the honest
fee-maximal picks that spend no contract the head spends, then its tail
transactions, cut to the block capacity, so a full block drops its tail
first.  A bespoke attack block (B3a, Hydra, SDRBA) is mined whole or not
at all: one that does not fit the capacity gives way to the policy's
ordinary block, as a B3a block does when the briber rejects it.  Policies
read settlement facts through `ledger.ChainView`, the view bribery
contracts see.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Optional

from .core import ALICE, BOB, LedgerError, Party, debit
from .contracts import (BriberyCall, CBOB_ID, CM2M_ID, COL_A_ID, COL_B,
                        COL_B_ID, COL_ID, COL_M, CensorBriberyContract, DEP_A,
                        DEP_B, DEP_ID, DEP_M, MinerPactContract, PRE_A, PRE_A2,
                        PRE_AA2, PRE_B, SECRETS)
from .ledger import (CONTRACT_CALL, PAYMENT, RELATED, ChainView, TxRecord,
                     Witness, broadcast, fee_split, validate_tx)
from .game import Scenario


@dataclass
class BlockPlan:
    txs: list = field(default_factory=list)
    coinbase: tuple = ()


def _known_value(state, slot: str) -> Optional[str]:
    for (_, s), value in state.known.items():
        if s == slot:
            return value
    return None


def _preimages_known(state, slots) -> bool:
    return all(_known_value(state, s) is not None for s in slots)


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


def tx_confiscate(state, scen: Scenario, creator: Party, cid: str,
                  path: str, collude_bob: bool = False) -> TxRecord:
    """Self-created double-preimage redemption.

    Confiscators normally know only what was broadcast; an accomplice
    colluding with the payer holds pre_B off-chain as well.
    """
    values = {s: _known_value(state, s) for s in (PRE_A, PRE_B)}
    if collude_bob:
        values[PRE_B] = SECRETS[PRE_B]
    pre = frozenset({(cid, s, v) for s, v in values.items()})
    return TxRecord(f"tx.{path}.{creator.id}", creator, RELATED,
                    ((cid, path),), Witness(pre), 0)


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


def _earned_fee(state, tx: TxRecord, rnd: int) -> int:
    if tx.kind != RELATED:
        return tx.declared_fee
    return sum(fee_split(state, path, tx.declared_fee, rnd)[0]
               for (_, path) in tx.consumes)


def _valid(state, tx: TxRecord, rnd: int) -> bool:
    try:
        validate_tx(state, tx, rnd)
    except LedgerError:
        return False
    return True


def honest_miner_select(state, rnd: int, miner: Party, scen: Scenario,
                        exclude=frozenset()) -> list:
    """Greedy fee-maximal selection from the mempool.

    Orders candidates by descending miner-earned fee with ties broken by
    tx id, keeps the ones whose earned fee beats the unrelated fee, and
    skips anything that conflicts with an earlier pick.  The remaining
    capacity is filled with unrelated traffic by the caller.
    """
    candidates = []
    for tx in state.mempool.values():
        if tx.tx_id in exclude or not _valid(state, tx, rnd):
            continue
        earned = _earned_fee(state, tx, rnd)
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


def _assemble(state, rnd: int, miner: Party, scen: Scenario, head=(),
              tail=(), exclude=frozenset()) -> BlockPlan:
    """`head`, then the honest picks that spend no contract `head` spends,
    then `tail`, cut to capacity (so a full block loses its tail first).

    `head` ids never enter the honest picks, nor do the `exclude` ids.
    """
    spent: set = set()
    if head:
        exclude = exclude | {tx.tx_id for tx in head}
        spent = {cid for tx in head for (cid, _) in tx.consumes}
    picked = honest_miner_select(state, rnd, miner, scen, exclude)
    if spent:
        picked = [tx for tx in picked
                  if spent.isdisjoint(cid for (cid, _) in tx.consumes)]
    return BlockPlan([*head, *picked, *tail][:scen.capacity])


# ---------------------------------------------------------------------------
# Party policies.
# ---------------------------------------------------------------------------


class PartyPolicy:
    name = "party"
    protocols: Optional[frozenset] = None

    def setup(self, state, scen: Scenario, profile):
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
        if scen.protocol == "demba":
            if state.contracts[COL_A_ID].redeemable:
                return [tx_commit(scen, PRE_A)]
            return []
        if state.contracts[DEP_ID].redeemable:
            return [tx_reveal_dep_a(scen)]
        return []


class AliceOffline(PartyPolicy):
    """Never reveal in time; fall back to the post-deadline return path."""

    name = "offline-then-refund"

    def broadcasts(self, state, rnd, scen):
        if scen.protocol != "demba" or rnd != scen.T:
            return []
        if state.contracts[COL_A_ID].redeemable:
            return [tx_commit(scen, PRE_A2)]
        return []


class AliceGrief(PartyPolicy):
    """Skip the honest reveal, then double-reveal after the deadline."""

    name = "grief-double-reveal"
    protocols = frozenset({"demba"})

    def broadcasts(self, state, rnd, scen):
        if rnd != scen.T:
            return []
        if state.contracts[COL_A_ID].redeemable:
            return [tx_commit(scen, PRE_AA2)]
        return []


class AliceCensoredFallback(PartyPolicy):
    """Reveal honestly; if censored through the deadline, double-reveal."""

    def __init__(self, t_pub: Optional[int] = None):
        self.t_pub = t_pub
        self.name = "censored-fallback"

    def broadcasts(self, state, rnd, scen):
        t_pub = self.t_pub if self.t_pub is not None else scen.t_pub
        if rnd == t_pub:
            if scen.protocol == "demba":
                return [tx_commit(scen, PRE_A)]
            if state.contracts[DEP_ID].redeemable:
                return [tx_reveal_dep_a(scen)]
            return []
        if scen.protocol == "demba" and rnd == scen.T:
            if state.contracts[COL_A_ID].redeemable:
                return [tx_commit(scen, PRE_AA2)]
        return []


class BobHonest(PartyPolicy):
    """Commit or refund per protocol; reveal round applies to the commit."""

    def __init__(self, reveal_round: int = 1):
        self.reveal_round = reveal_round
        self.name = f"honest(reveal={reveal_round})"

    def broadcasts(self, state, rnd, scen):
        if scen.protocol == "demba":
            if rnd == self.reveal_round and state.contracts[COL_B_ID].redeemable:
                return [tx_commit(scen, PRE_B)]
            return []
        out = []
        if rnd == scen.T and state.contracts[DEP_ID].redeemable:
            out.append(tx_refund_dep_b(scen))
        if scen.protocol == "mad":
            if rnd == scen.T and state.contracts[COL_ID].redeemable:
                out.append(tx_col_b(scen))
        elif scen.protocol == "he":
            col = state.contracts[COL_ID]
            if (rnd == scen.T + scen.l and col.redeemable
                    and state.live.get(COL_ID, 0) > 0):
                out.append(tx_col_b(scen))
        return out


class BobDelay(PartyPolicy):
    """Two-phase commit deliberately delayed past the deadline."""

    protocols = frozenset({"demba"})

    def __init__(self, d: int = 1):
        self.d = d
        self.name = f"delay({d})"

    def broadcasts(self, state, rnd, scen):
        if rnd == scen.T + self.d and state.contracts[COL_B_ID].redeemable:
            return [tx_commit(scen, PRE_B)]
        return []


class _BriberyDeployer(PartyPolicy):
    """Shared setup: deploy the censorship bribery contract and fund it."""

    def __init__(self, br: Optional[int] = None, budget: Optional[int] = None):
        self.br = br
        self.budget = budget

    def setup(self, state, scen, profile):
        br = self.br if self.br is not None else scen.br
        budget = self.budget if self.budget is not None else scen.v_dep
        contract = CensorBriberyContract(BOB, br, scen.T, SECRETS[PRE_A])
        state = state.clone()
        state.bribery[CBOB_ID] = contract
        init = call_tx("tx.cbob.init", BOB, CBOB_ID, "init",
                       {"val": budget}, fee=scen.f_cbob_b)
        return broadcast(state, [init])


class BobNaiveBriber(_BriberyDeployer):
    """Bribe per censored block, then refund after the timeout."""

    protocols = frozenset({"naive", "mad"})

    def __init__(self, br=None, budget=None):
        super().__init__(br, budget)
        self.name = f"naive-briber(br={br if br is not None else 'scenario'})"

    def broadcasts(self, state, rnd, scen):
        if rnd == scen.T and state.contracts[DEP_ID].redeemable:
            return [tx_refund_dep_b(scen)]
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
        if rnd == scen.T + 1 and state.contracts[DEP_ID].redeemable:
            return [tx_refund_dep_b(scen)]
        return []


class BobHydraBriber(_BriberyDeployer):
    """Censor via bribes, then sell the confiscation to an accomplice."""

    name = "hydra-briber"
    protocols = frozenset({"mad"})


def make_party_policy(role: str, name: str, **params) -> PartyPolicy:
    """Factory keyed by the names scenario files use."""
    if role == "alice":
        table = {"honest": AliceHonest, "offline-then-refund": AliceOffline,
                 "grief-double-reveal": AliceGrief,
                 "censored-fallback": AliceCensoredFallback}
    else:
        table = {"honest": BobHonest, "delay": BobDelay,
                 "naive-briber": BobNaiveBriber, "b3a": BobB3a,
                 "hydra-briber": BobHydraBriber}
    return _build_policy(table, f"{role} policy", name, params)


def _build_policy(table: dict, what: str, name: str, params: dict):
    """Construct the named policy, holding each parameter to the type of
    its constructor default (an int where that default is None)."""
    if name not in table:
        raise ValueError(f"unknown {what} {name!r}")
    cls = table[name]
    signature = inspect.signature(cls).parameters
    for key, value in params.items():
        if key in signature:  # an unknown key fails in the constructor
            default = signature[key].default
            want = int if default is None else type(default)
            if type(value) is not want:
                raise ValueError(
                    f"{key} must be {want.__name__}, got {value!r}")
    return cls(**params)


# ---------------------------------------------------------------------------
# Miner policies.
# ---------------------------------------------------------------------------


class MinerPolicy:
    name = "miner"
    protocols: Optional[frozenset] = None

    def setup(self, state, scen: Scenario, profile, party: Party):
        return state

    def build_block(self, state, rnd: int, miner: Party, scen: Scenario,
                    profile) -> BlockPlan:
        raise NotImplementedError


class HonestFeeMax(MinerPolicy):
    name = "honest-fee-max"

    def build_block(self, state, rnd, miner, scen, profile):
        return BlockPlan(honest_miner_select(state, rnd, miner, scen))


def _target_tx_ids(scen: Scenario) -> frozenset:
    if scen.protocol == "demba":
        return frozenset({f"tx.col.{PRE_A}"})
    return frozenset({"tx.depA"})


class CensorRelated(MinerPolicy):
    """Exclude protocol transactions until the deadline, then act honest.

    With a censorship bribery contract deployed, also participates in it:
    reserves bribes while censoring, lands the payer's settlement as soon as
    the deadline passes, and settles the bribes in the same block.
    """

    def __init__(self, participate: bool = True):
        self.participate = participate
        self.name = "censor-related"

    def build_block(self, state, rnd, miner, scen, profile):
        cbob = state.bribery.get(CBOB_ID) if self.participate else None
        head: list = []
        tail: list = []
        if cbob is not None and "tx.cbob.init" in state.mempool:
            head.append(state.mempool["tx.cbob.init"])
        refund = state.mempool.get("tx.depB")
        settled_now = (rnd > scen.T and refund is not None
                       and state.contracts[DEP_ID].redeemable
                       and _valid(state, refund, rnd))
        if settled_now:
            head.append(refund)
        if cbob is not None and not cbob.settled:
            view = ChainView(state, rnd, miner)
            pre_a = _known_value(state, PRE_A)
            if rnd <= scen.T:
                if any(t in state.mempool for t in _target_tx_ids(scen)):
                    head.append(call_tx(f"tx.cbob.req.{rnd}", miner, CBOB_ID,
                                        "requestBribe"))
            elif view.target_included_ever():
                tail.append(call_tx(f"tx.cbob.refund.{rnd}", miner, CBOB_ID,
                                    "refundToBob"))
            elif pre_a is not None and (settled_now
                                        or view.settlement_landed()):
                tail.append(call_tx(f"tx.cbob.claim.{rnd}", miner, CBOB_ID,
                                    "claimBribe", {"preimage": pre_a}))
        exclude = _target_tx_ids(scen) if rnd <= scen.T else frozenset()
        return _assemble(state, rnd, miner, scen, head, tail, exclude)


class M2MbaPassive(MinerPolicy):
    """Censor quietly, then confiscate at the first chance; no pact calls."""

    name = "m2mba-passive"
    protocols = frozenset({"he", "mad"})

    def build_block(self, state, rnd, miner, scen, profile):
        if rnd <= scen.T and not _preimages_known(state, (PRE_A, PRE_B)):
            return _assemble(state, rnd, miner, scen,
                             exclude=_target_tx_ids(scen))
        return _confiscation_plan(state, rnd, miner, scen, pact=False)


def _confiscation_plan(state, rnd, miner, scen, pact: bool,
                       claim_only: bool = False) -> BlockPlan:
    """Post-deadline attack block: land the refund, confiscate, settle."""
    head: list = []
    dep_open = state.contracts[DEP_ID].redeemable
    both_known = _preimages_known(state, (PRE_A, PRE_B))
    refund = state.mempool.get("tx.depB")
    refund_lands = False
    if scen.protocol == "mad" and dep_open and both_known and not claim_only:
        # Confiscation beats letting the payer spend the deposit.
        head.append(tx_confiscate(state, scen, miner, DEP_ID, DEP_M))
    elif dep_open and refund is not None and _valid(state, refund, rnd):
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
        head.append(tx_confiscate(state, scen, miner, COL_ID, COL_M))
    pact_obj = state.bribery.get(CM2M_ID) if pact else None
    if pact_obj is not None and not pact_obj.settled:
        view = ChainView(state, rnd, miner)
        pre_a = _known_value(state, PRE_A)
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
    colluder redeem); "defer" waits until round `defer_to`.
    """

    protocols = frozenset({"he"})

    def __init__(self, role: str = "race", defer_to: Optional[int] = None):
        self.role = role
        self.defer_to = defer_to
        self.name = f"m2mba-active({role})"

    def setup(self, state, scen, profile, party):
        if scen.m2mba_split == "equal":
            return state
        state = state.clone()
        pact = state.bribery.get(CM2M_ID)
        if pact is None:
            bribes = scen.pact_bribes or {
                m.party: scen.br for m in scen.miners
                if m.colluding and m.kind == "active"}
            pact = MinerPactContract(scen.T, SECRETS[PRE_A], bribes)
            state.bribery[CM2M_ID] = pact
        else:
            pact = pact.copy_for_step()
            state.bribery[CM2M_ID] = pact
        debit(state.balances, party, scen.v_col)
        pact.lock_collateral(party, scen.v_col)
        return state

    def build_block(self, state, rnd, miner, scen, profile):
        if rnd <= scen.T:
            head = []
            if scen.m2mba_split != "equal":
                pact = state.bribery.get(CM2M_ID)
                if (pact is not None and not pact.settled
                        and any(t in state.mempool for t in _target_tx_ids(scen))):
                    head.append(call_tx(f"tx.cm2m.req.{rnd}", miner, CM2M_ID,
                                        "requestBribe"))
            return _assemble(state, rnd, miner, scen, head,
                             exclude=_target_tx_ids(scen))
        claim_only = self.role == "accept" or (
            self.defer_to is not None and rnd < self.defer_to)
        return _confiscation_plan(state, rnd, miner, scen,
                                  pact=scen.m2mba_split != "equal",
                                  claim_only=claim_only)


class B3aAccomplice(MinerPolicy):
    """Mines the partial settlement block the briber finalises.

    The handshake is collapsed into an atomic acceptance predicate: the plan
    is only used if it fits the block and the briber's checks pass,
    otherwise the accomplice falls back to an ordinary honest block and the
    attack aborts.
    """

    protocols = frozenset({"mad"})

    def __init__(self, case: int = 1, defective: bool = False):
        self.case = case
        self.defective = defective
        self.name = f"b3a-accomplice(case={self.case})"

    def build_block(self, state, rnd, miner, scen, profile):
        pre_a = _known_value(state, PRE_A)
        if (rnd <= scen.T or pre_a is None
                or not state.contracts[DEP_ID].redeemable):
            return CensorRelated().build_block(state, rnd, miner, scen, profile)
        br = scen.br
        txs = [tx_confiscate(state, scen, miner, DEP_ID, DEP_M,
                             collude_bob=True)]
        if self.case == 1:
            coinbase = ((BOB, scen.v_dep - br, "b3a-coinbase"),)
            txs.append(tx_col_b(scen))
        else:
            coinbase = ((BOB, scen.v_dep + scen.v_col - 2 * br, "b3a-coinbase"),)
            txs.append(tx_confiscate(state, scen, miner, COL_ID, COL_M,
                                     collude_bob=True))
        cbob = state.bribery.get(CBOB_ID)
        if cbob is not None and not cbob.settled:
            txs.append(call_tx(f"tx.cbob.claim.{rnd}", miner, CBOB_ID,
                               "claimBribe", {"preimage": pre_a}))
        if self.defective:
            coinbase = ()
        plan = BlockPlan(txs, coinbase)
        if (len(txs) > scen.capacity
                or not b3a_bob_policy(plan, scen, self.case)):
            return CensorRelated().build_block(state, rnd, miner, scen, profile)
        return plan


def b3a_bob_policy(plan: BlockPlan, scen: Scenario, case: int) -> bool:
    """The briber's acceptance predicate over an accomplice's partial block."""
    ids = [tx.tx_id for tx in plan.txs]
    expected_mint = (scen.v_dep - scen.br if case == 1
                     else scen.v_dep + scen.v_col - 2 * scen.br)
    coinbase_ok = any(party == BOB and amount == expected_mint
                      for (party, amount, _) in plan.coinbase)
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

    def build_block(self, state, rnd, miner, scen, profile):
        eps = self.epsilon if self.epsilon is not None else scen.epsilon
        dep = state.contracts[DEP_ID]
        if dep.redeemable and _known_value(state, PRE_A) is not None:
            txs = [tx_confiscate(state, scen, miner, DEP_ID, DEP_M,
                                 collude_bob=True),
                   payment_tx(f"tx.sdrba.pay.{rnd}", miner, BOB,
                              scen.v_col + eps)]
            if len(txs) <= scen.capacity:
                return BlockPlan(txs)
        return BlockPlan(honest_miner_select(state, rnd, miner, scen))


class HydraAccomplice(MinerPolicy):
    """Censor for the briber, then buy the confiscation rights after T."""

    protocols = frozenset({"mad"})

    def __init__(self, epsilon: Optional[int] = None):
        self.epsilon = epsilon
        self.name = "hydra-accomplice"

    def build_block(self, state, rnd, miner, scen, profile):
        pre_a = _known_value(state, PRE_A)
        if (rnd > scen.T and pre_a is not None
                and state.contracts[DEP_ID].redeemable):
            eps = self.epsilon if self.epsilon is not None else scen.epsilon
            txs = [tx_confiscate(state, scen, miner, DEP_ID, DEP_M,
                                 collude_bob=True),
                   tx_confiscate(state, scen, miner, COL_ID, COL_M,
                                 collude_bob=True),
                   payment_tx(f"tx.hydra.pay.{rnd}", miner, BOB,
                              scen.v_col + eps)]
            cbob = state.bribery.get(CBOB_ID)
            if cbob is not None and not cbob.settled:
                txs.append(call_tx(f"tx.cbob.claim.{rnd}", miner, CBOB_ID,
                                   "claimBribe", {"preimage": pre_a}))
            if len(txs) <= scen.capacity:
                return BlockPlan(txs)
        return CensorRelated().build_block(state, rnd, miner, scen, profile)


def make_miner_policy(name: str, **params) -> MinerPolicy:
    table = {"honest-fee-max": HonestFeeMax, "censor-related": CensorRelated,
             "m2mba-active": M2MbaActive, "m2mba-passive": M2MbaPassive,
             "b3a-accomplice": B3aAccomplice, "sdrba-briber": SdrbaBriber,
             "hydra-accomplice": HydraAccomplice}
    return _build_policy(table, "miner policy", name, params)
