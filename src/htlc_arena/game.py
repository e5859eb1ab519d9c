"""Round-driving game engine.

A play is fully determined by (scenario, strategy profile, miner schedule).
Expected utilities are either exact or Monte-Carlo with a seeded generator,
and both modes run the same forward pass over rounds.  Every policy is a
stateless function of (chain state, round) that reads only what the
state's control key fixes (`ChainState.control_key`), so prefixes that reach
one control state are merged and played on once, whatever they were paid
on the way.  What they were paid is summed apart, as payoff groups: each
maps the payoff accumulated so far (balance changes, burn, bribe-log
entries and, for the pact's equal split, each miner's blocks in the
censored window, which is all that settles it) to the mass of the
prefixes that reach it.  Each round's two halves run once per distinct
input.  A block is built once per (control state, miner, what the miner's
policy does that round, `agents.MinerPolicy.round_key`).  Then the
parties' broadcasts, the label and its check run once per mined control
state.  A verdict's passes share one cache of block steps (`StepMemo`),
so a pass builds only the blocks that no earlier pass of the verdict
built.  Any other pass caches no step and asks no round key.
One rule moves a round's payoff groups whole, unsplit: every miner that
can mine the round takes a step to the same successor with the same
increment.  A pass whose every round has one miner that can mine it has
one schedule, so it walks it, a block a round (`walk`), and reads its
one payoff group from the final state.
`final_frontier` returns the pass's final frontier: each final control
state with its payoff groups, each holding an integer mass, and the total
the masses sum to.  In exact mode a mass is the summed schedule weight
(the product of miner powers) over one common denominator, the product of
each round's; its values are those of playing every schedule that
`enumerate_schedules` yields, which is the reference the tests hold it
to.  In Monte-Carlo mode
a mass is the number of sampled trials that reach the state; its values
are those of playing each sampled schedule, drawn when a round first
splits the trials by pick.  `expected_utilities` settles straight from
the frontier, a payoff at a time, and no final chain state is rebuilt.
`runner.ttc` needs no frontier: its honest traffic completes in the same
round whoever mines, so it walks the one schedule pinned to one miner and
reads the completion round from the final state.  `play` and its
`Outcome` stay as the oracle the tests hold them to.
Dominance verdicts, which weigh expectations against each other, live in
`analysis`.

Each protocol's facts sit in one record (`ProtocolRules`), its row of
`PROTOCOLS`, which every Scenario holds as `rules`; the engine, the
verifiers and the CLI read the record rather than branch on the name.

Utilities carry no discounting: they are raw end-of-game token deltas from
the post-setup baseline.  The one exception to pre-funded contracts is the
two-phase protocol, where the payer publishes the deposit contract after
both collaterals exist, so its funding lands inside the measured window.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, fields
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Optional

from .core import (ALICE, BOB, EXTERNAL, MAX_DRAW_ITEMS, ArenaError,
                   ContractError, Party, ScenarioError, debit)
from .contracts import (COL_A_ID, COL_B, COL_B_ID, COL_ID, DEP_A, DEP_B,
                        DEP_BURN, DEP_ID, FeeSchedule, PRE_A, PRE_A2, PRE_AA2,
                        PRE_B, SECRETS, build_demba, build_he_htlc,
                        build_mad_htlc, build_naive_htlc, derive_he_delay)
from .ledger import ChainState, ChainView, Part, apply_block, broadcast

if TYPE_CHECKING:
    import numpy as np

#: Most schedules an exact expectation may stand for: |miners|^free rounds.
ENUM_CAP = 10_000_000


def _invalid(what: str, why: str) -> ScenarioError:
    return ScenarioError(f"validation-error({what}): {why}")


@dataclass(frozen=True)
class MinerProfile:
    party: Party
    power: Fraction
    kind: str = "passive"  # passive | active
    colluding: bool = False

    def __post_init__(self):
        if type(self.party.id) is not str:
            raise _invalid("id", f"expected a string, got {self.party.id!r}")
        if not self.party.id.isprintable():
            # Error lines name miner ids raw, so a line break would split them.
            raise _invalid("id", f"must be printable, got {self.party.id!r}")
        # A Fraction or an int; the sign is its numerator's.
        if type(getattr(self.power, "numerator", None)) is not int:
            raise _invalid("power", f"expected a rational number, "
                           f"got {self.power!r}")
        if self.power.numerator < 0:
            raise _invalid("power", f"must not be negative, got {self.power}")
        if self.kind not in ("passive", "active"):
            raise _invalid("kind", f"expected 'passive' or 'active', "
                           f"got {self.kind!r}")
        if type(self.colluding) is not bool:
            raise _invalid("colluding",
                           f"expected true or false, got {self.colluding!r}")


@dataclass(frozen=True)
class Scenario:
    """All protocol, fee, timing, and miner parameters for one game.

    Construction is the one place a game's parameters are checked: it
    looks up its protocol's record (`rules`, a row of `PROTOCOLS`),
    derives `l` and `horizon`, then builds the round-0 genesis once.  The
    scenario is frozen, so that genesis can never go stale; derive variants
    with `dataclasses.replace`, which checks and builds them afresh.  A
    variant keeps the derived `l` and `horizon` unless it passes `l=0` or
    `horizon=None` to derive them again.
    """

    protocol: str
    v_dep: int
    T: int
    miners: tuple
    v_col: int = 0
    v_col_a: int = 0
    v_col_b: int = 0
    v_ded: int = 0
    f: int = 1
    f_dep_a: int = 2
    f_dep_b: int = 2
    f_col_b: int = 2
    f_cbob_b: int = 1
    fee_schedule: Optional[FeeSchedule] = None
    l: int = 0
    t_pub: int = 1
    horizon: Optional[int] = None
    br: int = 0
    epsilon: int = 0
    capacity: int = 8
    seed: int = 0
    mode: tuple = ("exact",)  # ("exact",) or ("monte-carlo", trials)
    m2mba_split: str = "per-block"  # per-block | equal
    pact_bribes: Optional[dict] = None  # Party -> per-block bribe override

    def __post_init__(self):
        # A document may give any JSON value; only a string names a row.
        rules = (PROTOCOLS.get(self.protocol) if type(self.protocol) is str
                 else None)
        if rules is None:
            raise _invalid("protocol", f"got {self.protocol!r}")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if type(value) is not int or value < 0:
                _require_count(name, value)  # raises, naming the field
        if self.capacity < 1:
            raise _invalid("capacity", "must be at least 1")
        # Each miner's integer weight over the powers' common denominator:
        # a free round's branches (`final_frontier`).
        scale = math.lcm(*(m.power.denominator for m in self.miners))
        weights = tuple((m.party, m.power.numerator
                         * (scale // m.power.denominator))
                        for m in self.miners)
        total = sum(w for _, w in weights)
        if total != scale:
            raise _invalid("power-sum", f"miner powers sum to "
                           f"{Fraction(total, scale)}, need exactly 1")
        ids = [m.party.id for m in self.miners]
        if len(set(ids)) != len(ids):
            raise _invalid("miners", f"duplicate miner id in {ids}")
        if rules.derives_l and self.l < 1:
            object.__setattr__(self, "l", _built(
                derive_he_delay, self.v_dep, self.v_col, self.f))
        if self.horizon is None:
            object.__setattr__(self, "horizon", self.T + self.l + 2)
        _require_count("horizon", self.horizon)
        if self.horizon < self.T + self.l + 2:
            raise _invalid("horizon", "too short for every refund path to fire")
        if self.t_pub < 1 or self.t_pub > self.T:
            raise _invalid("t_pub", "must fall in [1, T]")
        if rules.two_phase and self.fee_schedule is None:
            raise _invalid("fee_schedule", f"required for {self.protocol}")
        if not rules.two_phase and self.fee_schedule is not None:
            raise _invalid("fee_schedule", "only demba takes a fee schedule, "
                           f"got protocol {self.protocol!r}")
        if self.fee_schedule is not None and self.fee_schedule.T != self.T:
            # Fees decay from the schedule's T, contract deadlines from ours.
            raise _invalid("fee_schedule", f"deadline T={self.fee_schedule.T} "
                           f"differs from the scenario's T={self.T}")
        check_field("mode", self.mode)
        if self.pact_bribes is not None:  # a copy that no write can reach
            object.__setattr__(self, "pact_bribes",
                               MappingProxyType(dict(self.pact_bribes)))
        # Plain attributes, not fields: replace() builds fresh ones.
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_weights", (weights, scale))
        object.__setattr__(self, "_genesis", _built(_build_genesis, self))

    @property
    def coalition(self) -> tuple:
        """The pact's members: the active colluders, in miner order."""
        return tuple(m.party for m in self.miners
                     if m.kind == "active" and m.colluding)

    @property
    def lambda_col(self) -> Fraction:
        return sum((self.profile_of(p).power for p in self.coalition),
                   Fraction(0))

    def miner_parties(self) -> tuple:
        return tuple(m.party for m in self.miners)

    def profile_of(self, party: Party) -> MinerProfile:
        for m in self.miners:
            if m.party == party:
                return m
        raise ScenarioError(f"no such miner {party}")


#: The fields that must hold a plain non-negative int, computed once.
#: `horizon` may be None until it is derived, so it is checked after that.
_INT_FIELDS = tuple(f.name for f in fields(Scenario) if f.type == "int")


def check_field(name: str, value) -> None:
    """The check a Scenario makes on `seed`, `mode` or an int field alone,
    for a file value that an override replaces before the one build."""
    if name != "mode":
        _require_count(name, value)
    elif not (value == ("exact",) or type(value) is tuple and len(value) == 2
              and value[0] == "monte-carlo" and type(value[1]) is int
              and value[1] >= 1):
        raise _invalid("mode", "expected ('exact',) or ('monte-carlo', n) "
                       f"with n a positive int, got {value!r}")


def _require_count(name: str, value) -> None:
    # `type(...) is int` also turns away bools, floats and numeric strings.
    if type(value) is not int or value < 0:
        raise _invalid(name, f"expected a non-negative int, got {value!r}")


def _built(builder, *args):
    """Run a contract builder for a Scenario, naming the field it rejects."""
    try:
        return builder(*args)
    except ContractError as e:
        raise _invalid(e.field, str(e)) from e


@dataclass
class StrategyProfile:
    alice: object
    bob: object
    miners: dict  # Party -> miner policy

    def describe(self) -> str:
        miners = ",".join(f"{p.id}={pol.name}" for p, pol in
                          sorted(self.miners.items(), key=lambda kv: kv[0].id))
        return f"alice={self.alice.name} bob={self.bob.name} {miners}"


@dataclass(frozen=True)
class Schedule:
    miners: tuple  # one Party per round, index 0 = round 1
    weight: Fraction = Fraction(1)


@dataclass
class Outcome:
    """Per-party net token deltas at game end, plus labelled trace.

    `escrow_delta` is the change in tokens still held by contracts (live
    deposits plus bribery pools) since the baseline; party deltas, escrow,
    burn, and mints always sum to zero.
    """

    deltas: dict
    burned: int
    minted: int
    trace: tuple
    terminal: str
    bribe_income: dict
    escrow_delta: Fraction
    state: ChainState

    def delta(self, party: Party) -> Fraction:
        return self.deltas.get(party, Fraction(0))

    def conserves(self) -> bool:
        return (sum(self.deltas.values(), Fraction(0)) + self.escrow_delta
                + self.burned - self.minted) == 0


# ---------------------------------------------------------------------------
# Genesis.
# ---------------------------------------------------------------------------


def _start_balance(scen: Scenario) -> int:
    fees = (scen.f + scen.f_dep_a + scen.f_dep_b + scen.f_col_b
            + scen.f_cbob_b + scen.br + scen.epsilon)
    if scen.fee_schedule is not None:
        fees += sum(scen.fee_schedule.paid.values())
    bulk = scen.v_dep + scen.v_col + scen.v_col_a + scen.v_col_b + scen.v_ded
    return 3 * bulk + (fees + 1) * (scen.horizon + 4) + 100


def build_genesis(scen: Scenario) -> tuple:
    """The funded round-0 state: (state, baseline, escrow).

    The scenario built its genesis once, at construction.  The state and
    the baseline balances are read-only, so every play shares them.
    """
    return scen._genesis


def _build_genesis(scen: Scenario) -> tuple:
    rules = scen.rules
    contracts, live = rules.genesis(scen)
    target_contract, target_path = rules.target
    meta = {"T": scen.T, "l": scen.l, "capacity": scen.capacity,
            "f": scen.f, "target_contract": target_contract,
            "target_path": target_path, "fee_schedule": scen.fee_schedule}
    start = _start_balance(scen)
    balances = {ALICE: start, BOB: start,
                EXTERNAL: start + scen.capacity * scen.f * (scen.horizon + 2)}
    for m in scen.miners:
        balances[m.party] = start
    baseline = Part.of(balances)
    escrow0 = sum(live.values())
    if rules.two_phase:
        # Deposit contract goes live only after both collaterals exist, so
        # the payer funds it inside the measured window.
        debit(balances, BOB, scen.v_dep)
        live[DEP_ID] = scen.v_dep
    meta["auto_ids"] = tuple(cid for cid, c in contracts.items()
                             if any(p.auto_only for p in c.paths))
    state = ChainState(contracts=contracts, live=live, balances=balances,
                       meta=meta)
    return state, baseline, escrow0


def _naive_contracts(scen: Scenario) -> tuple:
    dep = build_naive_htlc(ALICE, BOB, scen.v_dep, SECRETS[PRE_A], scen.T)
    return {DEP_ID: dep}, {DEP_ID: scen.v_dep}


def _mad_contracts(scen: Scenario) -> tuple:
    dep, col = build_mad_htlc(ALICE, BOB, scen.v_dep, scen.v_col, SECRETS,
                              scen.T)
    return {DEP_ID: dep, COL_ID: col}, {DEP_ID: scen.v_dep, COL_ID: scen.v_col}


def _he_contracts(scen: Scenario) -> tuple:
    dep, col = build_he_htlc(ALICE, BOB, scen.v_dep, scen.v_col, SECRETS,
                             scen.T, scen.l)
    return ({DEP_ID: dep, COL_ID: col},
            {DEP_ID: scen.v_dep + scen.v_col, COL_ID: 0})


def _demba_contracts(scen: Scenario) -> tuple:
    dep, col_a, col_b = build_demba(ALICE, BOB, scen.v_dep, scen.v_col_a,
                                    scen.v_col_b, scen.v_ded, SECRETS,
                                    scen.T, scen.fee_schedule)
    # The deposit goes live inside the measured window (`_build_genesis`).
    return ({DEP_ID: dep, COL_A_ID: col_a, COL_B_ID: col_b},
            {COL_A_ID: scen.v_col_a, COL_B_ID: scen.v_col_b})


# ---------------------------------------------------------------------------
# State labelling.
# ---------------------------------------------------------------------------


def _htlc_label(state: ChainState) -> str:
    """The label of a one-deposit game: red until the deposit is
    redeemed, then by the path and by whether pre_A was revealed."""
    entry = state.redemptions.get(DEP_ID)
    if entry is None:
        return "red"
    if entry[0] == DEP_A:
        return "nred-A"
    return "nred-rev" if PRE_A in state.known else "nred-nrev"


_COMMIT_MODES = {PRE_A: "A", PRE_A2: "A'", PRE_AA2: "AA'"}


def _demba_label(state: ChainState) -> str:
    """The label of the two-phase game: all-red until both collaterals
    are redeemed, then by the payee's commit and the payer's lateness."""
    red_a = state.redemptions.get(COL_A_ID)
    red_b = state.redemptions.get(COL_B_ID)
    if red_a is None or red_b is None:
        return "all-red"
    b_round = state.reveal_round(COL_B_ID, PRE_B)
    late = b_round is not None and b_round > state.meta["T"]
    return f"nred-{_COMMIT_MODES[red_a[0]]}B" + ("T" if late else "")


_LABEL_ORDER = {name: i for i, name in enumerate(
    ("red", "all-red", "nred-nrev", "nred-rev", "nred-A",
     "nred-AB", "nred-A'B", "nred-AA'B", "nred-ABT", "nred-A'BT",
     "nred-AA'BT"))}


# ---------------------------------------------------------------------------
# The protocol table.
# ---------------------------------------------------------------------------


class ProtocolRules(NamedTuple):
    """One protocol's facts: its row of `PROTOCOLS`, which a Scenario
    holds as `rules`.  A row holds data and functions of this module
    only, so `agents` policies read its data rather than the table
    naming a policy.

    `genesis` builds a scenario's (contracts, live deposits).  `target`
    is the (contract, path) of the protected transfer, which the bribery
    contracts' guards read (`ledger.ChainView`), and `target_tx_ids` the
    transactions that carry it, which a censor keeps out.  `label` labels
    a chain state; `tags` holds the terminal tag of each deposit path not
    tagged by its own name.  `completion` maps each `ttc` path the
    protocol has to the (contract, path) redemptions that complete it, a
    path of None standing for any, in the round the last of them lands.
    With `derives_l`, an `l` left at 0 is derived from the amounts.
    `two_phase` marks the two-phase commit: its scenario carries a fee
    schedule (no other protocol takes one), its parties commit to
    collateral contracts at the schedule's fees, and its payer funds the
    deposit inside the measured window.  With `equal_split`, the pact's
    equal split shares a confiscation by the censored window's blocks.
    `lemmas` and `theorem` name the verdicts that run on the protocol.
    """

    genesis: Callable
    target: tuple
    target_tx_ids: frozenset
    label: Callable
    tags: Mapping
    completion: Mapping
    derives_l: bool
    two_phase: bool
    equal_split: bool
    lemmas: tuple = ()
    theorem: Optional[str] = None


#: Transaction ids of the protected transfer, as `agents` names them.
_HTLC_TARGET = frozenset({"tx.depA"})
_NO_TAGS = MappingProxyType({})

#: Each protocol's record, by the name scenario files use.
PROTOCOLS = {
    "naive": ProtocolRules(
        genesis=_naive_contracts, target=(DEP_ID, DEP_A),
        target_tx_ids=_HTLC_TARGET, label=_htlc_label, tags=_NO_TAGS,
        completion=MappingProxyType({
            "alice-redeems": ((DEP_ID, DEP_A),),
            "bob-both": ((DEP_ID, None),)}),
        derives_l=False, two_phase=False, equal_split=False),
    "mad": ProtocolRules(
        genesis=_mad_contracts, target=(DEP_ID, DEP_A),
        target_tx_ids=_HTLC_TARGET, label=_htlc_label, tags=_NO_TAGS,
        completion=MappingProxyType({
            "alice-redeems": ((DEP_ID, DEP_A),),
            "bob-collateral": ((COL_ID, None),),
            "bob-both": ((DEP_ID, None), (COL_ID, None))}),
        derives_l=False, two_phase=False, equal_split=False),
    # The payee's path pays the payer his collateral back, and the staged
    # refund completes when the combined pot leaves the collateral.
    "he": ProtocolRules(
        genesis=_he_contracts, target=(DEP_ID, DEP_A),
        target_tx_ids=_HTLC_TARGET, label=_htlc_label, tags=_NO_TAGS,
        completion=MappingProxyType({
            "alice-redeems": ((DEP_ID, DEP_A),),
            "bob-collateral": ((DEP_ID, None),),
            "bob-both": ((COL_ID, COL_B),)}),
        derives_l=True, two_phase=False, equal_split=True,
        lemmas=(1, 2, 3, 4, 5), theorem="m2mba"),
    "demba": ProtocolRules(
        genesis=_demba_contracts, target=(COL_A_ID, PRE_A),
        target_tx_ids=frozenset({f"tx.col.{PRE_A}"}), label=_demba_label,
        tags=MappingProxyType({DEP_A: "to-Alice", DEP_B: "to-Bob",
                               DEP_BURN: "burn"}),
        completion=MappingProxyType({
            "alice-redeems": ((DEP_ID, None),),
            "bob-collateral": ((COL_B_ID, None),),
            "bob-both": ((DEP_ID, None),)}),
        derives_l=False, two_phase=True, equal_split=False,
        lemmas=(6, 7, 8), theorem="demba"),
}


# ---------------------------------------------------------------------------
# Play.
# ---------------------------------------------------------------------------


def policy_key(policy) -> tuple:
    """What tells policies apart: a stateless policy is its class and its
    constructor's parameters, so two policies with equal keys act alike.
    A verdict's expectations and a miner policy's default `round_key`
    read it, so a policy's attributes must be hashable."""
    return type(policy), tuple(sorted(vars(policy).items()))


def fits(policy, scen: Scenario) -> bool:
    """Whether `policy` may play on `scen`: a policy's `protocols` set,
    where it has one, names the protocols it fits."""
    allowed = getattr(policy, "protocols", None)
    return allowed is None or scen.protocol in allowed


def _check_profile(scen: Scenario, profile: StrategyProfile) -> None:
    for pol in (profile.alice, profile.bob, *profile.miners.values()):
        if not fits(pol, scen):
            raise ScenarioError(
                f"policy {pol.name!r} not valid for protocol {scen.protocol!r}")
    for party in scen.miner_parties():
        if party not in profile.miners:
            raise ScenarioError(f"no policy for miner {party}")


def _setup(scen: Scenario, profile: StrategyProfile) -> tuple:
    """The round-0 state after every policy's setup: (state, baseline, escrow)."""
    _check_profile(scen, profile)
    state, baseline, escrow0 = build_genesis(scen)
    for pol in (profile.alice, profile.bob):
        state = pol.setup(state, scen)
    for party in sorted(profile.miners, key=lambda p: p.id):
        state = profile.miners[party].setup(state, scen, party)
    return state, baseline, escrow0


def _mine(scen: Scenario, profile: StrategyProfile, state: ChainState,
          rnd: int, miner: Party) -> tuple:
    """The block half of a round: (`miner`'s block, the state it makes)."""
    block = profile.miners[miner].build_block(state, rnd, miner, scen)
    return block, apply_block(state, block)


def _act(scen: Scenario, profile: StrategyProfile, state: ChainState,
         rnd: int, prev_rank: int) -> tuple:
    """The party half of a round: the parties' broadcasts on a mined state.

    Returns (state, label, label rank).  A label may never fall back to
    red once the game has left it; `prev_rank` is the highest rank of the
    states the mined state came from, -1 before round 1.
    """
    emissions = profile.alice.broadcasts(state, rnd, scen)
    more = profile.bob.broadcasts(state, rnd, scen)
    if more:
        emissions = [*emissions, *more]
    if emissions:
        state = broadcast(state, emissions)
    label = scen.rules.label(state)
    rank = _LABEL_ORDER[label]
    if rank < prev_rank and label in ("red", "all-red"):
        raise ScenarioError(f"state label regressed to {label} at {rnd}")
    return state, label, rank


def _play_round(scen: Scenario, profile: StrategyProfile, state: ChainState,
                rnd: int, miner: Party, prev_rank: int) -> tuple:
    """One round: `miner`'s block, then the parties' broadcasts."""
    return _act(scen, profile, _mine(scen, profile, state, rnd, miner)[1],
                rnd, prev_rank)


def play(scen: Scenario, profile: StrategyProfile, schedule: Schedule,
         check_invariants: bool = False) -> Outcome:
    """Run one deterministic game to the horizon."""
    if len(schedule.miners) < scen.horizon:
        raise ScenarioError("schedule shorter than horizon")
    state, baseline, escrow0 = _setup(scen, profile)
    expected_total = state.conservation_total()
    trace = []
    rank = -1
    for rnd in range(1, scen.horizon + 1):
        state, label, rank = _play_round(scen, profile, state, rnd,
                                         schedule.miners[rnd - 1], rank)
        trace.append(label)
        if check_invariants and state.conservation_total() != expected_total:
            raise ScenarioError(f"conservation violated at round {rnd}")
    return _outcome(scen, state, baseline, escrow0, tuple(trace), schedule)


def walk(scen: Scenario, profile: StrategyProfile, miners) -> tuple:
    """Play one fixed schedule from setup, one block a round, where
    `miners` names each round's miner in turn from round 1.

    Each round mines, checks that the mined state keeps the setup state's
    conservation total (as `_enter` does) and runs the party half with
    the label rule (`_act`).  At the end every party the final state
    holds must have held a balance at setup, as `_Payoffs.step` requires
    of each step.  Returns (the setup state, its baseline, the final
    state).  A pass whose every round has one mover walks (`_forward`),
    and so does `runner.ttc`; `play`, the oracle, keeps its own loop.
    """
    setup, baseline, _ = _setup(scen, profile)
    expected_total = setup.conservation_total()
    state, rank = setup, -1
    for rnd, miner in enumerate(miners, 1):
        state = _mine(scen, profile, state, rnd, miner)[1]
        if state.conservation_total() != expected_total:
            raise ScenarioError(f"conservation violated at round {rnd}")
        state, _, rank = _act(scen, profile, state, rnd, rank)
    if len(state.balances) != len(setup.balances):
        raise ArenaError("a step paid a party with no balance at setup")
    return setup, baseline, state


def _outcome(scen: Scenario, state: ChainState, baseline: dict, escrow0: int,
             trace: tuple, schedule: Schedule) -> Outcome:
    """Settle the state `schedule` reached against the post-setup baseline."""
    deltas = {}
    # In party order, so results print alike whatever the hash seed.
    for party in sorted(set(baseline) | set(state.balances)):
        deltas[party] = Fraction(state.balances.get(party, 0)
                                 - baseline.get(party, 0))
    confiscator = _split_confiscator(scen, state)
    if confiscator is not None:
        window = Counter(schedule.miners[scen.t_pub:scen.T])
        for party, change in _split(scen, confiscator, window).items():
            deltas[party] += change
    escrow = state.live.total() + state.bribery.total()
    return Outcome(deltas=deltas, burned=state.burned,
                   minted=state.mint_log.total(),
                   trace=trace, terminal=_terminal_tag(state, scen),
                   bribe_income=_censor_income(state.bribe_log),
                   escrow_delta=Fraction(escrow - escrow0), state=state)


def _censor_income(bribe_log) -> dict:
    """Each party's censor-bribe income in `bribe_log`'s entries."""
    income: dict = {}
    for party, amount, tag in bribe_log:
        if tag == "censor-bribe":
            income[party] = income.get(party, 0) + amount
    return income


def _terminal_tag(state: ChainState, scen: Scenario) -> str:
    """How the deposit settled: its path's tag, or pending."""
    entry = state.redemptions.get(DEP_ID)
    if entry is None:
        return "pending"
    return scen.rules.tags.get(entry[0], entry[0])


def _window_rounds(scen: Scenario) -> range:
    """The censored rounds t_pub+1..T whose blocks the equal split counts."""
    if scen.rules.equal_split and scen.m2mba_split == "equal":
        return range(scen.t_pub + 1, scen.T + 1)
    return range(0)


def _split_confiscator(scen: Scenario, state: ChainState):
    """The miner whose confiscation the pact's equal split shares out, or
    None.  It reads only the control part `redemptions`, which keeps a
    col-M confiscator's miner (`ledger.Redemptions`)."""
    if not _window_rounds(scen):
        return None
    confiscator = ChainView(state, state.height, None).confiscator()
    return confiscator if confiscator in scen.coalition else None


def _split(scen: Scenario, confiscator: Party, window) -> dict:
    """Reallocate a confiscation equally by censored blocks mined.

    Used by the miner-pact equal-split variant: the confiscator keeps
    v_col * k_i / k and pays every other censoring colluder v_col * k_j / k,
    where k counts the censored window's blocks and `window` maps each
    miner to its k_j (`_window_rounds`), which the game counts: `play` from
    its schedule, the forward pass in each payoff.  Returns each party's
    change, which sum to zero, so the outcome total is unchanged.
    """
    k = scen.T - scen.t_pub
    coalition = scen.coalition
    changes = {confiscator: Fraction(0)}
    for party, k_j in sorted(window.items(), key=lambda kv: kv[0].id):
        if party != confiscator and party in coalition:
            share = Fraction(scen.v_col) * k_j / k
            changes[party] = share
            changes[confiscator] -= share
    return changes


# ---------------------------------------------------------------------------
# Expectations over schedules.
# ---------------------------------------------------------------------------


@dataclass
class ExpectedUtilities:
    utilities: dict  # Party -> Fraction
    bribe_income: dict  # Party -> Fraction
    burned: Fraction
    mode: str
    ci: Optional[dict] = None  # Party -> (low, high) floats

    def of(self, party: Party) -> Fraction:
        return self.utilities.get(party, Fraction(0))


def enumerate_schedules(scen: Scenario, pin: Optional[dict] = None):
    """Yield every schedule (with exact weight), optionally pinning rounds.

    `pin` maps a 1-based round to the party forced to mine it; pinned rounds
    contribute weight 1, which is the conditional measure given those picks.
    """
    pin = pin or {}
    parties = scen.miner_parties()
    powers = {m.party: m.power for m in scen.miners}
    free = [r for r in range(1, scen.horizon + 1) if r not in pin]
    _check_enumeration_cap(scen, len(free))
    for combo in itertools.product(parties, repeat=len(free)):
        assignment = dict(pin)
        weight = Fraction(1)
        for rnd, party in zip(free, combo):
            assignment[rnd] = party
            weight *= powers[party]
        miners = tuple(assignment[r] for r in range(1, scen.horizon + 1))
        yield Schedule(miners, weight)


def _check_enumeration_cap(scen: Scenario, free_rounds: int) -> None:
    n = len(scen.miners)
    # A power of two or more past the cap's bit length is past the cap, so
    # the power built stays small however many rounds are free.
    if n ** min(free_rounds, ENUM_CAP.bit_length()) > ENUM_CAP:
        raise ScenarioError(
            f"enumeration-cap-exceeded: {n}^{free_rounds} schedules;"
            " use monte-carlo mode")


def each_round(scen: Scenario, item) -> list:
    """`item` once for each round of the horizon, in one list: a pass's
    per-round lists, and the schedules that `runner` plays.  A horizon
    past `MAX_DRAW_ITEMS`, which no draw could hold either, or whose list
    cannot be allocated is one `validation-error(horizon)` line, so every
    job refuses such a horizon alike, before it iterates a round."""
    if scen.horizon > MAX_DRAW_ITEMS:
        raise _schedule_too_long(scen)
    try:
        return [item] * scen.horizon
    except MemoryError as e:
        raise _schedule_too_long(scen) from e


def _schedule_too_long(scen: Scenario) -> ScenarioError:
    return _invalid("horizon", f"a schedule of {scen.horizon} rounds does "
                    "not fit in memory")


class _Payoffs:
    """The payoffs of one forward pass, each the key of a payoff group.

    A payoff is what settles a group beyond the setup state, as a pair
    (vec, bribes): `vec` holds each setup party's balance change, then the
    burned total's, then each party's blocks in the equal split's censored
    window (`_window_rounds`; none in other games), and `bribes` holds
    the appended bribe-log entries, kept as entries so that a censor bribe
    of 0 still names its party.  Every party a step pays holds a balance
    from genesis: the payer, the payee, the external user and the
    scenario's miners.  So every state's balances list the setup parties
    in setup order, as a step copies the part and writes it in place, and
    `vec` reads them in that order.

    A payoff is settled against the post-setup `baseline` balances.
    Genesis takes the baseline from the balances it funds, so every
    baseline party is a setup party.
    """

    def __init__(self, scen: Scenario, setup: ChainState, baseline):
        self.setup = setup
        self.window = _window_rounds(scen)
        self.parties = tuple(setup.balances)
        self.start = tuple(setup.balances.values())
        self.slot = {p: i for i, p in enumerate(self.parties)}
        self.zero = ((0,) * (2 * len(self.parties) + 1), ())
        #: Each party's delta at the zero payoff, in slot order.
        self.offset = tuple(s - baseline.get(p, 0)
                            for p, s in zip(self.parties, self.start))

    def step(self, before: ChainState, after: ChainState, block) -> tuple:
        """What the step from `before` to `after` by `block` pays and
        draws, as (adds, bribes, draws): each (slot, change) of `vec`, with
        one window block for the block's miner if its round is a window
        round; the bribe-log entries it appends; and each (slot, draw) of a
        party whose balance the step took below its start, by the most it
        did (`ChainState.lows`).  A payoff takes the same step exactly when
        its balance covers each draw: the step's debits and their checks
        are the same whatever the payoff, and only the start moves."""
        b0, b1 = before.balances, after.balances
        l0, l1 = before.bribe_log, after.bribe_log
        burn = after.burned - before.burned
        counted = block.round in self.window
        if b1 is b0 and l1 is l0 and not burn and not counted:
            return _UNPAID
        slot, n = self.slot, len(self.parties)
        adds = []
        if b1 is not b0:
            if len(b1) != n:
                raise ArenaError("a step paid a party with no balance at setup")
            adds = [(i, v - u) for i, (v, u) in enumerate(zip(b1.values(),
                                                              b0.values()))
                    if v != u]
        if burn:
            adds.append((n, burn))
        if counted:
            adds.append((n + 1 + slot[block.miner], 1))
        draws = tuple((slot[p], b0[p] - low) for p, low in after.lows.items()
                      if low < b0[p])
        return tuple(adds), tuple(l1[len(l0):]), draws

    def add(self, payoff: tuple, step: tuple):
        """`payoff` after `step`, or None if it cannot cover a draw."""
        if step is _UNPAID:
            return payoff
        adds, bribes, draws = step
        vec, held = payoff
        for i, draw in draws:
            if self.start[i] + vec[i] < draw:
                return None
        if adds:
            vec = list(vec)
            for i, d in adds:
                vec[i] += d
            vec = tuple(vec)
        return vec, held + bribes

    def replay(self, state: ChainState, payoff: tuple, block) -> None:
        """Apply `block` to `state` with `payoff`'s balances, the one
        payoff part the ledger's checks read: for a payoff that cannot
        cover a draw, this raises the ledger's error."""
        s = state.draft()
        s.write("balances").update(zip(self.parties, map(
            operator.add, self.start, payoff[0])))
        apply_block(s.seal(), block)

    def walked(self, state: ChainState, window: Counter) -> tuple:
        """The one payoff of a pass that walks one schedule, read from its
        final `state`, whose `window` counts each miner's window blocks:
        the zero payoff with every step added (`step`, `add`), as their
        balance, burn and window changes sum to the final state's change
        since setup, and their bribe-log entries are those appended since.
        `walk` has checked that every party the state holds held a balance
        at setup."""
        vec = (*map(operator.sub, state.balances.values(), self.start),
               state.burned - self.setup.burned,
               *(window[p] for p in self.parties))
        return vec, tuple(state.bribe_log[len(self.setup.bribe_log):])

    def _window(self, vec: tuple) -> dict:
        """Each party's window blocks in a payoff's `vec`, where it has any."""
        return {p: k for p, k in zip(self.parties, vec[len(self.parties) + 1:])
                if k}

    def settle(self, scen: Scenario, confiscator, payoff: tuple) -> tuple:
        """What `_outcome` settles on `payoff`'s full state, read from the
        payoff alone: (each setup party's delta in slot order, the burned
        total, the censor-bribe income).  `confiscator` is the control
        state's `_split_confiscator`."""
        vec, bribes = payoff
        deltas = list(map(operator.add, self.offset, vec))
        if confiscator is not None:
            for party, change in _split(scen, confiscator,
                                        self._window(vec)).items():
                deltas[self.slot[party]] += change
        return (deltas, self.setup.burned + vec[len(self.parties)],
                _censor_income((*self.setup.bribe_log, *bribes)))


#: The step that pays and draws nothing.
_UNPAID = ((), (), ())


def _enter(mined: dict, nxt: ChainState, rank: int, total: int,
           rnd: int) -> list:
    """`mined`'s entry for `nxt`'s control state, reached by some mass
    from a state of label rank `rank`: made, or its rank raised, once
    `nxt` keeps the setup state's conservation `total`."""
    if nxt.conservation_total() != total:
        raise ScenarioError(f"conservation violated at round {rnd}")
    key = nxt.control_key()
    entry = mined.get(key)
    if entry is None:
        entry = mined[key] = [nxt, rank, {}]
    elif rank > entry[1]:
        entry[1] = rank
    return entry


class StepMemo:
    """The block steps that forward passes on one scenario share.

    `blocks` holds them by the pass's `_Payoffs.parties`, then the control
    key of the state a step leaves (which holds the height, so the round
    too), then (the miner policy's `round_key` for that round, miner):
    the step of each miner whose block was built, as (block, the full
    state the pass keeps for the successor's control state, increment).
    Every entry is a function of its keys on one scenario, whatever the
    profile around it (`agents.MinerPolicy`), so passes whose profiles
    differ in one policy build only the blocks that differ.  `analysis`
    makes one per verdict and scenario and drops it with the verdict's
    expectations; a pass without one asks no round key and caches no step
    (`_forward`), and a pass that walks keeps none.
    """

    __slots__ = ("blocks",)

    def __init__(self):
        self.blocks: dict = {}


def _forward(scen: Scenario, profile: StrategyProfile, mass, split, whole,
             movers, memo: Optional[StepMemo]) -> tuple:
    """The forward pass over rounds that both expectation modes run.

    A frontier entry is a control state (`ChainState.control_key`): one
    full state of it, reached by one of its prefixes, to build blocks and
    broadcasts on (no policy, contract guard, label or tag reads its payoff
    parts); the highest label rank it came from; and its payoff groups,
    each keyed by its payoff (`_Payoffs`) and holding the mass of the
    schedule prefixes that reach it.  The pass starts from one group, the
    setup state's zero payoff with all of `mass`.  Each round has two
    halves.

    The block half takes each miner's step from a control state once:
    `split(rnd, mass)` yields (miner, part) for every way a group's mass
    goes that round, and each mined state merges with those of equal
    control key, keeping the highest label rank it came from.  The step's
    payoff increment (`_Payoffs.step`) is taken when its block is built;
    each group adds it and sends its part to the successor's group of
    that payoff.  Steps are cached by the control state they leave, the
    miner policy's `round_key` for the round and the miner: a miner takes
    its step there if one is cached, and only otherwise is a block built.
    This rests on the miner policy contract (`agents.MinerPolicy`): at one
    control state and round, policies with equal round keys build equal
    blocks for the same miner.  A cached step still enters its successor
    with the conservation check.  A verdict's passes share one cache, its
    `memo` (`StepMemo`), so the full state a control state keeps may come
    from an earlier pass; only the ledger's refusal of a block at that
    state reads its payoff parts, and each group's own draws are checked
    as below.

    A pass without `memo` asks no round key and caches no step: a miner
    takes its step from a control state once (`steps`), and a control
    key holds the height, so no later round could read a step either.

    A pass whose every round has one mover walks its one schedule instead
    (`walk`), with a verdict's memo or without: a Monte-Carlo pass with
    one miner of non-zero power, and an exact pass on a one-miner game or
    with every round pinned.  Nothing can merge, so it builds no control
    key, and it neither reads nor fills a verdict's memo.  Every round
    moves the one group whole at weight 1 (its one branch is the pinned
    miner's 1/1 or the lone miner's power 1; its trials are all the
    trials).  The walk checks each mined state's conservation total as
    `_enter` does and runs the party half with the label rule.  The one
    group's payoff is read from the final state, with each miner's window
    blocks counted from the schedule (`_Payoffs.walked`), which is the sum
    of the increments the loop below would add; its balance checks are
    the ledger's own, as the group's balances are the state's.

    One rule decides whether a round moves every group whole, unsplit:
    before any group moves, the miners that can mine the round
    (`movers[rnd - 1]`) take their steps in order, up to the first whose
    successor or increment differs from the first miner's.  If none
    differs, every group goes to that one successor with `whole(rnd,
    mass)`, the sum of the parts `split(rnd, mass)` yields, so a
    Monte-Carlo pass reads no trial's pick in that round.  Exact mode
    takes every mover's step anyway, so the rule builds no further
    block; a Monte-Carlo pass may take a step that no trial there takes,
    and a mined control state that no mass reaches is dropped before the
    party half.  Where blocks carry no fee most groups move whole, and
    splitting their mass only to add the parts up again would cost a
    Monte-Carlo job about a tenth of its speed.

    The balance checks stay exact for every group.  The ledger reads a
    balance only to refuse a payment it cannot fund or a debit below zero,
    and a step does the same debits whatever the payoff, so a group passes
    exactly when it covers each of the step's draws; a group that does not
    replays the block with its own balances (`_Payoffs.replay`), which
    raises the ledger's error.  Conservation is checked once per step: the
    mined state's total must be the setup state's, which holds exactly
    when the increment plus the change in live deposits and bribery pools
    sums to zero.

    The party half runs once per mined control state: the broadcasts, the
    label and the label rule, checked against that highest rank, so it
    raises exactly when some transition would.  It writes only control
    parts, the mempool and preimage knowledge (`broadcast`), so the
    groups carry over and the state keeps the total that `_enter`
    checked; entries that reach one control state merge their groups.
    Returns the pass's payoffs and its final frontier as it stands:
    (control state, {payoff: mass}) for each control state at the horizon,
    the state being the one full state it keeps.
    """
    if all(len(able) == 1 for able in movers):
        # One schedule: its one group's balances are the state's.
        setup, baseline, state = walk(scen, profile,
                                      (able[0] for able in movers))
        payoffs = _Payoffs(scen, setup, baseline)
        window = Counter(movers[rnd - 1][0] for rnd in payoffs.window)
        return payoffs, [(state, {payoffs.walked(state, window): mass})]
    state, baseline, _ = _setup(scen, profile)
    expected_total = state.conservation_total()
    payoffs = _Payoffs(scen, state, baseline)
    if memo is not None:
        built_at = memo.blocks.setdefault(payoffs.parties, {})

    def take(state, rank, steps, built, miner) -> tuple:
        """`miner`'s step from `state` in round `rnd`, kept in `steps`:
        (successor's `mined` entry, block, increment).  `built` holds the
        memo's steps from `state`'s control state, and is None without a
        memo."""
        cache_key = None if built is None else (keys[miner], miner)
        done = None if cache_key is None else built.get(cache_key)
        if done is None:
            block, nxt = _mine(scen, profile, state, rnd, miner)
            entry = _enter(mined, nxt, rank, expected_total, rnd)
            paying = payoffs.step(state, nxt, block)
            if cache_key is not None:
                # Keeping the state the pass keeps, not one more.
                built[cache_key] = block, entry[0], paying
        else:
            block, nxt, paying = done
            entry = _enter(mined, nxt, rank, expected_total, rnd)
        step = steps[miner] = entry, block, paying
        return step

    frontier = {state.control_key(): [state, -1, {payoffs.zero: mass}]}
    for rnd in range(1, scen.horizon + 1):
        mined: dict = {}
        able = movers[rnd - 1]
        if memo is not None:
            keys = {miner: profile.miners[miner].round_key(rnd, scen)
                    for miner in able}
        for key, (state, rank, groups) in frontier.items():
            built = None if memo is None else built_at.setdefault(key, {})
            steps: dict = {}  # miner -> (entry, block, increment)
            # Bound on every entry: a `step` left from an earlier round
            # would keep that round's state alive.
            step = take(state, rank, steps, built, able[0])
            entry, paying = step[0], step[2]
            together = True  # the one whole-round rule
            for miner in able[1:]:
                step = take(state, rank, steps, built, miner)
                if step[0] is not entry or step[2] != paying:
                    together = False
                    break
            for payoff, m in groups.items():
                parts = ((able[0], whole(rnd, m)),) if together \
                    else split(rnd, m)
                for miner, part in parts:
                    entry, block, paying = steps.get(miner) or take(
                        state, rank, steps, built, miner)
                    paid = payoffs.add(payoff, paying)
                    if paid is None:
                        payoffs.replay(state, payoff, block)
                        raise ArenaError(f"round {rnd}: a payoff group fails "
                                         "a draw that the ledger allows")
                    held = entry[2]
                    prev = held.get(paid)
                    held[paid] = part if prev is None else prev + part
        frontier = {}
        for state, rank, groups in mined.values():
            if not groups:  # a step that no trial takes
                continue
            nxt, _, nxt_rank = _act(scen, profile, state, rnd, rank)
            key = nxt.control_key()
            entry = frontier.get(key)
            if entry is None:
                frontier[key] = [nxt, nxt_rank, groups]
                continue
            held = entry[2]
            for payoff, m in groups.items():
                prev = held.get(payoff)
                held[payoff] = m if prev is None else prev + m
    return payoffs, [(state, groups) for state, _, groups in frontier.values()]


def _pick_probs(scen: Scenario) -> np.ndarray:
    """Each miner's chance to mine a round, as the sampler draws it."""
    import numpy as np
    probs = np.array([float(m.power) for m in scen.miners])
    return probs / probs.sum()


def sample_schedule(scen: Scenario, rng: np.random.Generator,
                    pin: Optional[dict] = None) -> Schedule:
    """One schedule drawn from `rng`: the first row of the draw that
    `final_frontier` makes for all its Monte-Carlo trials at once, when a
    round first splits them by pick; this always draws."""
    pin = pin or {}
    parties = scen.miner_parties()
    picks = rng.choice(len(parties), size=scen.horizon, p=_pick_probs(scen))
    miners = tuple(pin.get(r, parties[picks[r - 1]])
                   for r in range(1, scen.horizon + 1))
    return Schedule(miners, Fraction(1))


class Frontier(NamedTuple):
    """The final frontier of a forward pass, in the scenario's mode."""

    entries: list  # (control state, {payoff: integer mass}) per control state
    total: int  # what the masses sum to
    payoffs: _Payoffs  # the pass's payoffs, to settle each group's


def final_frontier(scen: Scenario, profile: StrategyProfile,
                   pin: Optional[dict] = None,
                   memo: Optional[StepMemo] = None) -> Frontier:
    """The forward pass's final frontier: each final control state, with
    one full state of it and its payoff groups, each group's integer mass,
    and the total those masses sum to, which is checked here.

    In exact mode a mass is a schedule weight over `total`, the product of
    the rounds' common denominators; zero-weight branches are kept, so the
    parties in the outcomes are those of every schedule.  In Monte-Carlo
    mode a mass is a trial count over `total` = `scen.mode[1]`, and a
    state's trials are grouped each round by their pick.  The first round
    that splits them by pick draws all trials in one call from a
    `scen.seed` generator, which reads its stream exactly as one
    `sample_schedule` per trial would, and each round's column of it
    becomes a list once; a pass that takes every round whole or has one
    miner with power draws nothing and never loads numpy.
    `pin` maps a 1-based round to the party forced to mine it, overriding
    any draw.  A pass in which one miner can mine each round (it is
    pinned, it is the game's one miner, or in Monte-Carlo mode the one
    miner with power) walks that one schedule (`walk`) and builds one
    payoff group.  Each per-round list is one repetition (`each_round`),
    so a horizon that no list of its length fits is
    `validation-error(horizon)` before any round is iterated, and the
    enumeration cap counts free rounds from the pin.  A trial count whose
    trial list (`trial_list`) or draw cannot be allocated is
    `validation-error(trials)`.  `runner.ttc` walks its pinned schedule
    itself and reads no frontier.  `memo` is a verdict's step cache
    (`StepMemo`), which only `analysis` passes; without it the pass keeps
    a round's steps only for that round (`_forward`).
    """
    pin = {rnd: miner for rnd, miner in (pin or {}).items()
           if 1 <= rnd <= scen.horizon}
    if scen.mode[0] == "exact":
        _check_enumeration_cap(scen, scen.horizon - len(pin))
        # Each round's branches, with integer weights over their common
        # denominator: (((miner, numerator), ...), denominator).  Every
        # miner weighs its power, or the pinned miner weighs 1/1.
        branches, scale = scen._weights
        rounds = each_round(scen, (branches, scale))
        movers = each_round(scen, scen.miner_parties())
        sums = each_round(scen, sum(power for _, power in branches))
        for rnd, miner in pin.items():
            rounds[rnd - 1] = ((miner, 1),), 1
            movers[rnd - 1] = (miner,)
            sums[rnd - 1] = 1
        total = scale ** (scen.horizon - len(pin))
        mass = 1

        def split(rnd: int, w: int):
            return [(miner, w * power) for miner, power in rounds[rnd - 1][0]]

        def whole(rnd: int, w: int) -> int:
            return w * sums[rnd - 1]
    else:
        parties = scen.miner_parties()
        movers = each_round(scen, tuple(m.party for m in scen.miners
                                        if m.power))  # powers are >= 0
        for rnd, miner in pin.items():
            movers[rnd - 1] = (miner,)
        mass = trial_list(scen)
        total = len(mass)

        # The draw is made on the first split.  Python ints group faster
        # than numpy masks, so the round split last keeps its column as a
        # list: (round, picks).
        draw, column = None, (0, None)

        def split(rnd: int, trials: list):
            nonlocal draw, column
            if column[0] != rnd:
                if draw is None:
                    import numpy as np
                    try:
                        draw = np.random.default_rng(scen.seed).choice(
                            len(parties), size=(total, scen.horizon),
                            p=_pick_probs(scen))
                    except MemoryError as e:
                        raise _too_many_trials(scen) from e
                column = rnd, draw[:, rnd - 1].tolist()
            col = column[1]
            groups = [[] for _ in parties]
            for t in trials:
                groups[col[t]].append(t)
            return [(party, g) for party, g in zip(parties, groups) if g]

        def whole(rnd: int, trials: list) -> list:
            return trials
    payoffs, entries = _forward(scen, profile, mass, split, whole, movers,
                                memo)
    if scen.mode[0] != "exact":
        entries = [(state, {payoff: len(trials)
                            for payoff, trials in groups.items()})
                   for state, groups in entries]
    mass = sum(m for _, groups in entries for m in groups.values())
    if mass != total:
        raise ArenaError(f"final masses sum to {Fraction(mass, total)}, not 1")
    return Frontier(entries, total, payoffs)


def trial_list(scen: Scenario) -> list:
    """The scenario's Monte-Carlo trials, numbered from 0.  A count whose
    draw (trials x horizon items) numpy could not address, or whose list
    cannot be allocated, is `validation-error(trials)`; every Monte-Carlo
    job holds this list, so each refuses one count alike."""
    if scen.mode[1] * scen.horizon > MAX_DRAW_ITEMS:
        raise _too_many_trials(scen)
    try:
        return list(range(scen.mode[1]))
    except MemoryError as e:
        raise _too_many_trials(scen) from e


def _too_many_trials(scen: Scenario) -> ScenarioError:
    return _invalid("trials", f"{scen.mode[1]} trials x {scen.horizon} "
                    "rounds do not fit in memory")


def mean_half_width(total, total_sq, n: int) -> tuple:
    """Sample mean and 95% normal half-width from a sum and a sum of squares."""
    mean = float(total) / n
    var = float(total_sq) / n - mean * mean
    return mean, 1.96 * (max(var, 0.0) / n) ** 0.5


def expected_utilities(scen: Scenario, profile: StrategyProfile,
                       pin: Optional[dict] = None,
                       memo: Optional[StepMemo] = None) -> ExpectedUtilities:
    """Exact rational expectation or seeded Monte-Carlo mean with 95% CI,
    as the scenario's mode says: the mass-weighted mean of the outcomes
    `play` reaches, settled from each payoff group of `final_frontier`
    (`_Payoffs.settle`) without rebuilding its state.  `memo` is a
    verdict's step cache (`StepMemo`), which only `analysis` passes."""
    entries, total, payoffs = final_frontier(scen, profile, pin, memo)
    sampled = scen.mode[0] == "monte-carlo"
    n = len(payoffs.parties)
    sums, sq_sums = [0] * n, [0] * n
    bribes: dict = {}
    burned = 0
    for control, groups in entries:
        confiscator = _split_confiscator(scen, control)
        for payoff, m in groups.items():
            deltas, burn, income = payoffs.settle(scen, confiscator, payoff)
            for i, d in enumerate(deltas):
                sums[i] += m * d
                if sampled:
                    sq_sums[i] += m * d * d
            for party, b in income.items():
                bribes[party] = bribes.get(party, 0) + m * b
            burned += m * burn
    # In party order, as `_outcome` lists them.
    order = sorted(range(n), key=payoffs.parties.__getitem__)
    ci = None
    if sampled:
        ci = {}
        for i in order:
            mean, half = mean_half_width(sums[i], sq_sums[i], total)
            ci[payoffs.parties[i]] = (mean - half, mean + half)
    return ExpectedUtilities(
        {payoffs.parties[i]: Fraction(sums[i], total) for i in order},
        {p: Fraction(b, total) for p, b in bribes.items()},
        Fraction(burned, total), scen.mode[0], ci)
