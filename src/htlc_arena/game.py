"""Round-driving game engine.

A play is fully determined by (scenario, strategy profile, miner schedule).
Expected utilities are either exact or Monte-Carlo with a seeded generator,
and both modes run the same forward pass over rounds: every policy is a
stateless function of (chain state, round), so schedule prefixes that reach
equal states are merged and played on once.  `final_outcomes` returns each
final state's outcome with an integer mass and the total the masses sum to.
In exact mode a mass is the summed schedule weight (the product of miner
powers) over one common denominator, the product of each round's; its values
are those of playing every schedule that `enumerate_schedules` yields, which
is the reference the tests hold it to.  In Monte-Carlo mode a mass is the
number of sampled trials that reach the state; its values are those of
playing each sampled schedule.  Dominance checks brute-force finite policy
spaces on top of the expectation machinery.

Utilities carry no discounting: they are raw end-of-game token deltas from
the post-setup baseline.  The one exception to pre-funded contracts is the
two-phase protocol, where the payer publishes the deposit contract after
both collaterals exist, so its funding lands inside the measured window.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from types import MappingProxyType
from typing import Optional

import numpy as np

from .core import (ALICE, BOB, EXTERNAL, ArenaError, ContractError, Party,
                   ScenarioError, debit)
from .contracts import (COL_A_ID, COL_B_ID, COL_ID, DEP_A, DEP_ID,
                        FeeSchedule, PRE_A, PRE_A2, PRE_AA2, PRE_B, SECRETS,
                        build_demba, build_he_htlc, build_mad_htlc,
                        build_naive_htlc, derive_he_delay)
from .ledger import Block, ChainState, ChainView, apply_block, broadcast

PROTOCOLS = ("naive", "mad", "he", "demba")

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
        if self.power < 0:
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
    f_calice_a: int = 1
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
        if self.protocol not in PROTOCOLS:
            raise _invalid("protocol", f"got {self.protocol!r}")
        for name in _INT_FIELDS:
            _require_count(name, getattr(self, name))
        if self.capacity < 1:
            raise _invalid("capacity", "must be at least 1")
        total = sum((m.power for m in self.miners), Fraction(0))
        if total != 1:
            raise _invalid("power-sum",
                           f"miner powers sum to {total}, need exactly 1")
        ids = [m.party.id for m in self.miners]
        if len(set(ids)) != len(ids):
            raise _invalid("miners", f"duplicate miner id in {ids}")
        if self.protocol == "he" and self.l < 1:
            object.__setattr__(self, "l", _built(
                derive_he_delay, self.v_dep, self.v_col, self.f))
        if self.horizon is None:
            object.__setattr__(self, "horizon", self.T + self.l + 2)
        _require_count("horizon", self.horizon)
        if self.horizon < self.T + self.l + 2:
            raise _invalid("horizon", "too short for every refund path to fire")
        if self.t_pub < 1 or self.t_pub > self.T:
            raise _invalid("t_pub", "must fall in [1, T]")
        if self.protocol == "demba" and self.fee_schedule is None:
            raise _invalid("fee_schedule", "required for demba")
        if self.protocol != "demba" and self.fee_schedule is not None:
            raise _invalid("fee_schedule", "only demba takes a fee schedule, "
                           f"got protocol {self.protocol!r}")
        if self.fee_schedule is not None and self.fee_schedule.T != self.T:
            # Fees decay from the schedule's T, contract deadlines from ours.
            raise _invalid("fee_schedule", f"deadline T={self.fee_schedule.T} "
                           f"differs from the scenario's T={self.T}")
        mode = self.mode
        if not (mode == ("exact",) or type(mode) is tuple and len(mode) == 2
                and mode[0] == "monte-carlo" and type(mode[1]) is int
                and mode[1] >= 1):
            raise _invalid("mode", "expected ('exact',) or ('monte-carlo', n) "
                           f"with n a positive int, got {mode!r}")
        if self.pact_bribes is not None:  # a copy that no write can reach
            object.__setattr__(self, "pact_bribes",
                               MappingProxyType(dict(self.pact_bribes)))
        # A plain attribute, not a field: replace() builds a fresh one.
        object.__setattr__(self, "_genesis", _built(_build_genesis, self))

    @property
    def lambda_col(self) -> Fraction:
        return sum((m.power for m in self.miners
                    if m.colluding and m.kind == "active"), Fraction(0))

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
            + scen.f_cbob_b + scen.f_calice_a + scen.br + scen.epsilon)
    if scen.fee_schedule is not None:
        fees += sum(scen.fee_schedule.paid.values())
    bulk = scen.v_dep + scen.v_col + scen.v_col_a + scen.v_col_b + scen.v_ded
    return 3 * bulk + (fees + 1) * (scen.horizon + 4) + 100


def build_genesis(scen: Scenario) -> tuple:
    """A fresh copy of the funded round-0 state: (state, baseline, escrow).

    The scenario built its genesis once, at construction; each call clones
    the state so that a play can never touch the original.
    """
    state, baseline, escrow0 = scen._genesis
    return state.clone(), baseline, escrow0


def _build_genesis(scen: Scenario) -> tuple:
    meta = {"T": scen.T, "l": scen.l, "target_contract": DEP_ID,
            "target_path": DEP_A}
    if scen.protocol == "he" and scen.m2mba_split == "equal":
        # The equal split shares a confiscation by censored-window blocks.
        meta["split_window"] = (scen.t_pub + 1, scen.T)
    if scen.protocol == "naive":
        dep = build_naive_htlc(ALICE, BOB, scen.v_dep, SECRETS[PRE_A], scen.T)
        contracts = {DEP_ID: dep}
        live = {DEP_ID: scen.v_dep}
    elif scen.protocol == "mad":
        dep, col = build_mad_htlc(ALICE, BOB, scen.v_dep, scen.v_col, SECRETS,
                                  scen.T)
        contracts = {DEP_ID: dep, COL_ID: col}
        live = {DEP_ID: scen.v_dep, COL_ID: scen.v_col}
    elif scen.protocol == "he":
        dep, col = build_he_htlc(ALICE, BOB, scen.v_dep, scen.v_col, SECRETS,
                                 scen.T, scen.l)
        contracts = {DEP_ID: dep, COL_ID: col}
        live = {DEP_ID: scen.v_dep + scen.v_col, COL_ID: 0}
    else:
        dep, col_a, col_b = build_demba(ALICE, BOB, scen.v_dep, scen.v_col_a,
                                        scen.v_col_b, scen.v_ded, SECRETS,
                                        scen.T, scen.fee_schedule)
        contracts = {DEP_ID: dep, COL_A_ID: col_a, COL_B_ID: col_b}
        live = {COL_A_ID: scen.v_col_a, COL_B_ID: scen.v_col_b}
        meta["target_contract"] = COL_A_ID
        meta["target_path"] = PRE_A
    start = _start_balance(scen)
    balances = {ALICE: start, BOB: start,
                EXTERNAL: start + scen.capacity * scen.f * (scen.horizon + 2)}
    for m in scen.miners:
        balances[m.party] = start
    state = ChainState(contracts=contracts, live=live, balances=balances,
                       fee_schedule=scen.fee_schedule, meta=meta)
    baseline = dict(balances)
    escrow0 = sum(live.values())
    if scen.protocol == "demba":
        # Deposit contract goes live only after both collaterals exist, so
        # the payer funds it inside the measured window.
        debit(state.balances, BOB, scen.v_dep)
        state.live[DEP_ID] = scen.v_dep
    return state, baseline, escrow0


# ---------------------------------------------------------------------------
# State labelling.
# ---------------------------------------------------------------------------


def state_label(state: ChainState, protocol: str) -> str:
    """Classify the game state; a pure function of the chain state."""
    if protocol == "demba":
        red_a = state.redemptions.get(COL_A_ID)
        red_b = state.redemptions.get(COL_B_ID)
        if red_a is None or red_b is None:
            return "all-red"
        mode = {PRE_A: "A", PRE_A2: "A'", PRE_AA2: "AA'"}[red_a[0]]
        b_round = state.reveal_round(COL_B_ID, PRE_B)
        late = b_round is not None and b_round > state.meta["T"]
        return f"nred-{mode}B" + ("T" if late else "")
    entry = state.redemptions.get(DEP_ID)
    if entry is None:
        return "red"
    if entry[0] == DEP_A:
        return "nred-A"
    pre_a_known = any(slot == PRE_A for (_, slot) in state.known)
    return "nred-rev" if pre_a_known else "nred-nrev"


_LABEL_ORDER = {name: i for i, name in enumerate(
    ("red", "all-red", "nred-nrev", "nred-rev", "nred-A",
     "nred-AB", "nred-A'B", "nred-AA'B", "nred-ABT", "nred-A'BT",
     "nred-AA'BT"))}


# ---------------------------------------------------------------------------
# Play.
# ---------------------------------------------------------------------------


def _check_profile(scen: Scenario, profile: StrategyProfile) -> None:
    for pol in (profile.alice, profile.bob, *profile.miners.values()):
        allowed = getattr(pol, "protocols", None)
        if allowed is not None and scen.protocol not in allowed:
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
        state = pol.setup(state, scen, profile)
    for party in sorted(profile.miners, key=lambda p: p.id):
        state = profile.miners[party].setup(state, scen, profile, party)
    return state, baseline, escrow0


def _play_round(scen: Scenario, profile: StrategyProfile, state: ChainState,
                rnd: int, miner: Party, prev_rank: int) -> tuple:
    """One round: `miner`'s block, then the parties' broadcasts.

    Returns (state, label, label rank).  A label may never fall back to
    red once the game has left it; `prev_rank` is the previous round's
    rank, -1 before round 1.
    """
    plan = profile.miners[miner].build_block(state, rnd, miner, scen, profile)
    fill = max(0, scen.capacity - len(plan.txs))
    block = Block(round=rnd, miner=miner, txs=tuple(plan.txs),
                  unrelated_fill=fill, unrelated_fee=scen.f,
                  capacity=scen.capacity, coinbase=tuple(plan.coinbase))
    state = apply_block(state, block)
    emissions = list(profile.alice.broadcasts(state, rnd, scen))
    emissions += profile.bob.broadcasts(state, rnd, scen)
    if emissions:
        state = broadcast(state, emissions)
    label = state_label(state, scen.protocol)
    rank = _LABEL_ORDER[label]
    if rank < prev_rank and label in ("red", "all-red"):
        raise ScenarioError(f"state label regressed to {label} at {rnd}")
    return state, label, rank


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
    return _outcome(scen, state, baseline, escrow0, tuple(trace))


def _outcome(scen: Scenario, state: ChainState, baseline: dict, escrow0: int,
             trace: tuple) -> Outcome:
    """Settle a final state against the post-setup baseline."""
    deltas = {}
    # In party order, so results print alike whatever the hash seed.
    for party in sorted(set(baseline) | set(state.balances)):
        deltas[party] = Fraction(state.balances.get(party, 0)
                                 - baseline.get(party, 0))
    bribe_income: dict = {}
    for party, amount, tag in state.bribe_log:
        if tag == "censor-bribe":
            bribe_income[party] = bribe_income.get(party, 0) + amount
    _settle_equal_split(scen, state, deltas)
    escrow = (sum(state.live.values())
              + sum(c.pool_total() for c in state.bribery.values()))
    return Outcome(deltas=deltas, burned=state.burned,
                   minted=sum(m[1] for m in state.mint_log),
                   trace=trace, terminal=_terminal_tag(state, scen),
                   bribe_income=bribe_income,
                   escrow_delta=Fraction(escrow - escrow0), state=state)


def _terminal_tag(state: ChainState, scen: Scenario) -> str:
    if scen.protocol == "demba":
        entry = state.redemptions.get(DEP_ID)
        if entry is None:
            return "pending"
        return {DEP_A: "to-Alice", "dep-B": "to-Bob",
                "dep-Burn": "burn"}.get(entry[0], entry[0])
    entry = state.redemptions.get(DEP_ID)
    return entry[0] if entry else "pending"


def _settle_equal_split(scen: Scenario, state: ChainState,
                        deltas: dict) -> None:
    """Reallocate a confiscation equally by censored blocks mined.

    Used by the miner-pact equal-split variant: the confiscator keeps
    v_col * k_i / k and pays every other censoring colluder v_col * k_j / k,
    where k counts the censored window blocks (the ledger counts each
    miner's in `state.window_blocks`).  Pure reallocation, so the outcome
    total is unchanged.
    """
    if scen.protocol != "he" or scen.m2mba_split != "equal":
        return
    confiscator = ChainView(state, state.height, None).confiscator()
    colluders = {m.party for m in scen.miners if m.colluding and m.kind == "active"}
    if confiscator not in colluders:
        return
    k = scen.T - scen.t_pub
    if k == 0:
        return
    v_col = scen.v_col
    for party, k_j in sorted(state.window_blocks.items(),
                             key=lambda kv: kv[0].id):
        if party == confiscator or party not in colluders:
            continue
        share = Fraction(v_col) * k_j / k
        deltas[party] = deltas.get(party, Fraction(0)) + share
        deltas[confiscator] -= share


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
    if n ** free_rounds > ENUM_CAP:
        raise ScenarioError(
            f"enumeration-cap-exceeded: {n}^{free_rounds} schedules;"
            " use monte-carlo mode")


def _round_branches(scen: Scenario, rnd: int, pin: dict) -> tuple:
    """Each way round `rnd` can go, with integer weights over their common
    denominator: (((miner, numerator), ...), denominator).  Every miner
    weighs its power, or the pinned miner weighs 1/1."""
    if rnd in pin:
        return ((pin[rnd], 1),), 1
    scale = math.lcm(*(m.power.denominator for m in scen.miners))
    return tuple((m.party, m.power.numerator * (scale // m.power.denominator))
                 for m in scen.miners), scale


def _forward(scen: Scenario, profile: StrategyProfile, mass, split) -> list:
    """The forward pass over rounds that both expectation modes run.

    A frontier entry is a distinct state with the mass of the schedule
    prefixes that reach it.  Each round, `split(rnd, mass)` yields
    (miner, part) for every way the entry's mass goes that round; each
    successor merges with those of equal `merge_key`, and merged parts are
    added with `+=`, so a part must be owned by the entry it goes to.
    Conservation is checked once per distinct state, the label rule on
    every transition.  Returns (outcome, mass) for each final state.
    """
    state, baseline, escrow0 = _setup(scen, profile)
    expected_total = state.conservation_total()
    frontier = [[state, mass, -1]]  # [state, mass, label rank]
    for rnd in range(1, scen.horizon + 1):
        merged: dict = {}
        for state, mass, rank in frontier:
            for miner, part in split(rnd, mass):
                nxt, _, nxt_rank = _play_round(scen, profile, state, rnd,
                                               miner, rank)
                key = nxt.merge_key()
                entry = merged.get(key)
                if entry is not None:
                    entry[1] += part
                elif nxt.conservation_total() != expected_total:
                    raise ScenarioError(f"conservation violated at round {rnd}")
                else:
                    merged[key] = [nxt, part, nxt_rank]
        frontier = list(merged.values())
    return [(_outcome(scen, state, baseline, escrow0, ()), mass)
            for state, mass, _ in frontier]


def _pick_probs(scen: Scenario) -> np.ndarray:
    """Each miner's chance to mine a round, as the sampler draws it."""
    probs = np.array([float(m.power) for m in scen.miners])
    return probs / probs.sum()


def sample_schedule(scen: Scenario, rng: np.random.Generator,
                    pin: Optional[dict] = None) -> Schedule:
    """One schedule drawn from `rng`: the first row of the draw that
    `final_outcomes` makes for all its Monte-Carlo trials at once."""
    pin = pin or {}
    parties = scen.miner_parties()
    picks = rng.choice(len(parties), size=scen.horizon, p=_pick_probs(scen))
    miners = tuple(pin.get(r, parties[picks[r - 1]])
                   for r in range(1, scen.horizon + 1))
    return Schedule(miners, Fraction(1))


def final_outcomes(scen: Scenario, profile: StrategyProfile,
                   pin: Optional[dict] = None) -> tuple:
    """(pairs, total): each distinct final state's (outcome, integer mass),
    and the total those masses sum to, in the scenario's mode.

    In exact mode a mass is a schedule weight over `total`, the product of
    the rounds' common denominators; zero-weight branches are kept, so the
    parties in the outcomes are those of every schedule.  In Monte-Carlo
    mode a mass is a trial count over `total` = `scen.mode[1]`: all trials
    are drawn in one call from a `scen.seed` generator, which reads its
    stream exactly as one `sample_schedule` per trial would, and a state's
    trials are grouped each round by their pick.  `pin` maps a 1-based
    round to the party forced to mine it, overriding any draw.
    """
    pin = pin or {}
    if scen.mode[0] == "exact":
        _check_enumeration_cap(
            scen, sum(1 for r in range(1, scen.horizon + 1) if r not in pin))
        rounds = [_round_branches(scen, rnd, pin)
                  for rnd in range(1, scen.horizon + 1)]
        total = math.prod(scale for _, scale in rounds)
        pairs = _forward(scen, profile, 1, lambda rnd, w: [
            (miner, w * power) for miner, power in rounds[rnd - 1][0]])
    else:
        parties = scen.miner_parties()
        total = scen.mode[1]
        picks = np.random.default_rng(scen.seed).choice(
            len(parties), size=(total, scen.horizon), p=_pick_probs(scen))
        # Python ints group faster than numpy masks; one column at a time.
        column = functools.lru_cache(maxsize=1)(
            lambda rnd: picks[:, rnd - 1].tolist())

        def split(rnd: int, trials: list):
            if rnd in pin:
                return ((pin[rnd], trials),)
            col = column(rnd)
            groups = [[] for _ in parties]
            for t in trials:
                groups[col[t]].append(t)
            return [(party, g) for party, g in zip(parties, groups) if g]

        pairs = [(out, len(trials)) for out, trials in
                 _forward(scen, profile, list(range(total)), split)]
    mass = sum(m for _, m in pairs)
    if mass != total:
        raise ArenaError(f"final masses sum to {Fraction(mass, total)}, not 1")
    return pairs, total


def mean_half_width(total, total_sq, n: int) -> tuple:
    """Sample mean and 95% normal half-width from a sum and a sum of squares."""
    mean = float(total) / n
    var = float(total_sq) / n - mean * mean
    return mean, 1.96 * (max(var, 0.0) / n) ** 0.5


def expected_utilities(scen: Scenario, profile: StrategyProfile,
                       pin: Optional[dict] = None) -> ExpectedUtilities:
    """Exact rational expectation or seeded Monte-Carlo mean with 95% CI,
    as the scenario's mode says: the mass-weighted mean of `final_outcomes`."""
    pairs, total = final_outcomes(scen, profile, pin)
    sampled = scen.mode[0] == "monte-carlo"
    sums, sq_sums, bribes = {}, {}, {}
    burned = 0
    for out, n in pairs:
        for party, d in out.deltas.items():
            sums[party] = sums.get(party, 0) + n * d
            if sampled:
                sq_sums[party] = sq_sums.get(party, 0) + n * d * d
        for party, b in out.bribe_income.items():
            bribes[party] = bribes.get(party, 0) + n * b
        burned += n * out.burned
    ci = None
    if sampled:
        ci = {}
        for party, s in sums.items():
            mean, half = mean_half_width(s, sq_sums[party], total)
            ci[party] = (mean - half, mean + half)
    return ExpectedUtilities({p: Fraction(s, total) for p, s in sums.items()},
                             {p: Fraction(b, total) for p, b in bribes.items()},
                             Fraction(burned, total), scen.mode[0], ci)


# ---------------------------------------------------------------------------
# Dominance.
# ---------------------------------------------------------------------------


@dataclass
class DominanceVerdict:
    verdict: str  # strict | weak | none
    witness: Optional[dict] = None

    def __str__(self):
        return self.verdict


def _profile_with(base: StrategyProfile, player, policy) -> StrategyProfile:
    if player == "alice":
        return StrategyProfile(policy, base.bob, base.miners)
    if player == "bob":
        return StrategyProfile(base.alice, policy, base.miners)
    miners = dict(base.miners)
    miners[player] = policy
    return StrategyProfile(base.alice, base.bob, miners)


def _player_party(player) -> Party:
    if player == "alice":
        return ALICE
    if player == "bob":
        return BOB
    return player


def dominance_check(scen: Scenario, player, candidate, own_space,
                    opponent_space, pin: Optional[dict] = None, *,
                    expect=None) -> DominanceVerdict:
    """Brute-force pure-strategy dominance of `candidate` over `own_space`.

    `opponent_space` is a list of StrategyProfile templates giving every
    other player's policy (the `player` slot is overwritten).  Returns
    strict if the candidate beats every alternative against every opponent
    profile, weak if it never loses and wins somewhere, none otherwise; the
    witness pins down the comparison that was tight or violated.  `expect`
    computes each expectation, `expected_utilities` unless a caller that
    shares its results across checks passes its own.
    """
    if not own_space or not opponent_space:
        raise ScenarioError("empty strategy space")
    expect = expect or expected_utilities
    party = _player_party(player)
    alternatives = [p for p in own_space if p is not candidate]
    if not alternatives:
        return DominanceVerdict("strict")
    strict_somewhere = False
    tight_witness = None
    for opp in opponent_space:
        cand_u = expect(
            scen, _profile_with(opp, player, candidate), pin).of(party)
        for alt in alternatives:
            alt_u = expect(scen, _profile_with(opp, player, alt), pin).of(party)
            if cand_u > alt_u:
                strict_somewhere = True
            elif cand_u == alt_u:
                tight_witness = {"opponents": opp.describe(),
                                 "alternative": alt.name,
                                 "candidate_utility": cand_u,
                                 "alternative_utility": alt_u}
            else:
                return DominanceVerdict("none", {
                    "opponents": opp.describe(), "alternative": alt.name,
                    "candidate_utility": cand_u, "alternative_utility": alt_u})
    if tight_witness is None:
        return DominanceVerdict("strict")
    return DominanceVerdict("weak" if strict_somewhere else "none", tight_witness)
