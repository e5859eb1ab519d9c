"""The merged-state forward pass against plays one schedule at a time.

`expected_utilities` merges schedule prefixes that reach one control state
round by round in both modes, and adds up their payoffs apart.
In exact mode, summing `play` over every schedule of `enumerate_schedules`
is the reference; in Monte-Carlo mode, `play` on each schedule that
`sample_schedule` draws in turn from the scenario's seed, for the
expectation and for `ttc` alike.  Each pair must agree exactly, down to
which parties appear in the result and in what order.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from htlc_arena.agents import (AliceCensoredFallback, AliceHonest,
                               B3aAccomplice, BobB3a, BobHonest,
                               BobNaiveBriber, CensorRelated, HonestFeeMax,
                               M2MbaActive, M2MbaPassive, SdrbaBriber,
                               call_tx)
from htlc_arena import game
from htlc_arena.contracts import (BURNED, CBOB_ID, COL_M, DEP_ID,
                                  REDEEMABLE, Burn)
from htlc_arena.core import BOB, LedgerError, ScenarioError, miner_party
from htlc_arena.game import (MinerProfile, Schedule, StrategyProfile,
                             enumerate_schedules, expected_utilities,
                             mean_half_width, play, sample_schedule)
from htlc_arena.ledger import CONTRACT_CALL, apply_block
from htlc_arena.runner import (TTC_PATHS, _completed, _completion_round,
                               _ttc_profile, load_scenario, ttc)

from conftest import (demba_scenario, frontier_settlements, he_scenario,
                      mad_scenario, monte_carlo, naive_scenario,
                      play_settlement, same_parts, state_identity)
from test_acceptance import _fuzz_pools, _fuzz_scenario

POOLS = _fuzz_pools()
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PARTIES = tuple(miner_party(f"d{i}") for i in range(1, 4))
FOUR = (*PARTIES, miner_party("d4"))
#: Free rounds are capped so that one reference sum plays at most this
#: many schedules.
MAX_SCHEDULES = 729


def brute_force(scen, profile, pin):
    utilities: dict = {}
    bribes: dict = {}
    burned = Fraction(0)
    for schedule in enumerate_schedules(scen, pin):
        out = play(scen, profile, schedule)
        w = schedule.weight
        for party, d in out.deltas.items():
            utilities[party] = utilities.get(party, Fraction(0)) + w * d
        for party, b in out.bribe_income.items():
            bribes[party] = bribes.get(party, Fraction(0)) + w * b
        burned += w * out.burned
    return utilities, bribes, burned


@st.composite
def games(draw, fewest=2, protocols=tuple(sorted(POOLS))):
    """(scenario, profile, pin): criterion-9 scenarios and policy pools of
    `protocols` on `fewest` to three miners, one of them with power 0
    unless there is only one, and random pins."""
    protocol = draw(st.sampled_from(protocols))
    n = draw(st.integers(fewest, 3))
    powers = [Fraction(1)] if n <= 2 else [
        draw(st.sampled_from((Fraction(1, 3), Fraction(1, 2))))]
    if n == 3:
        powers.append(1 - powers[0])
    if n > 1:
        powers.insert(draw(st.integers(0, n - 1)), Fraction(0))
    kind = "active" if protocol in ("mad", "he") else "passive"
    miners = tuple(MinerProfile(p, power, kind, draw(st.booleans()))
                   for p, power in zip(PARTIES, powers))
    scen = _fuzz_scenario(protocol, random.Random(draw(st.integers(0, 999))),
                          miners)
    if protocol == "he" and draw(st.booleans()):
        scen = replace(scen, m2mba_split="equal")
    alice_pool, bob_pool, miner_pool = POOLS[protocol]
    profile = StrategyProfile(
        draw(st.sampled_from(alice_pool)), draw(st.sampled_from(bob_pool)),
        {p: draw(st.sampled_from(miner_pool)) for p in PARTIES[:n]})
    rounds = range(1, scen.horizon + 1)
    pinned = draw(st.sets(st.sampled_from(rounds)))
    while n ** (len(rounds) - len(pinned)) > MAX_SCHEDULES:
        pinned.add(draw(st.sampled_from([r for r in rounds
                                         if r not in pinned])))
    pin = {r: draw(st.sampled_from(PARTIES[:n])) for r in sorted(pinned)}
    return scen, profile, pin


def _equal_split_game():
    # Every miner in the pact, so the equal split reallocates a
    # confiscation; the zero-power miner is a colluder with no blocks.
    miners = (MinerProfile(PARTIES[0], Fraction(1, 2), "active", True),
              MinerProfile(PARTIES[1], Fraction(0), "active", True),
              MinerProfile(PARTIES[2], Fraction(1, 2), "active", True))
    scen = he_scenario(v_dep=100, v_col=60, T=4, t_pub=1, l=2, f=0,
                       miners=miners, m2mba_split="equal")
    profile = StrategyProfile(AliceHonest(), BobHonest(),
                              {p: M2MbaActive() for p in PARTIES})
    return scen, profile, {8: PARTIES[0], 7: PARTIES[1]}


def _unequal_denominators_game():
    # Powers over 3, 5 and 15 put each free round's weights over the common
    # denominator 15; the pinned round, which the passive miner mines
    # inside the censored window, weighs 1.
    miners = (MinerProfile(PARTIES[0], Fraction(1, 3), "active", True),
              MinerProfile(PARTIES[1], Fraction(2, 5), "active", True),
              MinerProfile(PARTIES[2], Fraction(4, 15), "passive"))
    scen = he_scenario(v_dep=300, v_col=200, T=3, t_pub=1, l=1, br=30, f=0,
                       miners=miners)
    profile = StrategyProfile(AliceHonest(), BobHonest(), {
        PARTIES[0]: M2MbaActive(), PARTIES[1]: M2MbaActive("accept"),
        PARTIES[2]: M2MbaPassive()})
    return scen, profile, {2: PARTIES[2]}


def _fill_paid_game():
    # Every miner shares one policy at f >= 1: each block's fill pays its
    # own miner.
    miners = (MinerProfile(PARTIES[0], Fraction(2, 3)),
              MinerProfile(PARTIES[1], Fraction(1, 3)))
    scen = naive_scenario(T=3, f=2, miners=miners)
    profile = StrategyProfile(AliceHonest(), BobHonest(),
                              {p: HonestFeeMax() for p in PARTIES[:2]})
    return scen, profile, {}


def _demba_auto_resolution_game():
    # Every miner shares one censoring policy, so the censored rounds are
    # idle blocks; the payee's fallback commit then lands after T and the
    # deposit resolves on its own (dep-Burn).
    miners = (MinerProfile(PARTIES[0], Fraction(1, 4)),
              MinerProfile(PARTIES[1], Fraction(3, 4)))
    scen = demba_scenario(T=4, horizon=8, miners=miners)
    profile = StrategyProfile(AliceCensoredFallback(), BobHonest(1), {
        p: CensorRelated(participate=False) for p in PARTIES[:2]})
    return scen, profile, {1: PARTIES[0]}


def _censor_bribe_game(br=2):
    # One miner takes the naive briber's bribe and censors, the other
    # mines honestly, so censor-bribe income depends on the schedule.  A
    # bribe of 0 still logs its entry, so its taker has an income of 0.
    miners = (MinerProfile(PARTIES[0], Fraction(2, 3)),
              MinerProfile(PARTIES[1], Fraction(1, 3)))
    scen = naive_scenario(T=4, br=br, miners=miners)
    profile = StrategyProfile(AliceHonest(), BobNaiveBriber(), {
        PARTIES[0]: CensorRelated(), PARTIES[1]: HonestFeeMax()})
    return scen, profile, {}


class _BobReInit(BobNaiveBriber):
    """A naive briber that broadcasts its bribery contract's init again
    every round."""

    def broadcasts(self, state, rnd, scen):
        return [*super().broadcasts(state, rnd, scen), call_tx(
            "tx.cbob.init", BOB, CBOB_ID, "init", {"val": self.budget},
            fee=scen.f_cbob_b)]


def _party_merge_game():
    # The censor mines the briber's init, a call with no budget that
    # changes no contract; the honest miner leaves it, as its fee earns no
    # more than a filler's.  The two round-1 blocks reach two control
    # states that differ only in that mempool entry, and the briber's
    # broadcast of it puts them back in one, merged in the party half.
    miners = (MinerProfile(PARTIES[0], Fraction(1, 2)),
              MinerProfile(PARTIES[1], Fraction(1, 2)))
    scen = naive_scenario(T=3, miners=miners)
    profile = StrategyProfile(AliceHonest(), _BobReInit(budget=0), {
        PARTIES[0]: CensorRelated(), PARTIES[1]: HonestFeeMax()})
    return scen, profile, {}


def _four_honest_game():
    # The Monte-Carlo benchmark's shape: he, four equal miners with one
    # fee-maximising policy, and the payee's redemption paying its fee to
    # whoever mines it.  Two pinned rounds keep the reference at 4^4
    # schedules.
    miners = tuple(MinerProfile(p, Fraction(1, 4), kind, kind == "active")
                   for p, kind in zip(FOUR, ("active", "active", "passive",
                                             "passive")))
    scen = he_scenario(v_dep=300, v_col=200, T=3, t_pub=1, l=1, br=30, f=0,
                       f_dep_a=2, f_dep_b=2, f_col_b=2, miners=miners)
    profile = StrategyProfile(AliceHonest(), BobHonest(1),
                              {p: HonestFeeMax() for p in FOUR})
    return scen, profile, {5: FOUR[2], 6: FOUR[3]}


def _demba_shared_auto_game():
    # Both miners share one fee-maximising policy.  The block that lands
    # both commits pays their fees to its miner and fires the deposit's
    # automatic path (dep-A), which records that miner too.
    miners = (MinerProfile(PARTIES[0], Fraction(1, 3)),
              MinerProfile(PARTIES[1], Fraction(2, 3)))
    scen = demba_scenario(T=4, horizon=8, miners=miners)
    profile = StrategyProfile(AliceHonest(), BobHonest(1), {
        p: HonestFeeMax() for p in PARTIES[:2]})
    return scen, profile, {}


def _race_confiscation_game():
    # Two racing colluders: the first block after the deadline lands the
    # payer's refund and confiscates the collateral (col-M) in a
    # transaction its miner creates.
    miners = (MinerProfile(PARTIES[0], Fraction(1, 2), "active", True),
              MinerProfile(PARTIES[1], Fraction(1, 2), "active", True))
    scen = he_scenario(v_dep=100, v_col=60, T=3, t_pub=1, l=1, f=0,
                       miners=miners, m2mba_split="equal")
    profile = StrategyProfile(AliceHonest(), BobHonest(), {
        p: M2MbaActive("race") for p in PARTIES[:2]})
    return scen, profile, {}


def _b3a_coinbase_game():
    # Two accomplices: the first block after the deadline is the briber's
    # partial block, with its coinbase.
    miners = (MinerProfile(PARTIES[0], Fraction(1, 2), "active", True),
              MinerProfile(PARTIES[1], Fraction(1, 2), "active", True))
    scen = mad_scenario(T=3, miners=miners)
    profile = StrategyProfile(AliceHonest(), BobB3a(case=1), {
        p: B3aAccomplice(case=1) for p in PARTIES[:2]})
    return scen, profile, {}


def _bribe_request_game():
    # Two censors: each censored block calls the bribery contract in a
    # transaction its miner creates.
    miners = (MinerProfile(PARTIES[0], Fraction(1, 2)),
              MinerProfile(PARTIES[1], Fraction(1, 2)))
    scen = naive_scenario(T=4, f=0, miners=miners)
    profile = StrategyProfile(AliceHonest(), BobNaiveBriber(), {
        p: CensorRelated() for p in PARTIES[:2]})
    return scen, profile, {}


def _settled_bribery_game():
    # On mad a censor takes the naive briber's bribes of 0 while the
    # reverse briber confiscates the deposit.  Some states of one height
    # differ only in whether the funded censorship contract has settled,
    # so only the bribery contracts in the control key tell them apart.
    miners = tuple(MinerProfile(p, power, "active") for p, power in zip(
        PARTIES, (Fraction(0), Fraction(1, 3), Fraction(2, 3))))
    scen = mad_scenario(v_dep=100, v_col=50, T=4, br=0, epsilon=5,
                        miners=miners)
    profile = StrategyProfile(AliceHonest(), BobNaiveBriber(), {
        PARTIES[0]: HonestFeeMax(), PARTIES[1]: CensorRelated(),
        PARTIES[2]: SdrbaBriber()})
    return scen, profile, {}


def _pinned(make):
    """`make`'s game with every round pinned, the two miners taking turns
    from the first: its exact pass walks that one schedule."""
    scen, profile, _ = make()
    first, second = scen.miner_parties()[:2]
    return scen, profile, {rnd: (first, second)[rnd % 2]
                           for rnd in range(1, scen.horizon + 1)}


def _pinned_equal_split_game():
    # Two racing colluders both mine the censored window, and one of them
    # confiscates the collateral, which the equal split shares out.
    return _pinned(_race_confiscation_game)


def _pinned_mad_game():
    # Two accomplices take turns; one lands the briber's partial block.
    return _pinned(_b3a_coinbase_game)


def _zero_power_game():
    # One censor mines every round, beside a miner of power 0: a
    # Monte-Carlo pass walks its one schedule, an exact one merges both.
    miners = (MinerProfile(PARTIES[0], Fraction(1)),
              MinerProfile(PARTIES[1], Fraction(0)))
    scen = naive_scenario(T=4, miners=miners)
    profile = StrategyProfile(AliceHonest(), BobNaiveBriber(), {
        PARTIES[0]: CensorRelated(), PARTIES[1]: HonestFeeMax()})
    return scen, profile, {}


def _confiscated_after_a_shared_window(state, window):
    return (state.redemptions.get("col", ("",))[0] == "col-M"
            and sum(map(bool, window.values())) > 1)


@pytest.mark.parametrize("make,rounds,unpaid,settled,writes", [
    (_equal_split_game, range(2, 5), False,
     _confiscated_after_a_shared_window, False),
    (_fill_paid_game, (1, 3, 4, 5), False,
     lambda state, _: state.redemptions.get("dep", ("",))[0] == "dep-A", True),
    (_demba_auto_resolution_game, range(3, 5), True,
     lambda state, _: state.redemptions.get("dep", ("",))[0] == "dep-Burn",
     False)])
def test_one_policy_games_reach_what_they_test(monkeypatch, make, rounds,
                                               unpaid, settled, writes):
    # Each one-policy example reaches the blocks it is there for.  In each
    # of `rounds` the equal split's censored-window blocks write no part,
    # but their increment counts their miner's window block; the fill
    # game's write their miner's pay; and the demba censors' blocks write
    # and pay nothing.  Each game also reaches a final payoff group that
    # settles as it says, read from its control state and its window
    # blocks.
    scen, profile, pin = make()
    mined = Counter()
    wrote: dict = {}
    paid: dict = {}
    real_mine, real_step = game._mine, game._Payoffs.step

    def mine(scen, profile, state, rnd, miner):
        mined[rnd, miner] += 1
        block, nxt = real_mine(scen, profile, state, rnd, miner)
        wrote.setdefault((rnd, miner), set()).add(
            not same_parts(state, nxt))
        return block, nxt

    def step(self, before, after, block):
        got = real_step(self, before, after, block)
        paid.setdefault((block.round, block.miner), set()).add(
            got is not game._UNPAID)
        return got

    monkeypatch.setattr(game, "_mine", mine)
    monkeypatch.setattr(game._Payoffs, "step", step)
    entries, _, payoffs = game.final_frontier(scen, profile, pin)
    first = scen.miners[0].party
    for rnd in rounds:
        assert wrote[rnd, first] == {writes}, rnd
        assert paid[rnd, first] == {not unpaid}, rnd
    assert any(settled(state, payoffs._window(payoff[0]))
               for state, groups in entries for payoff in groups)


def _applied(monkeypatch, scen, profile, pin) -> dict:
    """Each block the exact pass applies, as (block, state, successor), by
    the control key of the state it is applied to."""
    applied: dict = {}
    real_apply = game.apply_block

    def apply_block(state, block):
        nxt = real_apply(state, block)
        applied.setdefault(state.control_key(), []).append(
            (block, state, nxt))
        return nxt

    with monkeypatch.context() as patched:
        patched.setattr(game, "apply_block", apply_block)
        game.final_frontier(scen, profile, pin)
    return applied


def _fires_auto_path(block, before, after):
    # The deposit resolves in this block, though no transaction spends it.
    return (DEP_ID not in before.redemptions and DEP_ID in after.redemptions
            and all(cid != DEP_ID for tx in block.txs
                    for cid, _ in tx.consumes))


@pytest.mark.parametrize("make,fires", [
    (_four_honest_game, False), (_demba_shared_auto_game, True)])
def test_shared_block_games_reach_what_they_test(monkeypatch, make, fires):
    # Every miner of these games shares one policy.  Some block in a round
    # every miner may mine is not idle: it carries a transaction and pays
    # its miner, and in the demba game it also fires the deposit's
    # automatic path.
    scen, profile, pin = make()
    applied = _applied(monkeypatch, scen, profile, pin)
    shared = [(block, before, after) for steps in applied.values()
              for block, before, after in steps
              if block.round not in pin and block.txs
              and after.balances[block.miner] > before.balances[block.miner]]
    assert shared
    assert any(map(_fires_auto_path, *zip(*shared))) == fires


@pytest.mark.parametrize("make,names", [
    (_race_confiscation_game, lambda block: any(
        path == COL_M for tx in block.txs for _, path in tx.consumes)),
    (_b3a_coinbase_game, lambda block: bool(block.coinbase)),
    (_bribe_request_game, lambda block: any(
        tx.kind == CONTRACT_CALL for tx in block.txs))])
def test_blocks_that_name_their_miner_are_applied_per_miner(monkeypatch,
                                                           make, names):
    # A col-M confiscation, a coinbase and a contract call each name their
    # miner, and every miner applies its own such block at every control
    # state it reaches.
    scen, profile, pin = make()
    applied = _applied(monkeypatch, scen, profile, pin)
    named = [steps for steps in applied.values()
             if any(names(block) for block, _, _ in steps)]
    assert named
    assert all({block.miner for block, _, _ in steps}
               == set(scen.miner_parties()) for steps in named)


@settings(max_examples=60, deadline=None)
@given(game=games(fewest=1), seed=st.integers(0, 2**32 - 1))
def test_no_play_overdraws_from_genesis(game, seed):
    # The premise the merged pass rests on: genesis funds every party for
    # the whole horizon, so no play refuses a payment it cannot fund or a
    # debit below zero, on any schedule, pinned rounds and zero powers
    # aside.
    scen, profile, _ = game
    rng = random.Random(seed)
    parties = scen.miner_parties()
    for _ in range(8):
        schedule = Schedule(tuple(rng.choice(parties)
                                  for _ in range(scen.horizon)))
        try:
            play(scen, profile, schedule)
        except LedgerError as e:
            pytest.fail(f"{[p.id for p in schedule.miners]}: {e}")


@settings(max_examples=60, deadline=None)
@given(game=games())
@example(game=_equal_split_game())
@example(game=_unequal_denominators_game())
@example(game=_fill_paid_game())
@example(game=_demba_auto_resolution_game())
@example(game=_censor_bribe_game())
@example(game=(*_censor_bribe_game()[:2], {2: PARTIES[1]}))
@example(game=_censor_bribe_game(br=0))
@example(game=_party_merge_game())
@example(game=_four_honest_game())
@example(game=_demba_shared_auto_game())
@example(game=_race_confiscation_game())
@example(game=_b3a_coinbase_game())
@example(game=_bribe_request_game())
@example(game=_pinned_equal_split_game())
@example(game=_pinned_mad_game())
@example(game=_zero_power_game())
def test_merged_expectation_equals_brute_force(game):
    scen, profile, pin = game
    utilities, bribes, burned = brute_force(scen, profile, pin)
    eu = expected_utilities(scen, profile, pin)
    assert eu.mode == "exact"
    assert eu.utilities == utilities
    assert list(eu.utilities) == list(utilities)  # in party order
    assert eu.bribe_income == bribes
    assert eu.burned == burned


@settings(max_examples=30, deadline=None)
@given(drawn=games())
@example(drawn=_equal_split_game())
@example(drawn=_fill_paid_game())
def test_final_states_are_those_of_every_schedule(drawn):
    # The final frontier's control states, each with what its payoff groups
    # settle and their summed mass over the total, are those that `play`
    # reaches and settles over every schedule, each with the summed weight
    # of the schedules reaching it.
    scen, profile, pin = drawn
    want = Counter()
    for schedule in enumerate_schedules(scen, pin):
        want[play_settlement(play(scen, profile, schedule))] += \
            schedule.weight
    frontier = game.final_frontier(scen, profile, pin)
    got = frontier_settlements(scen, frontier)
    assert {key: Fraction(m, frontier.total) for key, m in got.items()} \
        == want


@settings(max_examples=100, deadline=None)
@given(drawn=games(fewest=1), data=st.data())
def test_splitting_a_miner_splits_only_its_own_share(drawn, data):
    # Only a miner's share of power matters: a miner that no pin names,
    # split into two of its policy with powers q * p and (1 - q) * p and
    # listed in any order, leaves every other party's utility and bribe
    # income and the burn as they were, and each half gets its share of
    # the miner's.  This holds the merged pass's miners of one policy to
    # an outside reference.
    scen, profile, pin = drawn
    free = [m for m in scen.miners if m.party not in pin.values()]
    assume(free)
    whole = data.draw(st.sampled_from(free))
    q = data.draw(st.sampled_from((Fraction(1, 5), Fraction(1, 3),
                                   Fraction(1, 2))))
    half = miner_party("d5")
    halves = (replace(whole, power=q * whole.power),
              replace(whole, party=half, power=(1 - q) * whole.power))
    miners = [m for m in scen.miners if m is not whole] + list(halves)
    split = replace(scen, miners=tuple(data.draw(st.permutations(miners))))
    split_profile = StrategyProfile(profile.alice, profile.bob, {
        **profile.miners, half: profile.miners[whole.party]})
    before = expected_utilities(scen, profile, pin)
    after = expected_utilities(split, split_profile, pin)
    assert after.burned == before.burned
    for got, had in ((after.utilities, before.utilities),
                     (after.bribe_income, before.bribe_income)):
        share = had.get(whole.party, 0)
        assert got.get(whole.party, 0) == q * share
        assert got.get(half, 0) == (1 - q) * share
        assert {p: v for p, v in got.items() if p not in (whole.party, half)} \
            == {p: v for p, v in had.items() if p != whole.party}


def _round_key_pool(scen):
    """The criterion-9 miner pool of `scen`'s protocol, with lemma 4's
    deferred racers on `he`."""
    pool = list(POOLS[scen.protocol][2])
    if scen.protocol == "he":
        pool += [M2MbaActive("race", defer_to=scen.T + d) for d in (2, 3)]
    return pool


@settings(max_examples=60, deadline=None)
@given(drawn=games(fewest=1, protocols=("he",)), seed=st.integers(0, 999))
@example(drawn=_race_confiscation_game(), seed=0)
@example(drawn=(replace(_race_confiscation_game()[0],
                        m2mba_split="per-block"),
                *_race_confiscation_game()[1:]), seed=0)
@example(drawn=(*load_scenario(SCENARIOS / "he_m2mba.json"), {}), seed=0)
def test_equal_round_keys_build_equal_blocks(drawn, seed):
    # A verdict's step cache keys a block step by its miner policy's
    # `round_key` and its miner, so the passes of policies that differ
    # elsewhere share it.  So two pool policies whose round keys are
    # equal in a round, a policy and itself included, must build the same
    # block for each miner at every state that `play` reaches in that
    # round.  The racer and the acceptor share one key up to the
    # deadline; after it a deferred racer shares the acceptor's until its
    # round, then the racer's.
    scen, profile, _ = drawn
    pool = _round_key_pool(scen)
    parties = scen.miner_parties()
    schedule = random.Random(seed).choices(parties, k=scen.horizon)
    state, rank = game._setup(scen, profile)[0], -1
    for rnd, mines in enumerate(schedule, 1):
        keys = [pol.round_key(rnd, scen) for pol in pool]
        blocks = {(i, miner): pol.build_block(state, rnd, miner, scen)
                  for i, pol in enumerate(pool) for miner in parties}
        for i, j in itertools.combinations_with_replacement(
                range(len(pool)), 2):
            if keys[i] != keys[j]:
                continue
            for miner in parties:
                assert blocks[i, miner] == blocks[j, miner], \
                    (pool[i].name, pool[j].name, rnd)
        state, _, rank = game._play_round(scen, profile, state, rnd, mines,
                                          rank)


def _implied_status(contract, redemption):
    """The status that a contract's `redemptions` entry implies: none
    leaves it redeemable, and a path whose every effect burns burns it."""
    if redemption is None:
        return REDEEMABLE
    path = contract.path(redemption[0])
    if all(isinstance(effect, Burn) for effect in path.effects):
        return BURNED
    return ("redeemed", path.name)


def _control_reads(scen, profile, pool, state):
    """All that the forward pass reads of `state`: the block of every
    policy of `pool` for every miner in the next round (before the
    horizon) with the control key it leads to, the parties' broadcasts,
    the label, and what a final state settles by: the terminal tag, the
    equal split's confiscator and each `ttc` path's completion round."""
    rnd = state.height
    blocks = [] if rnd == scen.horizon else [
        pol.build_block(state, rnd + 1, miner, scen)
        for pol in pool for miner in scen.miner_parties()]
    return ([(block, apply_block(state, block).control_key())
             for block in blocks],
            profile.alice.broadcasts(state, rnd, scen),
            profile.bob.broadcasts(state, rnd, scen),
            scen.rules.label(state),
            game._terminal_tag(state, scen),
            game._split_confiscator(scen, state),
            [result_or_error(_completed, state.redemptions, scen, path)
             for path in TTC_PATHS])


@settings(max_examples=60, deadline=None)
@given(drawn=games(fewest=1), seed=st.integers(0, 2**32 - 1))
@example(drawn=_demba_auto_resolution_game(), seed=0)
@example(drawn=_race_confiscation_game(), seed=0)
@example(drawn=_b3a_coinbase_game(), seed=0)
@example(drawn=_party_merge_game(), seed=0)
@example(drawn=_settled_bribery_game(), seed=0)
def test_equal_control_keys_read_alike(drawn, seed):
    # The forward pass keeps one state per control key, so the key must
    # fix all that the pass reads.  It leaves the contracts' statuses out
    # because the redemptions imply them: on every state that eight random
    # schedules reach, each status is the one its redemption implies, and
    # any two states of the game with equal keys give equal blocks from
    # every pool miner policy for each miner, leading to equal keys, equal
    # party broadcasts, equal labels and equal settlements.
    scen, profile, _ = drawn
    pool = _round_key_pool(scen)
    rng = random.Random(seed)
    reached: dict = {}  # control key -> {state identity: state}

    def reach(state):
        assert set(state.redemptions) <= set(state.contracts)
        for cid, contract in state.contracts.items():
            assert contract.status == _implied_status(
                contract, state.redemptions.get(cid)), (cid, state.height)
        reached.setdefault(state.control_key(), {}).setdefault(
            state_identity(state), state)

    start = game._setup(scen, profile)[0]
    reach(start)
    for _ in range(8):
        state, rank = start, -1
        for rnd in range(1, scen.horizon + 1):
            mined = game._mine(scen, profile, state, rnd,
                               rng.choice(scen.miner_parties()))[1]
            state, _, rank = game._act(scen, profile, mined, rnd, rank)
            reach(mined)
            reach(state)
    for states in reached.values():
        first, *others = states.values()
        reads = _control_reads(scen, profile, pool, first)
        for other in others:
            assert _control_reads(scen, profile, pool, other) == reads


def sampled_one_by_one(scen, profile, pin=None):
    """The outcome of each Monte-Carlo trial, drawn and played in turn."""
    rng = np.random.default_rng(scen.seed)
    return [play(scen, profile, sample_schedule(scen, rng, pin))
            for _ in range(scen.mode[1])]


def expected_one_by_one(scen, profile, pin):
    """(utilities, bribe income, burned, ci) from per-trial plays."""
    sums, sq_sums, bribes = {}, {}, {}
    burned = Fraction(0)
    for out in sampled_one_by_one(scen, profile, pin):
        for party, d in out.deltas.items():
            sums[party] = sums.get(party, Fraction(0)) + d
            sq_sums[party] = sq_sums.get(party, Fraction(0)) + d * d
        for party, b in out.bribe_income.items():
            bribes[party] = bribes.get(party, Fraction(0)) + b
        burned += out.burned
    n = scen.mode[1]
    ci = {}
    for party, s in sums.items():
        mean, half = mean_half_width(s, sq_sums[party], n)
        ci[party] = (mean - half, mean + half)
    return ({p: s / n for p, s in sums.items()},
            {p: b / n for p, b in bribes.items()}, burned / n, ci)


def ttc_one_by_one(scen, path):
    """`ttc`'s result from per-trial plays."""
    total = total_sq = 0
    for out in sampled_one_by_one(scen, _ttc_profile(scen, path)):
        done = _completion_round(out, scen, path)
        if done is None:
            raise ScenarioError(
                f"validation-error: {path} never completed within the horizon")
        total += done
        total_sq += done * done
    mean, half = mean_half_width(total, total_sq, scen.mode[1])
    return {"mean": mean, "half_width": half, "trials": scen.mode[1],
            "l": scen.l}


def result_or_error(fn, *args):
    try:
        return fn(*args)
    except ScenarioError as e:
        return f"error: {e}"


def completion_rounds(scen, path):
    """The completion round of each final control state of the exact,
    unpinned pass under `ttc`'s profile, or the error it raises."""
    try:
        entries, _, _ = game.final_frontier(scen, _ttc_profile(scen, path))
        return {_completed(state.redemptions, scen, path)
                for state, _ in entries}
    except ScenarioError as e:
        return {f"error: {e}"}


@settings(max_examples=30, deadline=None)
@given(drawn=games(fewest=1), trials=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
@example(drawn=_four_honest_game(), trials=40, seed=7)
@example(drawn=_equal_split_game(), trials=40, seed=7)
@example(drawn=_demba_auto_resolution_game(), trials=40, seed=7)
def test_every_ttc_schedule_completes_in_one_round(drawn, trials, seed):
    # The premise `ttc`'s pinned walk rests on: under `_ttc_profile`
    # every schedule, over every miner, completes its path in one round,
    # or every final state raises one error.  So `ttc` on a Monte-Carlo
    # copy reports that round with a half-width of 0.0, or that error.
    # The examples: four he miners whose fees pay whoever mines, a he
    # game with a zero-power miner, and a demba game.
    scen, _, _ = drawn
    sampled = monte_carlo(scen, trials, seed)
    for path in TTC_PATHS:
        rounds = completion_rounds(scen, path)
        assert len(rounds) == 1, (path, rounds)
        (done,) = rounds
        if done is None:
            done = (f"error: validation-error: {path} never completed "
                    "within the horizon")
        want = done if isinstance(done, str) else {
            "mean": float(done), "half_width": 0.0, "trials": trials,
            "l": scen.l}
        assert result_or_error(ttc, sampled, path) == want, path


@pytest.mark.parametrize("name", sorted(
    path.name for path in SCENARIOS.glob("*.json")))
def test_ttc_is_the_completion_round_of_the_pinned_play(name):
    # On every sample scenario, `ttc` reports the round in which `play`
    # on the schedule pinned to the first miner with power completes each
    # path, or refuses as that play's completion round says.
    scen = monte_carlo(load_scenario(SCENARIOS / name)[0], 7, seed=1)
    miner = next(m.party for m in scen.miners if m.power)
    schedule = Schedule((miner,) * scen.horizon)
    completed = []
    for path in TTC_PATHS:
        done = result_or_error(_completion_round, play(
            scen, _ttc_profile(scen, path), schedule), scen, path)
        if isinstance(done, int):
            completed.append(path)
            want = {"mean": float(done), "half_width": 0.0, "trials": 7,
                    "l": scen.l}
        elif done is None:
            want = (f"error: validation-error: {path} never completed "
                    "within the horizon")
        else:
            want = done
        assert result_or_error(ttc, scen, path) == want, path
    assert completed, name


@settings(max_examples=40, deadline=None)
@given(game=games(fewest=1), trials=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
@example(game=_equal_split_game(), trials=40, seed=7)
@example(game=_fill_paid_game(), trials=40, seed=7)
@example(game=_demba_auto_resolution_game(), trials=40, seed=7)
@example(game=_censor_bribe_game(), trials=40, seed=7)
@example(game=(*_censor_bribe_game()[:2], {2: PARTIES[1]}), trials=40, seed=7)
@example(game=_four_honest_game(), trials=40, seed=7)
@example(game=(*_four_honest_game()[:2], {}), trials=40, seed=7)
@example(game=_demba_shared_auto_game(), trials=40, seed=7)
@example(game=_pinned_equal_split_game(), trials=40, seed=7)
@example(game=_pinned_mad_game(), trials=40, seed=7)
@example(game=_zero_power_game(), trials=40, seed=7)
def test_sampled_expectation_and_ttc_equal_one_by_one_plays(game, trials,
                                                            seed):
    scen, profile, pin = game
    scen = monte_carlo(scen, trials, seed)
    utilities, bribes, burned, ci = expected_one_by_one(scen, profile, pin)
    eu = expected_utilities(scen, profile, pin)
    assert eu.mode == "monte-carlo"
    assert eu.utilities == utilities
    assert list(eu.utilities) == list(utilities)  # in party order
    assert eu.bribe_income == bribes
    assert eu.burned == burned
    assert eu.ci == ci
    for path in TTC_PATHS:
        assert result_or_error(ttc, scen, path) == result_or_error(
            ttc_one_by_one, scen, path)


def test_settlement_examples_reach_what_they_test(monkeypatch):
    # The censor-bribe game pays censor-bribe income, at a bribe of 0 an
    # income of 0, the equal split shares a col-M confiscation among
    # colluders with window blocks, whether merged or walked, and the
    # party-merge game's party half takes two mined control states to one.
    scen, profile, pin = _censor_bribe_game()
    assert expected_utilities(scen, profile, pin).bribe_income[PARTIES[0]] > 0
    scen, profile, pin = _censor_bribe_game(br=0)
    assert expected_utilities(scen, profile, pin).bribe_income == {
        PARTIES[0]: 0}
    for make in (_equal_split_game, _pinned_equal_split_game):
        scen, profile, pin = make()
        entries, _, payoffs = game.final_frontier(scen, profile, pin)
        shared = [payoff for state, groups in entries
                  if game._split_confiscator(scen, state) is not None
                  for payoff in groups
                  if sum(map(bool, payoffs._window(payoff[0]).values())) > 1]
        assert shared, make
    # The pinned mad game lands the briber's partial block, and the
    # zero-power game's censor earns its bribes.
    scen, profile, pin = _pinned_mad_game()
    (state, _), = game.final_frontier(scen, profile, pin).entries
    assert state.mint_log
    scen, profile, pin = _zero_power_game()
    assert expected_utilities(monte_carlo(scen, 5), profile, pin
                              ).bribe_income[PARTIES[0]] > 0
    acted: dict = {}  # round -> the control key of each party half's state
    real_act = game._act

    def act(scen, profile, state, rnd, rank):
        nxt = real_act(scen, profile, state, rnd, rank)
        acted.setdefault(rnd, []).append(nxt[0].control_key())
        return nxt

    monkeypatch.setattr(game, "_act", act)
    game.final_frontier(*_party_merge_game())
    assert any(len(set(keys)) < len(keys) for keys in acted.values())
