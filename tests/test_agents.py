"""Policy behaviour: selection rules, attack phases, acceptance predicates."""

from __future__ import annotations

import copy
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from htlc_arena import agents, game
from htlc_arena.core import ALICE, BOB, EXTERNAL, ScenarioError, miner_party
from htlc_arena.agents import (AliceHonest, AliceOffline, B3aAccomplice,
                               BobB3a, BobHonest, BobHydraBriber,
                               BobNaiveBriber, CensorRelated, HonestFeeMax,
                               HydraAccomplice, M2MbaActive, M2MbaPassive,
                               MinerPolicy, SdrbaBriber, b3a_bob_policy,
                               honest_miner_select, make_miner_policy,
                               make_party_policy, payment_tx,
                               policy_space, tx_col_b, tx_commit,
                               tx_confiscate, tx_refund_dep_b,
                               tx_reveal_dep_a)
from htlc_arena.contracts import (CBOB_ID, CM2M_ID, COL_B, COL_ID, COL_M,
                                  DEP_A, PRE_A, PRE_A2, SECRETS)
from htlc_arena.game import (MinerProfile, Schedule, StrategyProfile,
                             build_genesis, expected_utilities, play)
from htlc_arena.ledger import CONTRACT_CALL, Block, apply_block, broadcast
from htlc_arena.runner import main

from conftest import (M1, M2, demba_scenario, flat_schedule, he_scenario,
                      mad_scenario, naive_scenario, same_parts, solo_miner)
from test_acceptance import _fuzz_pools, _fuzz_scenario


def seeded_state(scen, txs=()):
    state, _, _ = build_genesis(scen)
    return broadcast(state, list(txs))


def fee_tx(tx_id, creator, fee):
    """A mempool entry that pays `fee` and spends no contract: a payment of
    nothing to the external user."""
    return payment_tx(tx_id, creator, EXTERNAL, 0)._replace(declared_fee=fee)


class TestHonestSelect:
    def test_greedy_prefers_related_over_fill(self):
        scen = naive_scenario(f=1, f_dep_a=3)
        state = seeded_state(scen, [tx_reveal_dep_a(scen)])
        picked = honest_miner_select(state, 2, scen)
        assert [t.tx_id for t in picked] == ["tx.depA"]

    def test_empty_mempool_leaves_only_fill(self):
        scen = naive_scenario()
        state = seeded_state(scen)
        assert honest_miner_select(state, 1, scen) == []

    def test_equal_fee_breaks_ties_by_tx_id(self):
        scen = naive_scenario(f=1)
        state = seeded_state(scen)
        a = fee_tx("tx.b-second", ALICE, 4)
        b = fee_tx("tx.a-first", BOB, 4)
        state = broadcast(state, [a, b])
        picked = honest_miner_select(state, 1, scen)
        assert [t.tx_id for t in picked] == ["tx.a-first", "tx.b-second"]

    def test_fee_at_or_below_unrelated_not_taken(self):
        scen = naive_scenario(f=3, f_dep_a=3)
        state = seeded_state(scen, [tx_reveal_dep_a(scen)])
        assert honest_miner_select(state, 2, scen) == []

    def test_swap_optimality_within_block(self):
        # No single included/excluded swap can raise the earned fee.
        scen = naive_scenario(f=1, capacity=3)
        state = seeded_state(scen)
        txs = [fee_tx(f"tx.u{i}", ALICE, fee)
               for i, fee in enumerate((5, 4, 3, 2, 9))]
        state = broadcast(state, txs)
        picked = honest_miner_select(state, 1, scen)
        fees = sorted((t.declared_fee for t in picked), reverse=True)
        assert fees == [9, 5, 4]

    def test_a_spend_the_ledger_refuses_is_skipped(self):
        # Transactions that name a path their contract lacks, or a contract
        # the game lacks, pay more than the reveal; the ledger refuses both
        # (`unknown-output`), so the builder leaves them out.
        scen = naive_scenario(f=1, f_dep_a=3)
        reveal = tx_reveal_dep_a(scen)
        bad = [reveal._replace(tx_id="tx.nopath", consumes=(("dep", "nope"),),
                               declared_fee=9),
               reveal._replace(tx_id="tx.nocontract",
                               consumes=(("nope", DEP_A),), declared_fee=9)]
        state = seeded_state(scen, [*bad, reveal])
        assert honest_miner_select(state, 2, scen) == [reveal]
        block = HonestFeeMax().build_block(state, 2, M1, scen)
        assert block.txs == (reveal,)

    def test_late_scheduled_fee_counts_what_the_miner_earns(self):
        # pre_A' pays 12: earned 6 one round late, 1 three rounds late.
        scen = demba_scenario(T=4, f=2)
        state = seeded_state(scen, [tx_commit(scen, PRE_A2)])
        assert honest_miner_select(state, scen.T + 1, scen) == [
            state.mempool[f"tx.col.{PRE_A2}"]]
        assert honest_miner_select(state, scen.T + 3, scen) == []


class TestBlockAssembly:
    def test_full_block_drops_the_tail_first(self):
        # Head: the payer's refund; body: a high-fee transfer; tail: the
        # censorship-bribe claim.  A block with room for two drops the claim.
        scen = naive_scenario(T=3, capacity=3)
        profile = StrategyProfile(AliceHonest(), BobNaiveBriber(),
                                  {M1: CensorRelated()})
        state, _, _ = build_genesis(scen)
        state = profile.bob.setup(state, scen)
        state = apply_block(state, Block(round=1, miner=M1, txs=(
            state.mempool["tx.cbob.init"],)))
        for rnd in range(2, scen.T + 1):
            state = apply_block(state, Block(round=rnd, miner=M1))
        state = broadcast(state, [
            tx_reveal_dep_a(scen), tx_refund_dep_b(scen),
            fee_tx("tx.u", ALICE, 9)])
        rnd = scen.T + 1
        roomy = CensorRelated().build_block(state, rnd, M1, scen)
        assert [t.tx_id for t in roomy.txs] == [
            "tx.depB", "tx.u", f"tx.cbob.claim.{rnd}"]
        tight = replace(scen, capacity=2)
        full = CensorRelated().build_block(state, rnd, M1, tight)
        assert [t.tx_id for t in full.txs] == ["tx.depB", "tx.u"]


class TestPactAutoRefund:
    """The ledger returns the pact locks in the block the claim dies."""

    def funded(self):
        miners = (MinerProfile(M1, Fraction(1, 2), "active", True),
                  MinerProfile(M2, Fraction(1, 2), "passive"))
        scen = he_scenario(miners=miners, T=4, l=2, br=2, f=0)
        state, _, _ = build_genesis(scen)
        state = M2MbaActive().setup(state, scen, M1)
        for rnd in range(1, scen.T + 1):
            state = apply_block(state, Block(round=rnd, miner=M2))
        # The payer's staged refund funds the collateral pot.
        state = apply_block(state, Block(round=scen.T + 1, miner=M2, txs=(
            tx_refund_dep_b(scen),)))
        return scen, broadcast(state, [tx_reveal_dep_a(scen)])

    def test_payer_reclaiming_the_collateral_refunds_the_locks(self):
        scen, state = self.funded()
        for rnd in range(scen.T + 2, scen.T + scen.l + 1):
            state = apply_block(state, Block(round=rnd, miner=M2))
        assert not state.bribery[CM2M_ID].settled
        state = apply_block(state, Block(round=scen.T + scen.l + 1, miner=M2,
                                         txs=(tx_col_b(scen),)))
        assert state.redemptions[COL_ID][0] == COL_B
        assert state.bribery[CM2M_ID].settled
        assert state.bribe_log == [(M1, scen.v_col, "refund")]

    @pytest.mark.parametrize("confiscator", [M1, M2])
    def test_only_a_non_member_confiscation_refunds_the_locks(
            self, confiscator):
        scen, state = self.funded()
        take = tx_confiscate(state, confiscator, COL_ID, COL_M)
        state = apply_block(state, Block(round=scen.T + 2, miner=confiscator,
                                         txs=(take,)))
        assert state.redemptions[COL_ID] == (COL_M, scen.T + 2, confiscator)
        member = confiscator == M1
        assert state.bribery[CM2M_ID].settled is not member
        assert state.bribe_log == ([] if member
                                   else [(M1, scen.v_col, "refund")])


class TestCensorAutoRefund:
    def test_an_unfunded_budget_waits_for_its_funding(self):
        # The payee's reveal lands before the payer funds the censorship
        # budget: the ledger refunds nothing from the empty contract, and
        # refunds the budget in the block that funds it.
        scen = naive_scenario()
        state = BobNaiveBriber().setup(build_genesis(scen)[0], scen)
        total = state.conservation_total()
        state = apply_block(state, Block(round=1, miner=M1, txs=(
            tx_reveal_dep_a(scen),)))
        assert not state.bribery[CBOB_ID].settled and not state.bribe_log
        state = apply_block(state, Block(round=2, miner=M1, txs=(
            state.mempool["tx.cbob.init"],)))
        assert state.bribery[CBOB_ID].settled
        assert state.bribe_log == [(BOB, scen.v_dep, "refund")]
        assert state.conservation_total() == total

    @pytest.mark.parametrize("call", ["refundToBob", "claimBribe"])
    def test_a_call_before_the_funding_leaves_the_contract_open(self, call):
        # A refund once the payee's reveal has landed, or a claim (at a
        # bribe of 0, which no liquidity guard stops) once the payer's
        # refund has, is mined before the init: it settles nothing, and
        # the init then funds the open contract, so no budget is lost.
        scen = naive_scenario(br=0)
        state = BobNaiveBriber().setup(build_genesis(scen)[0], scen)
        total = state.conservation_total()
        settle, rnd = ((tx_reveal_dep_a(scen), 1) if call == "refundToBob"
                       else (tx_refund_dep_b(scen), scen.T + 1))
        for idle in range(1, rnd):
            state = apply_block(state, Block(round=idle, miner=M1))
        state = apply_block(state, Block(round=rnd, miner=M1, txs=(
            settle, agents.call_tx(f"tx.cbob.{call}", M1, CBOB_ID, call,
                                   {"preimage": SECRETS[PRE_A]}))))
        assert not state.bribery[CBOB_ID].settled and not state.bribe_log
        state = apply_block(state, Block(round=rnd + 1, miner=M1, txs=(
            state.mempool["tx.cbob.init"],)))
        assert state.bribery[CBOB_ID].deposit == scen.v_dep
        assert state.conservation_total() == total


class TestPactRefundToMiners:
    def test_race_miners_refund_their_locks_after_an_idle_window(
            self, monkeypatch):
        # The payer never reveals, so nothing is censored or confiscated in
        # the attack window; the first pact call after it returns the locks.
        miners = (MinerProfile(M1, Fraction(1, 2), "active", True),
                  MinerProfile(M2, Fraction(1, 2), "active", True))
        scen = he_scenario(v_dep=60, v_col=30, T=2, t_pub=1, l=1, br=2, f=2,
                           f_dep_a=2, f_dep_b=2, f_col_b=1, miners=miners)
        profile = StrategyProfile(AliceOffline(), BobHonest(1), {
            M1: M2MbaActive("race"), M2: M2MbaActive("race")})
        blocks = []

        def recording_apply(state, block):
            blocks.append(block)
            return apply_block(state, block)

        monkeypatch.setattr(game, "apply_block", recording_apply)
        out = play(scen, profile, flat_schedule(scen))
        assert [b.round for b in blocks] == [1, 2, 3, 4, 5]
        assert "tx.cm2m.refund.5" in [t.tx_id for t in blocks[-1].txs]
        assert out.state.bribe_log == [(M1, 30, "refund"), (M2, 30, "refund")]
        assert out.state.bribery[CM2M_ID].settled


class CheckedMiner(MinerPolicy):
    """Delegates to `inner` and checks every block it returns; appends
    each (state, round) it mines at to `seen`, if given."""

    def __init__(self, inner, seen=None):
        self.inner = inner
        self.name = inner.name
        self.protocols = inner.protocols
        self.blocks = 0
        self.seen = [] if seen is None else seen

    def setup(self, state, scen, party):
        return self.inner.setup(state, scen, party)

    def build_block(self, state, rnd, miner, scen):
        self.seen.append((state, rnd))
        block = self.inner.build_block(state, rnd, miner, scen)
        assert isinstance(block, Block)
        assert (block.round, block.miner) == (rnd, miner)
        assert len(block.txs) + block.unrelated_fill == scen.capacity
        self.blocks += 1
        return block


@pytest.mark.parametrize("protocol", ["naive", "mad", "he", "demba"])
def test_every_pool_miner_returns_a_filled_block(protocol):
    # Every criterion-9 miner policy mines a few seeded plays, at small and
    # default capacities and at a zero and a positive unrelated fee.
    rng = random.Random(protocol)
    alice_pool, bob_pool, miner_pool = _fuzz_pools()[protocol]
    parties = (miner_party("f1"), miner_party("f2"))
    kind = "active" if protocol in ("mad", "he") else "passive"
    miners = tuple(MinerProfile(p, Fraction(1, 2), kind, True)
                   for p in parties)
    for policy in miner_pool:
        checked = CheckedMiner(policy)
        for _ in range(4):
            scen = replace(_fuzz_scenario(protocol, rng, miners),
                           capacity=rng.choice((1, 2, 8)),
                           f=rng.choice((0, 3)))
            other = CheckedMiner(rng.choice(miner_pool))
            profile = StrategyProfile(rng.choice(alice_pool),
                                      rng.choice(bob_pool),
                                      {parties[0]: checked, parties[1]: other})
            schedule = Schedule(tuple(rng.choice(parties)
                                      for _ in range(scen.horizon)))
            out = play(scen, profile, schedule, check_invariants=True)
            assert out.conserves()
        assert checked.blocks > 0


def test_pools_cover_every_miner_policy():
    pooled = {type(pol) for pools in _fuzz_pools().values() for pol in pools[2]}
    assert pooled == set(agents.MINER_POLICIES.values())


@pytest.mark.parametrize("protocol", ["naive", "mad", "he", "demba"])
@settings(max_examples=40, deadline=None)
@given(capacity=st.sampled_from((1, 2, 8)), f=st.sampled_from((0, 3)),
       equal_split=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_equal_policies_build_alike_blocks(protocol, capacity, f, equal_split,
                                           seed):
    # The miner policy contract, for every policy of the criterion-9 pools:
    # at every state a play reaches, two miners with equal policies build
    # blocks that are both free of transactions and coinbase, or neither.
    # Two free blocks differ only in their miner, and applying them writes
    # nothing for both miners or for neither.
    rng = random.Random(seed)
    alice_pool, bob_pool, miner_pool = _fuzz_pools()[protocol]
    parties = tuple(miner_party(f"f{i}") for i in range(1, 4))
    kind = "active" if protocol in ("mad", "he") else "passive"
    miners = tuple(MinerProfile(p, Fraction(1, 3), kind, True)
                   for p in parties)
    scen = replace(_fuzz_scenario(protocol, rng, miners), capacity=capacity,
                   f=f)
    if protocol == "he" and equal_split:
        scen = replace(scen, m2mba_split="equal")
    a, b = parties[:2]
    for policy in miner_pool:
        twin = copy.copy(policy)
        assert game.policy_key(twin) == game.policy_key(policy)
        seen: list = []
        profile = StrategyProfile(
            rng.choice(alice_pool), rng.choice(bob_pool),
            {a: CheckedMiner(policy, seen), b: CheckedMiner(twin, seen),
             parties[2]: CheckedMiner(rng.choice(miner_pool), seen)})
        schedule = Schedule(tuple(rng.choice(parties)
                                  for _ in range(scen.horizon)))
        play(scen, profile, schedule)
        assert len(seen) == scen.horizon
        for state, rnd in seen:
            block_a = policy.build_block(state, rnd, a, scen)
            block_b = twin.build_block(state, rnd, b, scen)
            free = not block_a.txs and not block_a.coinbase
            assert free == (not block_b.txs and not block_b.coinbase)
            if free:
                assert block_a._replace(miner=b) == block_b
                assert (same_parts(state, apply_block(state, block_a))
                        == same_parts(state, apply_block(state, block_b)))


class TestPartyPolicies:
    def test_factory_round_trip(self):
        assert isinstance(make_party_policy("alice", "honest"), AliceHonest)
        assert isinstance(make_party_policy("bob", "naive-briber"),
                          BobNaiveBriber)
        with pytest.raises(ValueError):
            make_party_policy("alice", "nope")

    def test_honest_alice_broadcasts_once_at_t_pub(self):
        scen = naive_scenario(t_pub=2)
        state, _, _ = build_genesis(scen)
        pol = AliceHonest()
        assert pol.broadcasts(state, 1, scen) == []
        out = pol.broadcasts(state, 2, scen)
        assert [t.tx_id for t in out] == ["tx.depA"]
        assert pol.broadcasts(state, 3, scen) == []

    def test_policy_determinism(self):
        scen = naive_scenario(t_pub=2)
        state, _, _ = build_genesis(scen)
        pol = AliceHonest()
        assert pol.broadcasts(state, 2, scen) == pol.broadcasts(state, 2, scen)
        miner = CensorRelated()
        plan1 = miner.build_block(state, 1, M1, scen)
        plan2 = miner.build_block(state, 1, M1, scen)
        assert [t.tx_id for t in plan1.txs] == [t.tx_id for t in plan2.txs]

    def test_bob_honest_refunds_only_when_deposit_live(self):
        scen = naive_scenario(T=5)
        state, _, _ = build_genesis(scen)
        pol = BobHonest()
        assert pol.broadcasts(state, 4, scen) == []
        out = pol.broadcasts(state, 5, scen)
        assert [t.tx_id for t in out] == ["tx.depB"]


class TestM2MbaPolicies:
    def scen(self):
        actives = (MinerProfile(M1, Fraction(1, 2), "active", True),
                   MinerProfile(M2, Fraction(1, 2), "active", True))
        return he_scenario(miners=actives, T=4, l=2, br=2, f=0)

    def test_censor_phase_requests_and_excludes_target(self):
        scen = self.scen()
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {M1: M2MbaActive(), M2: M2MbaActive()})
        state, _, _ = build_genesis(scen)
        state = profile.miners[M1].setup(state, scen, M1)
        state = profile.miners[M2].setup(state, scen, M2)
        state = broadcast(state, [tx_reveal_dep_a(scen)])
        plan = profile.miners[M1].build_block(state, 2, M1, scen)
        ids = [t.tx_id for t in plan.txs]
        assert "tx.depA" not in ids
        assert any(i.startswith("tx.cm2m.req") for i in ids)

    def test_idle_round_emits_no_pact_calls(self):
        scen = self.scen()
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {M1: M2MbaActive(), M2: M2MbaActive()})
        state, _, _ = build_genesis(scen)
        state = profile.miners[M1].setup(state, scen, M1)
        # Nothing broadcast yet: nothing to censor, no reservation to make.
        plan = profile.miners[M1].build_block(state, 1, M1, scen)
        assert plan.txs == ()

    def test_confiscation_block_orders_refund_then_collateral(self):
        scen = self.scen()
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {M1: M2MbaActive(), M2: M2MbaActive()})
        sched = Schedule((M1, M2, M1, M2, M1, M1, M1, M1))
        out = play(scen, profile, sched)
        entry = out.state.redemptions["col"]
        assert entry[0] == "col-M" and entry[1] == scen.T + 1
        dep_entry = out.state.redemptions["dep"]
        assert dep_entry[0] == "dep-B" and dep_entry[1] == scen.T + 1

    def test_passive_never_touches_the_pact(self):
        scen = he_scenario(miners=(MinerProfile(M1, Fraction(1), "passive"),),
                           T=4, l=2, f=0)
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {M1: M2MbaPassive()})
        out = play(scen, profile, flat_schedule(scen))
        assert CM2M_ID not in out.state.bribery
        calls = [t for t in out.state.mempool.values()
                 if t.kind == CONTRACT_CALL]
        assert calls == []
        assert out.state.redemptions["col"][0] == "col-M"


class TestB3a:
    def scen(self, case=1):
        return mad_scenario(miners=solo_miner("active", True), br=2,
                            f_col_b=2, f=0)

    def test_acceptance_predicate_checks_components(self):
        scen = self.scen()
        acc = B3aAccomplice(case=1)
        profile = StrategyProfile(AliceHonest(), BobB3a(case=1),
                                  {M1: acc})
        state, _, _ = build_genesis(scen)
        state = profile.bob.setup(state, scen)
        state = broadcast(state, [tx_reveal_dep_a(scen)])
        for rnd in range(1, scen.T + 1):
            plan = acc.build_block(state, rnd, M1, scen)
            from htlc_arena.ledger import Block, apply_block
            block = Block(round=rnd, miner=M1, txs=tuple(plan.txs))
            state = apply_block(state, block)
        plan = acc.build_block(state, scen.T + 1, M1, scen)
        assert b3a_bob_policy(plan, scen, case=1)
        assert not b3a_bob_policy(plan, scen, case=2)
        stripped = plan._replace(coinbase=())
        assert not b3a_bob_policy(stripped, scen, case=1)

    def test_defective_partial_block_is_not_used(self):
        scen = self.scen()
        profile = StrategyProfile(AliceHonest(), BobB3a(case=1),
                                  {M1: B3aAccomplice(case=1, defective=True)})
        out = play(scen, profile, flat_schedule(scen))
        assert out.minted == 0  # the bribing coinbase never made it on chain


class TestAttackBlocksFitCapacity:
    """A bespoke attack block that does not fit the block capacity is not
    mined: the policy builds its ordinary block instead."""

    def test_hydra_scenario_at_capacity_two_simulates(self, tmp_path, capsys):
        doc = {"protocol": "mad", "amounts": {"v_dep": 100, "v_col": 50},
               "capacity": 2, "timing": {"T": 4}, "bribes": {"br": 2},
               "miners": [{"id": "m1", "power": 1, "kind": "active",
                           "colluding": True}],
               "policies": {"bob": {"name": "hydra-briber"},
                            "miners": {"m1": {"name": "hydra-accomplice"}}}}
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["simulate", "--scenario", str(path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("capacity", [1, 2, 3])
    def test_mad_attack_pool_plays_at_small_capacity(self, capacity):
        # Each attacker mines against an honest miner over every schedule.
        miners = (MinerProfile(M1, Fraction(1, 2), "active", True),
                  MinerProfile(M2, Fraction(1, 2), "active", True))
        scen = mad_scenario(T=4, br=2, epsilon=5, capacity=capacity,
                            miners=miners)
        bobs = [BobNaiveBriber(), BobB3a(case=1), BobB3a(case=2),
                BobHydraBriber()]
        attackers = [B3aAccomplice(case=1), B3aAccomplice(case=2),
                     HydraAccomplice(), SdrbaBriber()]
        for bob in bobs:
            for attacker in attackers:
                profile = StrategyProfile(AliceHonest(), bob, {
                    M1: attacker, M2: HonestFeeMax()})
                expected_utilities(scen, profile)
            out = play(scen, StrategyProfile(AliceHonest(), bob, {
                M1: HydraAccomplice(), M2: HydraAccomplice()}),
                flat_schedule(scen))
            assert out.conserves()


class TestAttackBlocksSpendOpenContracts:
    """A bespoke attack block that spends a contract no longer open is not
    mined: the policy builds its ordinary block instead."""

    @pytest.mark.parametrize("bob,attacker", [
        (BobB3a(case=1), B3aAccomplice(case=1)),
        (BobB3a(case=2), B3aAccomplice(case=2)),
        (BobHydraBriber(), HydraAccomplice())],
        ids=["b3a-case-1", "b3a-case-2", "hydra"])
    def test_a_redeemed_collateral_gives_way_to_the_ordinary_block(
            self, bob, attacker):
        # The lone miner's own blocks fund the briber's budget in round 1
        # and redeem the collateral through col-B at T+1, and then the
        # payee's reveal is broadcast.  The deposit is still open, but
        # each attack block would spend the collateral again (B3a case 1
        # through tx.colB, case 2 and the hydra through col-M), which the
        # ledger refuses.
        scen = mad_scenario()
        state = bob.setup(build_genesis(scen)[0], scen)
        state = apply_block(state, Block(1, M1, (
            state.mempool["tx.cbob.init"],)))
        for rnd in range(2, scen.T + 1):
            state = apply_block(state, Block(rnd, M1, ()))
        state = apply_block(state, Block(scen.T + 1, M1, (tx_col_b(scen),)))
        state = broadcast(state, [tx_reveal_dep_a(scen)])
        assert state.bribery[CBOB_ID].deposit == scen.v_dep
        rnd = scen.T + 2
        block = attacker.build_block(state, rnd, M1, scen)
        assert block == CensorRelated().build_block(state, rnd, M1, scen)
        apply_block(state, block)


class TestProtocolGuards:
    def test_policy_protocol_mismatch_raises(self):
        scen = naive_scenario()
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {M1: M2MbaActive()})
        with pytest.raises(ScenarioError):
            play(scen, profile, flat_schedule(scen))

    def test_factory_rejects_unknown_miner_policy(self):
        with pytest.raises(ValueError):
            make_miner_policy("nope")

    @pytest.mark.parametrize("build,bobs", [
        (naive_scenario, ["honest(reveal=1)", "naive-briber(br=scenario)"]),
        (mad_scenario, ["honest(reveal=1)", "naive-briber(br=scenario)",
                        "b3a(case=1)", "hydra-briber"]),
        (he_scenario, ["honest(reveal=1)"])])
    def test_bob_is_offered_every_briber_valid_for_the_protocol(self, build,
                                                                bobs):
        # The space drops exactly the policies whose protocols exclude the
        # scenario's, so on mad Bob may also weigh B3a and the hydra.
        assert [pol.name for pol in policy_space(build(), "bob")] == bobs



@pytest.mark.parametrize("build", [naive_scenario, mad_scenario, he_scenario,
                                   demba_scenario])
def test_a_censor_keeps_the_protected_transfer_out_until_T(build):
    # The payee's honest transfer is what a censor excludes up to the
    # deadline, on every protocol, and what an honest miner includes.
    scen = build()
    transfer = agents._protected_transfer(scen)
    state = seeded_state(scen, [transfer])
    censored = CensorRelated(participate=False).build_block(
        state, scen.T, M1, scen)
    honest = HonestFeeMax().build_block(state, scen.T, M1, scen)
    assert transfer not in censored.txs and transfer in honest.txs
#: Per protocol, the policies that `game._check_profile` admits for each
#: role, by the names scenario files use, and the spaces `policy_space`
#: offers alice, bob, a pact member (m1) and a passive miner (m2).
_HTLC_ALICE = ["honest(t_pub=scenario)", "offline-then-refund"]
ADMISSION = {
    "naive": (
        {"alice": ["honest", "offline-then-refund", "censored-fallback"],
         "bob": ["honest", "naive-briber"],
         "miner": ["honest-fee-max", "censor-related"]},
        {"alice": _HTLC_ALICE,
         "bob": ["honest(reveal=1)", "naive-briber(br=scenario)"],
         "m1": ["honest-fee-max", "censor-related"],
         "m2": ["honest-fee-max", "censor-related"]}),
    "mad": (
        {"alice": ["honest", "offline-then-refund", "censored-fallback"],
         "bob": ["honest", "naive-briber", "b3a", "hydra-briber"],
         "miner": ["honest-fee-max", "censor-related", "m2mba-passive",
                   "b3a-accomplice", "sdrba-briber", "hydra-accomplice"]},
        {"alice": _HTLC_ALICE,
         "bob": ["honest(reveal=1)", "naive-briber(br=scenario)",
                 "b3a(case=1)", "hydra-briber"],
         "m1": ["honest-fee-max", "censor-related"],
         "m2": ["honest-fee-max", "censor-related"]}),
    "he": (
        {"alice": ["honest", "offline-then-refund", "censored-fallback"],
         "bob": ["honest"],
         "miner": ["honest-fee-max", "censor-related", "m2mba-active",
                   "m2mba-passive"]},
        {"alice": _HTLC_ALICE,
         "bob": ["honest(reveal=1)"],
         "m1": ["m2mba-active(race)", "m2mba-active(accept)",
                "honest-fee-max", "censor-related(participate=False)"],
         "m2": ["m2mba-passive", "honest-fee-max",
                "censor-related(participate=False)"]}),
    "demba": (
        {"alice": ["honest", "offline-then-refund", "grief-double-reveal",
                   "censored-fallback"],
         "bob": ["honest", "delay"],
         "miner": ["honest-fee-max", "censor-related"]},
        {"alice": ["honest(t_pub=scenario)", "honest(t_pub=2)",
                   "offline-then-refund", "grief-double-reveal",
                   "censored-fallback", "honest(t_pub=3)"],
         "bob": ["honest(reveal=1)", "honest(reveal=3)", "delay(1)",
                 "delay(2)"],
         "m1": ["honest-fee-max", "censor-related(participate=False)"],
         "m2": ["honest-fee-max", "censor-related(participate=False)"]}),
}
_FACTORY_NAMES = {
    "alice": ["honest", "offline-then-refund", "grief-double-reveal",
              "censored-fallback"],
    "bob": ["honest", "delay", "naive-briber", "b3a", "hydra-briber"],
    "miner": list(agents.MINER_POLICIES)}


@pytest.mark.parametrize("protocol", sorted(ADMISSION))
def test_each_protocol_admits_and_offers_its_own_policies(protocol):
    # Widening or narrowing what a policy fits shows here as a changed row.
    build = {"naive": naive_scenario, "mad": mad_scenario,
             "he": he_scenario, "demba": demba_scenario}[protocol]
    scen = build(miners=(MinerProfile(M1, Fraction(1, 2), "active", True),
                         MinerProfile(M2, Fraction(1, 2))))
    admitted, spaces = ADMISSION[protocol]

    def admits(role, pol) -> bool:
        profile = StrategyProfile(
            pol if role == "alice" else AliceHonest(),
            pol if role == "bob" else BobHonest(),
            {M1: pol if role == "miner" else HonestFeeMax(),
             M2: HonestFeeMax()})
        try:
            game._check_profile(scen, profile)
        except ScenarioError:
            return False
        return True

    assert {role: [name for name in names if admits(role, (
        make_miner_policy(name) if role == "miner"
        else make_party_policy(role, name)))]
        for role, names in _FACTORY_NAMES.items()} == admitted

    def shown(pol) -> str:
        quiet = vars(pol).get("participate", True) is False
        return f"{pol.name}(participate=False)" if quiet else pol.name

    assert {getattr(player, "id", player): [
        shown(pol) for pol in policy_space(scen, player)]
        for player in ("alice", "bob", M1, M2)} == spaces
