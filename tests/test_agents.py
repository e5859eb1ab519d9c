"""Policy behaviour: selection rules, attack phases, acceptance predicates."""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from htlc_arena.core import ALICE, BOB, ScenarioError
from htlc_arena.agents import (AliceHonest, B3aAccomplice, BlockPlan,
                               BobB3a, BobHonest, BobHydraBriber,
                               BobNaiveBriber, CensorRelated, HonestFeeMax,
                               HydraAccomplice, M2MbaActive, M2MbaPassive,
                               SdrbaBriber, b3a_bob_policy,
                               honest_miner_select, make_miner_policy,
                               make_party_policy, tx_col_b, tx_commit,
                               tx_confiscate, tx_refund_dep_b,
                               tx_reveal_dep_a)
from htlc_arena.contracts import CM2M_ID, COL_B, COL_ID, COL_M, PRE_A2
from htlc_arena.game import (MinerProfile, Schedule, StrategyProfile,
                             build_genesis, expected_utilities, play)
from htlc_arena.ledger import (CONTRACT_CALL, Block, TxRecord, apply_block,
                               broadcast)
from htlc_arena.runner import main

from conftest import (M1, M2, demba_scenario, flat_schedule, he_scenario,
                      mad_scenario, naive_scenario, solo_miner)


def seeded_state(scen, txs=()):
    state, _, _ = build_genesis(scen)
    return broadcast(state, list(txs))


class TestHonestSelect:
    def test_greedy_prefers_related_over_fill(self):
        scen = naive_scenario(f=1, f_dep_a=3)
        state = seeded_state(scen, [tx_reveal_dep_a(scen)])
        picked = honest_miner_select(state, 2, M1, scen)
        assert [t.tx_id for t in picked] == ["tx.depA"]

    def test_empty_mempool_leaves_only_fill(self):
        scen = naive_scenario()
        state = seeded_state(scen)
        assert honest_miner_select(state, 1, M1, scen) == []

    def test_equal_fee_breaks_ties_by_tx_id(self):
        scen = naive_scenario(f=1)
        state = seeded_state(scen)
        a = TxRecord("tx.b-second", ALICE, "unrelated", declared_fee=4)
        b = TxRecord("tx.a-first", BOB, "unrelated", declared_fee=4)
        state = broadcast(state, [a, b])
        picked = honest_miner_select(state, 1, M1, scen)
        assert [t.tx_id for t in picked] == ["tx.a-first", "tx.b-second"]

    def test_fee_at_or_below_unrelated_not_taken(self):
        scen = naive_scenario(f=3, f_dep_a=3)
        state = seeded_state(scen, [tx_reveal_dep_a(scen)])
        assert honest_miner_select(state, 2, M1, scen) == []

    def test_swap_optimality_within_block(self):
        # No single included/excluded swap can raise the earned fee.
        scen = naive_scenario(f=1, capacity=3)
        state = seeded_state(scen)
        txs = [TxRecord(f"tx.u{i}", ALICE, "unrelated", declared_fee=fee)
               for i, fee in enumerate((5, 4, 3, 2, 9))]
        state = broadcast(state, txs)
        picked = honest_miner_select(state, 1, M1, scen)
        fees = sorted((t.declared_fee for t in picked), reverse=True)
        assert fees == [9, 5, 4]


    def test_late_scheduled_fee_counts_what_the_miner_earns(self):
        # pre_A' pays 12: earned 6 one round late, 1 three rounds late.
        scen = demba_scenario(T=4, f=2)
        state = seeded_state(scen, [tx_commit(scen, PRE_A2)])
        assert honest_miner_select(state, scen.T + 1, M1, scen) == [
            state.mempool[f"tx.col.{PRE_A2}"]]
        assert honest_miner_select(state, scen.T + 3, M1, scen) == []


class TestBlockAssembly:
    def test_full_block_drops_the_tail_first(self):
        # Head: the payer's refund; body: a high-fee transfer; tail: the
        # censorship-bribe claim.  A block with room for two drops the claim.
        scen = naive_scenario(T=3, capacity=3)
        profile = StrategyProfile(AliceHonest(), BobNaiveBriber(),
                                  {M1: CensorRelated()})
        state, _, _ = build_genesis(scen)
        state = profile.bob.setup(state, scen, profile)
        state = apply_block(state, Block(round=1, miner=M1, txs=(
            state.mempool["tx.cbob.init"],)))
        for rnd in range(2, scen.T + 1):
            state = apply_block(state, Block(round=rnd, miner=M1))
        state = broadcast(state, [
            tx_reveal_dep_a(scen), tx_refund_dep_b(scen),
            TxRecord("tx.u", ALICE, "unrelated", declared_fee=9)])
        rnd = scen.T + 1
        roomy = CensorRelated().build_block(state, rnd, M1, scen, profile)
        assert [t.tx_id for t in roomy.txs] == [
            "tx.depB", "tx.u", f"tx.cbob.claim.{rnd}"]
        tight = replace(scen, capacity=2)
        full = CensorRelated().build_block(state, rnd, M1, tight, profile)
        assert [t.tx_id for t in full.txs] == ["tx.depB", "tx.u"]


class TestPactAutoRefund:
    """The ledger returns the pact locks in the block the claim dies."""

    def funded(self):
        miners = (MinerProfile(M1, Fraction(1, 2), "active", True),
                  MinerProfile(M2, Fraction(1, 2), "passive"))
        scen = he_scenario(miners=miners, T=4, l=2, br=2, f=0)
        state, _, _ = build_genesis(scen)
        state = M2MbaActive().setup(state, scen, None, M1)
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
        take = tx_confiscate(state, scen, confiscator, COL_ID, COL_M)
        state = apply_block(state, Block(round=scen.T + 2, miner=confiscator,
                                         txs=(take,)))
        assert state.redemptions[COL_ID] == (COL_M, scen.T + 2, confiscator)
        member = confiscator == M1
        assert state.bribery[CM2M_ID].settled is not member
        assert state.bribe_log == ([] if member
                                   else [(M1, scen.v_col, "refund")])


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
        plan1 = miner.build_block(state, 1, M1, scen, None)
        plan2 = miner.build_block(state, 1, M1, scen, None)
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
        state = profile.miners[M1].setup(state, scen, profile, M1)
        state = profile.miners[M2].setup(state, scen, profile, M2)
        state = broadcast(state, [tx_reveal_dep_a(scen)])
        plan = profile.miners[M1].build_block(state, 2, M1, scen, profile)
        ids = [t.tx_id for t in plan.txs]
        assert "tx.depA" not in ids
        assert any(i.startswith("tx.cm2m.req") for i in ids)

    def test_idle_round_emits_no_pact_calls(self):
        scen = self.scen()
        profile = StrategyProfile(AliceHonest(), BobHonest(),
                                  {M1: M2MbaActive(), M2: M2MbaActive()})
        state, _, _ = build_genesis(scen)
        state = profile.miners[M1].setup(state, scen, profile, M1)
        # Nothing broadcast yet: nothing to censor, no reservation to make.
        plan = profile.miners[M1].build_block(state, 1, M1, scen, profile)
        assert plan.txs == []

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
        state = profile.bob.setup(state, scen, profile)
        state = broadcast(state, [tx_reveal_dep_a(scen)])
        for rnd in range(1, scen.T + 1):
            plan = acc.build_block(state, rnd, M1, scen, profile)
            from htlc_arena.ledger import Block, apply_block
            block = Block(round=rnd, miner=M1, txs=tuple(plan.txs),
                          capacity=scen.capacity)
            state = apply_block(state, block)
        plan = acc.build_block(state, scen.T + 1, M1, scen, profile)
        assert b3a_bob_policy(plan, scen, case=1)
        assert not b3a_bob_policy(plan, scen, case=2)
        stripped = BlockPlan(plan.txs, coinbase=())
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
