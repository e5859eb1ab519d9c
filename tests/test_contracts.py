"""Contract builders, the fee split, deposit auto-resolution, bribery steps."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from htlc_arena.core import ALICE, BOB, ContractError, miner_party
from htlc_arena.contracts import (CensorBriberyContract, COL_A_ID, COL_B,
                                  COL_B_ID, COL_M, DEP_A, DEP_B, DEP_BURN,
                                  DEP_M, FeeError, FeeSchedule,
                                  MinerPactContract, PRE_A, PRE_A2, PRE_AA2,
                                  PRE_B, build_demba, build_he_htlc,
                                  build_mad_htlc, build_naive_htlc,
                                  check_fee_schedule, derive_he_delay,
                                  resolve_demba_dep)

from conftest import M1, demba_schedule

DIGESTS = {PRE_A: "s-a", PRE_A2: "s-a2", PRE_B: "s-b"}


class TestBuilders:
    def test_naive_paths_and_windows(self):
        c = build_naive_htlc(ALICE, BOB, 100, "s-a", T=10)
        a = c.path(DEP_A)
        assert a.required_preimages == {PRE_A}
        assert a.in_window(3) and a.in_window(10) and not a.in_window(11)
        b = c.path(DEP_B)
        assert not b.in_window(10) and b.in_window(11)

    def test_naive_rejects_nonpositive(self):
        with pytest.raises(ContractError):
            build_naive_htlc(ALICE, BOB, 0, "s-a", 5)
        with pytest.raises(ContractError):
            build_naive_htlc(ALICE, BOB, 10, "s-a", 0)

    def test_mad_shapes(self):
        dep, col = build_mad_htlc(ALICE, BOB, 100, 40, DIGESTS, T=5)
        assert {p.name for p in dep.paths} == {DEP_A, DEP_B, DEP_M}
        assert {p.name for p in col.paths} == {COL_B, COL_M}
        assert dep.path(DEP_M).required_preimages == {PRE_A, PRE_B}
        assert col.path(COL_M).in_window(1)  # confiscation has no window
        with pytest.raises(ContractError):
            build_mad_htlc(ALICE, BOB, 100, 0, DIGESTS, T=5)

    def test_he_requires_delay(self):
        with pytest.raises(ContractError):
            build_he_htlc(ALICE, BOB, 100, 40, DIGESTS, T=5, l=0)
        dep, col = build_he_htlc(ALICE, BOB, 100, 40, DIGESTS, T=5, l=3)
        assert dep.deposit == 140
        assert col.path(COL_B).earliest == 5 + 3 + 1
        assert dep.path(DEP_B).required_preimages == {PRE_B}

    def test_he_delay_derivation(self):
        # kappa = v_dep/(v_col - f) + 1, l = ceil(kappa)
        assert derive_he_delay(10, 10, 0) == 2
        assert derive_he_delay(20, 10, 0) == 3
        assert derive_he_delay(40, 10, 0) == 5
        assert derive_he_delay(40, 11, 1) == 5
        with pytest.raises(ContractError):
            derive_he_delay(10, 1, 1)

    def test_demba_requires_valid_schedule_and_penalty(self):
        with pytest.raises(ValueError):
            build_demba(ALICE, BOB, 100, 50, 40, -1, DIGESTS, 4,
                        demba_schedule(4))
        bad = FeeSchedule({PRE_A: 3, PRE_A2: 3, PRE_AA2: 5, PRE_B: 2},
                          Fraction(1, 2), 4)
        with pytest.raises(ContractError):
            build_demba(ALICE, BOB, 100, 50, 40, 7, DIGESTS, 4, bad)

    def test_demba_deposit_is_auto_only(self):
        dep, col_a, col_b = build_demba(ALICE, BOB, 100, 50, 40, 7, DIGESTS, 4,
                                        demba_schedule(4))
        assert all(p.auto_only for p in dep.paths)
        assert {p.name for p in col_a.paths} == {PRE_A, PRE_A2, PRE_AA2}
        assert col_b.path(PRE_B).late_burn == (4, 7)


class TestDembaResolution:
    T = 4

    def build(self):
        return build_demba(ALICE, BOB, 100, 50, 40, 7, DIGESTS, self.T,
                           demba_schedule(self.T))

    def test_to_alice_fires_once_both_sides_commit(self):
        dep, _, _ = self.build()
        slots = {COL_A_ID: {PRE_A}}
        assert resolve_demba_dep(dep, slots, 5) is None
        slots[COL_B_ID] = {PRE_B}
        assert resolve_demba_dep(dep, slots, 5).name == DEP_A

    def test_to_bob_after_deadline(self):
        dep, _, _ = self.build()
        slots = {COL_A_ID: {PRE_A2}, COL_B_ID: {PRE_B}}
        assert resolve_demba_dep(dep, slots, self.T) is None
        assert resolve_demba_dep(dep, slots, self.T + 2).name == DEP_B

    def test_double_reveal_burns_regardless_of_payer(self):
        dep, _, _ = self.build()
        slots = {COL_A_ID: {PRE_A, PRE_A2}}
        assert resolve_demba_dep(dep, slots, self.T + 1).name == DEP_BURN
        slots[COL_B_ID] = {PRE_B}
        assert resolve_demba_dep(dep, slots, self.T + 1).name == DEP_BURN

    def test_exclusivity_over_all_reveal_subsets(self):
        # The eight subsets x pre/post deadline: never more than one path.
        dep, _, _ = self.build()
        for a_bits in itertools.product([False, True], repeat=2):
            for b_bit in (False, True):
                a_slots = {s for s, bit in zip((PRE_A, PRE_A2), a_bits) if bit}
                slots = {COL_A_ID: a_slots,
                         COL_B_ID: {PRE_B} if b_bit else set()}
                for rnd in (self.T, self.T + 1, self.T + 5):
                    matches = [p.name for p in dep.paths if p.auto_only
                               and resolve_demba_dep(dep, slots, rnd) is p]
                    assert len(matches) <= 1
                    got = resolve_demba_dep(dep, slots, rnd)
                    if a_bits == (True, True) and rnd > self.T:
                        assert got.name == DEP_BURN
                    elif a_bits == (True, False) and b_bit:
                        assert got.name == DEP_A
                    elif a_bits == (False, True) and b_bit and rnd > self.T:
                        assert got.name == DEP_B
                    elif a_bits == (True, False) and not b_bit:
                        assert got is None

    def test_redeemed_deposit_never_resolves_again(self):
        dep, _, _ = self.build()
        dep.status = ("redeemed", DEP_A)
        slots = {COL_A_ID: {PRE_A, PRE_A2}, COL_B_ID: {PRE_B}}
        assert resolve_demba_dep(dep, slots, self.T + 1) is None


class TestFeeSplit:
    def schedule(self):
        return FeeSchedule({PRE_A: 8, PRE_A2: 12, PRE_AA2: 20, PRE_B: 6},
                           Fraction(1, 2), T=5)

    def test_full_fee_before_deadline(self):
        assert self.schedule().split(PRE_B, 6, 4) == (6, 0)
        assert self.schedule().split(PRE_A, 8, 5) == (8, 0)

    def test_decay_after_deadline(self):
        # alpha = 1/2, base 8, two rounds late: floor(8/4) = 2 earned.
        assert self.schedule().split(PRE_A, 8, 7) == (2, 6)

    def test_zero_fee_stays_zero(self):
        sched = FeeSchedule({PRE_A: 0, PRE_A2: 12, PRE_AA2: 20, PRE_B: 6},
                            Fraction(1, 2), T=5)
        assert sched.split(PRE_A, 0, 9) == (0, 0)

    def test_fee_mismatch(self):
        with pytest.raises(FeeError):
            self.schedule().split(PRE_A, 7, 3)


class TestFeeScheduleCheck:
    def invalid(self, sched) -> str:
        with pytest.raises(ContractError) as e:
            check_fee_schedule(sched)
        assert e.value.field == "fee_schedule"
        assert str(e.value).startswith("invalid fee schedule (Eq.1/Eq.2): ")
        return str(e.value)

    def test_reference_schedule_is_valid(self):
        sched = FeeSchedule({PRE_A: 2, PRE_A2: 3, PRE_AA2: 5, PRE_B: 2},
                            Fraction(1, 2), T=4)
        check_fee_schedule(sched)

    def test_equal_paid_breaks_strictness(self):
        sched = FeeSchedule({PRE_A: 3, PRE_A2: 3, PRE_AA2: 5, PRE_B: 2},
                            Fraction(1, 2), T=4)
        assert "paid ordering" in self.invalid(sched)

    def test_no_decay_is_accepted(self):
        # alpha = 1 voids the deterrent but is a valid schedule.
        sched = FeeSchedule({PRE_A: 2, PRE_A2: 3, PRE_AA2: 5, PRE_B: 2},
                            Fraction(1), T=4)
        check_fee_schedule(sched)

    def test_decayed_earned_must_reverse_order(self):
        # alpha too close to 1: paid[pre_A] < alpha * paid[pre_A'].
        sched = FeeSchedule({PRE_A: 2, PRE_A2: 3, PRE_AA2: 5, PRE_B: 2},
                            Fraction(9, 10), T=4)
        assert "earned ordering" in self.invalid(sched)

    def test_burn_zero_pre_deadline_monotone_after(self):
        sched = FeeSchedule({PRE_A: 8, PRE_A2: 12, PRE_AA2: 20, PRE_B: 6},
                            Fraction(1, 2), T=5)
        for path, paid in sched.paid.items():
            prev = 0
            for rnd in range(0, 12):
                _, burned = sched.split(path, paid, rnd)
                if rnd <= 5:
                    assert burned == 0
                assert burned >= prev
                prev = burned


class _View:
    """Hand-steered chain answers for unit-level bribery steps."""

    def __init__(self, miner, included=False, settled=False, confiscator=None,
                 window_over=False):
        self._miner = miner
        self._included = included
        self._settled = settled
        self._confiscator = confiscator
        self._over = window_over

    def block_miner(self):
        return self._miner

    def target_included_by_deadline(self):
        return self._included

    def target_included_ever(self):
        return self._included

    def settlement_landed(self):
        return self._settled

    def confiscator(self):
        return self._confiscator

    def attack_window_over(self):
        return self._over


class TestCensorBriberyContract:
    def miners(self, n=4):
        return [miner_party(f"c{i}") for i in range(n)]

    def test_full_flow_pays_every_censor_and_refunds_rest(self):
        c = CensorBriberyContract(BOB, br=2, T=5, pre_a_value="s-a")
        c.init(100)
        miners = self.miners(4)
        for rnd, m in enumerate(miners, start=2):
            assert c.request_bribe(m, m, rnd)
        payouts = c.claim_bribe(miners[0], "s-a", target_included=False,
                                settlement_landed=True)
        got: dict = {}
        for p, a, _ in payouts:
            got[p] = got.get(p, 0) + a
        for m in miners[1:]:
            assert got[m] == 2
        assert got[miners[0]] == 2 + 2  # own reservation plus caller bonus
        assert got[BOB] == 100 - 5 * 2
        assert sum(a for _, a, _ in payouts) == 100
        assert c.pool_total() == 0

    def test_wrong_preimage_is_silent_noop(self):
        c = CensorBriberyContract(BOB, br=2, T=5, pre_a_value="s-a")
        c.init(100)
        c.request_bribe(M1, M1, 2)
        before = (c.bal_left, dict(c.reserved), c.settled)
        assert c.claim_bribe(M1, "nope", False, True) == []
        assert (c.bal_left, c.reserved, c.settled) == before

    def test_request_guards(self):
        c = CensorBriberyContract(BOB, br=10, T=3, pre_a_value="s-a")
        c.init(25)
        other = miner_party("other")
        assert not c.request_bribe(M1, other, 2)  # not the block miner
        assert c.request_bribe(M1, M1, 2)
        assert not c.request_bribe(M1, M1, 2)  # once per block
        assert c.request_bribe(M1, M1, 3)
        assert not c.request_bribe(M1, M1, 4)  # past the deadline
        assert c.bal_left == 5
        assert not c.request_bribe(M1, M1, 3)  # cannot reserve beyond budget

    def test_liquidity_under_random_call_sequences(self):
        rng = random.Random(42)
        miners = self.miners(3)
        for _ in range(300):
            c = CensorBriberyContract(BOB, br=rng.randint(1, 9), T=6,
                                      pre_a_value="s-a")
            deposit = rng.randint(0, 60)
            c.init(deposit)
            paid_out = 0
            for rnd in range(1, 10):
                m = rng.choice(miners)
                c.request_bribe(m, m, rnd)
                assert c.bal_left >= 0
                if rng.random() < 0.3:
                    payouts = c.claim_bribe(
                        m, rng.choice(["s-a", "zz"]), rng.random() < 0.2,
                        rng.random() < 0.8)
                    paid_out += sum(a for _, a, _ in payouts)
            assert paid_out <= deposit


class TestMinerPactContract:
    def test_claim_pays_reservations_from_confiscator_stake(self):
        a, b = miner_party("a"), miner_party("b")
        c = MinerPactContract(T=5, pre_a_value="s-a", br={a: 2, b: 2})
        c.lock_collateral(a, 50)
        c.lock_collateral(b, 50)
        c.request_bribe(a, a, 2)
        c.request_bribe(b, b, 3)
        c.request_bribe(b, b, 4)
        payouts = c.claim_bribe(b, "s-a", target_included_by_T=False,
                                confiscator=b)
        got: dict = {}
        for p, amount, _ in payouts:
            got[p] = got.get(p, 0) + amount
        # b pays 3 reservations (2 own) plus its own caller bonus out of its
        # 50 lock, then both locks return.
        assert got[a] == 2 + 50
        assert got[b] == 4 + 2 + (50 - 6 - 2)
        assert sum(got.values()) == 100
        assert c.pool_total() == 0 and c.settled

    def test_claim_blocked_for_outside_confiscator(self):
        a = miner_party("a")
        outsider = miner_party("x")
        c = MinerPactContract(T=5, pre_a_value="s-a", br={a: 2})
        c.lock_collateral(a, 50)
        c.request_bribe(a, a, 2)
        assert c.claim_bribe(a, "s-a", False, confiscator=outsider) == []
        assert not c.settled

    def test_refund_returns_all_locks(self):
        a, b = miner_party("a"), miner_party("b")
        c = MinerPactContract(T=5, pre_a_value="s-a", br={a: 2, b: 2})
        c.lock_collateral(a, 50)
        c.lock_collateral(b, 50)
        out = c.refund_all()
        assert {(p, amt) for p, amt, _ in out} == {(a, 50), (b, 50)}
        assert c.pool_total() == 0


def test_single_redemption_status_transitions():
    c = build_naive_htlc(ALICE, BOB, 100, "s-a", 5)
    assert c.redeemable
    c.status = ("redeemed", DEP_A)
    assert not c.redeemable
