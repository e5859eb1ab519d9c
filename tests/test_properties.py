"""Property tests over the arithmetic-heavy corners."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from htlc_arena.core import ALICE, BOB, LedgerError, credit, debit
from htlc_arena.contracts import (BriberyCall, CensorBriberyContract,
                                  FeeSchedule, PRE_A, PRE_A2, PRE_AA2, PRE_B,
                                  bribery_contract_step)
from htlc_arena.agents import AliceHonest, BobHonest, HonestFeeMax
from htlc_arena.game import StrategyProfile, play
from htlc_arena.runner import Report

from conftest import M1, flat_schedule, naive_scenario


fees = st.integers(min_value=0, max_value=50)
alphas = st.fractions(min_value=Fraction(1, 20), max_value=Fraction(1),
                      max_denominator=20)


@given(base=fees, alpha=alphas, path=st.sampled_from(
           (PRE_A, PRE_A2, PRE_AA2, PRE_B)),
       t_offset=st.integers(0, 12), T=st.integers(1, 8))
def test_fee_split_conserves_and_burn_is_shaped(base, alpha, path, t_offset,
                                                T):
    # The burn shape `check_fee_schedule` does not re-derive at run time:
    # nothing burns up to T, and the burn never shrinks later.
    sched = FeeSchedule({PRE_A: base, PRE_A2: base + 1, PRE_AA2: base + 2,
                         PRE_B: base + 3}, alpha, T)
    paid = sched.paid[path]
    rnd = T - 1 + t_offset
    earned, burned = sched.split(path, paid, rnd)
    assert earned + burned == paid
    assert 0 <= earned <= paid
    if rnd <= T:
        assert burned == 0
    later_earned, later_burned = sched.split(path, paid, rnd + 1)
    assert later_earned <= earned
    assert later_burned >= burned


@given(start=st.integers(0, 100), amounts=st.lists(st.integers(0, 60),
                                                   max_size=8))
def test_balances_never_go_negative(start, amounts):
    balances = {ALICE: start}
    for a in amounts:
        try:
            debit(balances, ALICE, a)
        except LedgerError:
            pass
        assert balances[ALICE] >= 0
        credit(balances, ALICE, a // 2)
        assert balances[ALICE] >= 0


record_text = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                           exclude_characters="\t#"),
    min_size=1, max_size=12)


@given(st.lists(st.tuples(record_text, record_text, record_text,
                          record_text, record_text),
                min_size=0, max_size=10))
def test_report_records_round_trip(records):
    rep = Report({"subcommand": "x", "seed": 1})
    for metric, party, value, lo, hi in records:
        rep.add(metric, party, value, lo, hi)
    assert Report.parse(rep.render()).records == rep.records


@settings(max_examples=30, deadline=None)
@given(t_pub=st.integers(1, 4), v_dep=st.integers(10, 500),
       f_dep_a=st.integers(1, 9), f=st.integers(0, 0))
def test_honest_exchange_always_pays_the_reveal(t_pub, v_dep, f_dep_a, f):
    scen = naive_scenario(v_dep=v_dep, T=5, t_pub=t_pub, f=f,
                          f_dep_a=f_dep_a)
    profile = StrategyProfile(AliceHonest(), BobHonest(),
                              {M1: HonestFeeMax()})
    out = play(scen, profile, flat_schedule(scen), check_invariants=True)
    assert out.delta(ALICE) == v_dep - f_dep_a
    assert out.terminal == "dep-A"
    assert out.conserves()


class _View:
    def __init__(self, miner):
        self._miner = miner

    def block_miner(self):
        return self._miner

    def target_included_ever(self):
        return False

    def target_included_by_deadline(self):
        return False

    def settlement_landed(self):
        return True

    def confiscator(self):
        return None

    def attack_window_over(self):
        return False


@given(calls=st.lists(st.sampled_from(["requestBribe", "claimBribe",
                                       "refundToBob"]),
                      min_size=1, max_size=12),
       br=st.integers(1, 9), budget=st.integers(0, 80))
def test_bribery_step_dispatch_never_overpays(calls, br, budget):
    contract = CensorBriberyContract(BOB, br, T=6, pre_a_value="s-a")
    view = _View(M1)
    bribery_contract_step(contract, BriberyCall("init", BOB, {"val": budget}),
                          0, view)
    paid = 0
    for rnd, method in enumerate(calls, start=1):
        args = {"preimage": "s-a"} if method == "claimBribe" else {}
        payouts = bribery_contract_step(
            contract, BriberyCall(method, M1, args), rnd, view)
        paid += sum(amount for _, amount, _ in payouts)
        assert contract.bal_left >= 0
    assert paid <= budget
