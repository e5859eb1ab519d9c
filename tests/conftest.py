"""Shared scenario builders for the test suite."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from htlc_arena import game
from htlc_arena.core import miner_party
from htlc_arena.contracts import FeeSchedule, PRE_A, PRE_A2, PRE_AA2, PRE_B
from htlc_arena.game import MinerProfile, Scenario, Schedule

M1 = miner_party("m1")
M2 = miner_party("m2")
M3 = miner_party("m3")
M4 = miner_party("m4")


def solo_miner(kind="passive", colluding=False):
    return (MinerProfile(M1, Fraction(1), kind, colluding),)


def naive_scenario(v_dep=100, T=5, t_pub=1, br=2, f=1, f_dep_a=3, f_dep_b=1,
                   f_cbob_b=1, miners=None, **kw):
    return Scenario(protocol="naive", v_dep=v_dep, T=T, t_pub=t_pub, br=br,
                    f=f, f_dep_a=f_dep_a, f_dep_b=f_dep_b, f_cbob_b=f_cbob_b,
                    miners=miners or solo_miner(), **kw)


def mad_scenario(v_dep=100, v_col=50, T=5, t_pub=1, br=2, f=0, f_dep_a=3,
                 f_dep_b=1, f_col_b=2, f_cbob_b=1, miners=None, **kw):
    return Scenario(protocol="mad", v_dep=v_dep, v_col=v_col, T=T, t_pub=t_pub,
                    br=br, f=f, f_dep_a=f_dep_a, f_dep_b=f_dep_b,
                    f_col_b=f_col_b, f_cbob_b=f_cbob_b,
                    miners=miners or solo_miner("active", True), **kw)


def he_scenario(v_dep=100, v_col=50, T=5, t_pub=1, l=2, br=2, f=0, f_dep_a=3,
                f_dep_b=2, f_col_b=2, miners=None, **kw):
    return Scenario(protocol="he", v_dep=v_dep, v_col=v_col, T=T, t_pub=t_pub,
                    l=l, br=br, f=f, f_dep_a=f_dep_a, f_dep_b=f_dep_b,
                    f_col_b=f_col_b, miners=miners or solo_miner(), **kw)


def demba_schedule(T, pre_a=8, pre_a2=12, pre_aa2=20, pre_b=8, alpha=None):
    return FeeSchedule({PRE_A: pre_a, PRE_A2: pre_a2, PRE_AA2: pre_aa2,
                        PRE_B: pre_b}, alpha or Fraction(1, 2), T)


def demba_scenario(v_dep=100, v_col_a=50, v_col_b=40, v_ded=7, T=4, t_pub=1,
                   f=0, horizon=8, schedule=None, miners=None, **kw):
    return Scenario(protocol="demba", v_dep=v_dep, v_col_a=v_col_a,
                    v_col_b=v_col_b, v_ded=v_ded, T=T, t_pub=t_pub, f=f,
                    horizon=horizon,
                    fee_schedule=schedule or demba_schedule(T),
                    miners=miners or solo_miner(), **kw)


def monte_carlo(scen, trials, seed=None):
    """`scen` in Monte-Carlo mode with `trials` trials and, if given, `seed`."""
    return replace(scen, mode=("monte-carlo", trials),
                   seed=scen.seed if seed is None else seed)


def flat_schedule(scen, miner=M1):
    return Schedule((miner,) * scen.horizon)


#: A chain state's parts, in `ChainState.__slots__` order.
PARTS = ("balances", "live", "revealed", "mempool", "mint_log", "bribe_log",
         "redemptions", "contracts", "known", "bribery")


def state_identity(state):
    """The whole of a chain state, read from its part contents and not from
    any key it caches: two states of one game are equal exactly when these
    are.  Within one game a transaction id names its content, contracts
    change only in status, and a bribery contract's `key` holds every field
    a step changes."""
    return (state.height, state.burned,
            *(frozenset(getattr(state, name).items()) for name in (
                "balances", "live", "revealed", "redemptions", "known")),
            tuple(state.mint_log), tuple(state.bribe_log),
            frozenset(state.mempool),
            frozenset((cid, c.status) for cid, c in state.contracts.items()),
            frozenset((cid, c.key()) for cid, c in state.bribery.items()))


def play_settlement(out):
    """A play's final control key with what its outcome settles: each
    party's delta, the burned total and the censor-bribe income."""
    return (out.state.control_key(), frozenset(out.deltas.items()),
            out.burned, frozenset(out.bribe_income.items()))


def frontier_settlements(scen, frontier):
    """Each final payoff group's key as `play_settlement` keys a play,
    with the group's integer mass, summed over equal keys."""
    entries, _, payoffs = frontier
    got = Counter()
    for control, groups in entries:
        confiscator = game._split_confiscator(scen, control)
        for payoff, m in groups.items():
            deltas, burned, income = payoffs.settle(scen, confiscator, payoff)
            got[control.control_key(), frozenset(zip(payoffs.parties, deltas)),
                burned, frozenset(income.items())] += m
    return got


def same_parts(before, after):
    """`after` holds each of `before`'s parts, the same objects, and its
    burned total: the step between them wrote nothing."""
    return after.burned == before.burned and all(
        getattr(after, name) is getattr(before, name) for name in PARTS)


@pytest.fixture
def m1():
    return M1
