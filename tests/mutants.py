"""Kept mutants: shortcuts of the engine and rules of the protocols, each
broken on purpose, and the tests that must kill them.

    python tests/mutants.py [mutant-id ...]

A mutant rewrites one exact snippet of one file.  The runner applies each
named mutant (every one by default) in a temporary copy of the repository
and runs the tests named for it there, one pytest process each; every one
of them must fail (`outcome`: only pytest's exit 1 is a kill, and a run
that found or collected no test is an error).  An equivalent mutant names
no test but the argument why no play can tell it apart, and is not run.
The runner prints one line per mutant and exits 1 if any test survived or
any run was an error.  The file name keeps it out
of the repository's own test collection; `test_mutants.py` checks that
every snippet still matches its file exactly once, so a mutant cannot go
stale unnoticed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    id: str
    file: str  # relative to the repository root
    old: str  # the snippet, which must occur in `file` exactly once
    new: str  # what the mutant puts in its place
    killers: tuple  # pytest node ids, each of which must fail
    equivalent: str = ""  # why no test can kill it, for a mutant with none


GAME = "src/htlc_arena/game.py"
ANALYSIS = "src/htlc_arena/analysis.py"
AGENTS = "src/htlc_arena/agents.py"
CONTRACTS = "src/htlc_arena/contracts.py"
LEDGER = "src/htlc_arena/ledger.py"
RUNNER = "src/htlc_arena/runner.py"

MUTANTS = (
    # A verdict's passes share a step of one miner whatever its policy.
    Mutant("cache-key-without-round-key", GAME,
           "cache_key = None if built is None else (keys[miner], miner)",
           "cache_key = None if built is None else (None, miner)",
           ("tests/test_analysis.py::TestM2MbaLemmas::"
            "test_lemma4_deferral_strictly_decays",
            "tests/test_golden.py::"
            "test_report_bytes_match_golden[he_m2mba.lemmas]")),
    # Any miner of a round key takes another's stored step.
    Mutant("cache-key-without-miner", GAME,
           "done = None if cache_key is None else built.get(cache_key)",
           "done = None if cache_key is None else built.get(cache_key) "
           "or next(\n"
           "            (step for (k, _), step in built.items()\n"
           "             if k == cache_key[0]), None)",
           ("tests/test_analysis.py::"
            "test_step_memo_leaves_every_verdict_as_fresh_passes_give_it",
            "tests/test_analysis.py::TestM2MbaLemmas::"
            "test_lemma4_deferral_strictly_decays",
            "tests/test_golden.py::"
            "test_report_bytes_match_golden[he_m2mba.lemmas]")),
    Mutant("no-label-rule", GAME,
           '    if rank < prev_rank and label in ("red", "all-red"):\n'
           '        raise ScenarioError(f"state label regressed to {label} '
           'at {rnd}")\n',
           "",
           ("tests/test_game.py::TestExpectations::"
            "test_exact_expectation_checks_label_order",
            "tests/test_game.py::TestRoundHalves::"
            "test_merged_predecessors_keep_the_higher_label_rank")),
    # A verdict's passes cache no step, as a pass without a memo does, so
    # a later pass of the verdict builds every step again.
    Mutant("memo-left-unread", GAME,
           "built = None if memo is None else built_at.setdefault(key, {})",
           "built = None",
           ("tests/test_analysis.py::TestM2MbaLemmas::"
            "test_a_verdict_builds_each_step_once",)),
    # Mined states that reach different control states merge once their
    # parties have acted: the frontier keeps one entry.
    Mutant("frontier-merges-every-state", GAME,
           "            key = nxt.control_key()\n"
           "            entry = frontier.get(key)\n",
           "            key = None\n"
           "            entry = frontier.get(key)\n",
           ("tests/test_differential.py::"
            "test_merged_expectation_equals_brute_force",)),
    # A payoff group takes a step whatever its balance, so a group that
    # cannot fund a draw reaches a payoff no play reaches.
    Mutant("payoff-draw-unchecked", GAME,
           "if self.start[i] + vec[i] < draw:",
           "if False:",
           ("tests/test_game.py::TestBalanceChecks::"
            "test_one_overdrawn_group_raises_the_ledgers_error",)),
    # A merged control state keeps the label rank of its first arrival.
    Mutant("enter-keeps-first-rank", GAME,
           "    elif rank > entry[1]:\n"
           "        entry[1] = rank\n",
           "",
           ("tests/test_game.py::TestRoundHalves::"
            "test_merged_predecessors_keep_the_higher_label_rank",)),
    # A merging pass enters a mined state that holds more or fewer tokens
    # than the setup state.
    Mutant("enter-skips-conservation", GAME,
           "    if nxt.conservation_total() != total:\n"
           '        raise ScenarioError(f"conservation violated at round '
           '{rnd}")\n',
           "",
           ("tests/test_game.py::TestExpectations::"
            "test_exact_expectation_checks_conservation[two-miners]",)),
    # A walk goes on from a mined state that holds more or fewer tokens
    # than the setup state.
    Mutant("walk-skips-conservation", GAME,
           "if state.conservation_total() != expected_total:",
           "if False:",
           ("tests/test_game.py::TestTtcWalk::test_it_checks_conservation",
            "tests/test_game.py::TestExpectations::"
            "test_exact_expectation_checks_conservation[one-miner]",
            "tests/test_game.py::TestExpectations::"
            "test_exact_expectation_checks_conservation"
            "[one-powered-miner-mc]")),
    # A walk forgets the label rank each round reached, so a label may
    # fall back to red.
    Mutant("walk-forgets-label-rank", GAME,
           "state, _, rank = _act(scen, profile, state, rnd, rank)",
           "state = _act(scen, profile, state, rnd, -1)[0]",
           ("tests/test_game.py::TestTtcWalk::test_it_checks_the_label_rule",
            "tests/test_game.py::TestExpectations::"
            "test_exact_expectation_checks_label_order[one-miner]")),
    # A walk lets a step pay a party that held no balance at setup, whose
    # change the walked payoff drops.
    Mutant("walk-pays-a-stranger", GAME,
           "    if len(state.balances) != len(setup.balances):\n"
           '        raise ArenaError("a step paid a party with no balance '
           'at setup")\n'
           "    return setup, baseline, state\n",
           "    return setup, baseline, state\n",
           ("tests/test_game.py::TestTtcWalk::"
            "test_a_party_with_no_setup_balance_fails_the_walk",)),
    # A walked pass counts no censored-window block, so the equal split
    # pays no colluder a share.
    Mutant("walk-skips-window-blocks", GAME,
           "window = Counter(movers[rnd - 1][0] for rnd in payoffs.window)",
           "window = Counter()",
           ("tests/test_differential.py::"
            "test_settlement_examples_reach_what_they_test",)),
    # `ttc` pins its schedule to the first miner, which may have no power
    # and so mine no schedule that a trial draws.
    Mutant("ttc-pins-a-powerless-miner", RUNNER,
           "miner = next(m.party for m in scen.miners if m.power)",
           "miner = scen.miners[0].party",
           ("tests/test_game.py::TestTtcWalk::"
            "test_it_mines_every_round_with_the_first_miner_with_power",)),
    # A verdict's one-mover passes take the merging loop, keying every
    # round for a memo that no later pass of the verdict reads.
    Mutant("memo-blocks-the-walk", GAME,
           "    if all(len(able) == 1 for able in movers):",
           "    if memo is None and all(len(able) == 1 for able in movers):",
           ("tests/test_game.py::TestOneMoverRounds::"
            "test_a_one_miner_verdict_walks_under_its_memo",)),
    # A pass with a one-mover round walks the schedule of each round's
    # first mover, as if no other miner could mine.
    Mutant("walk-with-two-movers", GAME,
           "all(len(able) == 1 for able in movers)",
           "any(len(able) == 1 for able in movers)",
           ("tests/test_differential.py::"
            "test_merged_expectation_equals_brute_force",)),
    # A horizon past a draw's most items is tried, which overflows a
    # list's size instead of ending in one line.
    Mutant("horizon-past-any-draw-tried", GAME,
           "    if scen.horizon > MAX_DRAW_ITEMS:\n"
           "        raise _schedule_too_long(scen)\n",
           "",
           tuple("tests/test_runner.py::test_every_job_refuses_a_horizon_it_"
                 f"cannot_hold[{job}-horizon-past-any-draw]"
                 for job in ("expect", "lemmas"))),
    # A per-round list that cannot be allocated ends in a traceback.
    Mutant("horizon-allocation-uncaught", GAME,
           "    try:\n"
           "        return [item] * scen.horizon\n"
           "    except MemoryError as e:\n"
           "        raise _schedule_too_long(scen) from e\n",
           "    return [item] * scen.horizon\n",
           tuple("tests/test_runner.py::test_every_job_refuses_a_horizon_it_"
                 f"cannot_hold[{job}-horizon-does-not-fit]"
                 for job in ("expect-mc", "dominance"))),
    # Control states that differ only in their mempool merge.
    Mutant("control-key-without-mempool", LEDGER,
           "self.revealed.key(), self.mempool.key(),",
           "self.revealed.key(),",
           ("tests/test_differential.py::"
            "test_settlement_examples_reach_what_they_test",
            "tests/test_differential.py::"
            "test_equal_control_keys_read_alike")),
    # The scenario loader's plain-number shortcut takes any Unicode digit,
    # which `int` and `Fraction` refuse with different messages.
    Mutant("plain-number-without-ascii-test", RUNNER,
           "value.isascii() and ",
           "",
           ("tests/test_runner.py::"
            "test_plain_numbers_parse_as_fraction_does",)),
    # Two miners whose steps reach one state but pay differently are moved
    # whole, so one miner's increment settles the other's branch.
    Mutant("whole-round-ignores-increments", GAME,
           "if step[0] is not entry or step[2] != paying:",
           "if step[0] is not entry:",
           ("tests/test_game.py::TestBalanceChecks::"
            "test_a_group_that_can_fund_every_draw_plays_on",
            "tests/test_game.py::TestIdleBlocks::"
            "test_unequal_policies_mine_their_own_blocks",
            "tests/test_reference_sweep.py::"
            "test_every_exact_verify_reference_matches")),
    # The forward pass counts no censored-window block, so the equal
    # split pays no colluder a share.
    Mutant("window-blocks-uncounted", GAME,
           "counted = block.round in self.window",
           "counted = False",
           ("tests/test_game.py::TestPayoffs::"
            "test_a_payoff_is_the_sum_of_its_steps",
            "tests/test_differential.py::"
            "test_settlement_examples_reach_what_they_test")),
    # Control states that differ only in their bribery contracts merge.
    Mutant("control-key-without-bribery", LEDGER,
           "self.known.key(), self.bribery.key(), self.redemptions.key())",
           "self.known.key(), self.redemptions.key())",
           ("tests/test_differential.py::"
            "test_equal_control_keys_read_alike",
            "tests/test_analysis.py::TestM2MbaLemmas::"
            "test_lemma1_worked_instance",
            "tests/test_game.py::TestExpectations::"
            "test_conditional_bribe_income_is_exact",
            "tests/test_golden.py::"
            "test_report_bytes_match_golden[he_m2mba.lemmas]")),
    # Control states that differ only in their redemptions merge: with
    # the statuses out of the key, the redemptions alone tell which
    # contracts are spent, and by which path.
    Mutant("control-key-without-redemptions", LEDGER,
           "self.bribery.key(), self.redemptions.key())",
           "self.bribery.key())",
           ("tests/test_differential.py::"
            "test_equal_control_keys_read_alike",)),
    # The equal split divides the confiscation over one block too many.
    Mutant("equal-split-share", GAME,
           "share = Fraction(scen.v_col) * k_j / k",
           "share = Fraction(scen.v_col) * k_j / (k + 1)",
           ("tests/test_game.py::TestPlay::test_m2mba_equal_split",
            "tests/test_acceptance.py::test_criterion_3_m2mba_oracles")),
    # The pact admits every active miner, colluding or not.
    Mutant("coalition-counts-independents", GAME,
           'if m.kind == "active" and m.colluding)',
           'if m.kind == "active")',
           ("tests/test_analysis.py::"
            "test_the_coalition_is_the_active_colluders_everywhere",
            *(f"tests/test_analysis.py::TestM2MbaLemmas::"
              f"test_a_focal_miner_of_the_wrong_kind_is_refused[{n}-m4]"
              for n in (1, 2, 4, 5)),
            "tests/test_analysis.py::TestTheoremM2Mba::"
            "test_an_active_miner_outside_the_pact_gets_no_verdict")),
    # Pact lemma 5 asks its one expectation without the verdict's memo.
    Mutant("lemma-5-skips-the-memo", ANALYSIS,
           "income = expect(view, _attack_profile(view))",
           "income = expected_utilities(view, _attack_profile(view))",
           ("tests/test_analysis.py::"
            "test_every_pass_of_a_verdict_holds_its_memo[lemma-5]",)),
    # The pact theorem judges an active miner outside the pact.
    Mutant("theorem-judges-independents", ANALYSIS,
           '        if m.kind == "active" and party not in scen.coalition:\n'
           "            continue\n",
           "",
           ("tests/test_analysis.py::TestTheoremM2Mba::"
            "test_an_active_miner_outside_the_pact_gets_no_verdict",)),
    # A round key that leaves out what a policy reads: after the deadline
    # the racer and the acceptor share a key, though only the racer
    # confiscates, so one miner's blocks of one key differ.
    Mutant("round-key-ignores-claim-only", AGENTS,
           "return type(self), rnd > scen.T and self._claim_only(rnd)",
           "return type(self), False",
           ("tests/test_differential.py::"
            "test_equal_round_keys_build_equal_blocks",)),
    # An attack block spends a contract that another block already
    # redeemed, which the ledger refuses.
    Mutant("b3a-spends-a-closed-contract", AGENTS,
           "        if (not _whole(state, scen, txs)\n",
           "        if (len(txs) > scen.capacity\n",
           tuple("tests/test_agents.py::TestAttackBlocksSpendOpenContracts::"
                 "test_a_redeemed_collateral_gives_way_to_the_ordinary_block"
                 f"[b3a-case-{case}]" for case in (1, 2))),
    Mutant("hydra-spends-a-closed-contract", AGENTS,
           "            if _whole(state, scen, txs):\n"
           "                return make_block(rnd, miner, scen, txs)\n"
           "        return CensorRelated()",
           "            if len(txs) <= scen.capacity:\n"
           "                return make_block(rnd, miner, scen, txs)\n"
           "        return CensorRelated()",
           ("tests/test_agents.py::TestAttackBlocksSpendOpenContracts::"
            "test_a_redeemed_collateral_gives_way_to_the_ordinary_block"
            "[hydra]",)),
    # Every active miner is offered the pact's policies, in the pact or not.
    Mutant("space-offers-pact-by-kind", AGENTS,
           "if player in scen.coalition",
           'if scen.profile_of(player).kind == "active"',
           ("tests/test_analysis.py::"
            "test_every_player_has_one_space_valid_for_its_protocol",
            "tests/test_analysis.py::TestTheoremM2Mba::"
            "test_a_miner_outside_the_pact_is_offered_no_pact_policy")),
    # A late fee's decayed share rounds up, so the miner earns more of it
    # and less is burned than DEMBA's Eq. 1/Eq. 2 rule says.
    Mutant("fee-decay-rounds-up", CONTRACTS,
           "base * n**k // d**k",
           "-(-base * n**k // d**k)",
           ("tests/test_contracts.py::TestFeeSplit::"
            "test_decayed_share_rounds_down",)),
    # A fee included at round T itself starts to decay.
    Mutant("fee-decay-from-round-T", CONTRACTS,
           "inclusion_round <= self.T:",
           "inclusion_round < self.T:",
           (),
           "at round T the decay is alpha ** 0 = 1, so the miner earns "
           "min(fee, fee * 1 // 1) = fee and nothing burns, as before"),
    # A protected transfer that lands at round T counts as late, for the
    # bribery contracts' guards and the policies that read them.
    Mutant("deadline-excludes-round-T", LEDGER,
           'and entry[1] <= self._s.meta["T"])',
           'and entry[1] < self._s.meta["T"])',
           ("tests/test_ledger.py::TestChainView::"
            "test_a_target_landing_at_the_deadline_is_in_time",)),
    # The rules of one spend, as `validate_tx` checks and `apply_block`
    # applies it.  A timelocked path opens a round before its window.
    Mutant("timelock-opens-early", CONTRACTS,
           "if rnd < self.earliest:",
           "if rnd < self.earliest - 1:",
           ("tests/test_ledger.py::TestValidate::"
            "test_a_timelock_window_holds_both_its_ends",)),
    # A path closes at its last round instead of after it.
    Mutant("timelock-closes-early", CONTRACTS,
           "return self.latest is None or rnd <= self.latest",
           "return self.latest is None or rnd < self.latest",
           ("tests/test_ledger.py::TestValidate::"
            "test_a_timelock_window_holds_both_its_ends",)),
    # A spend that the deposit funds exactly counts as an over-spend.
    Mutant("overspend-at-exact-funding", LEDGER,
           "if outflow + fee > value:",
           "if outflow + fee >= value:",
           ("tests/test_ledger.py::TestValidate::"
            "test_a_fee_of_the_whole_deposit_is_no_overspend",)),
    # One transaction may spend one contract twice.
    Mutant("duplicate-spend-in-tx", LEDGER,
           "        if cid in seen:\n",
           "        if False:\n",
           ("tests/test_ledger.py::test_each_refusal_keeps_its_code_and_detail"
            "[double-spend-in-one-tx]",)),
    # A block may carry two transactions that spend one contract.
    Mutant("duplicate-spend-in-block", LEDGER,
           "            if cid in spent:\n",
           "            if False:\n",
           ("tests/test_ledger.py::TestApply::"
            "test_duplicate_spend_in_block",)),
    Mutant("signature-unchecked", LEDGER,
           "if not path.required_signers <= witness.signers:",
           "if False:",
           ("tests/test_ledger.py::TestValidate::"
            "test_missing_signer_fails",)),
    Mutant("hashlock-unchecked", LEDGER,
           "if supplied.get(slot) != contract.digests.get(slot):",
           "if False:",
           ("tests/test_ledger.py::TestValidate::"
            "test_wrong_preimage_fails_hashlock",)),
    # Validation prices a late burn from its bound round on, which
    # application does not burn: the payee's rest shrinks and the tokens
    # vanish.
    Mutant("outflow-late-burn-at-its-round", LEDGER,
           "    if path.late_burn and rnd > path.late_burn[0]:\n"
           "        total += path.late_burn[1]\n",
           "    if path.late_burn and rnd >= path.late_burn[0]:\n"
           "        total += path.late_burn[1]\n",
           ("tests/test_ledger.py::TestFeeSplit::"
            "test_a_late_burn_starts_the_round_after_its_bound",)),
    # An all-burn path leaves its contract redeemed, not burned.
    Mutant("burn-path-counts-as-redeemed", LEDGER,
           "            s.burn(amt)\n            continue\n",
           "            s.burn(amt)\n",
           ("tests/test_ledger.py::TestApply::"
            "test_demba_deposit_burns_when_both_payee_slots_land",)),
    # A preimage that lands on chain without passing the mempool stays
    # unknown: after the payer's refund is mined straight into a block, no
    # miner knows pre_B to confiscate with.
    Mutant("reveal-leaves-knowledge", LEDGER,
           "            s.write(\"revealed\")[(c, slot)] = (value, rnd)\n"
           "            if s.known.get(slot) != value:\n"
           "                s.write(\"known\")[slot] = value\n",
           "            s.write(\"revealed\")[(c, slot)] = (value, rnd)\n",
           tuple("tests/test_agents.py::TestPactAutoRefund::"
                 "test_only_a_non_member_confiscation_refunds_the_locks"
                 f"[confiscator{i}]" for i in (0, 1))),
    # A redemption writes a status that its path does not imply, which
    # the control key, holding the redemptions alone, cannot tell apart.
    Mutant("status-disagrees-with-redemption", LEDGER,
           'BURNED if burns_only else ("redeemed", path.name))',
           "BURNED)",
           ("tests/test_differential.py::"
            "test_equal_control_keys_read_alike",)),
    # Honest selection takes a transaction that earns only the unrelated
    # fee.
    Mutant("honest-fee-floor-inclusive", AGENTS,
           "if earned > scen.f:",
           "if earned >= scen.f:",
           ("tests/test_agents.py::TestHonestSelect::"
            "test_fee_at_or_below_unrelated_not_taken",)),
    # Equal fees keep mempool order instead of falling back to tx ids.
    Mutant("honest-tie-break-by-arrival", AGENTS,
           "    candidates.sort()\n",
           "    candidates.sort(key=lambda c: c[0])\n",
           ("tests/test_agents.py::TestHonestSelect::"
            "test_equal_fee_breaks_ties_by_tx_id",)),
    # The refusals that keep a balance from going below zero and a
    # scheduled fee from escaping as a contract error.
    Mutant("negative-payment-accepted", LEDGER,
           "        if amount < 0:\n",
           "        if False:\n",
           ("tests/test_ledger.py::TestValidate::"
            "test_a_negative_payment_is_refused",)),
    Mutant("fee-mismatch-unchecked", LEDGER,
           "    if fee != paid:\n",
           "    if False:\n",
           ("tests/test_ledger.py::TestFeeSplit::"
            "test_a_fee_off_the_schedule_is_refused_by_the_ledger",)),
    # A spend that names a path its contract lacks escapes validation
    # as an AttributeError, which no builder's probe catches.
    Mutant("unknown-path-unrefused", LEDGER,
           "        if path is None:\n",
           "        if False:\n",
           ("tests/test_ledger.py::test_each_refusal_keeps_its_code_and_detail"
            "[unknown-path]",
            "tests/test_agents.py::TestHonestSelect::"
            "test_a_spend_the_ledger_refuses_is_skipped")),
    # A negative fee pays a transaction's creator out of its miner.
    Mutant("negative-fee-accepted", LEDGER,
           "    if fee < 0:\n",
           "    if False:\n",
           tuple("tests/test_ledger.py::test_each_refusal_keeps_its_code_and_"
                 f"detail[negative-fee-{kind}]"
                 for kind in ("related", "call", "payment"))),
    # The verdict layer.  A tie counts as a win, so a candidate that only
    # ties its alternatives dominates them.
    Mutant("dominance-tie-counts-as-win", ANALYSIS,
           "if cand_u > alt_u:",
           "if cand_u >= alt_u:",
           ("tests/test_game.py::TestDominance::test_a_tie_is_no_win",)),
    # A verdict's memo hands a pass pinned to one miner the expectation
    # of the unpinned profile.
    Mutant("memo-key-without-pin", ANALYSIS,
           "tuple(sorted((pin or {}).items())))",
           "())",
           ("tests/test_analysis.py::TestM2MbaLemmas::"
            "test_memo_keys_on_pin_and_policy_parameters",)),
    # A verdict's memo hands one scenario the expectation of another.
    Mutant("memo-key-without-scenario", ANALYSIS,
           "key = (id(scen), policy_key(profile.alice)",
           "key = (policy_key(profile.alice)",
           ("tests/test_analysis.py::TestM2MbaLemmas::"
            "test_step_memo_lives_for_one_verdict_and_scenario",)),
    # A verdict's memo knows a miner policy by its name alone, so two
    # parametrisations of one policy share an expectation.
    Mutant("memo-key-miner-by-name", ANALYSIS,
           "tuple(sorted((p, policy_key(pol))",
           "tuple(sorted((p, pol.name)",
           ("tests/test_analysis.py::TestM2MbaLemmas::"
            "test_memo_keys_on_pin_and_policy_parameters",)),
    # A verdict's passes share no step cache: each builds all its blocks.
    Mutant("verdict-passes-share-no-steps", ANALYSIS,
           "done[key] = scen, expected_utilities(scen, profile, pin,\n"
           "                                                 memos[id(scen)][1])",
           "done[key] = scen, expected_utilities(scen, profile, pin)",
           ("tests/test_analysis.py::TestDembaVerification::"
            "test_lemma_6_builds_fewer_blocks_than_its_fresh_passes"
            "[two-miners]",)),
    # The ledger holds a block to a capacity that is not the game's, as it
    # did when a block declared its own.
    Mutant("capacity-not-the-games", LEDGER,
           'if len(txs) + fill > state.meta["capacity"]:',
           "if len(txs) + fill > 8:",
           ("tests/test_ledger.py::test_each_refusal_keeps_its_code_and_detail"
            "[block-over-capacity]",)),
    # Filler pays a fee that is not the game's.
    Mutant("filler-fee-not-the-games", LEDGER,
           'total = fill * s.meta["f"]',
           "total = fill",
           ("tests/test_ledger.py::TestApply::"
            "test_filler_pays_the_games_fee",)),
    # A negative fill moves tokens from the miner to the external traffic,
    # below zero if it asks enough.
    Mutant("negative-fill-accepted", LEDGER,
           "    if fill < 0:\n",
           "    if False:\n",
           ("tests/test_ledger.py::test_each_refusal_keeps_its_code_and_detail"
            "[negative-fill]",)),
    # The protocols' own rules.  The pact's attack window closes a round
    # early, so its locks return before a confiscation could still land.
    Mutant("attack-window-closes-early", LEDGER,
           'return self._rnd > meta["T"] + meta["l"] + 1',
           'return self._rnd >= meta["T"] + meta["l"] + 1',
           ("tests/test_agents.py::TestPactRefundToMiners::"
            "test_race_miners_refund_their_locks_after_an_idle_window",)),
    # He-HTLC's refund delay drops the + 1 of l = ceil(kappa).
    Mutant("he-delay-without-the-plus-one", CONTRACTS,
           "return max(1, -(-v_dep // (v_col - f)) + 1)",
           "return max(1, -(-v_dep // (v_col - f)))",
           ("tests/test_contracts.py::TestBuilders::"
            "test_he_delay_derivation",)),
    # The payer's collateral path opens at T + l, a round into the
    # confiscation window.
    Mutant("he-col-b-opens-a-round-early", CONTRACTS,
           "required_signers=frozenset({bob}), earliest=T + l + 1),",
           "required_signers=frozenset({bob}), earliest=T + l),",
           ("tests/test_contracts.py::TestBuilders::"
            "test_he_requires_delay",)),
    # He-HTLC's confiscation burns nothing of the deposit.
    Mutant("he-confiscation-burns-nothing", CONTRACTS,
           "RedeemPath(COL_M, (Burn(v_dep), Transfer(BLOCK_MINER, REST)),",
           "RedeemPath(COL_M, (Transfer(BLOCK_MINER, REST),),",
           ("tests/test_ledger.py::TestApply::"
            "test_he_collateral_confiscation_burns_deposit",)),
    # DEMBA's double commit (pre_AA') forfeits nothing.
    Mutant("demba-double-commit-burns-nothing", CONTRACTS,
           "RedeemPath(PRE_AA2, (Burn(v_ded), Transfer(alice, REST)),",
           "RedeemPath(PRE_AA2, (Transfer(alice, REST),),",
           ("tests/test_analysis.py::TestDembaVerification::"
            "test_lemma_6_and_7_exact_losses",)),
    # A miner that locked nothing reserves a pact bribe.
    Mutant("pact-request-without-lock", CONTRACTS,
           "if rnd > self.T or caller not in self.locked:",
           "if rnd > self.T:",
           ("tests/test_contracts.py::TestMinerPactContract::"
            "test_request_guards",)),
    # A pact bribe is reserved one round past the deadline.
    Mutant("pact-request-after-T", CONTRACTS,
           "if rnd > self.T or caller not in self.locked:",
           "if rnd > self.T + 1 or caller not in self.locked:",
           ("tests/test_contracts.py::TestMinerPactContract::"
            "test_request_guards",)),
    # A censorship bribe is reserved after the deadline.
    Mutant("censor-request-after-T", CONTRACTS,
           "if rnd > self.T or self.bal_left < self.br:",
           "if self.bal_left < self.br:",
           ("tests/test_contracts.py::TestCensorBriberyContract::"
            "test_request_guards",)),
    # A pact claim pays more than the confiscator's stake holds.
    Mutant("pact-claim-overdraws-stake", CONTRACTS,
           "if stake - owed - caller_cut < 0:",
           "if False:",
           ("tests/test_contracts.py::TestMinerPactContract::"
            "test_claim_blocked_for_outside_confiscator",)),
    # A censorship claim pays more than the budget holds.
    Mutant("censor-claim-overdraws-budget", CONTRACTS,
           "if self.deposit - (count + 1) * self.br < 0:",
           "if False:",
           ("tests/test_contracts.py::TestCensorBriberyContract::"
            "test_liquidity_under_random_call_sequences",)),
    # The pact's locks return on any confiscation, a member's included.
    Mutant("pact-refund-on-any-confiscation", LEDGER,
           "                    and contract.locked.get(view.confiscator(), "
           "0) == 0)):",
           "                    )):",
           ("tests/test_agents.py::TestPactAutoRefund::"
            "test_only_a_non_member_confiscation_refunds_the_locks"
            "[confiscator0]",)),
    # A censorship budget that was never funded is refunded, by the
    # ledger or by a call, and settles before the funding lands.
    Mutant("censor-refund-of-unfunded", CONTRACTS,
           "if self.settled or not self.deposit or not target_included:",
           "if self.settled or not target_included:",
           ("tests/test_agents.py::TestCensorAutoRefund::"
            "test_an_unfunded_budget_waits_for_its_funding",
            "tests/test_agents.py::TestCensorAutoRefund::"
            "test_a_call_before_the_funding_leaves_the_contract_open"
            "[refundToBob]")),
    # At a bribe of 0, a claim on a budget that was never funded settles
    # the contract before the funding lands.
    Mutant("censor-claim-of-unfunded", CONTRACTS,
           "if self.settled or not self.deposit or preimage != "
           "self.pre_a_value:",
           "if self.settled or preimage != self.pre_a_value:",
           ("tests/test_agents.py::TestCensorAutoRefund::"
            "test_a_call_before_the_funding_leaves_the_contract_open"
            "[claimBribe]",)),
    # A funded or settled censorship contract takes a second init, whose
    # budget it never holds.
    Mutant("censor-init-of-funded", LEDGER,
           "                and contract.deposit):",
           "                and False):",
           (*(f"tests/test_ledger.py::test_each_refusal_keeps_its_code_"
              f"and_detail[{case}]" for case in (
                  "init-mined-again", "init-copy-in-one-block",
                  "init-of-settled-contract")),
            "tests/test_properties.py::"
            "test_a_block_no_policy_builds_is_refused_or_conserves")),
    Mutant("negative-policy-parameter", AGENTS,
           "if want is int and value < 0:",
           "if False:",
           tuple(f"tests/test_runner.py::test_bad_input_exits_one_with_one_"
                 f"error_line[{case}]" for case in (
                     "naive-briber-negative-br",
                     "naive-briber-negative-budget",
                     "sdrba-briber-negative-epsilon"))),
    # The protocol table (`game.PROTOCOLS`): each entry breaks one field
    # of one protocol's record.  demba's protected transfer is a path the
    # payee's honest commit does not take.
    Mutant("demba-target-path", GAME,
           "genesis=_demba_contracts, target=(COL_A_ID, PRE_A),",
           "genesis=_demba_contracts, target=(COL_A_ID, PRE_A2),",
           ("tests/test_ledger.py::TestChainView::"
            "test_the_honest_payees_transfer_is_the_target[demba_scenario]",)),
    # A demba censor keeps out the one-deposit protocols' transfer, which
    # demba has none of, so the payee's commit is never censored.
    Mutant("demba-target-tx-ids", GAME,
           'target_tx_ids=frozenset({f"tx.col.{PRE_A}"}),',
           "target_tx_ids=_HTLC_TARGET,",
           ("tests/test_agents.py::test_a_censor_keeps_the_protected_"
            "transfer_out_until_T[demba_scenario]",)),
    # he's payer-collateral path completes when the collateral contract is
    # redeemed, which the payee's honest path leaves empty.
    Mutant("he-bob-collateral-on-the-collateral", GAME,
           '            "bob-collateral": ((DEP_ID, None),),\n'
           '            "bob-both": ((COL_ID, COL_B),)}),',
           '            "bob-collateral": ((COL_ID, None),),\n'
           '            "bob-both": ((COL_ID, COL_B),)}),',
           ("tests/test_golden.py::"
            "test_report_bytes_match_golden[he_m2mba.ttc-bob-collateral]",)),
    # The pact's verdicts are set on mad, which has no pact.
    Mutant("pact-verdicts-on-mad", GAME,
           '            "bob-both": ((DEP_ID, None), (COL_ID, None))}),\n'
           "        derives_l=False, two_phase=False, equal_split=False),",
           '            "bob-both": ((DEP_ID, None), (COL_ID, None))}),\n'
           "        derives_l=False, two_phase=False, equal_split=False,\n"
           '        lemmas=(1, 2, 3, 4, 5), theorem="m2mba"),',
           ("tests/test_runner.py::test_bad_input_exits_one_with_one_error_"
            "line[lemmas-on-mad]",)),
    # The equal split shares a confiscation on mad as on he.
    Mutant("equal-split-on-mad", GAME,
           '            "bob-both": ((DEP_ID, None), (COL_ID, None))}),\n'
           "        derives_l=False, two_phase=False, equal_split=False),",
           '            "bob-both": ((DEP_ID, None), (COL_ID, None))}),\n'
           "        derives_l=False, two_phase=False, equal_split=True),",
           ("tests/test_game.py::TestPlay::"
            "test_the_equal_split_is_played_on_he_alone",)),
    # The plain-line reader (`runner._read_plain`) takes a line that the
    # subcommand's parser reads otherwise, or reads a value otherwise.
    Mutant("plain-line-with-an-odd-word", RUNNER,
           "    if len(words) % 2:\n        return None\n",
           "",
           ("tests/test_runner.py::test_main_parses_an_edge_line_as_the_"
            "parser_does[option-without-value]",)),
    Mutant("plain-line-with-a-help-option", RUNNER,
           "if (type(action) is not argparse._StoreAction",
           "if (action is None",
           ("tests/test_runner.py::test_help_prints_the_parsers_text[argv2]",)),
    Mutant("plain-line-with-an-abbreviation", RUNNER,
           "        action = options.get(name)\n",
           "        action = options.get(name) or next(\n"
           "            (a for o, a in options.items() if o.startswith(name)),"
           " None)\n",
           ("tests/test_runner.py::test_a_job_parses_its_line_once",)),
    Mutant("plain-line-with-a-repeated-option", RUNNER,
           "or action.dest in values or word",
           "or word",
           ("tests/test_runner.py::test_a_job_parses_its_line_once",)),
    Mutant("plain-line-with-an-option-for-a-value", RUNNER,
           ' or word.startswith("-")):',
           "):",
           ("tests/test_runner.py::test_main_parses_an_edge_line_as_the_"
            "parser_does[value-is-an-option]",)),
    Mutant("plain-value-unconverted", RUNNER,
           "value = word if action.type is None else action.type(word)",
           "value = word",
           ("tests/test_runner.py::test_main_parses_an_edge_line_as_the_"
            "parser_does[plain-alpha-risk-nan]",)),
    Mutant("plain-value-its-type-refuses", RUNNER,
           "argparse.ArgumentTypeError):\n            return None\n",
           "argparse.ArgumentTypeError):\n            value = word\n",
           ("tests/test_runner.py::test_main_parses_an_edge_line_as_the_"
            "parser_does[type-refused]",)),
    Mutant("plain-value-outside-its-choices", RUNNER,
           "if action.choices is not None and value not in action.choices:",
           "if False:",
           ("tests/test_runner.py::test_main_parses_an_edge_line_as_the_"
            "parser_does[choice-refused]",)),
    Mutant("plain-line-without-a-required-option", RUNNER,
           "        elif action.required:\n            return None\n",
           "",
           ("tests/test_runner.py::test_main_parses_an_edge_line_as_the_"
            "parser_does[required-left-out]",)),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Rewrite `mutant`'s snippet in the tree at `root`."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise SystemExit(f"error: {mutant.id}: its snippet does not occur "
                         f"exactly once in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def outcome(returncode: int) -> str:
    """What one killer's pytest exit code says: 1, a test failed, is a
    kill and 0 a survival; any other code is an error, such as 4 for a
    node id that pytest cannot find or 5 for one that collects no test."""
    return {1: "killed", 0: "survived"}.get(returncode, "error")


def outcomes(mutant: Mutant) -> dict:
    """Each killer of `mutant` -> its `outcome` on a mutated copy of the
    tree.  The copy holds no Hypothesis example database, so each killer
    runs at one fixed Hypothesis seed, and a catalogue run repeats its
    verdicts."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".bench_build", ".hypothesis", ".pytest_cache",
            "__pycache__"))
        apply(mutant, copy)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        return {test: outcome(subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", "--hypothesis-seed=0", test],
            cwd=copy, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode)
            for test in mutant.killers}


def main(argv: list) -> int:
    known = {m.id: m for m in MUTANTS}
    unknown = [name for name in argv if name not in known]
    if unknown:
        print(f"error: no mutant {', '.join(unknown)}", file=sys.stderr)
        return 1
    failed = False
    for mutant in [known[name] for name in argv] or MUTANTS:
        if mutant.equivalent:
            print(f"{mutant.id}: equivalent: {mutant.equivalent}")
            continue
        got = outcomes(mutant)
        line = (f"{mutant.id}: {list(got.values()).count('killed')}/"
                f"{len(got)} killers failed")
        for kind in ("survived", "error"):
            tests = [test for test, seen in got.items() if seen == kind]
            if tests:
                failed = True
                line += f"; {kind}: {' '.join(tests)}"
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
