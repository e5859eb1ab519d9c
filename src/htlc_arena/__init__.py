"""Deterministic ledger simulator and game-theory engine for HTLC variants."""

__version__ = "0.1.0"

from .core import ALICE, BOB, EXTERNAL, Party, miner_party
from .contracts import (FeeSchedule, build_demba, build_he_htlc,
                        build_mad_htlc, build_naive_htlc, check_fee_schedule,
                        resolve_demba_dep)
from .ledger import Block, ChainState, TxRecord, Witness, apply_block, validate_tx
from .game import (PROTOCOLS, MinerProfile, Outcome, Scenario, Schedule,
                   StrategyProfile, expected_utilities, play)
from .analysis import dominance_check

__all__ = [
    "ALICE", "BOB", "EXTERNAL", "Party", "miner_party",
    "FeeSchedule", "build_demba", "build_he_htlc", "build_mad_htlc",
    "build_naive_htlc", "check_fee_schedule", "resolve_demba_dep",
    "Block", "ChainState", "TxRecord", "Witness", "apply_block",
    "validate_tx", "MinerProfile", "Outcome", "PROTOCOLS", "Scenario",
    "Schedule", "StrategyProfile", "dominance_check", "expected_utilities",
    "play", "__version__",
]
