"""Shared primitives: parties, token arithmetic, and error types.

Token amounts are plain non-negative ints in base units.  All debits go
through :func:`debit`, which refuses to drive a balance negative, so a
wrap-around can never be observed anywhere in the engine.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

#: The most items a Monte-Carlo draw may hold.  numpy addresses at most
#: `intp`'s max bytes, which is CPython's `sys.maxsize`, and each item
#: takes 8; past that a draw fails with a ValueError or an OverflowError,
#: not a MemoryError, so a larger size is refused before numpy is loaded.
MAX_DRAW_ITEMS = sys.maxsize // 8

ROLE_ALICE = "alice"
ROLE_BOB = "bob"
ROLE_MINER = "miner"
ROLE_EXTERNAL = "external-user"


class Party(NamedTuple):
    """Opaque participant identifier plus a role tag.

    A named tuple, so hashing and equality run in C: parties key every
    balance and outcome dict the engine touches.
    """

    id: str
    role: str

    def __str__(self) -> str:
        return self.id


ALICE = Party("alice", ROLE_ALICE)
BOB = Party("bob", ROLE_BOB)
EXTERNAL = Party("ext", ROLE_EXTERNAL)

#: Sentinel destination resolved to the including block's miner at apply time.
BLOCK_MINER = Party("block-miner", ROLE_MINER)


def miner_party(name: str) -> Party:
    return Party(name, ROLE_MINER)


class ArenaError(Exception):
    """Base class for all engine errors."""


class LedgerError(ArenaError):
    """Transaction or block rejected; `code` names the violated rule."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}({detail})" if detail else code)


class ContractError(ArenaError):
    """A contract cannot be built or used; `field` names the builder
    parameter at fault, where one is."""

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message)


class ScenarioError(ArenaError):
    pass


def check_amount(value: int, what: str = "amount") -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def credit(balances: dict[Party, int], party: Party, amount: int) -> None:
    balances[party] = balances.get(party, 0) + amount


def debit(balances: dict[Party, int], party: Party, amount: int) -> None:
    have = balances.get(party, 0)
    if amount > have:
        raise LedgerError("balance-underflow", f"{party.id} has {have}, needs {amount}")
    balances[party] = have - amount
