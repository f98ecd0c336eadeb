"""The primitive operator table shared by all interpreters.

Integer-valued comparisons return 0 for "true" so they read naturally
under ifz, whose zero branch is the taken one.  Partial operators raise
PrimitiveDomainError instead of silently extending their domain.
"""

from __future__ import annotations

import math
import operator

from .errors import PrimitiveDomainError
from .syntax import INT, REAL

LOG_2PI = math.log(2.0 * math.pi)


def _mod(a: int, b: int) -> int:
    if b == 0:
        raise PrimitiveDomainError("mod", (a, b))
    return a % b


def _div(a: float, b: float) -> float:
    if b == 0.0:
        raise PrimitiveDomainError("div", (a, b))
    return a / b


def _log(a: float) -> float:
    if a <= 0.0:
        raise PrimitiveDomainError("log", (a,))
    return math.log(a)


def _exp(a: float) -> float:
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def same_value(a, b) -> bool:
    """The one value equality of the fixed-point checks, the oracles and
    `bench`: `==`, except that a NaN equals a NaN."""
    return a == b or (a != a and b != b)


def _eq(a, b) -> int:
    return 0 if a == b else 1


def _lt(a, b) -> int:
    return 0 if a < b else 1


def _const(a: int) -> int:
    return a


def normal_logpdf(x: float, mean: float, sd: float) -> float:
    if sd <= 0.0:
        raise PrimitiveDomainError("normal_logpdf", (x, mean, sd))
    gap = x - mean
    # gap * gap tops out at IEEE infinity, giving log-density -inf
    return -0.5 * LOG_2PI - math.log(sd) - gap * gap / (2.0 * sd * sd)


# op -> (argument kinds, result kind, implementation)
TABLE: dict[tuple[str, tuple[str, ...]], tuple[str, object]] = {
    ("add", (INT, INT)): (INT, operator.add),
    ("sub", (INT, INT)): (INT, operator.sub),
    ("mul", (INT, INT)): (INT, operator.mul),
    ("mod", (INT, INT)): (INT, _mod),
    ("eq", (INT, INT)): (INT, _eq),
    ("lt", (INT, INT)): (INT, _lt),
    ("rlt", (REAL, REAL)): (INT, _lt),
    ("const", (INT,)): (INT, _const),
    ("add", (REAL, REAL)): (REAL, operator.add),
    ("sub", (REAL, REAL)): (REAL, operator.sub),
    ("mul", (REAL, REAL)): (REAL, operator.mul),
    ("div", (REAL, REAL)): (REAL, _div),
    ("neg", (REAL,)): (REAL, operator.neg),
    ("exp", (REAL,)): (REAL, _exp),
    ("log", (REAL,)): (REAL, _log),
    ("normal_logpdf", (REAL, REAL, REAL)): (REAL, normal_logpdf),
    ("to_real", (INT,)): (REAL, float),
}

OP_NAMES = sorted({op for op, _ in TABLE})


def resolve(op: str, arg_kinds: tuple[str, ...]) -> tuple[str, object]:
    """The (result kind, implementation) for an operator call, by arity/kinds."""
    found = TABLE.get((op, arg_kinds))
    if found is None:
        raise KeyError(f"no operator {op}{arg_kinds}")
    return found

