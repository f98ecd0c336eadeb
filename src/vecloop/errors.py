"""Error taxonomy shared across the package.

Parse-time problems carry locations; runtime problems carry enough context
to reproduce the failing operation.  The CLI maps ParseFailure/TierViolation
to exit code 2 and the semantic errors to exit code 3.
"""

from __future__ import annotations


class VecloopError(Exception):
    """Base class for all package errors."""


class ParseFailure(VecloopError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class TierViolation(VecloopError):
    def __init__(self, construct: str, tier: str):
        super().__init__(f"construct {construct!r} not allowed in {tier} tier")
        self.construct = construct
        self.tier = tier


class DuplicateIndexString(VecloopError):
    pass


class StringAlreadyPresent(VecloopError):
    pass


class ThreadBudgetExceeded(VecloopError):
    pass


class MissingString(VecloopError):
    pass


class PrimitiveDomainError(VecloopError):
    def __init__(self, op: str, operands: tuple, path: tuple[str, ...] = ()):
        self.op = op
        self.operands = tuple(operands)
        self.path = path
        where = " at " + " > ".join(path) if path else ""
        super().__init__(
            f"{op}{self.operands!r} outside the operator's domain{where}"
        )

    def with_path(self, step: str) -> "PrimitiveDomainError":
        return PrimitiveDomainError(self.op, self.operands, (step,) + self.path)


class ScoreNaN(VecloopError):
    pass


class IntOverflow(VecloopError):
    """An int the dense backend cannot store: its grids hold int64."""


class AxisOrderConflict(VecloopError):
    """A dense write whose strings nest in another order than its grid's
    axes: a grid addresses cells by coordinates in axis order, so it could
    not read such an index back."""


class EmptyIndexLost(VecloopError):
    pass


class UnknownString(VecloopError):
    pass


class NegativeComponent(VecloopError):
    pass
