"""Reference big-step interpreter for the scalar source language.

A run threads a state of scalar variables and accumulates the total score.
The conditional takes its first branch when the scrutinee is zero.
"""

from __future__ import annotations

import math
from typing import Mapping

from .errors import PrimitiveDomainError, ScoreNaN
from .evalexpr import eval_expr
from .ops import same_value
from .rdb import Rdb
from .syntax import (INT, Assign, Cmd, Fetch, For, Ifz, Score, Seq, Skip,
                     Variable, validate_tier)


class SrcState:
    """Total map from typed variables to scalars; unset variables are zero."""

    def __init__(self, values: Mapping[Variable, object] | None = None):
        self.values: dict[Variable, object] = dict(values or {})

    def read(self, var: Variable):
        return self.values.get(var, 0 if var.type == INT else 0.0)

    def write(self, var: Variable, value) -> "SrcState":
        new = dict(self.values)
        new[var] = value
        return SrcState(new)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SrcState):
            return NotImplemented
        return all(same_value(self.read(var), other.read(var))
                   for var in set(self.values) | set(other.values))

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{v.text()}={self.values[v]!r}"
            for v in sorted(self.values, key=Variable.sort_key)
        )
        return f"SrcState({inner})"


def run_src(c: Cmd, db: Rdb,
            state: SrcState | None = None) -> tuple[SrcState, float]:
    validate_tier(c, "source")
    return _run(c, db, state or SrcState(), ())


def _run(c: Cmd, db: Rdb, state: SrcState, path: tuple[str, ...]):
    try:
        if isinstance(c, Skip):
            return state, 0.0
        if isinstance(c, Score):
            value = eval_expr(c.expr, state.read)
            if math.isnan(value):
                raise ScoreNaN(f"score evaluated to NaN at {' > '.join(path) or 'top'}")
            return state, value
        if isinstance(c, Assign):
            return state.write(c.var, eval_expr(c.expr, state.read)), 0.0
        if isinstance(c, Fetch):
            key = eval_expr(c.index, state.read)
            return state.write(c.var, db.lookup(key)), 0.0
        if isinstance(c, Seq):
            total = 0.0
            for pos, item in enumerate(c.items):
                state, r = _run(item, db, state, path + (f"seq[{pos}]",))
                total += r
            return state, total
        if isinstance(c, Ifz):
            branch = c.then if eval_expr(c.cond, state.read) == 0 else c.orelse
            return _run(branch, db, state, path + ("ifz",))
        if isinstance(c, For):
            total = 0.0
            for k in range(c.count):
                state, r = _run(c.body, db, state.write(c.var, k),
                                path + (f"for {c.var.name} iter {k}",))
                total += r
            return state, total
    except PrimitiveDomainError as err:
        if not err.path:
            raise err.with_path(" > ".join(path) or "top") from None
        raise
    raise TypeError(f"not a source command: {c!r}")
