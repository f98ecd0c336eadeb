"""Syntactic transformations between the command tiers.

`embed` retags a scalar program as a vectorised one.  `vectorise` replaces
each for-loop by an index extension wrapping a fixed-point loop whose body
shifts, reads its slot number, and re-runs the loop body speculatively.
`vectorise_relaxed` targets the fused loop form instead, and
`lower_relaxed` expands that form back, so lowering after the relaxed
translation reproduces the plain one exactly.

Generated loop strings carry a reserved "$" sigil, which user programs and
fetch indices cannot contain, so they never collide with anything an
execution can mention.
"""

from __future__ import annotations

from itertools import count

from .syntax import (Assign, Cmd, ExtendedLoopShift, ExtendIndex, Fetch, For,
                     Ifz, LookupIndex, LoopFixpt, Score, Seq,
                     Shift, Skip, seq, validate_tier)


def embed(c: Cmd) -> Cmd:
    """Type-lift a source command; the tree itself is unchanged."""
    validate_tier(c, "source")
    return c


def vectorise(c: Cmd) -> Cmd:
    validate_tier(c, "source")
    return _vectorise(c, count(), relaxed=False)


def vectorise_relaxed(c: Cmd) -> Cmd:
    validate_tier(c, "source")
    return _vectorise(c, count(), relaxed=True)


def _vectorise(c: Cmd, fresh: count, relaxed: bool) -> Cmd:
    if isinstance(c, (Skip, Score, Assign, Fetch, LookupIndex, Shift)):
        return c
    if isinstance(c, Seq):
        return seq(*[_vectorise(item, fresh, relaxed) for item in c.items])
    if isinstance(c, Ifz):
        return Ifz(c.cond, _vectorise(c.then, fresh, relaxed),
                   _vectorise(c.orelse, fresh, relaxed))
    if isinstance(c, For):
        name = f"$loop{next(fresh)}"
        body = seq(LookupIndex(c.var, name), _vectorise(c.body, fresh, relaxed))
        if relaxed:
            return ExtendedLoopShift(name, c.count, body)
        return ExtendIndex(name, c.count,
                           LoopFixpt(c.count, seq(Shift(name), body)))
    raise TypeError(f"not a source command: {c!r}")


def lower_relaxed(c: Cmd) -> Cmd:
    """Expand each fused loop into extend_index + fixed-point loop + shift."""
    validate_tier(c, "relaxed")
    return _lower(c)


def _lower(c: Cmd) -> Cmd:
    if isinstance(c, (Skip, Score, Assign, Fetch, LookupIndex, Shift)):
        return c
    if isinstance(c, Seq):
        return seq(*[_lower(item) for item in c.items])
    if isinstance(c, Ifz):
        return Ifz(c.cond, _lower(c.then), _lower(c.orelse))
    if isinstance(c, For):
        return For(c.var, c.count, _lower(c.body))
    if isinstance(c, ExtendedLoopShift):
        return ExtendIndex(c.name, c.count,
                           LoopFixpt(c.count, seq(Shift(c.name), _lower(c.body))))
    raise TypeError(f"not a relaxed command: {c!r}")
