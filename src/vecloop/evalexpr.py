"""Expression evaluation, shared by the scalar and vectorised interpreters.

The caller supplies how variables are read; everything else (literals,
operator dispatch by argument kinds, index construction) is common.  Each
operator node is resolved against the operator table once, on first use,
and keeps its result kind and implementation.  `eval_expr` evaluates for one
thread.  `eval_column` evaluates for every thread of a chain at once: it
walks the expression once and applies each operator node to its
arguments' columns, so that the dispatch on node kinds is paid once per
node, not once per thread (vector-at-a-time interpretation: Boncz,
Zukowski and Nes, "MonetDB/X100: Hyper-Pipelining Query Execution", CIDR
2005).  `lane_code` stages an expression, once, into closures that
evaluate each node once for all the lanes of a chain, applying operators
through a backend's lane forms of them, for a compiled loop body whose
rounds evaluate the same expressions again and again.
"""

from __future__ import annotations

from typing import Callable

from . import ops
from .errors import DuplicateIndexString
from .indices import EMPTY, Index, _unchecked
from .syntax import (INT, Expr, IndexExpr, IntLit, PrimOp, RealLit, Var,
                     Variable)


def resolved(e: PrimOp) -> tuple[str, Callable]:
    """The node's (result kind, implementation), resolved once per node.

    An ill-typed node raises KeyError on every use and stores nothing.
    """
    found = e.impl
    if found is None:
        found = ops.resolve(e.op, tuple(expr_kind(a) for a in e.args))
        object.__setattr__(e, "impl", found)
    return found


def expr_kind(e: Expr) -> str:
    """Static kind of an expression: "int", "real", or "index"."""
    if isinstance(e, PrimOp):
        return resolved(e)[0]
    if isinstance(e, Var):
        return e.var.type
    if isinstance(e, IntLit):
        return INT
    if isinstance(e, RealLit):
        return "real"
    if isinstance(e, IndexExpr):
        return "index"
    raise TypeError(f"not an expression: {e!r}")


def eval_expr(e: Expr, read_var: Callable[[Variable], object]):
    if isinstance(e, Var):
        return read_var(e.var)
    if isinstance(e, PrimOp):
        fn = (e.impl or resolved(e))[1]
        return fn(*[eval_expr(a, read_var) for a in e.args])
    if isinstance(e, (IntLit, RealLit)):
        return e.value
    if isinstance(e, IndexExpr):
        return Index(tuple((name, eval_expr(z, read_var)) for name, z in e.pairs))
    raise TypeError(f"not an expression: {e!r}")


def eval_column(e: Expr, column: Callable[[Variable], list],
                count: int) -> list:
    """The values of `e` on `count` threads, a list in thread order, where
    `column(var)` gives a variable's values on them.  Each node is visited
    once, and an operator node maps its implementation over its arguments'
    columns.  Every thread's evaluation by `eval_expr` visits every node,
    and operators are pure, so a walk that completes gives each thread's
    value bit for bit; a walk that raises says only that some thread
    fails, not which one first.
    """
    if isinstance(e, Var):
        return column(e.var)
    if isinstance(e, PrimOp):
        fn = (e.impl or resolved(e))[1]
        return list(map(fn, *[eval_column(a, column, count) for a in e.args]))
    if isinstance(e, (IntLit, RealLit)):
        return [e.value] * count
    if isinstance(e, IndexExpr):
        if not e.pairs:
            return [EMPTY] * count
        # every thread's index has these names: check them once, and
        # intern each thread's index unchecked
        names = [name for name, _ in e.pairs]
        if len(set(names)) < len(names):
            raise DuplicateIndexString(f"index repeats a string: {names!r}")
        columns = [eval_column(z, column, count) for _, z in e.pairs]
        return [_unchecked(tuple(zip(names, ints))) for ints in zip(*columns)]
    raise TypeError(f"not an expression: {e!r}")


def lane_code(e: Expr, var_code: Callable[[Variable], Callable],
              bind: Callable[[str, str, Callable], Callable]) -> Callable:
    """A closure `code(frame, rows)` giving the values of `e` on every lane,
    each node evaluated once for all of them, with no dispatch on node
    kinds left to do.

    `var_code(var)` gives a variable's closure, and `bind(op, kind, fn)` a
    resolved operator node's `apply(args)` on its arguments' lanes;
    `frame` and `rows` are the caller's, passed down to each variable's
    closure.  Literals stay Python scalars.  A node that does not resolve
    raises KeyError here, before any closure runs.  (Closure generation:
    Feeley and Lapalme, "Using Closures for Code Generation", 1987.)
    """
    if isinstance(e, Var):
        return var_code(e.var)
    if isinstance(e, PrimOp):
        kind, fn = e.impl or resolved(e)
        apply = bind(e.op, kind, fn)
        args = [lane_code(a, var_code, bind) for a in e.args]
        if len(args) == 2:
            left, right = args
            return lambda frame, rows: apply([left(frame, rows),
                                              right(frame, rows)])
        return lambda frame, rows: apply([a(frame, rows) for a in args])
    if isinstance(e, (IntLit, RealLit)):
        value = e.value
        return lambda frame, rows: value
    raise TypeError(f"not a lane expression: {e!r}")
