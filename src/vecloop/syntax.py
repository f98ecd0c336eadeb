"""ASTs for the three command tiers, with analyses and the printer.

Tiers: "source" has only the scalar constructs; "target" adds the four
vectorisation constructs; "relaxed" replaces them with a single fused loop
form.  Every node is immutable and compares structurally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .errors import TierViolation

INT = "int"
REAL = "real"

SOURCE = "source"
TARGET = "target"
RELAXED = "relaxed"


@dataclass(frozen=True)
class Variable:
    """A typed variable.  Its hash, `hash((name, type))` as the dataclass
    would compute it on every dict probe, is computed once, at
    construction."""

    name: str
    type: str  # INT or REAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name, self.type)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # a clone computes its own hash: string hashes follow the process's
        # hash seed, so a hash carried into another process would be wrong
        return (Variable, (self.name, self.type))

    def text(self) -> str:
        return f"{self.name}:int" if self.type == INT else self.name

    def sort_key(self) -> tuple[str, str]:
        """Deterministic iteration order, independent of hash seeds."""
        return (self.name, self.type)

    def __repr__(self) -> str:
        return f"Variable({self.text()})"


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class RealLit:
    value: float


@dataclass(frozen=True)
class Var:
    var: Variable


@dataclass(frozen=True)
class PrimOp:
    op: str
    args: tuple["Expr", ...]
    # (result kind, implementation), filled in by evalexpr.resolved on first use
    impl: Optional[tuple] = field(default=None, init=False, repr=False,
                                  compare=False)


@dataclass(frozen=True)
class IndexExpr:
    pairs: tuple[tuple[str, "Expr"], ...]


Expr = Union[IntLit, RealLit, Var, PrimOp, IndexExpr]


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Score:
    expr: Expr


@dataclass(frozen=True)
class Assign:
    var: Variable
    expr: Expr


@dataclass(frozen=True)
class Fetch:
    var: Variable
    index: IndexExpr


@dataclass(frozen=True)
class Seq:
    items: tuple["Cmd", ...]

    def __post_init__(self) -> None:
        assert len(self.items) >= 2
        assert not any(isinstance(c, Seq) for c in self.items), "Seq must be flat"


@dataclass(frozen=True)
class Ifz:
    cond: Expr
    then: "Cmd"
    orelse: "Cmd"


@dataclass(frozen=True)
class For:
    var: Variable
    count: int
    body: "Cmd"


@dataclass(frozen=True)
class LoopFixpt:
    count: int
    body: "Cmd"
    # the body as a backend compiled it for lane arrays, filled in on first
    # use (dense.DenseState.resident)
    compiled: Optional[object] = field(default=None, init=False, repr=False,
                                       compare=False)

    def __reduce__(self):
        # the compiled body holds closures, which do not pickle
        return (LoopFixpt, (self.count, self.body))


@dataclass(frozen=True)
class ExtendIndex:
    name: str
    count: int
    body: "Cmd"


@dataclass(frozen=True)
class LookupIndex:
    var: Variable
    name: str


@dataclass(frozen=True)
class Shift:
    name: str


@dataclass(frozen=True)
class ExtendedLoopShift:
    name: str
    count: int
    body: "Cmd"


Cmd = Union[Skip, Score, Assign, Fetch, Seq, Ifz, For, LoopFixpt,
            ExtendIndex, LookupIndex, Shift, ExtendedLoopShift]

_COMMON = (Skip, Score, Assign, Fetch, Seq, Ifz, For)
_ALLOWED = {
    SOURCE: _COMMON,
    TARGET: _COMMON + (LoopFixpt, ExtendIndex, LookupIndex, Shift),
    RELAXED: _COMMON + (LookupIndex, ExtendedLoopShift),
}


def seq(*items: Cmd) -> Cmd:
    """Flat sequence constructor; collapses singletons and nested Seqs."""
    flat: list[Cmd] = []
    for c in items:
        if isinstance(c, Seq):
            flat.extend(c.items)
        else:
            flat.append(c)
    if not flat:
        return Skip()
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


def subcommands(c: Cmd) -> Iterator[Cmd]:
    if isinstance(c, Seq):
        yield from c.items
    elif isinstance(c, Ifz):
        yield c.then
        yield c.orelse
    elif isinstance(c, (For, LoopFixpt, ExtendIndex, ExtendedLoopShift)):
        yield c.body


def walk(c: Cmd) -> Iterator[Cmd]:
    yield c
    for sub in subcommands(c):
        yield from walk(sub)


def validate_tier(c: Cmd, tier: str) -> None:
    if tier not in _ALLOWED:
        raise ValueError(f"unknown tier {tier!r}")
    allowed = _ALLOWED[tier]
    for node in walk(c):
        if not isinstance(node, allowed):
            raise TierViolation(type(node).__name__, tier)


def free_vars(e: Expr) -> set[Variable]:
    if isinstance(e, (IntLit, RealLit)):
        return set()
    if isinstance(e, Var):
        return {e.var}
    if isinstance(e, PrimOp):
        out: set[Variable] = set()
        for a in e.args:
            out |= free_vars(a)
        return out
    if isinstance(e, IndexExpr):
        out = set()
        for _, z in e.pairs:
            out |= free_vars(z)
        return out
    raise TypeError(f"not an expression: {e!r}")


def strings_of(c: Cmd) -> set[str]:
    """All string literals the command can mention in indices."""
    out: set[str] = set()

    def from_expr(e: Expr) -> None:
        if isinstance(e, IndexExpr):
            out.update(name for name, _ in e.pairs)
            for _, z in e.pairs:
                from_expr(z)
        elif isinstance(e, PrimOp):
            for a in e.args:
                from_expr(a)

    for node in walk(c):
        if isinstance(node, Score):
            from_expr(node.expr)
        elif isinstance(node, Assign):
            from_expr(node.expr)
        elif isinstance(node, Fetch):
            from_expr(node.index)
        elif isinstance(node, Ifz):
            from_expr(node.cond)
        elif isinstance(node, (ExtendIndex, ExtendedLoopShift, Shift, LookupIndex)):
            out.add(node.name)
    return out


def variables_of(c: Cmd) -> set[Variable]:
    out: set[Variable] = set()
    for node in walk(c):
        if isinstance(node, Score):
            out |= free_vars(node.expr)
        elif isinstance(node, Assign):
            out |= free_vars(node.expr) | {node.var}
        elif isinstance(node, Fetch):
            out |= free_vars(node.index) | {node.var}
        elif isinstance(node, Ifz):
            out |= free_vars(node.cond)
        elif isinstance(node, For):
            out.add(node.var)
        elif isinstance(node, LookupIndex):
            out.add(node.var)
    return out


# --------------------------------------------------------------------------
# Printer (the parser reconstructs these texts structurally)
# --------------------------------------------------------------------------

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "mod": 2}
_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "%"}


def print_expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, IntLit):
        s = str(e.value)
        return f"({s})" if e.value < 0 and parent_prec > 0 else s
    if isinstance(e, RealLit):
        s = repr(e.value)
        return f"({s})" if e.value < 0 and parent_prec > 0 else s
    if isinstance(e, Var):
        return e.var.text()
    if isinstance(e, IndexExpr):
        inner = "; ".join(f'("{name}", {print_expr(z)})' for name, z in e.pairs)
        return f"[{inner}]"
    if isinstance(e, PrimOp):
        if e.op in _SYMBOL:
            prec = _PREC[e.op]
            left = print_expr(e.args[0], prec)
            right = print_expr(e.args[1], prec + 1)
            body = f"{left} {_SYMBOL[e.op]} {right}"
            return f"({body})" if prec < parent_prec else body
        args = ", ".join(print_expr(a) for a in e.args)
        return f"{e.op}({args})"
    raise TypeError(f"not an expression: {e!r}")


def print_cmd(c: Cmd, indent: int = 0) -> str:
    pad = "  " * indent

    def block(body: Cmd) -> str:
        return "{\n" + print_cmd(body, indent + 1) + "\n" + pad + "}"

    if isinstance(c, Skip):
        return pad + "skip"
    if isinstance(c, Score):
        return pad + f"score({print_expr(c.expr)})"
    if isinstance(c, Assign):
        return pad + f"{c.var.text()} := {print_expr(c.expr)}"
    if isinstance(c, Fetch):
        return pad + f"{c.var.text()} := fetch({print_expr(c.index)})"
    if isinstance(c, Seq):
        return ";\n".join(print_cmd(item, indent) for item in c.items)
    if isinstance(c, Ifz):
        return (pad + f"ifz {print_expr(c.cond)} " + block(c.then)
                + " else " + block(c.orelse))
    if isinstance(c, For):
        return pad + f"for {c.var.text()} in range({c.count}) " + block(c.body)
    if isinstance(c, LoopFixpt):
        return pad + f"loop_fixpt_noacc({c.count}) " + block(c.body)
    if isinstance(c, ExtendIndex):
        return pad + f'extend_index("{c.name}", {c.count}) ' + block(c.body)
    if isinstance(c, LookupIndex):
        return pad + f'{c.var.text()} := lookup_index("{c.name}")'
    if isinstance(c, Shift):
        return pad + f'shift("{c.name}")'
    if isinstance(c, ExtendedLoopShift):
        return pad + f'extended_loop_with_shift("{c.name}", {c.count}) ' + block(c.body)
    raise TypeError(f"not a command: {c!r}")
