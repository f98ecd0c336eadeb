"""Relaxed fixed-point semantics: flags, fixcheck, and the fused loop.

A flag records, per variable and per active index, whether the first
access in the current scope was a read (0) or a write (1).  The relaxed
loop masks write-first indices out of its fixed-point comparison, which
can retire speculation one round earlier than plain state equality.
Every other command first records its own accesses in the flag (the reads
of its expression, then the write of its variable), a chain at a time,
and then runs by the target interpreter's rules.  The masked check
compares a variable's two columns on the unmasked indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping

# not called here: perfbench/tracer.py wraps eval_expr in every
# interpreter module, this one included
from .evalexpr import eval_expr  # noqa: F401
from .indices import AChain, Index, ROOT_CHAIN
from .pmap import PMap
from .rdb import Rdb
from .state import SPARSE, TgtOutcome, make_state
from .syntax import (Assign, Cmd, ExtendedLoopShift, Fetch, For, Ifz,
                     LookupIndex, Score, Variable, free_vars, validate_tier)
from .target_interp import FIXPOINT, _TargetRun, shift_rho


@dataclass(frozen=True)
class Flag:
    """Read-first(0) / write-first(1) records per variable and index."""

    per_var: Mapping[Variable, Mapping[Index, int]]

    def __init__(self, per_var: Mapping[Variable, Mapping[Index, int]] = ()):
        cleaned = {v: dict(b) for v, b in dict(per_var).items() if b}
        object.__setattr__(self, "per_var", cleaned)

    def bits(self, var: Variable) -> dict[Index, int]:
        return dict(self.per_var.get(var, {}))

    def variables(self) -> set[Variable]:
        return set(self.per_var)

    def __eq__(self, other) -> bool:
        return isinstance(other, Flag) and self.per_var == other.per_var

    def __repr__(self) -> str:
        parts = []
        for var in sorted(self.per_var, key=Variable.sort_key):
            bits = self.per_var[var]
            inner = ", ".join(f"{i.text()}:{bits[i]}"
                              for i in sorted(bits, key=Index.sort_key))
            parts.append(f"{var.text()}={{{inner}}}")
        return f"Flag({'; '.join(parts)})"


def flag_pull_back(flag: Flag, chain: AChain, name: str, count: int,
                   k: int) -> Flag:
    """Round k's flag of a fused loop, seen from its outer chain.

    Equals the definition `flag_unshift` (tests/_spec.py) applied k + 1
    times through shift_rho(chain.extend(name, count), name), restricted
    to the chain: an outer index takes the bit of its slot 0 when slots
    0..min(k, count - 1) all hold that bit, and no bit otherwise.
    """
    later = range(1, min(k, count - 1) + 1)
    slots = [(i, i.append(name, 0), [i.append(name, j) for j in later])
             for i in chain]
    out: dict[Variable, dict[Index, int]] = {}
    for var, bits in flag.per_var.items():
        cell: dict[Index, int] = {}
        for i, first, rest in slots:
            b = bits.get(first)
            if b is not None and all(bits.get(j) == b for j in rest):
                cell[i] = b
        out[var] = cell
    return Flag(out)


def fixcheck(state0, state1, flag: Flag, chain: AChain) -> bool:
    """Masked fixed-point test: agree on the chain minus write-first slots."""
    variables = state0.variables() | state1.variables() | flag.variables()
    for var in sorted(variables, key=Variable.sort_key):
        bits = flag.per_var.get(var, {})
        where = [i for i in chain if bits.get(i) != 1]
        if not state0.eq_on(state1, where, [var]):
            return False
    return True


# the field holding the expression a command reads
_READS = {Score: "expr", Assign: "expr", Fetch: "index", Ifz: "cond"}


class _RelaxedRun(_TargetRun):
    """The shared rules with first accesses recorded, plus the fused loop.

    `first` is {Variable: {Index: bit}}: each variable's first access per
    index, read (0) or write (1).
    """

    def __init__(self, program: Cmd, db: Rdb, chain: AChain):
        super().__init__(program, db, FIXPOINT, chain)
        self.first: dict[Variable, dict[Index, int]] = {}

    def run(self, c: Cmd, state, chain: AChain):
        """Record the accesses `c` makes before its subcommands run, then
        run it: a for-loop writes its counter only when it iterates."""
        if isinstance(c, ExtendedLoopShift):
            return self.run_fused(c, state, chain)
        read = _READS.get(type(c))
        if read is not None:
            for var in free_vars(getattr(c, read)):
                self.note(var, dict.fromkeys(chain, 0))
        if (isinstance(c, (Assign, Fetch, LookupIndex))
                or isinstance(c, For) and c.count > 0):
            self.note(c.var, dict.fromkeys(chain, 1))
        return super().run(c, state, chain)

    def note(self, var: Variable, bits: dict[Index, int]) -> None:
        """Record a chain's {index: bit}, a dict the flag may keep; an
        index's first access sticks."""
        cell = self.first.get(var)
        if cell is None:
            self.first[var] = bits
        elif not bits.keys() <= cell.keys():
            self.first[var] = {**bits, **cell}

    def run_fused(self, c: ExtendedLoopShift, state, chain: AChain):
        inner = self.extended(chain, c.name, c.count)
        rho = shift_rho(inner, c.name)
        outer = self.first

        def one_round(k: int, states):
            # round k runs on the copy that round k - 1 made for its check
            shifted = states[1]
            self.first = {}
            state = self.run(c.body, shifted, inner)
            round_flag = Flag(self.first)
            self.first = outer
            pulled = flag_pull_back(round_flag, chain, c.name, c.count, k)
            for var, bits in pulled.per_var.items():
                self.note(var, bits)
            following = state.copied(rho)
            # looked up in this module, where perfbench/tracer.py wraps it
            return (state, following), fixcheck(shifted, following,
                                                round_flag, inner)

        state, _ = self.run_rounds(
            c, partial(self.score.update, dict.fromkeys(inner, 0.0)),
            one_round, (state, state.copied(rho)))
        return self.leave(state, chain, inner, c.name, c.count)


def run_relaxed(c: Cmd, db: Rdb, state=None, chain: AChain = ROOT_CHAIN,
                backend: str = SPARSE):
    """Run a relaxed-tier command; returns (outcome, flag)."""
    validate_tier(c, "relaxed")
    if state is None:
        state = make_state(backend)
    runner = _RelaxedRun(c, db, chain)
    final = runner.run(c, state, chain)
    return (TgtOutcome(final, PMap(runner.score), tuple(runner.trace)),
            Flag(runner.first))
