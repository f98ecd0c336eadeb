"""Relaxed fixed-point semantics: flags, fixcheck, and the fused loop.

A flag records, per variable and per active index, whether the first
access in the current scope was a read (0) or a write (1).  The relaxed
loop masks write-first indices out of its fixed-point comparison, which
can retire speculation one round earlier than plain state equality.
Every other command first records its own accesses (the reads of its
expression, then the write of its variable), a chain at a time, by row of
the base chain as scores are kept, and then runs by the target
interpreter's rules; the records become a `Flag` at the end of the run.
The masked check compares a variable's two columns on the unmasked rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Mapping

# not called here: perfbench/tracer.py wraps eval_expr in every
# interpreter module, this one included
from .evalexpr import eval_expr  # noqa: F401
from .indices import AChain, Index, ROOT_CHAIN
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

    @classmethod
    def of_rows(cls, first: Mapping[Variable, list], chain: AChain) -> "Flag":
        """The records `first` holds at the chain's rows, by index."""
        return cls({var: {i: bits[row] for i, row
                          in zip(chain, chain.base_rows[1])
                          if bits[row] is not None}
                    for var, bits in first.items()})

    def bits(self, var: Variable) -> dict[Index, int]:
        return dict(self.per_var.get(var, {}))

    def variables(self) -> set[Variable]:
        return set(self.per_var)

    def __repr__(self) -> str:
        parts = []
        for var in sorted(self.per_var, key=Variable.sort_key):
            bits = self.per_var[var]
            inner = ", ".join(f"{i.text()}:{bits[i]}"
                              for i in sorted(bits, key=Index.sort_key))
            parts.append(f"{var.text()}={{{inner}}}")
        return f"Flag({'; '.join(parts)})"


def flag_pull_back(first: Mapping[Variable, list], count: int,
                   k: int) -> dict[Variable, list]:
    """Round k's records of a fused loop on inner = chain.extend(name,
    count), by row of inner, seen from the outer chain, by thread.

    Equals the definition `flag_unshift` (tests/_spec.py) applied k + 1
    times through shift_rho(inner, name), restricted to the chain: an
    outer thread takes the bit of its slot 0 when slots 0..min(k, count -
    1) all hold that bit, and no bit (None) otherwise.  In inner's order a
    thread's `count` slots follow one another.
    """
    span = min(k, count - 1) + 1
    return {var: [bits[s] if len(set(bits[s:s + span])) == 1 else None
                  for s in range(0, len(bits), count)]
            for var, bits in first.items()}


def fixcheck(state0, state1, first: Mapping[Variable, list],
             chain: AChain) -> bool:
    """Masked fixed-point test: agree on the chain minus the write-first
    rows of `first`; variables neither state holds read alike."""
    rows = chain.base_rows[1]
    variables = state0.variables() | state1.variables()
    for var in sorted(variables, key=Variable.sort_key):
        bits = first.get(var)
        where = list(chain) if bits is None else [
            i for i, row in zip(chain, rows) if bits[row] != 1]
        if not state0.eq_on(state1, where, [var]):
            return False
    return True


# the field holding the expression a command reads
_READS = {Score: "expr", Assign: "expr", Fetch: "index", Ifz: "cond"}


class _RelaxedRun(_TargetRun):
    """The shared rules with first accesses recorded, plus the fused loop.

    `first` is {Variable: [None | 0 | 1]}: each variable's first access
    per row of the current base chain, read (0) or write (1), or None.
    """

    def __init__(self, program: Cmd, db: Rdb, chain: AChain):
        super().__init__(program, db, FIXPOINT, chain)
        self.first: dict[Variable, list] = {}

    def run(self, c: Cmd, state, chain: AChain):
        """Record the accesses `c` makes before its subcommands run, then
        run it: a for-loop writes its counter only when it iterates."""
        if isinstance(c, ExtendedLoopShift):
            return self.extend_index(c, state, chain,
                                     partial(self.run_fused, c, chain))
        read = _READS.get(type(c))
        if read is not None:
            for var in free_vars(getattr(c, read)):
                self.note(var, chain, [0] * len(chain))
        if (isinstance(c, (Assign, Fetch, LookupIndex))
                or isinstance(c, For) and c.count > 0):
            self.note(c.var, chain, [1] * len(chain))
        return super().run(c, state, chain)

    def note(self, var: Variable, chain: AChain, bits: list) -> None:
        """Record each thread's bit (None for none) at its row, in a list
        the records may keep; a row's first access sticks."""
        base, rows = chain.base_rows
        cell = self.first.get(var)
        if cell is None and base is chain:
            self.first[var] = bits
        elif cell is None or None in cell:
            cell = self.first.setdefault(var, [None] * len(base))
            for row, bit in zip(rows, bits):
                if cell[row] is None:
                    cell[row] = bit

    def run_fused(self, c: ExtendedLoopShift, chain: AChain, state,
                  inner: AChain):
        """The fused loop's rounds on inner = chain.extend(c.name,
        c.count), whose first accesses each round pulls back to `chain`."""
        rho = shift_rho(inner, c.name)
        outer = self.first

        def one_round(k: int, states):
            # round k runs on the copy that round k - 1 made for its check
            shifted = states[1]
            self.first = {}
            state = self.run(c.body, shifted, inner)
            first, self.first = self.first, outer
            for var, bits in flag_pull_back(first, c.count, k).items():
                self.note(var, chain, bits)
            following = state.copied(rho)
            # looked up in this module, where perfbench/tracer.py wraps it
            return (state, following), fixcheck(shifted, following, first,
                                                inner)

        return self.run_rounds(c, one_round, (state, state.copied(rho)))[0]


def run_relaxed(c: Cmd, db: Rdb, state=None, chain: AChain = ROOT_CHAIN,
                backend: str = SPARSE):
    """Run a relaxed-tier command; returns (outcome, flag)."""
    validate_tier(c, "relaxed")
    if state is None:
        state = make_state(backend)
    runner = _RelaxedRun(c, db, chain)
    final = runner.run(c, state, chain)
    return (TgtOutcome(final, runner.score_map(chain), tuple(runner.trace)),
            Flag.of_rows(runner.first, chain))
