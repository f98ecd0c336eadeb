"""Relaxed fixed-point semantics: flags, fixcheck, and the fused loop.

A flag records, per variable and per active index, whether the first
access in the current scope was a read (0) or a write (1).  The relaxed
loop masks write-first indices out of its fixed-point comparison, which
can retire speculation one round earlier than plain state equality.
Every other command runs by the target interpreter's rules, which record
the flag as they go.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import NotComparable
from .evalexpr import eval_expr
from .indices import AChain, Index, ROOT_CHAIN
from .pmap import PMap
from .rdb import Rdb
from .state import SPARSE, LoopRound, TgtOutcome, make_state
from .syntax import Cmd, ExtendedLoopShift, Variable, validate_tier
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


EMPTY_FLAG = Flag({})


def bits_on(chain: AChain, bit: int) -> dict[Index, int]:
    return {i: bit for i in chain}


def flag_update(flag: Flag, fills: Mapping[Variable, Mapping[Index, int]]) -> Flag:
    """Fill gaps from `fills`; existing entries win (first access sticks)."""
    out = {v: dict(b) for v, b in flag.per_var.items()}
    for var, bits in fills.items():
        cell = out.setdefault(var, {})
        for i, b in bits.items():
            cell.setdefault(i, b)
    return Flag(out)


def flag_leq(small: Flag, big: Flag) -> bool:
    for var, bits in small.per_var.items():
        other = big.per_var.get(var, {})
        for i, b in bits.items():
            if other.get(i) != b:
                return False
    return True


def flag_diff(big: Flag, small: Flag) -> Flag:
    """Entries of `big` at indices absent from `small`."""
    if not flag_leq(small, big):
        raise NotComparable("flag difference requires small <= big")
    out: dict[Variable, dict[Index, int]] = {}
    for var, bits in big.per_var.items():
        held = small.per_var.get(var, {})
        kept = {i: b for i, b in bits.items() if i not in held}
        if kept:
            out[var] = kept
    return Flag(out)


def flag_shift(flag: Flag, rho: Mapping[Index, Index]) -> Flag:
    """Relocate each variable's bits like a state cell (no totality fixup)."""
    return Flag({
        var: PMap(bits).copied(rho).entries
        for var, bits in flag.per_var.items()
    })


def flag_unshift(flag: Flag, rho: Mapping[Index, Index], chain: AChain) -> Flag:
    """Approximate inverse of flag_shift over the given antichain.

    On the antichain a bit is pulled back from its shift target; at a shift
    source outside the antichain the own bit and the target bit must agree
    (or the entry is dropped); elsewhere bits pass through.
    """
    out: dict[Variable, dict[Index, int]] = {}
    for var, bits in flag.per_var.items():
        cell: dict[Index, int] = {}
        for i in chain:
            target = rho.get(i)
            if target is not None and target in bits:
                cell[i] = bits[target]
        for i, target in rho.items():
            if i in chain.members:
                continue
            own, moved = bits.get(i), bits.get(target)
            if own is not None and own == moved:
                cell[i] = own
        for i, b in bits.items():
            if i not in chain.members and i not in rho:
                cell[i] = b
        if cell:
            out[var] = cell
    return Flag(out)


def flag_pull_back(flag: Flag, chain: AChain, name: str, count: int,
                   k: int) -> Flag:
    """Round k's flag of a fused loop, seen from its outer chain.

    Equals flag_unshift applied k + 1 times through
    shift_rho(chain.extend(name, count), name), restricted to the chain:
    an outer index takes the bit of its slot 0 when slots 0..min(k,
    count - 1) all hold that bit, and no bit otherwise.
    """
    slots = range(1, min(k, count - 1) + 1)
    out: dict[Variable, dict[Index, int]] = {}
    for var, bits in flag.per_var.items():
        cell: dict[Index, int] = {}
        for i in chain:
            b = bits.get(i.append(name, 0))
            if b is not None and all(bits.get(i.append(name, j)) == b
                                     for j in slots):
                cell[i] = b
        out[var] = cell
    return Flag(out)


def flag_restrict(flag: Flag, chain: AChain) -> Flag:
    return Flag({
        var: {i: b for i, b in bits.items() if i in chain.members}
        for var, bits in flag.per_var.items()
    })


def fixcheck(state0, state1, flag: Flag, chain: AChain) -> bool:
    """Masked fixed-point test: agree on the chain minus write-first slots."""
    variables = state0.variables() | state1.variables() | flag.variables()
    for var in sorted(variables, key=Variable.sort_key):
        bits = flag.per_var.get(var, {})
        where = [i for i in chain if bits.get(i) != 1]
        if not state0.eq_on(state1, where, [var]):
            return False
    return True


class _RelaxedRun(_TargetRun):
    """The shared rules with first accesses recorded, plus the fused loop."""

    def __init__(self, program: Cmd, db: Rdb, chain: AChain):
        super().__init__(program, db, FIXPOINT, chain)
        self.first = {}

    def eval_at(self, expr, state, i: Index):
        # looked up in this module, where perfbench/tracer.py wraps it
        return eval_expr(expr, lambda var: state.read(var, i))

    def run(self, c: Cmd, state, chain: AChain):
        if isinstance(c, ExtendedLoopShift):
            return self.run_fused(c, state, chain)
        return super().run(c, state, chain)

    def run_fused(self, c: ExtendedLoopShift, state, chain: AChain):
        site = self.sites[id(c)]
        inner = chain.extend(c.name, c.count)
        rho = shift_rho(inner, c.name)
        outer = self.first
        zeros = dict.fromkeys(inner, 0.0)
        hit = False
        rounds = 0
        for k in range(c.count):
            self.score.update(zeros)
            shifted = state.copied(rho)
            self.first = {}
            state = self.run(c.body, shifted, inner)
            round_flag = Flag(self.first)
            self.first = outer
            rounds += 1
            pulled = flag_pull_back(round_flag, chain, c.name, c.count, k)
            for var, bits in pulled.per_var.items():
                self.note(var, bits.items())
            if fixcheck(shifted, state.copied(rho), round_flag, inner):
                hit = True
                break
        self.trace.append(LoopRound(site, rounds, hit))
        return self.leave(state, chain, c.name, c.count)


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
