"""Relaxed fixed-point semantics: flags, fixcheck, and the interpreter.

A flag records, per variable and per active index, whether the first
access in the current scope was a read (0) or a write (1).  The relaxed
loop masks write-first indices out of its fixed-point comparison, which
can retire speculation one round earlier than plain state equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .errors import MissingString, NotComparable, ScoreNaN
from .evalexpr import eval_expr
from .indices import AChain, Index, ROOT_CHAIN
from .pmap import PMap
from .rdb import Rdb
from .state import SPARSE, LoopRound, TgtOutcome, make_state
from .syntax import (Assign, Cmd, ExtendedLoopShift, Fetch, For, Ifz,
                     LookupIndex, Score, Seq, Skip, Variable,
                     free_vars, validate_tier)
from .target_interp import exit_rho, loop_sites, shift_rho


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


def flag_merge(first: Flag, second: Flag) -> Flag:
    """Sequential composition: entries of `first` win over `second`."""
    return flag_update(first, second.per_var)


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


def flag_unshift_n(flag: Flag, rho: Mapping[Index, Index], chain: AChain,
                   times: int) -> Flag:
    for _ in range(times):
        flag = flag_unshift(flag, rho, chain)
    return flag


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


class _RelaxedRun:
    def __init__(self, program: Cmd, db: Rdb):
        self.db = db
        self.sites = loop_sites(program)
        self.trace: list[LoopRound] = []

    def eval_at(self, expr, state, i: Index):
        return eval_expr(expr, lambda var: state.read(var, i))

    def run(self, c: Cmd, state, chain: AChain):
        if isinstance(c, Skip):
            return state, EMPTY_FLAG, {i: 0.0 for i in chain}
        if isinstance(c, Score):
            tensor: dict[Index, float] = {}
            for i in chain:
                value = self.eval_at(c.expr, state, i)
                if math.isnan(value):
                    raise ScoreNaN(f"score evaluated to NaN at {i.text()}")
                tensor[i] = value
            flag = flag_update(EMPTY_FLAG, self.reads(c.expr, chain))
            return state, flag, tensor
        if isinstance(c, Assign):
            written = {i: self.eval_at(c.expr, state, i) for i in chain}
            flag = flag_update(EMPTY_FLAG, self.reads(c.expr, chain))
            flag = flag_update(flag, {c.var: bits_on(chain, 1)})
            return state.updated(c.var, written), flag, {i: 0.0 for i in chain}
        if isinstance(c, Fetch):
            written = {
                i: self.db.lookup(self.eval_at(c.index, state, i)) for i in chain
            }
            flag = flag_update(EMPTY_FLAG, self.reads(c.index, chain))
            flag = flag_update(flag, {c.var: bits_on(chain, 1)})
            return state.updated(c.var, written), flag, {i: 0.0 for i in chain}
        if isinstance(c, LookupIndex):
            written: dict[Index, int] = {}
            for i in chain:
                value = i.lookup(c.name)
                if value is None:
                    raise MissingString(f'lookup_index("{c.name}") under {i.text()}')
                written[i] = value
            flag = flag_update(EMPTY_FLAG, {c.var: bits_on(chain, 1)})
            return state.updated(c.var, written), flag, {i: 0.0 for i in chain}
        if isinstance(c, Seq):
            flag = EMPTY_FLAG
            score: dict[Index, float] = {}
            for item in c.items:
                state, part_flag, part = self.run(item, state, chain)
                flag = flag_merge(flag, part_flag)
                score = _oplus(score, part)
            return state, flag, score
        if isinstance(c, Ifz):
            zero, nonzero = chain.partition(
                lambda i: self.eval_at(c.cond, state, i) == 0
            )
            state, then_flag, then_score = self.run(c.then, state, zero)
            state, else_flag, else_score = self.run(c.orelse, state, nonzero)
            flag = flag_update(EMPTY_FLAG, self.reads(c.cond, chain))
            flag = flag_merge(flag_merge(flag, then_flag), else_flag)
            return state, flag, _oplus(then_score, else_score)
        if isinstance(c, For):
            flag = EMPTY_FLAG
            score: dict[Index, float] = {}
            for k in range(c.count):
                state = state.updated(c.var, {i: k for i in chain})
                flag = flag_merge(flag, Flag({c.var: bits_on(chain, 1)}))
                state, part_flag, part = self.run(c.body, state, chain)
                flag = flag_merge(flag, part_flag)
                score = _oplus(score, part)
            return state, flag, score
        if isinstance(c, ExtendedLoopShift):
            return self.run_loop(c, state, chain)
        raise TypeError(f"not a relaxed command: {c!r}")

    def reads(self, expr, chain: AChain) -> dict[Variable, dict[Index, int]]:
        return {var: bits_on(chain, 0) for var in free_vars(expr)}

    def run_loop(self, c: ExtendedLoopShift, state, chain: AChain):
        site = self.sites[id(c)]
        inner = chain.extend(c.name, c.count)
        rho = shift_rho(inner, c.name)
        accumulated = EMPTY_FLAG
        score: dict[Index, float] = {}
        hit = False
        rounds = 0
        for k in range(c.count):
            shifted = state.copied(rho)
            new_state, round_flag, round_score = self.run(c.body, shifted, inner)
            rounds += 1
            accumulated = flag_merge(
                accumulated, flag_unshift_n(round_flag, rho, chain, k + 1)
            )
            state, score = new_state, round_score
            if fixcheck(shifted, new_state.copied(rho), round_flag, inner):
                hit = True
                break
        self.trace.append(LoopRound(site, rounds, hit))
        state = state.copied(exit_rho(chain, c.name, c.count))
        out_score = {
            i: sum(score[i.append(c.name, k)] for k in range(c.count))
            for i in chain
        }
        return state, flag_restrict(accumulated, chain), out_score


def _oplus(left: dict, right: dict) -> dict:
    out = dict(left)
    for i, v in right.items():
        out[i] = out[i] + v if i in out else v
    return out


def run_relaxed(c: Cmd, db: Rdb, state=None, chain: AChain = ROOT_CHAIN,
                backend: str = SPARSE, check_tier: bool = True):
    """Run a relaxed-tier command; returns (outcome, flag)."""
    if check_tier:
        validate_tier(c, "relaxed")
    if state is None:
        state = make_state(backend)
    runner = _RelaxedRun(c, db)
    final, flag, score = runner.run(c, state, chain)
    return TgtOutcome(final, PMap(score), tuple(runner.trace)), flag
