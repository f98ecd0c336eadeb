"""Definitions the tests check the runtime against.

Nothing in `vecloop` calls these; each is the plain, scanning form of
something the interpreters compute another way:
- `max_below`, `in_up` and `in_down` define extend, the written region and
  the downward closure, which `PMap` and `shift_rho` find by walking an
  index's own prefixes;
- the flag algebra (`flag_update` ... `flag_restrict`) defines what
  `relaxed.flag_pull_back` computes in one pass;
- `decode` and `to_csv` read and dump a `DenseMap` cell by cell.
"""

from __future__ import annotations

import io
from typing import Iterable, Mapping, Optional

import numpy as np

from vecloop.dense import DenseMap
from vecloop.errors import NegativeComponent, UnknownString
from vecloop.indices import AChain, Index, prefix_leq
from vecloop.pmap import PMap
from vecloop.relaxed import Flag
from vecloop.syntax import Variable


# -- indices ---------------------------------------------------------------

def max_below(candidates: Iterable[Index], i: Index) -> Optional[Index]:
    """The longest element of `candidates` that is a prefix of i, if any.

    The prefixes of a fixed index form a chain, so "longest" is the maximum.
    """
    best: Optional[Index] = None
    for c in candidates:
        if prefix_leq(c, i) and (best is None or len(c) > len(best)):
            best = c
    return best


def in_up(i: Index, below: Iterable[Index]) -> bool:
    """Membership of i in the upward closure of `below`."""
    return any(prefix_leq(j, i) for j in below)


def in_down(i: Index, above: Iterable[Index]) -> bool:
    """Membership of i in the downward closure of `above`."""
    return any(prefix_leq(i, j) for j in above)


# -- flags -----------------------------------------------------------------

class NotComparable(ValueError):
    """A flag difference whose smaller side is not below the larger one."""


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


def flag_restrict(flag: Flag, chain: AChain) -> Flag:
    return Flag({
        var: {i: b for i, b in bits.items() if i in chain.members}
        for var, bits in flag.per_var.items()
    })


# -- dense maps ------------------------------------------------------------

def decode(m: DenseMap, i: Index):
    """`m.read(i)`, refusing strings without an axis and negative integers."""
    for name, value in i:
        if name not in m.axes:
            raise UnknownString(f'string "{name}" has no axis')
        if value < 0:
            raise NegativeComponent(f"negative integer {value} in {i.text()}")
    return m.read(i)


def to_csv(m: DenseMap) -> str:
    """One line per cell: its coordinates (-1 for "string absent") and value."""
    shape = m.cells.shape
    out = io.StringIO()
    out.write(",".join(m.axes) + ",value\n")
    for coords in np.ndindex(*shape):
        labels = [str(c) if c < extent - 1 else "-1"
                  for c, extent in zip(coords, shape)]
        out.write(",".join(labels) + f",{m.cells.item(coords)!r}\n")
    return out.getvalue()
