"""Dense grid backend for partial maps.

A `DenseMap` is the dense counterpart of a `PMap`: a typed grid with one
axis per string the map was written under, in order of first appearance.
The integer k of a pair addresses position k, and a reserved extra slot
(addressed as -1, stored last) stands for "string absent"; a cell holds the
represented value of the index its non-absent coordinates spell in axis
order, so broadcasting writes are plain slice assignments.  A read stops at
the first string without an axis, integer without a position, or pair out
of axis order: no stored value lies above that prefix.  `copied` drops
trailing axes along which the grid is constant, which changes no read; the
exit copy of a loop makes its axis constant, so each grid keeps only the
axes of the active chain.  `DenseState` holds one DenseMap per variable.

A statement runs once per chain, not once per thread.  The chain's members,
grouped by their string sequence, become integer columns (`_Group`, built
once per chain); a map reads a whole group with one fancy index
(`DenseMap.gather`) and writes one with one assignment, an expression is
evaluated once per operator node over all lanes (`DenseState.lanes`), and a
fetch on a wide enough chain hashes every lane's index in one pass
(`DenseState.fetched`).  Lane forms give the results the scalar ones give,
bit for bit; anything exceptional sends the statement back to one
evaluation per thread.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import (AxisOrderConflict, IntOverflow, NegativeComponent,
                     UnknownString, VecloopError)
from .evalexpr import eval_lanes, expr_kind
from .indices import AChain, Index
from .pmap import PMap
from .rdb import (FNV_PRIME, MIX_ADD, MIX_MUL1, MIX_MUL2, SECOND, Rdb,
                  box_muller, fnv1a)
from .state import DENSE, Lanes, StateBase
from .syntax import INT, REAL, IndexExpr, Variable

_DTYPES = {INT: np.int64, REAL: np.float64}
_INT64 = range(-(1 << 63), 1 << 63)


def dtype_of(var: Variable):
    return _DTYPES[var.type]


class _Group:
    """Indices that share one string sequence.

    `matrix` holds their integers, one row per index; `rows` holds their
    positions in the sequence they were grouped from, or is None when the
    group is that whole sequence, in order.  Per column, `lows` is the least
    integer and `needs` the extent (greatest integer + 2) a grid needs.
    """

    __slots__ = ("names", "matrix", "rows", "lows", "needs")

    def __init__(self, names: tuple[str, ...], matrix: np.ndarray,
                 rows: Optional[np.ndarray]):
        self.names = names
        self.matrix = matrix
        self.rows = rows
        self.lows = matrix.min(axis=0).tolist()
        self.needs = (matrix.max(axis=0) + 2).tolist()


def _grouped(indices: Sequence[Index]) -> tuple[_Group, ...]:
    """The indices grouped by string sequence, in order of first appearance."""
    found: dict[tuple[str, ...], tuple[list[int], list[list[int]]]] = {}
    for position, i in enumerate(indices):
        pairs = i.pairs
        names = tuple([name for name, _ in pairs])
        group = found.get(names)
        if group is None:
            group = found[names] = ([], [])
        group[0].append(position)
        group[1].append([value for _, value in pairs])
    whole = len(found) == 1
    return tuple(
        _Group(names, np.array(ints, np.int64).reshape(len(ints), len(names)),
               None if whole else np.array(rows, np.intp))
        for names, (rows, ints) in found.items())


_COLUMNS = "dense.columns"


def _columns(chain: AChain) -> tuple[_Group, ...]:
    """The chain's members as grouped columns, built once per chain."""
    groups = chain.memo.get(_COLUMNS)
    if groups is None:
        groups = chain.memo[_COLUMNS] = _grouped(tuple(chain))
    return groups


def _relocation_columns(rho: Mapping[Index, Index]):
    """rho's sources and targets as grouped columns; a `Relocation` keeps
    them, so they are built once per chain."""
    derived = getattr(rho, "derived", {})
    found = derived.get(_COLUMNS)
    if found is None:
        found = derived[_COLUMNS] = (_grouped(list(rho)),
                                     _grouped(list(rho.values())))
    return found


def _subset(groups: tuple[_Group, ...], keep: np.ndarray) -> tuple[_Group, ...]:
    """The columns of the members `keep` selects, in the order they keep."""
    if groups[0].rows is None:
        return (_Group(groups[0].names, groups[0].matrix[keep], None),)
    position = np.cumsum(keep) - 1
    return tuple(_Group(g.names, g.matrix[mine], position[g.rows[mine]])
                 for g in groups if (mine := keep[g.rows]).any())


def _write_order(g: _Group) -> tuple:
    return (len(g.names), g.names)


def _cell_indices(axes: tuple[str, ...], shape: tuple[int, ...]) -> Iterator[Index]:
    """The index each grid cell stands for, in C order."""
    for coords in np.ndindex(*shape):
        yield Index(tuple((name, c) for name, c, extent
                          in zip(axes, coords, shape) if c < extent - 1))


class DenseMap:
    """One partial map as a grid over its own axes."""

    def __init__(self, axes: tuple[str, ...], cells: np.ndarray):
        self.axes = axes
        self.cells = cells
        self._axis = {name: k for k, name in enumerate(axes)}

    def read(self, i: Index):
        """Represented value at i: the cell of its longest addressable prefix."""
        coords = [-1] * len(self.axes)
        shape = self.cells.shape
        last = -1
        for name, value in i.pairs:
            axis = self._axis.get(name, -1)
            if axis <= last or not 0 <= value < shape[axis] - 1:
                break
            coords[axis] = value
            last = axis
        return self.cells.item(tuple(coords))

    def gather(self, groups: tuple[_Group, ...], count: int):
        """`read` at each of `count` grouped indices, one fancy index per
        group: an array in the indices' order, or a Python scalar when
        every read gives the same cell."""
        if not self.axes:
            return self.cells.item()
        out = None
        for g in groups:
            got = self._gathered(g)
            if g.rows is None:
                return got
            if out is None:
                out = np.empty(count, self.cells.dtype)
            out[g.rows] = got
        return out

    def _gathered(self, g: _Group):
        """`read` at every index of one group, under the same stop rules."""
        shape = self.cells.shape
        coords: list = [-1] * len(shape)
        live = None
        last = -1
        for k, name in enumerate(g.names):
            axis = self._axis.get(name, -1)
            if axis <= last:
                break
            last = axis
            column = g.matrix[:, k]
            if g.lows[k] < 0 or g.needs[k] > shape[axis]:
                inside = (column >= 0) & (column < shape[axis] - 1)
                live = inside if live is None else live & inside
            coords[axis] = column if live is None else np.where(live, column, -1)
        if last < 0:
            return self.cells.item(tuple(coords))
        return self.cells[tuple(coords)]

    def updated(self, tensor: Mapping[Index, object]) -> "DenseMap":
        """Overwrite with `tensor`: each index sets every cell above it.
        New strings become new last axes, in order of appearance."""
        if isinstance(tensor, Lanes):
            groups = _columns(tensor.chain)
            data = tensor.data
        else:
            groups = _grouped(list(tensor))
            data = list(tensor.values())
        return self._written(groups, _typed(data, self.cells.dtype))

    def _written(self, groups: tuple[_Group, ...], data) -> "DenseMap":
        """A copy that holds data[k] at every cell above the k-th grouped
        index (`data` may be one value for all).  The axes grow first; then
        each group is one assignment, shorter indices first, so an index
        overrides its prefixes.  A group whose strings do not map to
        strictly increasing axes raises AxisOrderConflict."""
        axes, extents = dict(self._axis), list(self.cells.shape)
        for g in groups:
            last = -1
            for name, need in zip(g.names, g.needs):
                axis = axes.setdefault(name, len(extents))
                if axis <= last:
                    raise AxisOrderConflict(
                        f"a write under the strings {g.names} meets the "
                        f"axes {tuple(axes)} in another order")
                last = axis
                if axis == len(extents):
                    extents.append(need)
                elif need > extents[axis]:
                    extents[axis] = need
        m = DenseMap(tuple(axes), self._grown(extents))
        cells = m.cells
        lanewise = isinstance(data, np.ndarray) and data.ndim == 1
        for g in sorted(groups, key=_write_order):
            values = data[g.rows] if lanewise and g.rows is not None else data
            bound = [axes[name] for name in g.names]
            if not bound:
                cells[...] = values[-1] if lanewise else values
                continue
            top = max(bound)
            free = cells.ndim - top - 1
            region: list = [-1] * (top + 1) + [slice(None)] * free
            for k, axis in enumerate(bound):
                region[axis] = g.matrix[:, k]
            if lanewise:
                values = values.reshape(values.shape + (1,) * free)
            cells[tuple(region)] = values
        return m

    def copied(self, rho: Mapping[Index, Index]) -> "DenseMap":
        """Relocate represented values along the injective map `rho`, then
        drop the trailing axes along which the grid is constant."""
        return self._relocated(*_relocation_columns(rho), len(rho))

    def _relocated(self, sources: tuple[_Group, ...],
                   targets: tuple[_Group, ...], count: int) -> "DenseMap":
        """`copied`, with rho's sources and targets grouped: one gather at
        the sources, one scatter at the targets."""
        m = self._written(targets, self.gather(sources, count))
        while m.axes and (short := m._dropped(len(m.axes) - 1, True)) is not None:
            m = short
        return m

    def same_function(self, other: "DenseMap") -> bool:
        """Both maps give the same read at every index.

        An axis only one side has must be droppable there, since a read
        naming its string stops on the other side.  The shared axes are then
        grown to common extents and the grids compared cell by cell.
        """
        left, right = self._restricted(other.axes), other._restricted(self.axes)
        if left is None or right is None:
            return False
        if left.axes != right.axes:
            # the shared strings come in different orders: compare entries
            return left._pmap().same_function(right._pmap())
        mine, theirs = left.cells, right.cells
        if mine.shape != theirs.shape:
            extents = tuple(map(max, mine.shape, theirs.shape))
            mine, theirs = left._grown(extents), right._grown(extents)
        # a NaN equals a NaN, as in PMap.same_function
        return np.array_equal(mine, theirs) or (
            mine.dtype == np.float64
            and np.array_equal(mine, theirs, equal_nan=True))

    def _pmap(self) -> PMap:
        """The PMap storing every cell at the index it stands for."""
        return PMap(zip(_cell_indices(self.axes, self.cells.shape),
                        self.cells.ravel().tolist()))

    def _grown(self, extents: Sequence[int]) -> np.ndarray:
        """A fresh grid with these extents, for this map's axes and then new
        ones.

        A read at a new position stopped on its axis before, so the
        position takes the cell absent on that axis and every later one.
        """
        grid = self.cells.reshape(
            self.cells.shape + (1,) * (len(extents) - self.cells.ndim)).copy()
        for axis, extent in enumerate(extents):
            old = grid.shape[axis]
            if extent > old:
                grid = np.take(grid, [*range(old), *[old - 1] * (extent - old)],
                               axis=axis)
                grid[(slice(None),) * axis + (slice(old - 1, -1),)] = _stop(grid, axis)
        return grid

    def _dropped(self, axis: int, exact: bool) -> Optional["DenseMap"]:
        """This map without `axis`, or None when dropping it changes a read,
        bit for bit when `exact` (so 0.0 and -0.0 stay apart), else under ==
        with a NaN equal to a NaN.

        Once the axis is gone a read naming its string stops there, so every
        cell with the axis set must equal that stopped read.
        """
        grid = self.cells
        floats = grid.dtype == np.float64
        if exact and floats:
            grid = grid.view(np.int64)
        before = (slice(None),) * axis
        cells, stop = grid[before + (slice(0, -1),)], _stop(grid, axis)
        same = cells == stop
        if floats and not exact:
            same |= np.isnan(cells) & np.isnan(stop)
        if not same.all():
            return None
        return DenseMap(self.axes[:axis] + self.axes[axis + 1:],
                        self.cells[before + (-1, ...)].copy())

    def _restricted(self, names: tuple[str, ...]) -> Optional["DenseMap"]:
        """This map without the axes whose string is not in `names`, or None
        when dropping one of them changes a read under ==."""
        m = self
        for axis in reversed(range(len(self.axes))):
            if m is not None and self.axes[axis] not in names:
                m = m._dropped(axis, False)
        return m


def _stop(grid: np.ndarray, axis: int) -> np.ndarray:
    """The cells absent on `axis` and every later axis, shaped to broadcast
    along them: what a read that stops at `axis` gives."""
    tail = grid.ndim - axis
    stop = grid[(slice(None),) * axis + (-1,) * tail + (...,)]
    return stop.reshape(stop.shape + (1,) * tail)


def dense_encode(m: PMap, dims: Optional[Mapping[str, int]] = None,
                 dtype=None) -> DenseMap:
    """The DenseMap reading like m.

    Axes follow `dims` (string -> axis number) when given, else the first
    appearance of each string along m's indices, shorter indices first.
    The grid's dtype is inferred from the values unless given.
    """
    extents: dict[str, int] = {}
    if dims is not None:
        extents = dict.fromkeys(sorted(dims, key=dims.get), 1)
    for i in sorted(m.domain(), key=lambda j: (len(j), j.sort_key())):
        for name, value in i:
            if name not in extents:
                if dims is not None:
                    raise UnknownString(f'string "{name}" has no axis')
                extents[name] = 1
            if value < 0:
                raise NegativeComponent(f"negative integer {value} in {i.text()}")
            extents[name] = max(extents[name], value + 2)
    axes, shape = tuple(extents), tuple(extents.values())
    values = [m.extend_eval(i) for i in _cell_indices(axes, shape)]
    return DenseMap(axes, _typed(values, dtype).reshape(shape))


def _typed(values: list, dtype) -> np.ndarray:
    """`values` as an array of `dtype`; an int outside int64 raises
    IntOverflow, where the sparse backend would keep the Python int."""
    try:
        return np.asarray(values, dtype)
    except OverflowError:
        big = max(values, key=abs)
        raise IntOverflow(f"int {big} lies outside int64, the dense "
                          f"backend's int type") from None


class DenseState(StateBase):
    """State backend: one DenseMap per touched variable."""

    backend = DENSE

    def __init__(self, cells: Mapping[Variable, DenseMap] | None = None):
        self.cells: dict[Variable, DenseMap] = dict(cells or {})

    def variables(self) -> set[Variable]:
        return set(self.cells)

    def _map(self, var: Variable) -> DenseMap:
        m = self.cells.get(var)
        return m if m is not None else DenseMap((), np.zeros((), dtype_of(var)))

    def grid(self, var: Variable) -> np.ndarray:
        return self._map(var).cells

    def read(self, var: Variable, i: Index):
        return self._map(var).read(i)

    def lanes(self, expr, chain: AChain) -> Optional[Lanes]:
        """The values of `expr` on the chain, each operator node evaluated
        once for all lanes; None on an empty chain, and when that meets
        anything exceptional (a domain error, an int outside int64), so that
        the interpreter evaluates once per thread and fails as that does."""
        if not chain:
            return None
        groups, count = _columns(chain), len(chain)
        reads: dict[Variable, object] = {}

        def read(var: Variable):
            if var not in reads:
                reads[var] = self._map(var).gather(groups, count)
            return reads[var]

        try:
            with np.errstate(all="ignore"):
                value = eval_lanes(expr, read, _apply)
                if not isinstance(value, np.ndarray):
                    value = np.full(count, value, _DTYPES[expr_kind(expr)])
                return Lanes(chain, value)
        except (VecloopError, ArithmeticError):
            # a domain error, or an int the lanes cannot hold (OverflowError)
            # or a divisor of 0 (ZeroDivisionError) on some lane
            return None

    def fetched(self, index: IndexExpr, chain: AChain, db: Rdb) -> Optional[Lanes]:
        """`db`'s value at the index `index` spells on each thread of the
        chain, from one pass over all lanes (`_looked_up`); None on a chain
        narrower than FETCH_MIN_LANES, on an index repeating a string, and
        where `lanes` declines a pair's integer, so that the interpreter
        fetches once per thread and fails as that does."""
        names = tuple([name for name, _ in index.pairs])
        if len(chain) < FETCH_MIN_LANES or len(set(names)) < len(names):
            return None
        columns = []
        for _, z in index.pairs:
            column = self.lanes(z, chain)
            if column is None or column.data.dtype != np.int64:
                return None
            columns.append(column.data)
        return Lanes(chain, _looked_up(db, names, columns, len(chain)))

    def split(self, cond: Lanes) -> tuple[AChain, AChain]:
        """The chain's members whose `cond` lane is 0, and the rest; each
        part keeps its rows of the chain's columns.  `cond` may hold an
        array or a list."""
        zero = np.asarray(cond.data) == 0
        parts = cond.chain.compress(zero.tolist())
        groups = _columns(cond.chain)
        for part, keep in zip(parts, (zero, ~zero)):
            if part:
                part.memo[_COLUMNS] = _subset(groups, keep)
        return parts

    def updated(self, var: Variable, tensor: Mapping[Index, object]) -> "DenseState":
        if not tensor:
            return self
        return DenseState({**self.cells, var: self._map(var).updated(tensor)})

    def copied(self, rho: Mapping[Index, Index]) -> "DenseState":
        if not rho:
            return self
        sources, targets = _relocation_columns(rho)
        return DenseState({v: m._relocated(sources, targets, len(rho))
                           for v, m in self.cells.items()})

    def same_function(self, other: "DenseState") -> bool:
        for var in sorted(self.variables() | other.variables(),
                          key=Variable.sort_key):
            if not self._map(var).same_function(other._map(var)):
                return False
        return True

    def canonical_text(self) -> str:
        return "; ".join(f"{var.text()}={m.axes!r}:{m.cells.tolist()!r}"
                         for var, m in sorted(self.cells.items(),
                                              key=lambda kv: kv[0].sort_key()))


# Lane forms of the operators.  Each raises OverflowError or
# ZeroDivisionError where its scalar form would fail or give an int outside
# int64, so that the statement runs once per thread instead.


def _int_add(a, b):
    r = np.add(a, b)
    if (((a ^ r) & (b ^ r)) < 0).any():
        raise OverflowError("int64 overflow")
    return r


def _int_sub(a, b):
    r = np.subtract(a, b)
    if (((a ^ b) & (a ^ r)) < 0).any():
        raise OverflowError("int64 overflow")
    return r


def _int_mul(a, b):
    # the float product is within a few ulps of the exact one, so every
    # product outside int64 reaches 2**62
    if (np.abs(np.multiply(a, b, dtype=np.float64)) >= 2.0 ** 62).any():
        raise OverflowError("int64 overflow")
    return np.multiply(a, b)


def _nonzero(b) -> None:
    if np.any(np.equal(b, 0)):
        raise ZeroDivisionError("zero divisor")


def _div(a, b):
    _nonzero(b)
    return np.true_divide(a, b)


def _mod(a, b):
    _nonzero(b)
    return np.remainder(a, b)


def _eq(a, b):
    return np.not_equal(a, b).astype(np.int64)


def _lt(a, b):
    return np.logical_not(np.less(a, b)).astype(np.int64)


def _const(a):
    return a


def _to_real(a):
    return a.astype(np.float64)


# (op, result kind) -> lane form giving the scalar form's results exactly;
# the remaining operators (exp, log, normal_logpdf) map their scalar form
_LANE_OPS = {
    ("add", INT): _int_add, ("sub", INT): _int_sub, ("mul", INT): _int_mul,
    ("mod", INT): _mod, ("eq", INT): _eq, ("lt", INT): _lt,
    ("rlt", INT): _lt, ("const", INT): _const,
    ("add", REAL): np.add, ("sub", REAL): np.subtract,
    ("mul", REAL): np.multiply, ("div", REAL): _div, ("neg", REAL): np.negative,
    ("to_real", REAL): _to_real,
}


def _apply(op: str, kind: str, fn, args: list):
    """One operator node on all lanes; see `evalexpr.eval_lanes`."""
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    if not arrays:
        # every lane holds the same arguments: the scalar form, once
        return fn(*args)
    if any(type(a) is int and a not in _INT64 for a in args):
        raise OverflowError("int literal outside int64")
    lane = _LANE_OPS.get((op, kind))
    if lane is not None:
        return lane(*args)
    count = len(arrays[0])
    columns = [a.tolist() if isinstance(a, np.ndarray) else repeat(a, count)
               for a in args]
    return np.array([fn(*values) for values in zip(*columns)], _DTYPES[kind])


# Chains narrower than this fetch once per thread.  For `[("y",t)]` on a
# seeded-normal database, one batched fetch took 55-95 us of CPU time at 2
# to 16 lanes and 214 us at 200, one fetch per thread 10-14 us per lane
# (shared 2-core x86-64 host, Python 3.11, numpy 2.4): the pass breaks even
# at about 6 lanes.  Most dense fetches of `perfbench` `fuzz-corpus` are
# narrower (2,061 of 2,599 have at most 6 lanes, 717 one).
FETCH_MIN_LANES = 8

_U64 = np.uint64
_PRIME, _MIX_ADD, _MIX_MUL1, _MIX_MUL2, _SECOND = map(
    _U64, (FNV_PRIME, MIX_ADD, MIX_MUL1, MIX_MUL2, SECOND))
_11, _27, _30, _31 = map(_U64, (11, 27, 30, 31))
_ONE = _U64(1)


def _looked_up(db: Rdb, names: tuple[str, ...], columns: list[np.ndarray],
               count: int) -> list:
    """`db.lookup` at each lane's index, whose integers are the lanes of
    `columns`, one column per string in `names`: the default on every lane,
    then each explicit entry on the lanes that spell its index."""
    if db.default_kind == "const":
        values = [db.default_value] * count
    else:
        values = _hash_normal_lanes(names, columns, db.seed, count)
    explicit = {tuple([value for _, value in i.pairs]): v
                for i, v in db.explicit.items() if i.names() == names}
    if explicit:
        rows = (zip(*[column.tolist() for column in columns]) if columns
                else repeat((), count))
        for lane, row in enumerate(rows):
            v = explicit.get(row)
            if v is not None:
                values[lane] = v
    return values


def _hash_normal_lanes(names: tuple[str, ...], columns: list[np.ndarray],
                       seed: int, count: int) -> list[float]:
    """`rdb.hash_normal` at each lane's index.

    FNV-1a runs over the index's text `[("name",k);...]` on `uint64` lanes:
    the text up to the first column whose lanes differ is hashed once, as a
    Python int; each later constant piece is hashed on every lane, and a
    column's digits byte by byte.  Every operand is `uint64`: numpy turns
    `uint64` mixed with `int64` into `float64`.  The uniform draws are exact
    in `float64`; Box-Muller stays `math` per lane, since numpy's `log` and
    `cos` need not round as libm does.
    """
    h = None
    text = "["
    for k, (name, column) in enumerate(zip(names, columns)):
        text += f'{";" if k else ""}("{name}",'
        low, high = column.min().item(), column.max().item()
        if h is None and low == high:
            text += f"{low})"
            continue
        h = _fnv_digits(_fnv_lanes(h, text, seed, count), column, low, high)
        text = ")"
    h = _mix_lanes(_fnv_lanes(h, text + "]", seed, count))
    u1, u2 = _unit_lanes(h), _unit_lanes(_mix_lanes(h ^ _SECOND))
    return list(map(box_muller, u1.tolist(), u2.tolist()))


def _fnv_lanes(h: Optional[np.ndarray], text: str, seed: int,
               count: int) -> np.ndarray:
    """FNV-1a continued over `text` on every lane of `h`, in place, or
    started over it on `count` lanes when `h` is None."""
    data = text.encode("utf-8")
    if h is None:
        return np.full(count, fnv1a(data, seed), _U64)
    for byte in data:
        h ^= _U64(byte)
        h *= _PRIME
    return h


def _fnv_digits(h: np.ndarray, column: np.ndarray, low: int,
                high: int) -> np.ndarray:
    """FNV-1a continued over each lane's decimal integer, in place; `low`
    and `high` bound the column.  `astype` pads the shorter decimals with
    NUL bytes, which leave a lane's hash alone: xor with 0 and a factor of
    1.  The width is the widest decimal's, as plain `astype("S")` is 21
    bytes wide for any `int64`."""
    width = max(len(str(low)), len(str(high)))
    digits = np.ascontiguousarray(
        column.astype(f"S{width}").view(np.uint8).reshape(-1, width).T, _U64)
    for byte, factor in zip(digits, np.where(digits != 0, _PRIME, _ONE)):
        h ^= byte
        h *= factor
    return h


def _mix_lanes(h: np.ndarray) -> np.ndarray:
    """`rdb._mix` on every lane, in place."""
    h += _MIX_ADD
    h ^= h >> _30
    h *= _MIX_MUL1
    h ^= h >> _27
    h *= _MIX_MUL2
    h ^= h >> _31
    return h


def _unit_lanes(h: np.ndarray) -> np.ndarray:
    """`rdb._unit` on every lane, exact: both operands of the division are
    integers of at most 53 bits, and the divisor a power of two."""
    return ((h >> _11) + _ONE).astype(np.float64) / float(1 << 53)
