"""Dense grid backend for partial maps.

A `DenseMap` is the dense counterpart of a `PMap`: a typed grid with one
axis per string the map was written under, in order of first appearance.
The integer k of a pair addresses position k, and a reserved extra slot
(addressed as -1, stored last) stands for "string absent"; a cell holds the
represented value of the index its non-absent coordinates spell in axis
order, so broadcasting writes are plain slice assignments.  A read stops at
the first string without an axis, integer without a position, or pair out
of axis order: no stored value lies above that prefix.  A loop's shift or
exit (`state.Relocation`) leaves a grid without an axis for the loop's
string as it is, since each source then reads what its target reads, an
exit only where each target's strings name every axis, so that nothing
lies above a target to clear; any other `copied` drops trailing axes
along which the grid is constant, which changes no read, and the exit
copy of a loop makes its axis constant, so a grid loses the axis of each
loop it leaves.  `DenseState` holds one DenseMap per variable in
the container both backends share (`state.StateBase`).  The grid layout is
private to this module: a map prints as the canonical entries of the
function it represents (`DenseMap.canonical`), as a PMap does, so a state
prints alike on both backends whatever its grids' shapes.

On grids, a statement runs by the interpreter's per-thread rules, as on
the sparse backend: they read a variable on a whole chain at once
(`DenseState.column`), and write the chain's values at once.  The chain's
members, grouped by their string sequence, become integer columns
(`_Group`, built once per chain, from the parent's columns for a chain
`AChain.extend` made); a part that `AChain.compress` cut takes its rows
(`AChain.part`) of its base chain's columns.  A map reads a whole group
with one fancy index (`DenseMap.gather`) and writes one with one
assignment.

A loop that `target_interp.loop_facts` admits (what `vectorise` makes of
an innermost for-loop) runs its rounds in lane registers where the entry
state allows it (`DenseState.resident`): the chain has one string
sequence and every grid's axes are a proper prefix of it, without the
loop's own string.  Each variable the body writes is then one register
over the chain, a row of one matrix per type (`_Loop`).  The body is
compiled once per loop node (`_Body`, kept in `LoopFixpt.compiled`) into
one closure per command, with each variable bound to its register or its
entry lanes and each operator node to its lane form; a round runs the
shift, a slice copy of each matrix plus the parents' values, read once,
then the closures: a write is in place, under `ifz` at the part's rows;
a score step hands its lanes, as Python floats, to the interpreter's one
score rule (`_TargetRun.add_scores`); and a fixed-point
check, round 1 included, compares the matrices, since no entry grid
stores a value above a member.  Each round still cuts the chain at every
`ifz` and still asks the lane rule (`_lanes`) of every expression: each
operator node runs once on all lanes, numpy computing only the total
float64 operators, bit for bit as their scalar forms, and every other
operator mapping its scalar form over the lanes (`_applied`); and a fetch
on FETCH_MIN_LANES lanes or more hashes every lane's index in one pass,
on fewer looks each lane's index up (`_fetched`).  A compiled body holds
no loop.  The lanes run a loop whole or not at all: where a lane rule
cannot give every thread's bits (an int result outside int64, an
operator's NaN, whose bits IEEE 754 leaves to the implementation, a
domain error, a NaN score), it raises `state.Declined`, and the
interpreter runs the whole loop again on grids from its entry state
(`_TargetRun.run_loop`).  At exit each written variable's grid takes
each parent's last slot, once, and none has the loop's axis, so the
extend_index's exit copy leaves every grid as it is.  The scores are
those of running each round on grids, bit for bit, and the state left
reads and prints the same, though its grids may be wider.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import (AxisOrderConflict, IntOverflow, NegativeComponent,
                     UnknownString, VecloopError)
from .evalexpr import expr_kind, lane_code
from .indices import AChain, Index, _unchecked
from .ops import normal_logpdf
from .pmap import EXIT, SHIFT, PMap
from .rdb import (FNV_PRIME, MIX_ADD, MIX_MUL1, MIX_MUL2, SECOND, Rdb,
                  box_muller, fnv1a)
from .state import DENSE, Declined, Lanes, StateBase
from .syntax import (INT, REAL, Assign, Fetch, Ifz, IndexExpr, LookupIndex,
                     Score, Seq, Skip, Var, Variable)

_DTYPES = {INT: np.int64, REAL: np.float64}


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
_ROWS = "dense.rows"
_SHARED = "dense.shared"


def _part_of(chain: AChain) -> tuple[AChain, Optional[np.ndarray]]:
    """The chain `AChain.compress` cut this chain from, through any number
    of cuts, and the chain's rows in it as an array, built once per chain;
    (chain, None) for a chain that no cut made."""
    if chain.part is None:
        return chain, None
    rows = chain.memo.get(_ROWS)
    if rows is None:
        rows = chain.memo[_ROWS] = np.array(chain.part[1], np.intp)
    return chain.part[0], rows


def _columns(chain: AChain) -> tuple[_Group, ...]:
    """The chain's members as grouped columns, built once per chain: for a
    part, its rows of its base chain's columns; for a chain that
    `AChain.extend` built, from the parent's columns; else from the
    members."""
    groups = chain.memo.get(_COLUMNS)
    if groups is None:
        base, rows = _part_of(chain)
        if not chain:
            groups = ()
        elif rows is not None:
            groups = _subset(_columns(base), rows, len(base))
        elif chain.origin is not None:
            groups = _extended(_columns(chain.origin[0]), *chain.origin[1:])
        else:
            groups = _grouped(tuple(chain))
        chain.memo[_COLUMNS] = groups
    return groups


def _extended(groups: tuple[_Group, ...], name: str,
              count: int) -> tuple[_Group, ...]:
    """The columns of parent.extend(name, count), given the parent's.

    Chain order puts the children of the parent's r-th member at
    r * count + k, k < count, so each group repeats every row `count` times
    and gains the column k.
    """
    slots = np.arange(count)
    out = []
    for g in groups:
        size, width = g.matrix.shape
        matrix = np.empty((size * count, width + 1), np.int64)
        matrix[:, :width] = np.repeat(g.matrix, count, axis=0)
        matrix[:, width] = np.tile(slots, size)
        rows = (None if g.rows is None
                else (g.rows[:, None] * count + slots).ravel())
        out.append(_Group(g.names + (name,), matrix, rows))
    return tuple(out)


def _relocation_columns(rho: Mapping[Index, Index]):
    """rho's sources and targets as grouped columns; a `Relocation` keeps
    them, so they are built once per chain."""
    derived = getattr(rho, "derived", {})
    found = derived.get(_COLUMNS)
    if found is None:
        found = derived[_COLUMNS] = (_grouped(list(rho)),
                                     _grouped(list(rho.values())))
    return found


def _shared(rho) -> frozenset[str]:
    """The strings every target of a nonempty `Relocation` holds, kept
    with it."""
    found = rho.derived.get(_SHARED)
    if found is None:
        found = rho.derived[_SHARED] = frozenset.intersection(
            *[frozenset(t.names()) for t in rho.values()])
    return found


def _subset(groups: tuple[_Group, ...], rows: np.ndarray,
            count: int) -> tuple[_Group, ...]:
    """The columns of the members at `rows`, ascending, of `count`."""
    if groups[0].rows is None:
        return (_Group(groups[0].names, groups[0].matrix[rows], None),)
    keep = np.zeros(count, bool)
    keep[rows] = True
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
        """Relocate represented values along the injective map `rho`, one
        gather at its sources and one scatter at its targets, then trim;
        or this map itself where that changes no read (`_moves_no_read`)."""
        if self._moves_no_read(rho):
            return self
        sources, targets = _relocation_columns(rho)
        return self._written(targets, self.gather(sources, len(rho))).trimmed()

    def _moves_no_read(self, rho: Mapping[Index, Index]) -> bool:
        """Whether `rho` is a loop's shift or exit (`state.Relocation`)
        that changes no read of this map.  Without an axis for the loop's
        string, each source reads what its target reads, since a read
        stops at that string.  A relocation also clears what lies above
        its targets: above a shift's target, every index holds that string
        too, but above an exit's target P, an index reads another cell
        unless every axis is a string of P, which it then cannot add."""
        name = getattr(rho, "name", None)
        if name is None or name in self._axis:
            return False
        return rho.kind == SHIFT or rho.kind == EXIT and (
            not rho or self._axis.keys() <= _shared(rho))

    def trimmed(self) -> "DenseMap":
        """This map without the trailing axes along which its grid is
        constant, bit for bit; no read changes."""
        m = self
        while m.axes and (short := m._dropped(len(m.axes) - 1, True)) is not None:
            m = short
        return m

    def same_function(self, other: "DenseMap") -> bool:
        """Both maps give the same read at every index.

        An axis only one side has must be droppable there, since a read
        naming its string stops on the other side.  The shared axes are then
        grown to common extents and the grids compared cell by cell.  A
        grid a relocation left as is is compared with itself at once.
        """
        if self is other:
            return True
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

    def canonical(self) -> PMap:
        """The canonical PMap of the function this map represents, as
        `PMap.canonical` gives it for any PMap reading alike."""
        return self._pmap().canonical()

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

    Axes follow `dims` (string -> axis number) when given, else an order in
    which every index's strings come in axis order, the first appearance
    of each string along m's indices, shorter indices first, breaking ties
    (`_axis_order`).  The grid's dtype is inferred from the values unless
    given.
    """
    extents: dict[str, int] = {}
    if dims is not None:
        extents = dict.fromkeys(sorted(dims, key=dims.get), 1)
    domain = sorted(m.domain(), key=lambda j: (len(j), j.sort_key()))
    for i in domain:
        for name, value in i:
            if name not in extents:
                if dims is not None:
                    raise UnknownString(f'string "{name}" has no axis')
                extents[name] = 1
            if value < 0:
                raise NegativeComponent(f"negative integer {value} in {i.text()}")
            extents[name] = max(extents[name], value + 2)
    axes = tuple(extents) if dims is not None else _axis_order(extents, domain)
    shape = tuple(extents[name] for name in axes)
    values = [m.extend_eval(i) for i in _cell_indices(axes, shape)]
    return DenseMap(axes, _typed(values, dtype).reshape(shape))


def _axis_order(first: Sequence[str],
                indices: Sequence[Index]) -> tuple[str, ...]:
    """The strings of `first`, in their order there, so that each index's
    strings come in axis order, each string placed as early as the indices
    allow; AxisOrderConflict where no order serves every index."""
    before: dict[str, set[str]] = {name: set() for name in first}
    for i in indices:
        names = i.names()
        for a, b in zip(names, names[1:]):
            before[b].add(a)
    axes: list[str] = []
    while len(axes) < len(first):
        free = [name for name in first
                if name not in axes and before[name].issubset(axes)]
        if not free:
            raise AxisOrderConflict(
                f"the strings {tuple(first)} nest in more than one order "
                f"in the map's indices")
        axes.append(free[0])
    return tuple(axes)


def _typed(values: list, dtype) -> np.ndarray:
    """`values` as an array of `dtype`; an int outside int64 raises
    IntOverflow, where the sparse backend would keep the Python int."""
    try:
        return np.asarray(values, dtype)
    except OverflowError:
        big = max(values, key=abs)
        raise IntOverflow(f"int {big} lies outside int64, the dense "
                          f"backend's int type") from None


def _default(dtype) -> DenseMap:
    """0 everywhere, on a read-only grid, since every state shares it."""
    cells = np.zeros((), dtype)
    cells.flags.writeable = False
    return DenseMap((), cells)


class DenseState(StateBase):
    """State backend: one DenseMap per touched variable."""

    backend = DENSE
    defaults = {kind: _default(dtype) for kind, dtype in _DTYPES.items()}

    def grid(self, var: Variable) -> np.ndarray:
        return self._map(var).cells

    def read(self, var: Variable, i: Index):
        return self._map(var).read(i)

    def column(self, var: Variable, chain: Sequence[Index]) -> list:
        """`read` at each index of `chain`, in its order, one gather per
        string sequence: the columns an `AChain` keeps (`_columns`), or
        those of any other index list."""
        groups = (_columns(chain) if isinstance(chain, AChain)
                  else _grouped(chain))
        got = self._map(var).gather(groups, len(chain))
        return (got.tolist() if isinstance(got, np.ndarray)
                else [got] * len(chain))

    def updated(self, var: Variable, tensor: Mapping[Index, object]) -> "DenseState":
        if not tensor:
            return self
        return DenseState({**self.cells, var: self._map(var).updated(tensor)})

    copied = StateBase.copied
    same_function = StateBase.same_function

    def resident(self, loop, writes: frozenset[Variable],
                 chain: AChain) -> Optional["_Loop"]:
        """The start of the fixed-point loop `loop`, whose body writes
        `writes`, on lane arrays, through its body compiled once (`_Body`,
        kept in `loop.compiled`); None when the loop must run on grids.

        The chain must be parent.extend(name, count) with one string
        sequence, and every grid's axes a proper prefix of that sequence
        without `name`: then no grid stores a value above a member, each
        member reads its parent's value, and no write can meet the axes in
        another order.
        """
        groups = _columns(chain)
        if chain.origin is None or len(groups) != 1:
            return None
        names = groups[0].names
        for m in self.cells.values():
            if len(m.axes) >= len(names) or m.axes != names[:len(m.axes)]:
                return None
        body = loop.compiled
        if body is None:
            body = _Body(loop.body, writes)
            object.__setattr__(loop, "compiled", body)
        return _Loop(self, chain, body)


def _column_of(name: str, chain: AChain) -> np.ndarray:
    """Each member's integer under `name`, as an array, on a chain of one
    string sequence; Declined where that lacks the string."""
    g = _columns(chain)[0]
    if name not in g.names:
        raise Declined
    return g.matrix[:, g.names.index(name)]


def _lanes(expr, count: int, code, loop, rows) -> np.ndarray:
    """The lane rule of a compiled body: `code(loop, rows)`, the values of
    `expr` (its lane code) on `count` lanes with each operator node
    evaluated once for all of them (or one Python value for all), as an
    array.  Declined where that meets anything exceptional (a domain
    error, an int outside int64), where an operator's result holds a NaN,
    whose bits IEEE 754 leaves to the implementation (numpy's and
    CPython's differ), and where there is no `code` (None).  A bare
    variable keeps its lanes: a copy keeps its bits."""
    if code is None:
        raise Declined
    if isinstance(expr, Var):
        value = code(loop, rows)
        if isinstance(value, np.ndarray):
            return value
        return np.full(count, value, dtype_of(expr.var))
    try:
        with np.errstate(all="ignore"):
            value = code(loop, rows)
            if not isinstance(value, np.ndarray):
                return np.full(count, value, _DTYPES[expr_kind(expr)])
    except (VecloopError, ArithmeticError):
        # a domain error, or an int the lanes cannot hold (OverflowError),
        # on some lane
        raise Declined from None
    if value.dtype == np.float64 and np.isnan(value).any():
        raise Declined
    return value


def _index_columns(index: IndexExpr, codes: list, count: int, loop,
                   rows) -> list[np.ndarray]:
    """The int64 lanes of each pair's integer of a fetch index on `count`
    lanes, each pair's from its lane code in `codes` (`_lanes`); Declined
    on an index repeating a string and where a pair's lanes are not
    ints."""
    names = [name for name, _ in index.pairs]
    if len(set(names)) < len(names):
        raise Declined
    columns = [_lanes(z, count, code, loop, rows)
               for (_, z), code in zip(index.pairs, codes)]
    if any(column.dtype != np.int64 for column in columns):
        raise Declined
    return columns


def _fetched(loop, index: IndexExpr, columns: list[np.ndarray],
             count: int) -> list:
    """The database's value at each of `count` lanes' index, whose pairs'
    integers are the lanes of `columns`: on fewer lanes than
    FETCH_MIN_LANES, each lane's index looked up as a thread's is
    (`_TargetRun.lookup`), else all in one pass (`_looked_up`).  Index lanes
    equal to those the loop kept for `index` (`fetch_memo`) take the kept
    values: the database is a function of the index."""
    last = loop.fetch_memo.get(id(index))
    if last is not None and len(last[1]) == count and all(
            a.tobytes() == b.tobytes() for a, b in zip(last[0], columns)):
        return last[1]
    names = tuple([name for name, _ in index.pairs])
    if count < FETCH_MIN_LANES:
        rows = (zip(*[column.tolist() for column in columns]) if columns
                else repeat((), count))
        values = [loop.runner.lookup(_unchecked(tuple(zip(names, ints))))
                  for ints in rows]
    else:
        values = _looked_up(loop.runner.db, names, columns, count)
    # a register's lanes change in place when a later command writes it
    loop.fetch_memo[id(index)] = ([column.copy() for column in columns],
                                  values)
    return values


def _same_lanes(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal lanes under ==, a NaN equal to a NaN, as in
    DenseMap.same_function.  Equal bytes are the common case, and the
    cheapest test of it."""
    return a.tobytes() == b.tobytes() or np.array_equal(
        a, b, equal_nan=a.dtype == np.float64)


class _Body:
    """A lane-resident loop's body, compiled once per loop node (kept in
    `LoopFixpt.compiled`) into a flat list of steps, one closure per
    command after the shift, which `_Loop.round` runs itself.

    Each step runs its command as `step(loop, chain, rows)` on the
    register files of a `_Loop`: `chain` is the loop's chain or a part an
    `ifz` cut from it, and `rows` the part's rows in the loop's chain, or
    None for all of it.  Every decision that is the same in every round is
    made here: each variable the body writes is bound to its register, a
    row of the file of its type (`files`, each in `Variable.sort_key`
    order), every other variable to its entry lanes, and each operator
    node to its lane form (`evalexpr.lane_code`, `_bound`).  What depends
    on the values is decided each round: the `ifz` cut, and whether an
    expression's lanes decline (`_lanes`), which ends the lane run
    (`state.Declined`).  An expression holding an operator node that does
    not resolve has no lane code, so it declines wherever it runs, and
    fails there on grids.
    """

    def __init__(self, body, writes: frozenset[Variable]):
        self.writes = tuple(sorted(writes, key=Variable.sort_key))
        self.files = tuple(tuple(var for var in self.writes
                                 if var.type == kind) for kind in _DTYPES)
        self.slot = {var: (f, r) for f, file in enumerate(self.files)
                     for r, var in enumerate(file)}
        items = body.items if isinstance(body, Seq) else (body,)
        self.steps = self._steps(items[1:])

    def _steps(self, items) -> list:
        steps = []
        for c in items:
            if isinstance(c, Seq):
                steps += self._steps(c.items)
            elif not isinstance(c, Skip):
                steps.append(self._step(c))
        return steps

    def _code(self, expr):
        """The lane code of `expr`, or None where a node does not resolve."""
        try:
            return lane_code(expr, self._var, _bound)
        except KeyError:
            return None

    def _var(self, var: Variable):
        if var not in self.slot:
            def entry(loop, rows):
                lanes = loop.entry_lanes(var)
                if rows is None or not isinstance(lanes, np.ndarray):
                    return lanes
                return lanes[rows]
            return entry
        f, r = self.slot[var]

        def register(loop, rows):
            return loop.files[f][r] if rows is None else loop.files[f][r, rows]
        return register

    def _step(self, c):
        if isinstance(c, Score):
            expr, code = c.expr, self._code(c.expr)

            def score(loop, chain, rows):
                value = _lanes(expr, len(chain), code, loop, rows)
                if np.isnan(value).any():
                    raise Declined
                loop.runner.add_scores(chain, value.tolist())
            return score
        if isinstance(c, Assign):
            expr, code, slot = c.expr, self._code(c.expr), self.slot[c.var]

            def assign(loop, chain, rows):
                loop.write(slot, _lanes(expr, len(chain), code, loop, rows),
                           rows)
            return assign
        if isinstance(c, Fetch):
            index, slot = c.index, self.slot[c.var]
            codes = [self._code(z) for _, z in index.pairs]

            def fetch(loop, chain, rows):
                count = len(chain)
                columns = _index_columns(index, codes, count, loop, rows)
                loop.write(slot, _fetched(loop, index, columns, count), rows)
            return fetch
        if isinstance(c, LookupIndex):
            name, slot = c.name, self.slot[c.var]

            def lookup(loop, chain, rows):
                loop.write(slot, _column_of(name, chain), rows)
            return lookup
        if isinstance(c, Ifz):
            cond, code = c.cond, self._code(c.cond)
            branches = (self._steps([c.then]), self._steps([c.orelse]))

            def ifz(loop, chain, rows):
                flags = _lanes(cond, len(chain), code, loop, rows).tolist()
                parts = chain.compress(v == 0 for v in flags)
                for part, steps in zip(parts, branches):
                    if part and steps:
                        part_rows = _part_of(part)[1]
                        for step in steps:
                            step(loop, part, part_rows)
            return ifz
        raise TypeError(f"not a lane-resident command: {c!r}")


class _Loop:
    """One run of a lane-resident loop, on the register files of its
    compiled body (`_Body`).

    The state the loop entered with and its chain, parent.extend(name,
    count), in whose order the parent's r-th member has its children at
    rows r * count + k; `files`, one matrix per type whose rows are the
    written variables' registers over the chain, and `parents`, the same
    for their values at the parent's members; each fetch's last index
    columns and values; and which registers a round wrote.  A round
    writes only the files its shift made, so each earlier round's files
    stay as they were.
    """

    def __init__(self, entry: DenseState, chain: AChain, body: _Body):
        parent, _, self.count = chain.origin
        self.entry = entry
        self.chain = chain
        self.body = body
        self.runner = None
        self.written = [[False] * len(file) for file in body.files]
        self.fetch_memo: dict[int, tuple] = {}
        columns = (_columns(parent), len(parent))
        self.parents = []
        for file, dtype in zip(body.files, _DTYPES.values()):
            values = np.empty((len(file), len(parent)), dtype)
            for r, var in enumerate(file):
                values[r] = entry._map(var).gather(*columns)
            self.parents.append(values)
        self.files = [np.repeat(p, self.count, axis=1) for p in self.parents]
        self._entry: dict[Variable, object] = {}

    def round(self, runner, check: bool) -> bool:
        """One round: the shift, a slice copy along each parent's children
        plus the parents' values in slot 0, then the body's steps.  With
        `check`, whether the round left every register as it found it: the
        registers differ from the entry state only above the chain's
        members, where each is constant, so comparing the arrays decides
        it, round 1 included."""
        self.runner = runner
        before, count = self.files, self.count
        self.files = []
        for file, parent in zip(before, self.parents):
            shifted = np.empty_like(file)
            shifted[:, 1:] = file[:, :-1]
            shifted[:, ::count] = parent
            self.files.append(shifted)
        chain = self.chain
        for step in self.body.steps:
            step(self, chain, None)
        return check and all(map(_same_lanes, before, self.files))

    def write(self, slot: tuple[int, int], data, rows) -> None:
        """The register at `slot` takes `data` at `rows` (None for every
        row), in place."""
        f, r = slot
        if type(data) is not np.ndarray:
            data = _typed(data, self.files[f].dtype)
        if rows is None:
            self.files[f][r] = data
        else:
            self.files[f][r, rows] = data
        self.written[f][r] = True

    def entry_lanes(self, var: Variable):
        """An unwritten variable's lanes, or its one value on all of them."""
        found = self._entry.get(var)
        if found is None:
            found = self._entry[var] = self.entry._map(var).gather(
                _columns(self.chain), len(self.chain))
        return found

    def written_back(self) -> DenseState:
        """The grids at loop exit.  A written variable's grid takes each
        parent's last slot, the one value the extend_index's exit copy
        reads; a variable no round wrote keeps its entry grid, or stays
        absent."""
        parent, _, count = self.chain.origin
        cells = dict(self.entry.cells)
        for var in self.body.writes:
            f, r = self.body.slot[var]
            if self.written[f][r]:
                cells[var] = self.entry._map(var).updated(
                    Lanes(parent, self.files[f][r, count - 1::count]))
        return DenseState(cells)


# Lane forms of the total float operators, giving the scalar form's results
# bit for bit.  Every operator on int arguments, and every partial one, maps
# its scalar form over the lanes (`_each`): an int result outside int64
# raises OverflowError there, and a domain error PrimitiveDomainError, so
# that the expression is evaluated once per thread instead.


def _lt(a, b):
    return np.logical_not(np.less(a, b)).astype(np.int64)


def _to_real(a):
    return a.astype(np.float64)


def _normal_logpdf(x, mean, sd):
    # with one deviation for all lanes, the scalar form runs on the lanes:
    # math.log once, and the rest IEEE arithmetic in its order; numpy's log
    # need not round as libm's does, so a deviation per lane maps it
    if isinstance(sd, np.ndarray):
        return _each(normal_logpdf, [x, mean, sd], REAL)
    return normal_logpdf(x, mean, sd)


# (op, result kind) -> lane form; the remaining operators map their scalar
# form
_LANE_OPS = {
    ("add", REAL): np.add, ("sub", REAL): np.subtract,
    ("mul", REAL): np.multiply, ("neg", REAL): np.negative,
    ("rlt", INT): _lt, ("to_real", REAL): _to_real,
    ("normal_logpdf", REAL): _normal_logpdf,
}


def _bound(op: str, kind: str, fn):
    """One operator node's `apply(args)` on its arguments' lanes, its lane
    form looked up once; see `evalexpr.lane_code`."""
    return partial(_applied, fn, _LANE_OPS.get((op, kind)), kind)


def _applied(fn, lane, kind: str, args: list):
    """`fn`, an operator's scalar form, or `lane`, its lane form (None to
    map the scalar form), on its arguments' lanes."""
    for a in args:
        if isinstance(a, np.ndarray):
            break
    else:
        # every lane holds the same arguments: the scalar form, once
        return fn(*args)
    if lane is not None:
        return lane(*args)
    return _each(fn, args, kind)


def _each(fn, args: list, kind: str) -> np.ndarray:
    """The scalar form on each lane; an int result outside int64 raises
    OverflowError."""
    count = len(next(a for a in args if isinstance(a, np.ndarray)))
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
