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
"""

from __future__ import annotations

import io
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .errors import NegativeComponent, UnknownString
from .indices import Index
from .pmap import PMap
from .state import DENSE, StateBase
from .syntax import INT, Variable


def dtype_of(var: Variable):
    return np.int64 if var.type == INT else np.float64


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

    def decode(self, i: Index):
        """`read`, refusing strings without an axis and negative integers."""
        for name, value in i:
            if name not in self._axis:
                raise UnknownString(f'string "{name}" has no axis')
            if value < 0:
                raise NegativeComponent(f"negative integer {value} in {i.text()}")
        return self.read(i)

    def updated(self, tensor: Mapping[Index, object]) -> "DenseMap":
        """Overwrite with `tensor`: each index sets every cell above it.
        New strings become new last axes, in order of appearance."""
        axes, extents = dict(self._axis), list(self.cells.shape)
        for i in tensor:
            for name, value in i.pairs:
                axis = axes.setdefault(name, len(extents))
                if axis == len(extents):
                    extents.append(value + 2)
                elif value + 2 > extents[axis]:
                    extents[axis] = value + 2
        m = DenseMap(tuple(axes), self._grown(extents))
        for i, v in sorted(tensor.items(), key=lambda kv: kv[0].sort_key()):
            m.cells[m._region(i)] = v
        return m

    def copied(self, rho: Mapping[Index, Index]) -> "DenseMap":
        """Relocate represented values along the injective map `rho`, then
        drop the trailing axes along which the grid is constant."""
        m = self.updated({t: self.read(s) for s, t in rho.items()})
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
        extents = tuple(map(max, left.cells.shape, right.cells.shape))
        return np.array_equal(left._grown(extents), right._grown(extents))

    def _pmap(self) -> PMap:
        """The PMap storing every cell at the index it stands for."""
        return PMap(zip(_cell_indices(self.axes, self.cells.shape),
                        self.cells.ravel().tolist()))

    def to_csv(self) -> str:
        shape = self.cells.shape
        out = io.StringIO()
        out.write(",".join(self.axes) + ",value\n")
        for coords in np.ndindex(*shape):
            labels = [str(c) if c < extent - 1 else "-1"
                      for c, extent in zip(coords, shape)]
            out.write(",".join(labels) + f",{self.cells.item(coords)!r}\n")
        return out.getvalue()

    def _region(self, i: Index) -> tuple:
        """Slice of all cells whose index extends i.

        Extensions append pairs, so axes i leaves unbound below its last
        bound axis stay absent; later axes are free.
        """
        bound = [(self._axis[name], value) for name, value in i.pairs]
        top = max((axis for axis, _ in bound), default=-1)
        region: list = [-1] * (top + 1) + [slice(None)] * (len(self.axes) - top - 1)
        for axis, value in bound:
            region[axis] = value
        return tuple(region)

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
        bit for bit when `exact` (so 0.0 and -0.0 stay apart), else under ==.

        Once the axis is gone a read naming its string stops there, so every
        cell with the axis set must equal that stopped read.
        """
        grid = self.cells
        if exact and grid.dtype == np.float64:
            grid = grid.view(np.int64)
        before = (slice(None),) * axis
        if not (grid[before + (slice(0, -1),)] == _stop(grid, axis)).all():
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
    return DenseMap(axes, np.array(values, dtype=dtype).reshape(shape))


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

    def updated(self, var: Variable, tensor: Mapping[Index, object]) -> "DenseState":
        if not tensor:
            return self
        return DenseState({**self.cells, var: self._map(var).updated(tensor)})

    def copied(self, rho: Mapping[Index, Index]) -> "DenseState":
        if not rho:
            return self
        return DenseState({v: m.copied(rho) for v, m in self.cells.items()})

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
