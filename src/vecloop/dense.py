"""Dense grid backend for partial maps.

Each string gets a dedicated array axis; the integer k of a pair addresses
position k, and a reserved extra slot (addressed as -1, stored last) stands
for "string absent".  A grid cell holds the represented value of the
corresponding index, so broadcasting writes are plain slice assignments.
Axis extents are fixed at allocation (max integer + 2); growing an axis
re-encodes the grid.
"""

from __future__ import annotations

import io
from typing import Iterable, Mapping

import numpy as np

from .errors import NegativeComponent, UnknownString
from .indices import Index
from .pmap import PMap
from .state import StateBase
from .syntax import INT, Variable


class DenseMap:
    """Standalone dense encoding of one partial map."""

    def __init__(self, dims: Mapping[str, int], extents: tuple[int, ...],
                 cells: np.ndarray):
        self.dims = dict(dims)
        self.extents = extents
        self.cells = cells

    def decode(self, i: Index):
        """Represented value at i; None where the map is undefined."""
        coords = [-1] * len(self.dims)
        last_axis = -1
        for name, value in i:
            if name not in self.dims:
                raise UnknownString(f'string "{name}" has no axis')
            if value < 0:
                raise NegativeComponent(f"negative integer {value} in {i.text()}")
            axis = self.dims[name]
            if axis <= last_axis or value >= self.extents[axis] - 1:
                break  # out of axis order, or an integer never seen
            coords[axis] = value
            last_axis = axis
        value = self.cells[tuple(coords)]
        return value.item() if isinstance(value, np.generic) else value

    def to_csv(self) -> str:
        axes = sorted(self.dims, key=self.dims.get)
        out = io.StringIO()
        out.write(",".join(axes) + ",value\n")
        for flat in range(self.cells.size):
            coords = np.unravel_index(flat, self.cells.shape)
            labels = [
                str(c) if c < self.extents[axis] - 1 else "-1"
                for axis, c in enumerate(coords)
            ]
            out.write(",".join(labels) + f",{self.cells[coords]!r}\n")
        return out.getvalue()


def dense_encode(m: PMap, dims: Mapping[str, int]) -> DenseMap:
    """Grid of represented values over the axes in `dims`.

    A cell holds the map's value at the index formed by the cell's
    non-absent coordinates in axis order.
    """
    extents = [1] * len(dims)
    for i in m.domain():
        for name, value in i:
            if name not in dims:
                raise UnknownString(f'string "{name}" has no axis')
            if value < 0:
                raise NegativeComponent(f"negative integer {value} in {i.text()}")
            extents[dims[name]] = max(extents[dims[name]], value + 2)
    axes = sorted(dims, key=dims.get)
    cells = np.empty(tuple(extents), dtype=object)
    for flat in range(cells.size):
        coords = np.unravel_index(flat, cells.shape)
        pairs = tuple(
            (axes[axis], int(c))
            for axis, c in enumerate(coords)
            if c < extents[axis] - 1
        )
        cells[coords] = m.extend_eval(Index(pairs))
    return DenseMap(dims, tuple(extents), cells)


# --------------------------------------------------------------------------
# Dense interpreter backend
# --------------------------------------------------------------------------

def _migrate(grid: np.ndarray, old_dims: tuple[str, ...], old_extents: tuple[int, ...],
             new_dims: tuple[str, ...], new_extents: tuple[int, ...]) -> np.ndarray:
    """Re-encode a grid into a larger schema.

    New positions of a grown axis read from the old absent slot (a fresh
    integer's value is, by definition, the broadcast fallback), as do all
    positions of a brand-new axis.
    """
    order = [name for name in new_dims if name in old_dims]
    out = np.transpose(grid, [old_dims.index(name) for name in order])
    for axis, name in enumerate(new_dims):
        if name not in old_dims:
            out = np.expand_dims(out, axis)
    for axis, name in enumerate(new_dims):
        new_extent = new_extents[axis]
        old_extent = out.shape[axis]
        if old_extent != new_extent:
            index_map = list(range(old_extent - 1))
            index_map += [old_extent - 1] * (new_extent - old_extent + 1)
            out = np.take(out, index_map, axis=axis)
    return out


class DenseState(StateBase):
    """State backend: every cell is a grid under one shared schema."""

    backend = "dense"

    def __init__(self, dims: tuple[str, ...], extents: tuple[int, ...],
                 cells: Mapping[Variable, np.ndarray]):
        self.dims = dims
        self.extents = extents
        self.cells: dict[Variable, np.ndarray] = dict(cells)

    @classmethod
    def from_sparse(cls, sparse_cells: Mapping[Variable, PMap]) -> "DenseState":
        state = cls((), (), {})
        for var, cell in sparse_cells.items():
            state = state._ensure(cell.domain())
            grid = state._blank(var)
            # shorter indices first, so deeper entries overwrite their cover
            for i, v in sorted(cell.entries.items(),
                               key=lambda kv: (len(kv[0]), kv[0].sort_key())):
                grid[state._region(i)] = v
            state = DenseState(state.dims, state.extents,
                               {**state.cells, var: grid})
        return state

    def _blank(self, var: Variable) -> np.ndarray:
        dtype = np.int64 if var.type == INT else np.float64
        return np.zeros(self.extents, dtype=dtype)

    def _ensure(self, indices: Iterable[Index]) -> "DenseState":
        """Grow the schema so every given index is addressable.

        New axes are allocated in first-appearance order along the pair
        sequences (shorter indices first), which matches the nesting order
        of index extension, the order reads and writes assume.
        """
        need: dict[str, int] = {}
        for i in sorted(indices, key=lambda j: (len(j), j.sort_key())):
            for name, value in i:
                need[name] = max(need.get(name, -1), value)
        dims = list(self.dims)
        extents = list(self.extents)
        changed = False
        for name, top in need.items():
            if name in dims:
                axis = dims.index(name)
                if top + 2 > extents[axis]:
                    extents[axis] = top + 2
                    changed = True
            else:
                dims.append(name)
                extents.append(top + 2)
                changed = True
        if not changed:
            return self
        new_dims, new_extents = tuple(dims), tuple(extents)
        cells = {
            var: _migrate(grid, self.dims, self.extents, new_dims, new_extents)
            for var, grid in self.cells.items()
        }
        return DenseState(new_dims, new_extents, cells)

    def _align(self, other: "DenseState") -> tuple["DenseState", "DenseState"]:
        union = {
            name: max(
                self.extents[self.dims.index(name)] if name in self.dims else 1,
                other.extents[other.dims.index(name)] if name in other.dims else 1,
            )
            for name in set(self.dims) | set(other.dims)
        }
        anchors = [Index(((name, extent - 2),))
                   for name, extent in union.items() if extent >= 2]
        return self._ensure(anchors), other._ensure(anchors)

    def _region(self, i: Index) -> tuple:
        """Slice of all grid cells whose index extends i.

        Extensions append pairs, so axes i leaves unbound below its last
        bound axis must stay absent; later axes are free.
        """
        region: list = [slice(None)] * len(self.dims)
        bound = [self.dims.index(name) for name, _ in i]
        for axis in range(max(bound, default=-1)):
            region[axis] = -1
        for (_, value), axis in zip(i, bound):
            region[axis] = value
        return tuple(region)

    def _read_coords(self, i: Index) -> tuple:
        """Grid cell of the longest addressable prefix of i.

        Stored indices follow axis-allocation order, so no stored entry can
        sit above a prefix that leaves that order; reading stops there.
        """
        coords = [-1] * len(self.dims)
        last_axis = -1
        for name, value in i:
            if name not in self.dims:
                break
            axis = self.dims.index(name)
            if axis <= last_axis or value < 0 or value >= self.extents[axis] - 1:
                break
            coords[axis] = value
            last_axis = axis
        return tuple(coords)

    # -- state interface ----------------------------------------------------

    def variables(self) -> set[Variable]:
        return set(self.cells)

    def grid(self, var: Variable) -> np.ndarray:
        existing = self.cells.get(var)
        return self._blank(var) if existing is None else existing

    def read(self, var: Variable, i: Index):
        return self.grid(var)[self._read_coords(i)].item()

    def updated(self, var: Variable, tensor: Mapping[Index, object]) -> "DenseState":
        if not tensor:
            return self
        state = self._ensure(tensor)
        grid = state.grid(var).copy()
        for i, v in sorted(tensor.items(), key=lambda kv: kv[0].sort_key()):
            grid[state._region(i)] = v
        return DenseState(state.dims, state.extents, {**state.cells, var: grid})

    def copied(self, rho: Mapping[Index, Index]) -> "DenseState":
        if not rho:
            return self
        state = self._ensure(list(rho) + list(rho.values()))
        moves = sorted(rho.items(), key=lambda kv: kv[0].sort_key())
        cells = {}
        for var, grid in state.cells.items():
            values = [grid[state._read_coords(src)] for src, _ in moves]
            new = grid.copy()
            for (_, target), value in zip(moves, values):
                new[state._region(target)] = value
            cells[var] = new
        return DenseState(state.dims, state.extents, cells)

    def same_function(self, other: "DenseState") -> bool:
        left, right = self._align(other)
        for var in sorted(left.variables() | right.variables(),
                          key=Variable.sort_key):
            if not np.array_equal(left.grid(var), right.grid(var)):
                return False
        return True

    def canonical_text(self) -> str:
        parts = [f"dims={self.dims!r} extents={self.extents!r}"]
        for var in sorted(self.cells, key=Variable.sort_key):
            parts.append(f"{var.text()}={self.cells[var].tolist()!r}")
        return "; ".join(parts)
