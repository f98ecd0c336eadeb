"""States for the vectorised interpreters.

A state gives every typed variable a partial map read through extend;
unmentioned variables implicitly hold the constant 0 / 0.0 map.  Two
interchangeable backends implement the same interface: the sparse one
(reference) stores PMaps, the dense one stores broadcast grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .errors import EmptyIndexLost
from .indices import EMPTY, Index
from .pmap import PMap
from .syntax import INT, Variable

SPARSE = "sparse"
DENSE = "dense"


def default_cell(var: Variable) -> PMap:
    return PMap({EMPTY: 0 if var.type == INT else 0.0})


class StateBase:
    """Methods both backends share, written against their common interface."""

    def eq_on(self, other, probes: Iterable[Index],
              variables: Optional[Iterable[Variable]] = None) -> bool:
        probes = list(probes)
        if variables is None:
            variables = self.variables() | other.variables()
        for var in variables:
            for i in probes:
                if self.read(var, i) != other.read(var, i):
                    return False
        return True


class SparseState(StateBase):
    """Reference backend: one PMap per touched variable."""

    backend = SPARSE

    def __init__(self, cells: Mapping[Variable, PMap] | None = None):
        self.cells: dict[Variable, PMap] = dict(cells or {})

    def variables(self) -> set[Variable]:
        return set(self.cells)

    def cell(self, var: Variable) -> PMap:
        return self.cells.get(var) or default_cell(var)

    def read(self, var: Variable, i: Index):
        return self.cell(var).extend_eval(i)

    def updated(self, var: Variable, tensor: Mapping[Index, object]) -> "SparseState":
        if not tensor:
            return self
        cell = self.cell(var).updated(PMap(tensor))
        if EMPTY not in cell.entries:
            raise EmptyIndexLost(f"update left {var.text()} without a root entry")
        new = dict(self.cells)
        new[var] = cell
        return SparseState(new)

    def copied(self, rho: Mapping[Index, Index]) -> "SparseState":
        if not rho:
            return self
        return SparseState(
            {v: cell.copied(rho) for v, cell in self.cells.items()}
        )

    def same_function(self, other: "SparseState") -> bool:
        for var in sorted(self.variables() | other.variables(),
                          key=Variable.sort_key):
            if not self.cell(var).same_function(other.cell(var)):
                return False
        return True

    def canonical_text(self) -> str:
        parts = []
        for var in sorted(self.variables(), key=Variable.sort_key):
            parts.append(f"{var.text()}={self.cell(var).canonical().text()}")
        return "; ".join(parts)

    def __repr__(self) -> str:
        return f"SparseState({self.canonical_text()})"


@dataclass(frozen=True)
class TgtOutcome:
    """Final state, score tensor, and per-loop execution trace of one run."""

    state: object
    score: PMap
    trace: tuple["LoopRound", ...]

    def rounds_by_site(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for rec in self.trace:
            out[rec.site] = out.get(rec.site, 0) + rec.rounds
        return out


@dataclass(frozen=True)
class LoopRound:
    """One completed loop execution: which site, how many body rounds."""

    site: int
    rounds: int
    fixpoint_hit: bool


def make_state(backend: str, cells: Mapping[Variable, PMap] | None = None):
    if backend == SPARSE:
        return SparseState(cells)
    if backend == DENSE:
        from .dense import DenseState, dense_encode, dtype_of
        return DenseState({v: dense_encode(cell, dtype=dtype_of(v))
                           for v, cell in (cells or {}).items()})
    raise ValueError(f"unknown backend {backend!r}")
