"""States for the vectorised interpreters.

A state gives every typed variable a partial map read through extend;
unmentioned variables implicitly hold the constant 0 / 0.0 map.  Two
interchangeable backends implement the same interface: the sparse one
(reference) stores PMaps, the dense one stores broadcast grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

from .errors import EmptyIndexLost
from .indices import EMPTY, AChain, Index
from .ops import same_value
from .pmap import PMap
from .syntax import INT, REAL, Variable

SPARSE = "sparse"
DENSE = "dense"


# The cell of a variable never written, one per type, shared by every read.
_DEFAULT_CELLS = {INT: PMap({EMPTY: 0}), REAL: PMap({EMPTY: 0.0})}


class Lanes(Mapping):
    """A tensor on a chain, held as one value per member in chain order.

    `data` is a list, or a backend's array when the backend evaluated the
    chain at once; `items` gives Python values either way.
    """

    __slots__ = ("chain", "data")

    def __init__(self, chain: AChain, data):
        self.chain = chain
        self.data = data

    def python(self) -> list:
        data = self.data
        return data if isinstance(data, list) else data.tolist()

    def items(self):
        return zip(self.chain, self.python())

    def __len__(self) -> int:
        return len(self.chain)

    def __iter__(self) -> Iterator[Index]:
        return iter(self.chain)

    def __getitem__(self, i: Index):
        return dict(self.items())[i]


class Relocation(dict):
    """An injective map source -> target that the interpreter builds once
    per chain and keeps in the chain's memo.  `derived` holds what a backend
    derives from it (the dense backend its grouped columns), so that work
    too is done once per chain."""

    __slots__ = ("derived",)

    def __init__(self, *args):
        super().__init__(*args)
        self.derived: dict = {}


class StateBase:
    """Methods both backends share, written against their common interface."""

    def lanes(self, expr, chain: AChain) -> Optional[Lanes]:
        """The values of `expr` on the chain, or None when the interpreter
        is to evaluate it once per thread, as it always does on the sparse
        backend."""
        return None

    def split(self, cond: Lanes) -> tuple[AChain, AChain]:
        """The chain's members whose `cond` lane is 0, and the rest, each
        part in chain order."""
        return cond.chain.compress(v == 0 for v in cond.python())

    def fetched(self, index, chain: AChain, db) -> Optional[Lanes]:
        """The database values at the index `index` spells on each thread
        of the chain, or None when the interpreter is to fetch once per
        thread, as it always does on the sparse backend."""
        return None

    def eq_on(self, other, probes: Iterable[Index],
              variables: Optional[Iterable[Variable]] = None) -> bool:
        """Equal reads at every probe, under `same_value`."""
        return self.first_difference(other, probes, variables) is None

    def first_difference(self, other, probes: Iterable[Index],
                         variables: Optional[Iterable[Variable]] = None):
        """The first (variable, probe, read here, read there) that differs
        under `same_value`, or None; by default both sides' variables."""
        probes = list(probes)
        if variables is None:
            variables = sorted(self.variables() | other.variables(),
                               key=Variable.sort_key)
        for var in variables:
            for i in probes:
                a, b = self.read(var, i), other.read(var, i)
                if a != b and not same_value(a, b):
                    return var, i, a, b
        return None


class SparseState(StateBase):
    """Reference backend: one PMap per touched variable."""

    backend = SPARSE

    def __init__(self, cells: Mapping[Variable, PMap] | None = None):
        self.cells: dict[Variable, PMap] = dict(cells or {})

    def variables(self) -> set[Variable]:
        return set(self.cells)

    def cell(self, var: Variable) -> PMap:
        cell = self.cells.get(var)
        return cell if cell is not None else _DEFAULT_CELLS[var.type]

    def read(self, var: Variable, i: Index):
        return self.cell(var).extend_eval(i)

    def updated(self, var: Variable, tensor: Mapping[Index, object]) -> "SparseState":
        if not tensor:
            return self
        cell = self.cell(var).updated(PMap(tensor.items()))
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
