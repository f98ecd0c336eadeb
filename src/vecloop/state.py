"""States for the vectorised interpreters.

A state gives every typed variable a partial map read through extend;
unmentioned variables implicitly hold the constant 0 / 0.0 map.  Two
interchangeable backends share one container, `StateBase`: the sparse one
(reference) stores PMaps, the dense one `dense.DenseMap` grids.  A state's
text is that of the function it represents, so it does not depend on the
backend nor on how a backend lays out its maps.  Both backends run the
same per-thread rules (`target_interp._TargetRun`), which read state
only a variable on a whole chain at once (`column`; `read` at one index
serves oracles and the CLI); only a loop run in lane registers
(`StateBase.resident`) evaluates in lane arrays, all its rounds or, where
a lane rule raises `Declined`, none, the loop then running on the state.
No backend splits a chain: an `ifz` cuts it with `AChain.compress`.  A
state is immutable, so one copy serves twice: a relaxed round's copy for
its check is the next round's shifted state.
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


class Lanes(Mapping):
    """A tensor on a chain, held as one value per member in chain order.

    `data` is a list, or an array where a lane-resident loop writes its
    registers back; `items` gives Python values either way.
    """

    __slots__ = ("chain", "data", "_by_index")

    def __init__(self, chain: AChain, data):
        self.chain = chain
        self.data = data
        self._by_index = None

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
        found = self._by_index
        if found is None:
            found = self._by_index = dict(self.items())
        return found[i]


class Declined(Exception):
    """A lane rule of a compiled loop body cannot give every thread's value
    bit for bit; the loop then runs on its state's maps instead
    (`target_interp._TargetRun.run_loop`).  Never leaves a run."""


class Relocation(dict):
    """An injective map source -> target that the interpreter builds once
    per chain and keeps in the chain's memo.  `derived` holds what a backend
    derives from it (the dense backend its grouped columns), so that work
    too is done once per chain.

    `name` is the string it moves along and `kind` says how, `pmap.SHIFT`
    or `pmap.EXIT`, over the members P of an antichain, none of which
    holds `name`: a shift relates P to P+(name,0) and P+(name,k-1) to
    P+(name,k), an exit P+(name,count-1) to P.  In a map that stores
    nothing under `name`, each source then reads what its target reads,
    and so does every index above a shift's target, which the shift
    clears; so a backend may leave such a map as it is after a shift, and
    after an exit where no value lies above a target (`DenseMap.copied`).
    In any map, a target whose source stores no entry reads that source's
    value after a shift, and after an exit unless it stored an entry
    itself, so `PMap.copied` repairs only those.  A plain mapping, or one
    without a kind, takes the general path.
    """

    __slots__ = ("derived", "name", "kind")

    def __init__(self, *args, name: Optional[str] = None,
                 kind: Optional[str] = None):
        super().__init__(*args)
        self.derived: dict = {}
        self.name = name
        self.kind = kind


class StateBase:
    """The state container of both backends: `cells` maps each touched
    variable to its map, and `_map(var)` gives a variable's map or its
    type's one shared default (`defaults`).  Each backend keeps its own
    `read`, `column` and `updated`, and binds the shared methods by name
    (`copied = StateBase.copied`), so that each class holds its own."""

    def __init__(self, cells: Mapping[Variable, object] | None = None):
        self.cells: dict[Variable, object] = dict(cells or {})

    def variables(self) -> set[Variable]:
        return set(self.cells)

    def _map(self, var: Variable):
        found = self.cells.get(var)
        return found if found is not None else self.defaults[var.type]

    def copied(self, rho: Mapping[Index, Index]):
        if not rho:
            return self
        return type(self)({v: m.copied(rho) for v, m in self.cells.items()})

    def same_function(self, other) -> bool:
        for var in sorted(self.variables() | other.variables(),
                          key=Variable.sort_key):
            if not self._map(var).same_function(other._map(var)):
                return False
        return True

    def canonical_text(self) -> str:
        """Each variable's canonical entries, in `Variable.sort_key` order:
        equal texts mean equal reads everywhere.  The text keeps the sign of
        a zero its parent does not induce, so it is stricter than
        `same_function`."""
        return "; ".join(f"{var.text()}={self._map(var).canonical().text()}"
                         for var in sorted(self.cells, key=Variable.sort_key))

    def resident(self, loop, writes, chain: AChain):
        """The lane arrays on which the fixed-point loop `loop` over
        `chain`, whose body writes `writes`, runs its rounds, or None to run
        them on this state, as the sparse backend always does."""
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
            mine, theirs = self.column(var, probes), other.column(var, probes)
            # list equality: == on each pair, a NaN object equal to itself
            if mine == theirs:
                continue
            for i, a, b in zip(probes, mine, theirs):
                if a != b and not same_value(a, b):
                    return var, i, a, b
        return None


class SparseState(StateBase):
    """Reference backend: one PMap per touched variable."""

    backend = SPARSE
    defaults = {INT: PMap({EMPTY: 0}), REAL: PMap({EMPTY: 0.0})}

    cell = StateBase._map

    def read(self, var: Variable, i: Index):
        return self.cell(var).extend_eval(i)

    def column(self, var: Variable, chain: Iterable[Index]) -> list:
        return self.cell(var).column(chain)

    def updated(self, var: Variable, tensor: Mapping[Index, object]) -> "SparseState":
        if not tensor:
            return self
        cell = self.cell(var).updated(tensor)
        if EMPTY not in cell.entries:
            raise EmptyIndexLost(f"update left {var.text()} without a root entry")
        new = dict(self.cells)
        new[var] = cell
        return SparseState(new)

    copied = StateBase.copied
    same_function = StateBase.same_function

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
