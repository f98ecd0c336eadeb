"""Indices, the prefix order, and finite antichains.

An index is a finite sequence of (string, integer) pairs with pairwise
distinct strings.  Indices name random variables and, during vectorised
execution, act as thread ids.  They are hash-consed: equal indices are
one object, so sets and dicts hash and compare them by identity.
Antichains under the prefix order are the sets of simultaneously active
threads; a chain cut from another at an `ifz` (`AChain.compress`) records
its rows in the chain cut first.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Optional
from weakref import ref

from .errors import (DuplicateIndexString, StringAlreadyPresent,
                     ThreadBudgetExceeded)

# The most active threads (antichain members) one chain may hold.
THREAD_BUDGET = 1_000_000


class Index:
    """A finite sequence of (name, value) pairs with distinct names.

    Immutable and hash-consed: every construction path returns the one
    live index over its pairs, so an index is compared and hashed by
    identity, in C.  The iteration order of a set of indices follows
    memory addresses, so no result may depend on it.  `_below` holds the
    proper prefixes, longest first and ending in `EMPTY`, built on the
    first walk (None until then); a child built from its parent (`append`,
    `AChain.extend`) starts with the parent and the parent's own tuple.
    The tuple never holds the index itself, so an index is never part of a
    reference cycle.
    """

    __slots__ = ("pairs", "_below", "__weakref__")

    def __new__(cls, pairs: Iterable[tuple[str, int]] = ()) -> "Index":
        pairs = tuple(pairs)
        if len({name for name, _ in pairs}) != len(pairs):
            raise DuplicateIndexString(f"index repeats a string: {pairs!r}")
        return _unchecked(pairs)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Index, (self.pairs,))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self.pairs)

    def concat(self, other: "Index") -> "Index":
        return Index(self.pairs + other.pairs)

    def append(self, name: str, value: int) -> "Index":
        pairs = self.pairs + ((name, value),)
        if self.lookup(name) is not None:
            raise DuplicateIndexString(f"index repeats a string: {pairs!r}")
        return _unchecked(pairs, self)

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.pairs)

    def lookup(self, name: str) -> Optional[int]:
        """The integer paired with `name`, or None when `name` is unbound."""
        for candidate, value in self.pairs:
            if candidate == name:
                return value
        return None

    # A prefix of an index with distinct names has distinct names, so the
    # prefix walk builds its indices unchecked.
    def prefix(self, length: int) -> "Index":
        return _unchecked(self.pairs[:length])

    def proper_prefixes(self) -> tuple["Index", ...]:
        """The proper prefixes from longest to shortest (`EMPTY`), built
        once, shortest first, so that each one shares the shorter ones."""
        below = self._below
        if below is None:
            pairs = self.pairs
            below = (EMPTY,)
            for length in range(1, len(pairs)):
                below = (_unchecked(pairs[:length], below[0]),) + below
            _set_below(self, below)
        return below

    def prefixes(self) -> tuple["Index", ...]:
        """This index, then its proper prefixes from longest to shortest."""
        return (self,) + self.proper_prefixes()

    def parent(self) -> "Index":
        if not self.pairs:
            raise ValueError("the empty index has no parent")
        return self.proper_prefixes()[0]

    def sort_key(self) -> tuple[tuple[str, int], ...]:
        """Canonical total order: lexicographic on the pair sequence.

        Used only for deterministic iteration and printing, never by the
        semantics.
        """
        return self.pairs

    def text(self) -> str:
        if not self.pairs:
            return "[]"
        inner = ";".join(f'("{name}",{value})' for name, value in self.pairs)
        return f"[{inner}]"

    def __repr__(self) -> str:
        return f"Index({self.text()})"


# The intern table (Filliatre and Conchon, "Type-Safe Modular Hash-Consing",
# 2006): pairs -> a weak reference to the live index over them, one table
# for the process, since equal indices anywhere must be one object.  It
# keeps no index alive.  Dead entries are swept once the table has grown
# past twice its live size at the last sweep (or the floor), so it never
# holds more than twice the live indices of that sweep.  A lookup and its
# insert are not one atomic step: indices are built on one thread.
_TABLE: dict[tuple[tuple[str, int], ...], ref] = {}
_SWEEP_FLOOR = 1024
_sweep_at = _SWEEP_FLOOR
_absent = type(None)  # what the table gives for pairs never interned
# the slots' own setters, past the frozen `__setattr__`
_set_pairs = Index.pairs.__set__
_set_below = Index._below.__set__


def _sweep() -> None:
    global _sweep_at
    for pairs in [pairs for pairs, r in _TABLE.items() if r() is None]:
        del _TABLE[pairs]
    _sweep_at = max(2 * len(_TABLE), _SWEEP_FLOOR)


def _built(pairs: tuple[tuple[str, int], ...],
           below: Optional[tuple[Index, ...]]) -> Index:
    """A new index, not yet interned."""
    i = object.__new__(Index)
    _set_pairs(i, pairs)
    _set_below(i, below)
    return i


def _unchecked(pairs: tuple[tuple[str, int], ...],
               parent: Optional[Index] = None) -> Index:
    """The index over pairs already known to have distinct names; one built
    here takes its prefixes from `parent`, when the caller has it."""
    i = _TABLE.get(pairs, _absent)()
    if i is None:
        i = _built(pairs, None if parent is None
                   else (parent,) + parent.proper_prefixes())
        _TABLE[pairs] = ref(i)
        if len(_TABLE) > _sweep_at:
            _sweep()
    return i


EMPTY = _built((), ())
_TABLE[()] = ref(EMPTY)


def prefix_leq(i: Index, j: Index) -> bool:
    """The prefix order: i is an initial segment of j."""
    return len(i) <= len(j) and j.pairs[: len(i)] == i.pairs


def is_antichain(indices: Iterable[Index]) -> bool:
    items = list(indices)
    for a in range(len(items)):
        for b in range(len(items)):
            if a != b and prefix_leq(items[a], items[b]):
                return False
    return True


@dataclass(frozen=True)
class AChain:
    """A finite antichain of indices: the active thread ids of one run.

    `origin` is (parent, name, count) for a chain that `extend` built, and
    None for any other, so that a backend can derive the chain's data from
    its parent's.  `part` is (base, rows) for a chain that `compress` cut:
    `base` is the chain the cuts started from, however deeply they nest,
    and `rows` the members' positions in base's order; None for any other.
    """

    members: frozenset[Index]
    origin = None
    part = None

    def __init__(self, members: Iterable[Index] = (), *, _checked: bool = False):
        frozen = frozenset(members)
        if not _checked and not is_antichain(frozen):
            raise ValueError(f"not an antichain: {sorted(i.text() for i in frozen)}")
        object.__setattr__(self, "members", frozen)

    @cached_property
    def _order(self) -> tuple[Index, ...]:
        """The members in `Index.sort_key` order: sorted once per chain,
        and never for one that `extend` or `compress` built in order."""
        return tuple(sorted(self.members, key=attrgetter("pairs")))

    @cached_property
    def memo(self) -> dict:
        """Data a backend derives from the members once per chain (the
        dense backend keeps the chain's integer columns here)."""
        return {}

    def __iter__(self) -> Iterator[Index]:
        return iter(self._order)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i: Index) -> bool:
        return i in self.members

    def extend(self, name: str, count: int) -> "AChain":
        """All extensions i ++ [(name, k)] for i in the chain, k < count.

        Raises ThreadBudgetExceeded, before building anything, when the
        result would hold more than THREAD_BUDGET indices.
        """
        if len(self.members) * count > THREAD_BUDGET:
            raise ThreadBudgetExceeded(
                f'extending {len(self.members)} threads by "{name}" '
                f"x {count} exceeds the budget of {THREAD_BUDGET} threads"
            )
        for i in self._order:
            if i.lookup(name) is not None:
                raise StringAlreadyPresent(
                    f'string "{name}" already bound in {i.text()}'
                )
        # No member binds `name`, so every extension has distinct names;
        # extensions of an antichain by a fresh pair stay an antichain.
        # A member's children share one tuple of prefixes, and all new
        # children are interned in one batch.  No member is a prefix of
        # another, so children taken in the members' order, each member's
        # by ascending k, are already in chain order.
        extended: list[Index] = []
        fresh: list[Index] = []
        get = _TABLE.get
        for i in self._order:
            below = (i,) + i.proper_prefixes()
            for pairs in [i.pairs + ((name, k),) for k in range(count)]:
                child = get(pairs, _absent)()
                if child is None:
                    child = _built(pairs, below)
                    fresh.append(child)
                extended.append(child)
        _TABLE.update(zip([child.pairs for child in fresh], map(ref, fresh)))
        if len(_TABLE) > _sweep_at:
            _sweep()
        order = tuple(extended)
        chain = AChain(order, _checked=True)
        chain.__dict__["_order"] = order
        object.__setattr__(chain, "origin", (self, name, count))
        return chain

    def partition(self, predicate) -> tuple["AChain", "AChain"]:
        """Split into (members satisfying predicate, the rest), asking the
        predicate in chain order."""
        return self.compress(map(predicate, self._order))

    def compress(self, flags: Iterable[bool]) -> tuple["AChain", "AChain"]:
        """Split into (members whose flag is true, the rest), with one flag
        per member in chain order; both parts, an empty one too, keep that
        order and record their `part`."""
        base, rows = self.part or (self, range(len(self.members)))
        yes, no = ([], []), ([], [])
        for i, row, flag in zip(self._order, rows, flags):
            members, positions = yes if flag else no
            members.append(i)
            positions.append(row)
        return _part(base, *map(tuple, yes)), _part(base, *map(tuple, no))

    def __repr__(self) -> str:
        inner = ", ".join(i.text() for i in self)
        return f"AChain{{{inner}}}"


def _part(base: AChain, order: tuple[Index, ...],
          rows: tuple[int, ...]) -> AChain:
    """The antichain of members already sorted in chain order, which sit at
    `rows` of `base`."""
    chain = AChain(order, _checked=True)
    chain.__dict__["_order"] = order
    object.__setattr__(chain, "part", (base, rows))
    return chain


EMPTY_CHAIN = AChain(frozenset(), _checked=True)
ROOT_CHAIN = AChain(frozenset([EMPTY]), _checked=True)
