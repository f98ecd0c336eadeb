"""Indices, the prefix order, and finite antichains.

An index is a finite sequence of (string, integer) pairs with pairwise
distinct strings.  Indices name random variables and, during vectorised
execution, act as thread ids.  Antichains under the prefix order are the
sets of simultaneously active threads.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Optional

from .errors import (DuplicateIndexString, StringAlreadyPresent,
                     ThreadBudgetExceeded)

# The most active threads (antichain members) one chain may hold.
THREAD_BUDGET = 1_000_000


class Index:
    """A finite sequence of (name, value) pairs with distinct names.

    Immutable; the hash is computed once, at construction.  `_below` holds
    the proper prefixes, longest first and ending in `EMPTY`, built on the
    first walk (None until then).  A child built from its parent (`append`,
    `AChain.extend`) starts with the parent and the parent's own tuple, so
    the indices of one chain share their prefix objects, and a read usually
    finds a stored prefix by identity.  The tuple never holds the index
    itself, so an index is never part of a reference cycle.
    """

    __slots__ = ("pairs", "_hash", "_below")

    def __init__(self, pairs: tuple[tuple[str, int], ...] = ()):
        pairs = tuple(pairs)
        if len({name for name, _ in pairs}) != len(pairs):
            raise DuplicateIndexString(f"index repeats a string: {pairs!r}")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_hash", hash((pairs,)))
        object.__setattr__(self, "_below", None if pairs else ())

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Index, (self.pairs,))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not Index:
            return NotImplemented
        return self._hash == other._hash and self.pairs == other.pairs

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
        return _unchecked(pairs, _child_prefixes(self))

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
                below = (_unchecked(pairs[:length], below),) + below
            object.__setattr__(self, "_below", below)
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


def _unchecked(pairs: tuple[tuple[str, int], ...],
               below: Optional[tuple[Index, ...]] = None) -> Index:
    """An index over pairs already known to have distinct names, with its
    proper prefixes when the caller has them; `EMPTY` when `pairs` is."""
    if not pairs:
        return EMPTY
    i = object.__new__(Index)
    object.__setattr__(i, "pairs", pairs)
    object.__setattr__(i, "_hash", hash((pairs,)))
    object.__setattr__(i, "_below", below)
    return i


def _child_prefixes(i: Index) -> tuple[Index, ...]:
    """The proper prefixes of each child of i: i, then i's own.  An empty
    i built apart from `EMPTY` gives way to it, so every chain ends there."""
    return (i,) + i.proper_prefixes() if i.pairs else (EMPTY,)


EMPTY = Index(())


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
    """A finite antichain of indices: the active thread ids of one run."""

    members: frozenset[Index]

    def __init__(self, members: Iterable[Index] = (), *, _checked: bool = False):
        frozen = frozenset(members)
        if not _checked and not is_antichain(frozen):
            raise ValueError(f"not an antichain: {sorted(i.text() for i in frozen)}")
        object.__setattr__(self, "members", frozen)

    @cached_property
    def _order(self) -> tuple[Index, ...]:
        """The members in `Index.sort_key` order, sorted once per chain."""
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
        for i in self.members:
            if i.lookup(name) is not None:
                raise StringAlreadyPresent(
                    f'string "{name}" already bound in {i.text()}'
                )
        # No member binds `name`, so every extension has distinct names;
        # extensions of an antichain by a fresh pair stay an antichain.
        # A member's children share one tuple of prefixes.
        extended: list[Index] = []
        for i in self.members:
            below = _child_prefixes(i)
            extended.extend(_unchecked(i.pairs + ((name, k),), below)
                            for k in range(count))
        return AChain(extended, _checked=True)

    def partition(self, predicate) -> tuple["AChain", "AChain"]:
        """Split into (members satisfying predicate, the rest), asking the
        predicate in chain order."""
        return self.compress(map(predicate, self._order))

    def compress(self, flags: Iterable[bool]) -> tuple["AChain", "AChain"]:
        """Split into (members whose flag is true, the rest), with one flag
        per member in chain order; both parts keep that order."""
        yes: list[Index] = []
        no: list[Index] = []
        for i, flag in zip(self._order, flags):
            (yes if flag else no).append(i)
        return _in_order(tuple(yes)), _in_order(tuple(no))

    def __repr__(self) -> str:
        inner = ", ".join(i.text() for i in self)
        return f"AChain{{{inner}}}"


def _in_order(order: tuple[Index, ...]) -> AChain:
    """The antichain of members already sorted in chain order."""
    chain = AChain(order, _checked=True)
    chain.__dict__["_order"] = order
    return chain


EMPTY_CHAIN = AChain(frozenset(), _checked=True)
ROOT_CHAIN = AChain(frozenset([EMPTY]), _checked=True)
