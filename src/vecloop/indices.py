"""Indices, the prefix order, and finite antichains.

An index is a finite sequence of (string, integer) pairs with pairwise
distinct strings.  Indices name random variables and, during vectorised
execution, act as thread ids.  Antichains under the prefix order are the
sets of simultaneously active threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import DuplicateIndexString, StringAlreadyPresent


@dataclass(frozen=True)
class Index:
    """A finite sequence of (name, value) pairs with distinct names."""

    pairs: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        names = [name for name, _ in self.pairs]
        if len(names) != len(set(names)):
            raise DuplicateIndexString(f"index repeats a string: {self.pairs!r}")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self.pairs)

    def concat(self, other: "Index") -> "Index":
        return Index(self.pairs + other.pairs)

    def append(self, name: str, value: int) -> "Index":
        return Index(self.pairs + ((name, value),))

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.pairs)

    def lookup(self, name: str) -> Optional[int]:
        """The integer paired with `name`, or None when `name` is unbound."""
        for candidate, value in self.pairs:
            if candidate == name:
                return value
        return None

    def prefix(self, length: int) -> "Index":
        return Index(self.pairs[:length])

    def prefixes(self) -> Iterator["Index"]:
        """This index, then its proper prefixes from longest to shortest."""
        yield self
        for length in range(len(self.pairs) - 1, -1, -1):
            yield self.prefix(length)

    def parent(self) -> "Index":
        if not self.pairs:
            raise ValueError("the empty index has no parent")
        return Index(self.pairs[:-1])

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


EMPTY = Index(())


def prefix_leq(i: Index, j: Index) -> bool:
    """The prefix order: i is an initial segment of j."""
    return len(i) <= len(j) and j.pairs[: len(i)] == i.pairs


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

    def __iter__(self) -> Iterator[Index]:
        return iter(sorted(self.members, key=Index.sort_key))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i: Index) -> bool:
        return i in self.members

    def extend(self, name: str, count: int) -> "AChain":
        """All extensions i ++ [(name, k)] for i in the chain, k < count."""
        for i in self.members:
            if i.lookup(name) is not None:
                raise StringAlreadyPresent(
                    f'string "{name}" already bound in {i.text()}'
                )
        extended = frozenset(
            i.append(name, k) for i in self.members for k in range(count)
        )
        # Extensions of an antichain by a fresh pair stay an antichain.
        return AChain(extended, _checked=True)

    def partition(self, predicate) -> tuple["AChain", "AChain"]:
        """Split into (members satisfying predicate, the rest)."""
        yes = frozenset(i for i in self.members if predicate(i))
        no = self.members - yes
        return AChain(yes, _checked=True), AChain(no, _checked=True)

    def __repr__(self) -> str:
        inner = ", ".join(i.text() for i in self)
        return f"AChain{{{inner}}}"


EMPTY_CHAIN = AChain(frozenset(), _checked=True)
ROOT_CHAIN = AChain(frozenset([EMPTY]), _checked=True)


def extend_indices(chain: AChain, name: str, count: int) -> AChain:
    return chain.extend(name, count)


def lookup_string(i: Index, name: str) -> Optional[int]:
    return i.lookup(name)
