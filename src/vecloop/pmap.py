"""Finite partial maps from indices, read through `extend`.

A PMap stores finitely many (index, value) entries but represents a larger
function: a lookup at index i reads the entry at the longest stored prefix
of i.  This models tensor broadcasting; writing at an index implicitly
covers the whole subtree above it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .indices import Index
from .ops import same_value

_ABSENT = object()


@dataclass(frozen=True)
class PMap:
    """An immutable finite partial map Index -> value."""

    entries: Mapping[Index, object]

    def __init__(self, entries: Mapping[Index, object] | Iterable[tuple[Index, object]] = ()):
        object.__setattr__(self, "entries", dict(entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, i: Index) -> bool:
        return i in self.entries

    def __eq__(self, other) -> bool:
        return isinstance(other, PMap) and self.entries == other.entries

    def domain(self) -> set[Index]:
        return set(self.entries)

    def get(self, i: Index):
        return self.entries.get(i)

    def items_sorted(self) -> list[tuple[Index, object]]:
        return sorted(self.entries.items(), key=lambda kv: kv[0].sort_key())

    def extend_eval(self, i: Index):
        """Value at the longest stored prefix of i, or None if none exists.

        The prefixes of i form a chain, so probing i and then its cached
        proper prefixes, longest first, finds that entry in at most
        len(i) + 1 probes.
        """
        get = self.entries.get
        value = get(i, _ABSENT)
        if value is not _ABSENT:
            return value
        for p in i.proper_prefixes():
            value = get(p, _ABSENT)
            if value is not _ABSENT:
                return value
        return None

    def updated(self, tensor: "PMap") -> "PMap":
        """Overwrite with `tensor`; entries strictly above its domain vanish.

        An entry of the old map survives only when its index is not covered
        by the written region (the upward closure of the tensor's domain).
        """
        new = dict(tensor.entries)
        for i, v in self.entries.items():
            if not _covered(i, tensor.entries):
                new[i] = v
        return PMap(new)

    def copied(self, rho: Mapping[Index, Index]) -> "PMap":
        """Relocate represented values along the injective map `rho`.

        Each index in the image takes the represented value of its preimage;
        everything else in the image's upward closure is cleared; entries
        elsewhere are untouched.  Stored entries move literally; a slot
        whose preimage has no stored entry gains one only when the cleared
        slot would otherwise read back a different value, so the result
        stays as sparse as the relocation allows.
        """
        image = {target: source for source, target in rho.items()}
        new: dict[Index, object] = {}
        for target, source in image.items():
            if source in self.entries:
                new[target] = self.entries[source]
        for i, v in self.entries.items():
            if not _covered(i, image):
                new[i] = v
        base = PMap(new)
        repairs: dict[Index, object] = {}
        # every repair is judged against the fixed `base`, so order is free
        for target, source in image.items():
            if source in self.entries:
                continue
            value = self.extend_eval(source)
            if value is not None and base.extend_eval(target) != value:
                repairs[target] = value
        if repairs:
            new.update(repairs)
        return PMap(new)

    def canonical(self) -> "PMap":
        """Drop entries already induced by a shorter stored prefix.

        Two maps represent the same total function exactly when their
        canonical forms are equal, so this is the equality used by the
        fixed-point check.  An entry is induced when the read at its parent
        gives the same value, a NaN counting as the same as a NaN.  Dropping
        an induced entry changes no read, so every entry can be judged
        against this map as it stands.
        """
        return PMap({i: v for i, v in self.entries.items()
                     if not i.pairs or ((up := self.extend_eval(i.parent())) != v
                                        and not same_value(up, v))})

    def same_function(self, other: "PMap") -> bool:
        """Equal reads at every index, under `same_value`."""
        mine, theirs = self.canonical().entries, other.canonical().entries
        # dict equality already counts a NaN object as equal to itself
        return mine == theirs or (mine.keys() == theirs.keys() and all(
            v == w or same_value(v, w)
            for v, w in ((mine[i], theirs[i]) for i in mine)))

    def text(self) -> str:
        inner = ", ".join(f"{i.text()}: {v!r}" for i, v in self.items_sorted())
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"PMap({self.text()})"


def _covered(i: Index, region: Mapping[Index, object]) -> bool:
    """i lies in the upward closure of `region`'s keys: a prefix is a key."""
    if i in region:
        return True
    for p in i.proper_prefixes():
        if p in region:
            return True
    return False
