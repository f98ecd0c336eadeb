"""Finite partial maps from indices, read through `extend`.

A PMap stores finitely many (index, value) entries but represents a larger
function: a lookup at index i reads the entry at the longest stored prefix
of i.  This models tensor broadcasting; writing at an index implicitly
covers the whole subtree above it.  The per-slot loops of reads over a
chain (`column`), update, copy and canonical form are C-level dict
operations, with a prefix walk only where a slot holds no entry itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .indices import Index
from .ops import same_value

_ABSENT = object()
# the key of a relocation's inverse among what it keeps (`_inverted`)
_IMAGE = "pmap.image"
# the kinds of relocation a loop makes (`state.Relocation.kind`)
SHIFT = "shift"
EXIT = "exit"


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

    def items(self):
        return self.entries.items()

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

    def column(self, indices: Iterable[Index]) -> list:
        """`extend_eval` at each index, in order: one dict probe per index,
        and the prefix walk only where the index holds no entry itself (no
        stored value is None)."""
        indices = list(indices)
        out = list(map(self.entries.get, indices))
        if None in out:
            read = self.extend_eval
            out = [read(i) if v is None else v for i, v in zip(indices, out)]
        return out

    def updated(self, tensor: Mapping[Index, object]) -> "PMap":
        """Overwrite with `tensor` (a mapping or a PMap); entries strictly
        above its domain vanish.

        An entry of the old map survives only when its index is not covered
        by the written region (the upward closure of the tensor's domain).
        """
        new = dict(tensor.items())
        region = new.keys()
        new.update([(i, v) for i, v in self.entries.items()
                    if i not in new and region.isdisjoint(i.proper_prefixes())])
        return _adopted(new)

    def copied(self, rho: Mapping[Index, Index]) -> "PMap":
        """Relocate represented values along the injective map `rho`.

        Each index in the image takes the represented value of its preimage;
        everything else in the image's upward closure is cleared; entries
        elsewhere are untouched.  Stored entries move literally; a slot
        whose preimage has no stored entry gains one only when the cleared
        slot would otherwise read back a different value, so the result
        stays as sparse as the relocation allows.  Such a slot already
        reads its preimage's entry after a shift, and after an exit unless
        it held an entry itself (`state.Relocation`), so those make no
        repair pass, or one over the slots that held an entry.
        """
        image = _inverted(rho)
        entries = self.entries
        moved = list(map(entries.get, image.values()))
        new = {target: v for target, v in zip(image, moved) if v is not None}
        covered = image.keys()
        new.update([(i, v) for i, v in entries.items()
                    if i not in image and covered.isdisjoint(i.proper_prefixes())])
        kind = getattr(rho, "kind", None)
        if None in moved and kind != SHIFT:
            # an exit's source without an entry reads its target's own
            # entry, if any; every repair is judged against the fixed
            # `base` (the list is built before `new` changes)
            if kind == EXIT:
                slots = [(target, entries.get(target))
                         for target, v in zip(image, moved) if v is None]
            else:
                read = self.extend_eval
                slots = [(target, read(source)) for (target, source), v
                         in zip(image.items(), moved) if v is None]
            base = _adopted(new).extend_eval
            new.update([(target, value) for target, value in slots
                        if value is not None and base(target) != value])
        return _adopted(new)

    def canonical(self) -> "PMap":
        """Drop entries already induced by a shorter stored prefix.

        Two maps represent the same total function exactly when their
        canonical forms are equal, so this is the equality used by the
        fixed-point check.  An entry is induced when the read at its parent
        gives the same value, a NaN counting as the same as a NaN.  Dropping
        an induced entry changes no read, so every entry can be judged
        against this map as it stands.  The parent's own entry is probed
        first; the prefix walk runs only where the parent holds none.  The
        map is immutable, so it keeps its canonical form: a loop's
        fixed-point check canonicalises only the maps its round made.
        """
        found = self.__dict__.get("_canonical")
        if found is None:
            get, read = self.entries.get, self.extend_eval
            kept = {}
            for i, v in self.entries.items():
                if i.pairs:
                    parent = i.parent()
                    up = get(parent)
                    if up is None:
                        up = read(parent)
                    if up == v or same_value(up, v):
                        continue
                kept[i] = v
            found = _adopted(kept)
            object.__setattr__(self, "_canonical", found)
        return found

    def same_function(self, other: "PMap") -> bool:
        """Equal reads at every index, under `same_value`.  Equal entries
        mean equal reads (dict equality counts a NaN object as equal to
        itself, and 0.0 as equal to -0.0), so only unequal entries are
        canonicalised."""
        if self is other or self.entries == other.entries:
            return True
        mine, theirs = self.canonical().entries, other.canonical().entries
        return mine == theirs or (mine.keys() == theirs.keys() and all(
            v == w or same_value(v, w)
            for v, w in ((mine[i], theirs[i]) for i in mine)))

    def text(self) -> str:
        inner = ", ".join(f"{i.text()}: {v!r}" for i, v in self.items_sorted())
        return "{" + inner + "}"

    def __repr__(self) -> str:
        return f"PMap({self.text()})"


def _inverted(rho: Mapping[Index, Index]) -> dict[Index, Index]:
    """rho as {target: source}.  A relocation the interpreter keeps in a
    chain's memo (`state.Relocation`) keeps this too, in its `derived`, so
    that it is built once per chain, not once per variable and round."""
    derived = getattr(rho, "derived", None)
    found = None if derived is None else derived.get(_IMAGE)
    if found is None:
        found = {target: source for source, target in rho.items()}
        if derived is not None:
            derived[_IMAGE] = found
    return found


def _adopted(entries: dict) -> PMap:
    """A PMap that keeps `entries` itself, a dict no one else writes."""
    m = object.__new__(PMap)
    object.__setattr__(m, "entries", entries)
    return m
