"""Random databases: total, deterministic maps from indices to reals.

Explicit entries take precedence; everything else is served by a default
policy, either a constant or a seeded standard-normal stream.  The normal
stream hashes the canonical index bytes together with the seed (64-bit
FNV-1a, finished with a splitmix64-style mix) and feeds two derived words
through Box-Muller, so lookups are reproducible across platforms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping

from .indices import Index

_FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK = (1 << 64) - 1
# splitmix64 finalizer constants, and the word whose xor with the hash
# gives Box-Muller's second input
MIX_ADD = 0x9E3779B97F4A7C15
MIX_MUL1 = 0xBF58476D1CE4E5B9
MIX_MUL2 = 0x94D049BB133111EB
SECOND = 0xD1B54A32D192ED03


def fnv1a(data: bytes, seed: int) -> int:
    h = (_FNV_OFFSET ^ (seed & _MASK)) & _MASK
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK
    return h


def _mix(h: int) -> int:
    # splitmix64 finalizer
    h = (h + MIX_ADD) & _MASK
    h = ((h ^ (h >> 30)) * MIX_MUL1) & _MASK
    h = ((h ^ (h >> 27)) * MIX_MUL2) & _MASK
    return h ^ (h >> 31)


def _unit(word: int) -> float:
    # top 53 bits -> (0, 1]; never 0 so log() below is safe
    return ((word >> 11) + 1) / float(1 << 53)


def box_muller(u1: float, u2: float) -> float:
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def index_bytes(i: Index) -> bytes:
    """Canonical byte encoding hashed by the normal default."""
    return i.text().encode("utf-8")


def hash_normal(i: Index, seed: int) -> float:
    h = _mix(fnv1a(index_bytes(i), seed))
    return box_muller(_unit(h), _unit(_mix(h ^ SECOND)))


def json_object(where: str, pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict, for `object_pairs_hook`:
    a repeated key, which `json` would let the last one win, raises
    ValueError naming `where` and the key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"{where}: repeats the key {key!r}")
        doc[key] = value
    return doc


def json_number(value, where: str, integer: bool = False):
    """A number read from JSON: a float, or the int itself when `integer`.
    Anything else (a bool, a string, a fraction where an integer is due, an
    int no float holds) raises ValueError naming `where`."""
    if isinstance(value, bool) or not isinstance(
            value, int if integer else (int, float)):
        raise ValueError(f"{where}: expected "
                         f"{'an integer' if integer else 'a number'}, "
                         f"got {value!r}")
    if integer:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{where}: {value} lies outside the floats") from None


@dataclass(frozen=True)
class Rdb:
    """Explicit entries over a total default."""

    explicit: Mapping[Index, float] = field(default_factory=dict)
    default_kind: str = "const"  # "const" | "normal"
    default_value: float = 0.0
    seed: int = 0

    def lookup(self, i: Index) -> float:
        if i in self.explicit:
            return self.explicit[i]
        if self.default_kind == "const":
            return self.default_value
        return hash_normal(i, self.seed)

    def to_json(self) -> dict:
        if self.default_kind == "const":
            default = {"kind": "const", "value": self.default_value}
        else:
            default = {"kind": "normal", "seed": self.seed}
        entries = [
            {"index": [[name, value] for name, value in i], "value": v}
            for i, v in sorted(self.explicit.items(), key=lambda kv: kv[0].sort_key())
        ]
        return {"default": default, "entries": entries}

    @staticmethod
    def from_json(doc) -> "Rdb":
        """The database `to_json` describes.  A malformed document raises
        ValueError naming the first bad field."""
        if not isinstance(doc, dict):
            raise ValueError("rdb: expected a JSON object")
        default = doc.get("default", {"kind": "const", "value": 0.0})
        entries = doc.get("entries", [])
        if not isinstance(default, dict):
            raise ValueError("rdb default: expected a JSON object")
        if not isinstance(entries, list):
            raise ValueError("rdb entries: expected a list")
        explicit = {}
        for k, entry in enumerate(entries):
            where = f"rdb entries[{k}]"
            pairs = entry.get("index") if isinstance(entry, dict) else None
            if not isinstance(pairs, list) or not all(
                    isinstance(pair, list) and len(pair) == 2
                    and isinstance(pair[0], str) for pair in pairs):
                raise ValueError(f"{where}.index: expected a list of "
                                 f"[string, integer] pairs")
            if len({name for name, _ in pairs}) < len(pairs):
                raise ValueError(f"{where}.index: repeats a string")
            index = Index(tuple((name, json_number(value, f"{where}.index",
                                                   integer=True))
                                for name, value in pairs))
            if index in explicit:
                raise ValueError(f"{where}: repeats the index {index.text()}")
            explicit[index] = json_number(entry.get("value"), f"{where}.value")
        kind = default.get("kind")
        if kind == "const":
            return Rdb(explicit, "const",
                       json_number(default.get("value"), "rdb default.value"),
                       0)
        if kind == "normal":
            return Rdb(explicit, "normal", 0.0,
                       json_number(default.get("seed"), "rdb default.seed",
                                   integer=True))
        raise ValueError(f'rdb default.kind: expected "const" or "normal", '
                         f'got {kind!r}')

    @staticmethod
    def load(path: str) -> "Rdb":
        with open(path, "r", encoding="utf-8") as fh:
            return Rdb.from_json(json.load(
                fh, object_pairs_hook=partial(json_object, "rdb")))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
