"""Reference scores for the benchmark's model programs, computed without vecloop.

The seeded-normal database is reimplemented here from its published recipe
(vecloop README, "Random databases"): hash the canonical index text with
64-bit FNV-1a whose offset basis is XORed with the seed, finish with the
splitmix64 mixer, map the top 53 bits of that word and of a re-mixed
companion word to (0, 1], and apply Box-Muller.  `PINNED` holds the values
vecloop's own tests pin; `check_pinned` must pass before any score here is
trusted.

The model log-densities below are written as plain loops over the
generative story of each program, so they share no code with the
interpreters they check.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_COMPANION = 0xD1B54A32D192ED03

# (index pairs, seed) -> value, as pinned by vecloop's tests/test_rdb.py
PINNED = (
    ((), 0, -1.2498441860516338),
    ((("z", 0),), 1, 1.3861205678137802),
)


def index_text(pairs) -> str:
    """Canonical index text, e.g. [("z",0);("t",3)]; the empty index is []."""
    return "[" + ";".join(f'("{name}",{value})' for name, value in pairs) + "]"


def _splitmix(h: int) -> int:
    h = (h + 0x9E3779B97F4A7C15) & _MASK
    h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & _MASK
    return h ^ (h >> 31)


def _to_unit(word: int) -> float:
    return ((word >> 11) + 1) / float(1 << 53)


def seeded_normal(pairs, seed: int) -> float:
    """The seeded-normal database's value at the index given by `pairs`."""
    h = (_FNV_OFFSET ^ (seed & _MASK)) & _MASK
    for byte in index_text(pairs).encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    h = _splitmix(h)
    u1 = _to_unit(h)
    u2 = _to_unit(_splitmix(h ^ _COMPANION))
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def check_pinned() -> None:
    for pairs, seed, want in PINNED:
        got = seeded_normal(pairs, seed)
        if got != want:
            raise AssertionError(f"seeded_normal({pairs}, {seed}) = {got!r}, "
                                 f"pinned {want!r}")


def logpdf(x: float, mean: float, sd: float) -> float:
    return (-0.5 * math.log(2.0 * math.pi) - math.log(sd)
            - (x - mean) ** 2 / (2.0 * sd * sd))


def arm_score(n: int, k: int, seed: int) -> float:
    """AR(k): y_i ~ Normal(y_{i-1} + ... + y_{i-k}, 1), missing lags are 0."""
    ys = [seeded_normal((("y", i),), seed) for i in range(n)]
    total = 0.0
    for i in range(n):
        mean = sum(ys[i - j] for j in range(1, k + 1) if i - j >= 0)
        total += logpdf(ys[i], mean, 1.0)
    return total


def hmm_score(steps: int, order: int, seed: int) -> float:
    """x_t ~ Normal(sum of the previous `order` x, 1); observation 0 ~ Normal(x_t, 1)."""
    xs = [seeded_normal((("z", t),), seed) for t in range(steps)]
    total = 0.0
    for t in range(steps):
        mean = sum(xs[t - j] for j in range(1, order + 1) if t - j >= 0)
        total += logpdf(xs[t], mean, 1.0) + logpdf(0.0, xs[t], 1.0)
    return total


def tcm_score(sequences: int, steps: int, seed: int) -> float:
    """Controller model: a disturbance-driven and a threshold-driven term
    per step, plus a set-point term; each sequence starts at 20.0."""
    total = 0.0
    for s in range(sequences):
        prev = 20.0
        for t in range(steps):
            temp = seeded_normal((("temp", s), ("t", t)), seed)
            u = seeded_normal((("u", s), ("t", t)), seed)
            if u < 0.0:
                total += logpdf(temp, prev + 0.4, 1.0)
            else:
                total += logpdf(temp, prev - 0.1, 1.0)
            if prev < 21.0:
                total += logpdf(temp, prev + 0.6, 0.8)
            else:
                total += logpdf(temp, prev - 0.8, 0.8)
            total += logpdf(20.5, temp, 0.5)
            prev = temp
    return total


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
