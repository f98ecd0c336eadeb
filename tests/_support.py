"""Shared generators and oracles for the test suite.

Everything here is deterministic in the supplied rng/seed, and the oracles
compute expected values directly from definitions, independent of the
interpreters under test.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys

import vecloop
from vecloop.indices import EMPTY, AChain, Index, ROOT_CHAIN, prefix_leq
from vecloop.pmap import PMap
from vecloop.syntax import INT, REAL, Variable

STRINGS = ("a", "b", "rv")


def python_process(code: str, *args: str, stdin: str = "",
                   **env: str) -> subprocess.CompletedProcess:
    """`python -c code args` in a fresh interpreter that imports this
    vecloop, with `env` added to the environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(vecloop.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *args], input=stdin,
        env=dict(os.environ, PYTHONPATH=path, **env), capture_output=True,
        text=True, timeout=120)


def cli_process(args: list[str], **env: str) -> subprocess.CompletedProcess:
    """`vecloop args` in a fresh interpreter, as a shell would run it, so
    that its exit code and its whole stderr can be checked."""
    return python_process(
        "import sys; from vecloop.cli import main; sys.exit(main())", *args,
        **env)


def rand_index(rng: random.Random, max_len: int = 3) -> Index:
    names = list(STRINGS)
    rng.shuffle(names)
    length = rng.randint(0, max_len)
    return Index(tuple((names[k], rng.randint(0, 3)) for k in range(length)))


def rand_chain(rng: random.Random) -> AChain:
    roll = rng.random()
    if roll < 0.25:
        return ROOT_CHAIN
    chain = ROOT_CHAIN.extend("a", rng.randint(1, 3))
    if roll < 0.6:
        return chain
    return chain.extend("b", rng.randint(1, 3))


def rand_cell(rng: random.Random, real: bool = True) -> PMap:
    entries = {EMPTY: _value(rng, real)}
    for _ in range(rng.randint(0, 5)):
        entries[rand_index(rng)] = _value(rng, real)
    return PMap(entries)


def _value(rng: random.Random, real: bool):
    return round(rng.uniform(-4.0, 4.0), 3) if real else rng.randint(-4, 4)


def rand_tensor(rng: random.Random, chain: AChain, real: bool = True) -> PMap:
    return PMap({i: _value(rng, real) for i in chain})


def shift_shape_rho(rng: random.Random) -> dict[Index, Index]:
    """A relocation of the shape the interpreters build (shift or exit)."""
    from vecloop.target_interp import exit_rho, shift_rho

    base = ROOT_CHAIN if rng.random() < 0.5 else ROOT_CHAIN.extend("a", 2)
    name = "b" if rng.random() < 0.5 else "rv"
    count = rng.randint(1, 3)
    chain = base.extend(name, count)
    if rng.random() < 0.5:
        return shift_rho(chain, name)
    return exit_rho(base, name, count)


def probes_for(rng: random.Random, *cells: PMap, extra: int = 64) -> list[Index]:
    probes = {EMPTY}
    for cell in cells:
        probes.update(cell.domain())
    for _ in range(extra):
        probes.add(rand_index(rng))
    return sorted(probes, key=Index.sort_key)


def oracle_extend(entries: dict[Index, object], i: Index):
    """Brute-force `extend`: scan every entry for the longest prefix."""
    best = None
    for j in entries:
        if prefix_leq(j, i) and (best is None or len(j) > len(best)):
            best = j
    return None if best is None else entries[best]


def oracle_update(entries: dict[Index, object], tensor: dict[Index, object],
                  probe: Index):
    """Represented value after an update: tensor wins on its covered region."""
    covered = any(prefix_leq(j, probe) for j in tensor)
    if covered:
        return oracle_extend(tensor, probe)
    return oracle_extend(entries, probe)


def oracle_copy(entries: dict[Index, object], rho: dict[Index, Index],
                probe: Index):
    """Represented value after a copy, from the composite of extends."""
    moved = {
        target: oracle_extend(entries, source)
        for source, target in rho.items()
        if oracle_extend(entries, source) is not None
    }
    covered = any(prefix_leq(j, probe) for j in moved)
    if covered:
        return oracle_extend(moved, probe)
    return oracle_extend(entries, probe)


def logpdf(x: float, mean: float, sd: float = 1.0) -> float:
    gap = x - mean
    return -0.5 * math.log(2.0 * math.pi) - math.log(sd) - gap * gap / (2.0 * sd * sd)


def var(name: str, vtype: str = REAL) -> Variable:
    return Variable(name, vtype)


X = var("x")
Y = var("y")
T = var("t", INT)
