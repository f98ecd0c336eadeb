"""Tests of the benchmark itself: its reference model, its tracer, its output.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import model  # noqa: E402
from tracer import Tracer  # noqa: E402


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_model_matches_pinned_and_program_database():
    from vecloop.indices import Index
    from vecloop.rdb import hash_normal

    model.check_pinned()
    for pairs, seed in (((("y", 3),), 9), ((("temp", 2), ("t", 5)), 1234),
                        ((), 7)):
        assert model.seeded_normal(pairs, seed) == hash_normal(Index(pairs), seed)


def test_tracer_self_time_excludes_children_and_uninstalls():
    class Layers:
        @staticmethod
        def inner(n):
            return sum(range(n))

        @staticmethod
        def outer(n):
            return Layers.inner(n) + 1

    tracer = Tracer()
    original = Layers.__dict__["outer"]
    tracer.attribute(Layers, "inner", "inner")
    tracer.attribute(Layers, "outer", "outer")
    assert Layers.outer(300_000) == sum(range(300_000)) + 1
    assert tracer.calls == {"inner": 1, "outer": 1}
    # the inner call's time is the inner span's, not the outer one's
    assert 0.0 <= tracer.self_s["outer"] < tracer.self_s["inner"]
    tracer.uninstall()
    assert Layers.__dict__["outer"] is original
    Layers.outer(10)
    assert tracer.calls == {"inner": 1, "outer": 1}


@pytest.mark.parametrize("trace", [0, 1])
def test_output_schema(trace):
    result = result_of(run_bench("arm-deep", 5, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_counts_repeat_exactly():
    first = result_of(run_bench("fuzz-corpus", 11, 1))
    second = result_of(run_bench("fuzz-corpus", 11, 1))
    exact = [name for name in first["metrics"]
             if name.endswith((".calls", "_final", ".nodes", "_max", "_runs",
                               "_hits", "_ratio", "_iteration"))]
    assert "pmap.canonical.calls" in exact
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
    # the partial-operator reproducers fail in every round, nothing else does
    assert first["failed"] > 0
    assert first["failed"] * second["attempted"] \
        == second["failed"] * first["attempted"]
    plain = [result_of(run_bench("shapes-wide", 11, 0)) for _ in range(2)]
    for name in ("rounds_total", "relaxed_rounds_total"):
        assert plain[0]["metrics"][name] == plain[1]["metrics"][name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("arm-deep", 1, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    assert not last[0].startswith("{")
