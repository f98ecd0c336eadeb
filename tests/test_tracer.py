"""The benchmark's tracer (`perfbench/tracer.py`) finds every function it
wraps, by name, in the namespace where callers look it up: a state
class's own `copied` or `same_function`, a module's global, an oracle's
default argument.  A renamed or rebound one makes `install` raise here.
The tracer is imported from its file as it stands."""

import importlib.util
import inspect
from pathlib import Path

from vecloop import (dense, harness, indices, parser, pmap, rdb, relaxed,
                     source_interp, state, target_interp, translate)
from vecloop.bench import _bench_db, arm_program
from vecloop.state import DENSE, SPARSE
from vecloop.translate import vectorise, vectorise_relaxed

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = (dense, harness, indices, parser, pmap, rdb, relaxed,
           source_interp, state, target_interp, translate)


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces() -> dict:
    """Every callable attribute of the modules the tracer patches and of
    their own classes, the oracle table, and each oracle's default
    arguments."""
    found = {}
    for module in MODULES:
        owners = [module] + [obj for obj in vars(module).values()
                             if inspect.isclass(obj)
                             and obj.__module__ == module.__name__]
        for owner in owners:
            found.update({(owner, attr): value
                          for attr, value in vars(owner).items()
                          if callable(value)})
    found.update({("ORACLES", key): fn
                  for key, fn in harness.ORACLES.items()})
    found.update({(fn, "__defaults__"): fn.__defaults__
                  for fn in harness.ORACLES.values()})
    return found


def test_the_benchmark_tracer_installs_traces_and_uninstalls():
    tracing = _tracer_module()
    before = _namespaces()
    tracer = tracing.install(tracing.Tracer())
    try:
        db = _bench_db()
        source = arm_program(8, 2)
        for backend in (SPARSE, DENSE):
            target_interp.run_tgt(vectorise(source), db, backend=backend)
            relaxed.run_relaxed(vectorise_relaxed(source), db,
                                backend=backend)
    finally:
        tracer.uninstall()
    # arm's loop runs in lanes on the dense backend, which checks its fixed
    # point on the lanes, not through `same_function`
    for name in ("state.copied", "dense.copied", "state.same_function",
                 "state.updated", "dense.updated", "pmap.extend_eval",
                 "target_interp.run_tgt", "relaxed.run_relaxed",
                 "relaxed.fixcheck", "rdb.lookup", "indices.extend"):
        assert tracer.calls[name] > 0, name
    after = _namespaces()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items()
            if after[key] is not value] == []
