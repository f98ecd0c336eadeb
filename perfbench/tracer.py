"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces each traced function where callers look it up: a
class attribute for methods, a module attribute for functions imported by
name into another module, an entry of a dict, and the default value of a
keyword parameter that captured the function when its module loaded.  Each
replacement records one span per call.  A layer's self time is its span
time minus the time of the spans it caused, so the self times of all layers
add up to no more than the traced wall-clock time.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Optional


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.width_max = 0
        self._child_time = [0.0]  # one accumulator per open span, plus the root
        self._undo: list[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable[[object], None]] = None) -> Callable:
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)
        calls, self_s, child_time = self.calls, self.self_s, self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = child_time.pop()
                calls[name] += 1
                self_s[name] += elapsed - children
                child_time[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def attribute(self, owner, attr: str, name: str, on_result=None) -> None:
        """Trace `owner.attr`, a method of a class or a module's global."""
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, on_result))
        self._undo.append(lambda: setattr(owner, attr, original))

    def entry(self, table: dict, key, name: str) -> None:
        original = table[key]
        table[key] = self.wrap(name, original)
        self._undo.append(lambda: table.__setitem__(key, original))

    def defaults(self, fn, original: Callable, replacement: Callable) -> None:
        """Swap `original` for `replacement` among fn's default arguments."""
        saved = fn.__defaults__
        if saved and any(d is original for d in saved):
            fn.__defaults__ = tuple(replacement if d is original else d
                                    for d in saved)
            self._undo.append(lambda: setattr(fn, "__defaults__", saved))

    def note_width(self, chain) -> None:
        self.width_max = max(self.width_max, len(chain))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(tracer: Tracer) -> Tracer:
    """Trace every layer the per-layer metrics name."""
    from vecloop import (dense, harness, indices, parser, pmap, rdb, relaxed,
                         source_interp, state, target_interp, translate)

    for method in ("extend_eval", "canonical"):
        tracer.attribute(pmap.PMap, method, f"pmap.{method}")
    for method in ("read", "updated", "copied", "same_function"):
        tracer.attribute(state.SparseState, method, f"state.{method}")
        tracer.attribute(dense.DenseState, method, f"dense.{method}")
    # the interpreters' own calls; evalexpr's recursion stays untraced
    for module in (target_interp, relaxed, source_interp):
        tracer.attribute(module, "eval_expr", "evalexpr.eval_expr")
    tracer.attribute(rdb.Rdb, "lookup", "rdb.lookup")
    tracer.attribute(indices.AChain, "extend", "indices.extend",
                     tracer.note_width)
    tracer.attribute(indices.AChain, "partition", "indices.partition")
    tracer.attribute(relaxed, "fixcheck", "relaxed.fixcheck")
    tracer.attribute(parser, "parse", "parser.parse")
    tracer.attribute(harness, "gen_program", "harness.gen_program")
    tracer.attribute(harness, "probe_indices", "harness.probe_indices")
    for module, attr, name in (
            (target_interp, "run_tgt", "target_interp.run_tgt"),
            (relaxed, "run_relaxed", "relaxed.run_relaxed"),
            (source_interp, "run_src", "source_interp.run_src"),
            (translate, "vectorise", "translate.vectorise")):
        original = vars(module)[attr]
        tracer.attribute(module, attr, name)
        tracer.attribute(harness, attr, name)
        for oracle in list(harness.ORACLES.values()):
            tracer.defaults(oracle, original, getattr(harness, attr))
    for oracle in list(harness.ORACLES):
        tracer.entry(harness.ORACLES, oracle, f"harness.check.{oracle}")
    return tracer
