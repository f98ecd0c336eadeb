"""One timed process: build a workload, run whole rounds of it, check every output.

run.py starts this once per pinned hash seed:

    python3 perfbench/worker.py --workload W --seed S --budget B --trace 0|1

A round takes each case of the workload in turn through five phases: the
scalar interpreter, the vectorised program on the sparse and on the dense
backend, the relaxed program, and the oracle checks.  Each run is timed on
its own and added to its phase's total; a case's results are dropped
before the next case starts, so memory holds one case at a time.  The first
round checks every output; later rounds must reproduce its fingerprint.
Rounds repeat while the next one still fits in `--budget` seconds; there is
always at least one.  With `--trace 1`, rounds alternate between untraced
and traced, and each one rebuilds the workload so that generation and
translation are traced too.  With `--setup-only` the process stops after
the build.  The process prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_program():
    sys.path.insert(0, SRC)
    import vecloop
    where = os.path.dirname(os.path.abspath(vecloop.__file__))
    if where != os.path.join(SRC, "vecloop"):
        raise SystemExit(f"vecloop imported from {where}, not from {SRC}")


_import_program()

import model  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import vecloop.dense  # noqa: E402,F401  (the dense backend imports numpy lazily)
from vecloop import (harness, parser, relaxed, source_interp, syntax,  # noqa: E402
                     target_interp)
from vecloop.errors import PrimitiveDomainError  # noqa: E402
from vecloop.indices import EMPTY  # noqa: E402

PHASES = ("scalar", "target_sparse", "target_dense", "relaxed", "checks")
# a scalar run takes microseconds to milliseconds, so it is timed repeatedly
SCALAR_REPEATS = 5
COUNTS = ("rounds_total", "relaxed_rounds_total", "checks", "failed")


def check(program, db, oracle: str, seed: int, chain=None):
    """One oracle check as `vecloop check` runs it: print, parse, check."""
    if oracle == "intfix":
        parsed = parser.parse(syntax.print_cmd(program), "target")
        return harness.ORACLES[oracle](parsed, db, chain=chain, seed=seed)
    parsed = parser.parse(syntax.print_cmd(program))
    return harness.ORACLES[oracle](parsed, db, seed=seed)


class Round:
    """The timings, fingerprint and counts of one round."""

    def __init__(self, inspect: bool) -> None:
        self.inspect = inspect  # check outputs and read layer figures
        self.times = dict.fromkeys(PHASES, 0.0)
        self.sweep: dict[str, list[float]] = {"target_sparse": [],
                                              "target_dense": []}
        self.prints: list[tuple] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.problems: list[str] = []
        self.extras: dict[str, float] = {}
        self.inspect_s = 0.0  # wall time spent checking, not running

    def timed(self, phase: str, fn, *args, **kwargs):
        start = time.process_time()
        result = fn(*args, **kwargs)
        spent = time.process_time() - start
        self.times[phase] += spent
        return result, spent

    def run(self, wl: workloads.Workload) -> "Round":
        for c in wl.cases:
            self.run_case(c)
        for p in wl.partials:
            self.run_partial(p)
        return self

    def run_case(self, c: workloads.Case) -> None:
        spent = []
        for _ in range(SCALAR_REPEATS):
            start = time.process_time()
            src_state, src_score = source_interp.run_src(c.program, c.db)
            spent.append(time.process_time() - start)
        self.times["scalar"] += statistics.median(spent)
        sparse, sparse_s = self.timed("target_sparse", target_interp.run_tgt,
                                      c.target, c.db)
        dense, dense_s = self.timed("target_dense", target_interp.run_tgt,
                                    c.target, c.db, backend="dense")
        if c.shape:
            self.sweep["target_sparse"].append(sparse_s)
            self.sweep["target_dense"].append(dense_s)
        cases = ()
        if c.target_case is not None:
            program, chain = c.target_case
            cases = tuple(self.timed(phase, target_interp.run_tgt, program,
                                     c.db, chain=chain, backend=backend)[0]
                          for phase, backend in (("target_sparse", "sparse"),
                                                 ("target_dense", "dense")))
        (relax, _flag), _ = self.timed("relaxed", relaxed.run_relaxed,
                                       c.relaxed, c.db)
        reports = [self.timed("checks", check_case, c, o)[0] for o in c.oracles]

        outcomes = (sparse, dense, relax) + cases
        self.prints.append((src_score, tuple((o.score, o.trace) for o in outcomes),
                            tuple(r.ok for r in reports)))
        self.counts["rounds_total"] += rounds(sparse)
        self.counts["relaxed_rounds_total"] += rounds(relax)
        self.counts["checks"] += len(reports)
        if self.inspect:
            start = time.perf_counter()
            found = verify(c, src_state, src_score, sparse, dense, relax, reports)
            if cases:
                found += same_backend_results(*cases)
            self.problems += [f"{c.label}: {p}" for p in found]
            add_extras(self.extras, c, sparse, dense)
            self.inspect_s += time.perf_counter() - start

    def run_partial(self, p: workloads.Partial) -> None:
        """Scalar run plus the speculative oracles of one reproducer."""
        _, score = source_interp.run_src(p.program, p.db)
        results = []
        for oracle in workloads.PARTIAL_ORACLES:
            try:
                results.append(check(p.program, p.db, oracle, 0).ok)
            except PrimitiveDomainError:
                results.append(False)
        self.prints.append((score, tuple(results)))
        self.counts["failed"] += results.count(False)
        if self.inspect and not model.close(score, p.scalar_score):
            self.problems.append(f"partial {p.label}: scalar score {score!r}, "
                                 f"want {p.scalar_score!r}")


def check_case(c: workloads.Case, oracle: str):
    if oracle == "intfix":
        program, chain = c.target_case
        return check(program, c.db, oracle, c.seed, chain)
    return check(c.program, c.db, oracle, c.seed)


def rounds(outcome) -> int:
    return sum(rec.rounds for rec in outcome.trace)


def operations(wl: workloads.Workload) -> int:
    """Operations one round attempts: every timed run and every check."""
    count = 0
    for c in wl.cases:
        count += SCALAR_REPEATS + 3 + len(c.oracles)
        if c.target_case is not None:
            count += 2  # the target case on both backends
    return count + len(wl.partials) * (1 + len(workloads.PARTIAL_ORACLES))


def probes(state) -> list:
    """Every stored index of a sparse state, its parent, and one extension
    by a string no program uses."""
    found = {EMPTY}
    for var in state.variables():
        for i in state.cell(var).entries:
            found.add(i)
            found.add(i.append("probe", 0))
            if len(i):
                found.add(i.parent())
    return sorted(found, key=lambda i: i.sort_key())


def same_backend_results(sparse, dense) -> list[str]:
    problems = []
    if sparse.score != dense.score:
        problems.append("sparse and dense score tensors differ")
    if sparse.trace != dense.trace:
        problems.append("sparse and dense loop traces differ")
    where = probes(sparse.state)
    for var in sparse.state.variables() | dense.state.variables():
        for i in where:
            if sparse.state.read(var, i) != dense.state.read(var, i):
                problems.append(f"sparse and dense read {var.text()}@{i.text()} "
                                f"differently")
                return problems
    return problems


def verify(c: workloads.Case, src_state, src_score, sparse, dense, relax,
           reports) -> list[str]:
    """Check one case's outputs without trusting the interpreters."""
    found = []
    if c.model_score is not None:
        want = c.model_score()
        for tier, got in (("scalar", src_score),
                          ("sparse", sparse.score.get(EMPTY)),
                          ("relaxed", relax.score.get(EMPTY))):
            if got is None or not model.close(got, want):
                found.append(f"{tier} score {got!r} != model {want!r}")
    for tier, outcome in (("sparse", sparse), ("relaxed", relax)):
        if outcome.score.domain() != {EMPTY}:
            found.append(f"{tier} score domain is not the root index")
        elif not model.close(outcome.score.get(EMPTY), src_score):
            found.append(f"{tier} score {outcome.score.get(EMPTY)!r} != "
                         f"scalar {src_score!r}")
        for var in syntax.variables_of(c.program):
            if outcome.state.read(var, EMPTY) != src_state.read(var):
                found.append(f"{tier} final {var.text()} != scalar")
    if c.expected_rounds is not None:
        got = sparse.rounds_by_site().get(0)
        if got != c.expected_rounds:
            found.append(f"site 0 ran {got} rounds, want {c.expected_rounds}")
    plain = sparse.rounds_by_site()
    for site, count in relax.rounds_by_site().items():
        if count > plain.get(site, 0):
            found.append(f"site {site}: relaxed {count} > plain "
                         f"{plain.get(site, 0)} rounds")
    found += same_backend_results(sparse, dense)
    for oracle, report in zip(c.oracles, reports):
        if not report.ok:
            found.append(f"oracle {oracle} failed: {report.detail}")
    return found


def scalar_loop_iterations(c: workloads.Case) -> int:
    """For-loop iterations the scalar interpreter executes on one case.

    The scalar interpreter recurses through its module-level `_run`, so a
    counting stand-in placed there sees every command it executes.
    """
    original = source_interp._run
    iterations = 0

    def counting(cmd, *rest):
        nonlocal iterations
        if isinstance(cmd, syntax.For):
            iterations += cmd.count
        return original(cmd, *rest)

    source_interp._run = counting
    try:
        source_interp.run_src(c.program, c.db)
    finally:
        source_interp._run = original
    return iterations


def add_extras(extras: dict, c: workloads.Case, sparse, dense) -> None:
    """Per-layer figures read off one case's outputs rather than from spans."""
    for name, value in (
            ("pmap.entries_final", sum(len(sparse.state.cell(v).entries)
                                       for v in sparse.state.variables())),
            ("dense.cells_final", sum(dense.state.grid(v).size
                                      for v in dense.state.variables())),
            ("target_interp.loop_runs", len(sparse.trace)),
            ("target_interp.fixpoint_hits",
             sum(rec.fixpoint_hit for rec in sparse.trace)),
            ("scalar_loop_iterations", scalar_loop_iterations(c)),
            ("translate.nodes", sum(1 for _ in syntax.walk(c.target)))):
        extras[name] = extras.get(name, 0) + value


def layer_figures(first: Round, traced: list[dict], untraced_walls: list[float]):
    calls = traced[0]["calls"]
    layers = {}
    for name, n in calls.items():
        layers[f"{name}.calls"] = n
        layers[f"{name}.s"] = statistics.median(r["self_s"][name] for r in traced)
    layers["indices.chain_width_max"] = traced[0]["width_max"]
    extras = dict(first.extras)
    plain = first.counts["rounds_total"]
    iterations = extras.pop("scalar_loop_iterations")
    extras["target_interp.rounds_per_iteration"] = \
        plain / iterations if iterations else 0.0
    extras["relaxed.round_ratio"] = \
        first.counts["relaxed_rounds_total"] / plain if plain else 0.0
    layers.update(extras)
    layers["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                  - statistics.median(untraced_walls))
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the workload, report setup_s and stop")
    args = ap.parse_args(argv)

    build = workloads.WORKLOADS[args.workload]
    wl = build(args.seed)
    setup_s = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    problems: list[str] = []
    try:
        model.check_pinned()
    except AssertionError as err:
        problems.append(str(err))

    untraced: list[Round] = []
    untraced_walls: list[float] = []
    traced: list[dict] = []
    began = time.perf_counter()
    while True:
        count = len(untraced) + len(traced)
        tracer = (tracing.install(tracing.Tracer())
                  if args.trace and count % 2 == 1 else None)
        start = time.perf_counter()
        try:
            if args.trace:
                wl = build(args.seed)
            result = Round(inspect=count == 0).run(wl)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = time.perf_counter() - start - result.inspect_s
        if count == 0:
            first = result
            problems += result.problems
        elif (result.prints, result.counts) != (first.prints, first.counts):
            problems.append(f"round {count + 1} differs from round 1")
        if tracer is None:
            untraced.append(result)
            untraced_walls.append(wall)
        else:
            traced.append({"wall": wall, "calls": dict(tracer.calls),
                           "self_s": dict(tracer.self_s),
                           "width_max": tracer.width_max})
        # whole rounds (traced and untraced in pairs) that fit the budget
        count += 1
        step = 2 if args.trace else 1
        if count % step == 0:
            elapsed = time.perf_counter() - began
            if elapsed + step * elapsed / count > args.budget:
                break

    if traced and any(r["calls"] != traced[0]["calls"] for r in traced):
        problems.append("traced call counts differ between rounds")
    doc = {
        "setup_s": setup_s,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "rounds": count,
        "attempted": operations(wl) * count,
        "failed": first.counts["failed"] * count,
        "problems": problems,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": first.counts,
        "phase_s": {p: statistics.median(r.times[p] for r in untraced)
                    for p in PHASES},
        "shapes": [[c.shape, c.size] for c in wl.cases if c.shape],
        "case_s": {phase: [statistics.median(times) for times in
                           zip(*(r.sweep[phase] for r in untraced))]
                   for phase in first.sweep},
    }
    if args.trace:
        doc["layers"] = layer_figures(first, traced, untraced_walls)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
