"""vecloop benchmark: one command, every end-to-end or per-layer metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in one worker process per pinned hash seed, one after
another, each for an equal share of S seconds, and checks every output.
Prints one line per metric and, as the last line, a JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  The
full record (every worker's figures, the per-program times and the growth
exponents) goes to perfbench/results/.  Exit code 0 when every output
checked out, 1 when one did not, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

# Variable order in sets, and with it how soon a fixed-point check finds a
# difference, follows PYTHONHASHSEED.  Every run averages the same seeds.
HASH_SEEDS = (0, 1, 2, 3)
# Processes that only set up, started before each timed worker, so that
# setup_s is the median of many process starts spread over the run.
SETUP_PROBES_PER_WORKER = 2
# Every worker must have ended by then, well inside the 180 s a run may take.
DEADLINE_S = 170.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(args, hash_seed: int, budget: float, deadline: float,
               *extra: str) -> dict:
    # One BLAS thread: the dense backend makes no BLAS calls, and a thread
    # pool started by `import numpy` only adds CPU time and noise to set-up.
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    # Bytecode caching as Python does by default, whatever the caller's
    # environment says: the first worker of a fresh checkout compiles and
    # writes vecloop's bytecode, the others read it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--budget", repr(budget), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()),
                          check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker for hash seed {hash_seed} exited with "
                           f"code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workers: list[dict], setups: list[float]) -> dict:
    """Per worker the median round, then the mean over the hash seeds."""
    def phase(name):
        return statistics.fmean(w["phase_s"][name] for w in workers)
    counts = workers[0]["counts"]
    return {
        "setup_s": statistics.median(setups),
        "scalar_s": phase("scalar"),
        "target_sparse_s": phase("target_sparse"),
        "target_dense_s": phase("target_dense"),
        "relaxed_s": phase("relaxed"),
        "checks_per_s": counts["checks"] / phase("checks"),
        "rounds_total": counts["rounds_total"],
        "relaxed_rounds_total": counts["relaxed_rounds_total"],
        "peak_rss_mb": max(w["rss_mb"] for w in workers),
    }


def per_layer(workers: list[dict]) -> dict:
    return {name: statistics.fmean(w["layers"][name] for w in workers)
            for name in workers[0]["layers"]}


def growth_exponents(workers: list[dict]) -> dict:
    """Least-squares slope of log(time) against log(N) per shape and backend."""
    out = {}
    shapes = workers[0]["shapes"]
    for phase, times in workers[0]["case_s"].items():
        mean_times = [statistics.fmean(w["case_s"][phase][k] for w in workers)
                      for k in range(len(times))]
        for shape in sorted({s for s, _ in shapes}):
            points = [(math.log(size), math.log(t))
                      for (s, size), t in zip(shapes, mean_times) if s == shape]
            mx = statistics.fmean(x for x, _ in points)
            my = statistics.fmean(y for _, y in points)
            slope = (sum((x - mx) * (y - my) for x, y in points)
                     / sum((x - mx) ** 2 for x, _ in points))
            out[f"{shape}.{phase}"] = slope
    return out


def main(argv=None) -> int:
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "vecloop", "__init__.py")):
        print(f"error: no vecloop sources under {ROOT}/src", file=sys.stderr)
        return 2

    os.makedirs(RESULTS, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    budget = args.seconds / len(HASH_SEEDS)
    try:
        workers, setups = [], []
        for h in HASH_SEEDS:
            for _ in range(0 if args.trace else SETUP_PROBES_PER_WORKER):
                setups.append(run_worker(args, h, 0.0, deadline,
                                         "--setup-only")["setup_s"])
            workers.append(run_worker(args, h, budget, deadline))
            setups.append(workers[-1]["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    problems = [f"hash seed {w['hash_seed']}: {p}"
                for w in workers for p in w["problems"]]
    if any(w["counts"] != workers[0]["counts"] for w in workers):
        problems.append("round and check counts differ between hash seeds")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values = per_layer(workers) if args.trace else end_to_end(workers, setups)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {
        "correct": not problems,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": metrics,
    }
    record = {"args": vars(args), "hash_seeds": HASH_SEEDS, "result": result,
              "problems": problems, "all_values": values, "setups_s": setups,
              "growth_exponents": growth_exponents(workers),
              "workers": workers}
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for p in problems[:20]:
        print(f"PROBLEM {p}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    for name, slope in record["growth_exponents"].items():
        print(f"growth exponent {name:34s} {slope:6.3f}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
