"""Command-line surface: run, translate, check, fuzz, bench.

Exit codes: 0 success, 1 oracle failure, 2 usage or parse error,
3 runtime semantic error (reported with its taxonomy name).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

from . import harness
from .bench import SUITES
from .errors import ParseFailure, TierViolation, VecloopError
from .indices import ROOT_CHAIN, Index
from .parser import parse
from .pmap import PMap
from .rdb import Rdb
from .relaxed import run_relaxed
from .source_interp import SrcState, run_src
from .state import SPARSE, make_state
from .syntax import INT, REAL, Variable, print_cmd, variables_of
from .target_interp import FIXPOINT, run_tgt
from .translate import lower_relaxed, vectorise, vectorise_relaxed


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_var(label: str) -> Variable:
    if ":" in label:
        name, vtype = label.split(":", 1)
        if vtype not in (INT, REAL):
            raise ValueError(f"bad variable label {label!r}")
        return Variable(name, vtype)
    return Variable(label, REAL)


def _load_state(path: str | None) -> SrcState:
    if not path:
        return SrcState()
    doc = json.loads(_read(path))
    values = {}
    for label, value in doc.items():
        var = _parse_var(label)
        values[var] = int(value) if var.type == INT else float(value)
    return SrcState(values)


def _tensor_json(tensor: PMap) -> dict:
    return {i.text(): v for i, v in tensor.items_sorted()}


def _trace_json(trace) -> list:
    return [
        {"site": rec.site, "rounds": rec.rounds, "fixpointHit": rec.fixpoint_hit}
        for rec in trace
    ]


def _state_digest(state) -> str:
    return hashlib.sha256(state.canonical_text().encode()).hexdigest()[:16]


def cmd_run(args) -> int:
    program = parse(_read(args.program), args.tier)
    db = Rdb.load(args.rdb) if args.rdb else Rdb()
    init = _load_state(args.state)
    if args.tier == "source":
        final, score = run_src(program, db, init)
        doc = {
            "finalState": {
                var.text(): final.read(var)
                for var in sorted(variables_of(program) | set(init.values),
                                  key=Variable.sort_key)
            },
            "score": score,
        }
    else:
        cells = harness.root_cells(init)
        state = make_state(args.backend, cells)
        if args.tier == "target":
            outcome = run_tgt(program, db, state, ROOT_CHAIN, mode=args.mode,
                              backend=args.backend)
            doc = {
                "finalStateDigest": _state_digest(outcome.state),
                "scoreTensor": _tensor_json(outcome.score),
                "roundsPerLoop": _trace_json(outcome.trace),
            }
        else:
            outcome, flag = run_relaxed(program, db, state, ROOT_CHAIN,
                                        backend=args.backend)
            reference = run_tgt(lower_relaxed(program), db,
                                make_state(args.backend, cells), ROOT_CHAIN,
                                mode=FIXPOINT, backend=args.backend)
            doc = {
                "finalStateDigest": _state_digest(outcome.state),
                "scoreTensor": _tensor_json(outcome.score),
                "roundsPerLoop": _trace_json(outcome.trace),
                "plainRoundsPerLoop": _trace_json(reference.trace),
                "flags": {
                    var.text(): {i.text(): flag.per_var[var][i] for i in
                                 sorted(flag.per_var[var], key=Index.sort_key)}
                    for var in sorted(flag.per_var, key=Variable.sort_key)
                },
            }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_translate(args) -> int:
    program = parse(_read(args.file), args.source_tier)
    translated = vectorise(program) if args.to == "target" \
        else vectorise_relaxed(program)
    _emit(print_cmd(translated) + "\n", args.out)
    return 0


def cmd_check(args) -> int:
    program = parse(_read(args.program), "source" if args.oracle != "intfix"
                    else "target")
    db = Rdb.load(args.rdb) if args.rdb else Rdb()
    check = harness.ORACLES[args.oracle]
    report = check(program, db, seed=args.seed)
    _emit(json.dumps(dataclasses.asdict(report), indent=2, default=str) + "\n",
          args.out)
    return 0 if report.ok else 1


def _load_cfg(path: str) -> harness.GenConfig:
    doc = json.loads(_read(path))
    if not isinstance(doc, dict):
        raise ValueError(f"--cfg {path}: expected a JSON object")
    defaults = dataclasses.asdict(harness.GenConfig())
    for key, value in doc.items():
        if key not in defaults or type(value) is not type(defaults[key]):
            raise ValueError(f"--cfg {path}: bad GenConfig field {key}={value!r}")
    return harness.GenConfig(**doc)


def cmd_fuzz(args) -> int:
    limit = os.cpu_count() or 1
    if not 1 <= args.jobs <= limit:
        raise ValueError(f"--jobs {args.jobs}: must be between 1 and {limit}")
    cfg = _load_cfg(args.cfg) if args.cfg else None
    if args.jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(args.jobs) as pool:
            reports = pool.starmap(
                harness.run_one,
                [(args.oracle, args.seed + k, cfg, args.mutant)
                 for k in range(args.n)],
            )
    else:
        reports = harness.fuzz(args.oracle, args.n, args.seed, cfg,
                               args.mutant)
    lines = [json.dumps(dataclasses.asdict(r), default=str) for r in reports]
    _emit("\n".join(lines) + "\n", args.out)
    failures = [r for r in reports if not r.ok]
    return 1 if failures else 0


def cmd_bench(args) -> int:
    fn, names = SUITES[args.suite]
    params = {}
    for chunk in (args.params or "").split(","):
        if chunk:
            key, value = chunk.split("=", 1)
            params[key.strip()] = int(value)
    ordered = [params[name] for name in names]
    result = fn(*ordered)
    header = ",".join(names) + ",rounds,agree,wallclock_ms"
    row = ",".join(str(v) for v in ordered) + \
        f",{result.rounds},{str(result.agree).lower()},{result.wallclock_ms:.3f}"
    _emit(header + "\n" + row + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="vecloop",
        description="Loop-vectorising interpreters for score-computing "
                    "programs, with differential-testing oracles.",
        epilog="Grammar version 1 (docs/grammar.ebnf). Exit codes: "
               "0 success, 1 oracle failure, 2 usage/parse error "
               "(ParseFailure, TierViolation), 3 runtime semantic error "
               "(PrimitiveDomainError, ScoreNaN, MissingString, "
               "StringAlreadyPresent, EmptyIndexLost, UnknownString, "
               "NegativeComponent, ThreadBudgetExceeded, IntOverflow, "
               "AxisOrderConflict).",
    )
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a program")
    run.add_argument("--tier", choices=("source", "target", "relaxed"),
                     required=True)
    run.add_argument("--program", required=True)
    run.add_argument("--rdb")
    run.add_argument("--state")
    run.add_argument("--mode", choices=(FIXPOINT, "unrolled"),
                     default=FIXPOINT)
    run.add_argument("--backend", choices=(SPARSE, "dense"), default=SPARSE)
    run.add_argument("--out")
    run.set_defaults(fn=cmd_run)

    tr = sub.add_parser("translate", help="translate between tiers")
    tr.add_argument("--from", dest="source_tier", choices=("source",),
                    default="source")
    tr.add_argument("--to", choices=("target", "relaxed"), required=True)
    tr.add_argument("file")
    tr.add_argument("--out")
    tr.set_defaults(fn=cmd_translate)

    ch = sub.add_parser("check", help="run one oracle on one program")
    ch.add_argument("--oracle", choices=sorted(harness.ORACLES), required=True)
    ch.add_argument("--program", required=True)
    ch.add_argument("--rdb")
    ch.add_argument("--seed", type=int, default=0)
    ch.add_argument("--out")
    ch.set_defaults(fn=cmd_check)

    fz = sub.add_parser("fuzz", help="run an oracle over generated programs")
    fz.add_argument("--oracle", choices=sorted(harness.ORACLES), required=True)
    fz.add_argument("--n", type=int, default=100)
    fz.add_argument("--seed", type=int, default=0)
    fz.add_argument("--cfg")
    fz.add_argument("--mutant", choices=sorted(harness.MUTANTS))
    fz.add_argument("--jobs", type=int, default=1,
                    help="worker processes, 1 to os.cpu_count()")
    fz.add_argument("--out")
    fz.set_defaults(fn=cmd_fuzz)

    be = sub.add_parser("bench", help="reproduce iteration-count claims")
    be.add_argument("--suite", choices=sorted(SUITES), required=True)
    be.add_argument("--params", required=True,
                    help='e.g. "N=20,K=3" or "T=10,order=1" or "S=2,T=10"')
    be.add_argument("--out")
    be.set_defaults(fn=cmd_bench)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseFailure, TierViolation, FileNotFoundError, KeyError,
            ValueError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except VecloopError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
