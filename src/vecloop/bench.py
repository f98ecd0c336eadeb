"""Desk-scale benchmark programs and their convergence measurements.

The observable reproduced here is the executed round count of the
vectorised loops (dependence order + 1, capped by the loop length), plus
agreement with the scalar reference run.  Wall-clock columns are
indicative only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .harness import _close
from .indices import EMPTY, ROOT_CHAIN
from .ops import same_value
from .source_interp import run_src
from .state import SPARSE, make_state
from .syntax import (INT, REAL, Assign, Cmd, Fetch, For, Ifz, IndexExpr,
                     PrimOp, RealLit, Score, Var, Variable, seq)
from .target_interp import FIXPOINT, run_tgt
from .translate import vectorise


@dataclass(frozen=True)
class BenchResult:
    rounds: int
    agree: bool
    wallclock_ms: float
    program: Cmd


def _logpdf(x, mean, sd=1.0):
    return PrimOp("normal_logpdf", (x, mean, RealLit(sd)))


def _sum(terms):
    acc = terms[0]
    for t in terms[1:]:
        acc = PrimOp("add", (acc, t))
    return acc


def _run(program: Cmd, site: int) -> BenchResult:
    db = _bench_db()
    src_state, src_score = run_src(program, db)
    start = time.monotonic()
    outcome = run_tgt(vectorise(program), db, make_state(SPARSE),
                      ROOT_CHAIN, mode=FIXPOINT)
    elapsed = (time.monotonic() - start) * 1000.0
    entries = [rec.rounds for rec in outcome.trace if rec.site == site]
    rounds = max(entries) if entries else 0
    got = outcome.score.get(EMPTY)
    agree = (outcome.score.domain() == {EMPTY} and _close(got, src_score)
             and all(same_value(outcome.state.read(var, EMPTY), value)
                     for var, value in src_state.values.items()))
    return BenchResult(rounds, agree, elapsed, program)


def _bench_db():
    from .rdb import Rdb
    return Rdb({}, "normal", 0.0, 20240901)


def arm_program(n: int, k: int) -> Cmd:
    """AR model of order k: each sample is scored against the sum of the
    previous k, held in rotating variables."""
    y = Variable("y", REAL)
    i = Variable("i", INT)
    prev = [Variable(f"p{j}", REAL) for j in range(1, k + 1)]
    body = [
        Fetch(y, IndexExpr((("y", Var(i)),))),
        Score(_logpdf(Var(y), _sum([Var(p) for p in prev]))),
    ]
    for j in reversed(range(1, k)):
        body.append(Assign(prev[j], Var(prev[j - 1])))
    body.append(Assign(prev[0], Var(y)))
    return For(i, n, seq(*body))


def bench_arm(n: int, k: int) -> BenchResult:
    if not 1 <= k <= n:
        raise ValueError("need 1 <= K <= N")
    return _run(arm_program(n, k), site=0)


def hmm_program(steps: int, order: int) -> Cmd:
    x = Variable("x", REAL)
    t = Variable("t", INT)
    lags = [Variable(f"y{j}", REAL) for j in range(1, order + 1)]
    body = [
        Fetch(x, IndexExpr((("z", Var(t)),))),
        Score(_logpdf(Var(x), _sum([Var(y) for y in lags]))),
        Score(_logpdf(RealLit(0.0), Var(x))),
    ]
    for j in reversed(range(1, order)):
        body.append(Assign(lags[j], Var(lags[j - 1])))
    body.append(Assign(lags[0], Var(x)))
    return For(t, steps, seq(*body))


def bench_hmm(steps: int, order: int) -> BenchResult:
    if steps < 2 or order not in (1, 2):
        raise ValueError("need T >= 2 and order in {1, 2}")
    return _run(hmm_program(steps, order), site=0)


def tcm_program(sequences: int, steps: int) -> Cmd:
    """Temperature-controller shape: the latent temperature is fetched each
    step and scored against mode-dependent dynamics, where the mode comes
    from the sign of a fetched disturbance and from a threshold on the
    previous temperature."""
    s = Variable("s", INT)
    t = Variable("t", INT)
    temp = Variable("temp", REAL)
    prev = Variable("prev", REAL)
    u = Variable("u", REAL)
    h = Variable("h", INT)
    disturbed = Ifz(Var(h),
                    Score(_logpdf(Var(temp),
                                  PrimOp("add", (Var(prev), RealLit(0.4))))),
                    Score(_logpdf(Var(temp),
                                  PrimOp("sub", (Var(prev), RealLit(0.1))))))
    controlled = Ifz(PrimOp("rlt", (Var(prev), RealLit(21.0))),
                     Score(_logpdf(Var(temp),
                                   PrimOp("add", (Var(prev), RealLit(0.6))),
                                   0.8)),
                     Score(_logpdf(Var(temp),
                                   PrimOp("sub", (Var(prev), RealLit(0.8))),
                                   0.8)))
    inner = For(t, steps, seq(
        Fetch(temp, IndexExpr((("temp", Var(s)), ("t", Var(t))))),
        Fetch(u, IndexExpr((("u", Var(s)), ("t", Var(t))))),
        Assign(h, PrimOp("rlt", (Var(u), RealLit(0.0)))),
        disturbed,
        controlled,
        Score(_logpdf(RealLit(20.5), Var(temp), 0.5)),
        Assign(prev, Var(temp)),
    ))
    return For(s, sequences, seq(Assign(prev, RealLit(20.0)), inner))


def bench_tcm_like(sequences: int, steps: int) -> BenchResult:
    if sequences < 1 or steps < 1:
        raise ValueError("need S, T >= 1")
    return _run(tcm_program(sequences, steps), site=1)


SUITES = {
    "arm": (bench_arm, ("N", "K")),
    "hmm": (bench_hmm, ("T", "order")),
    "tcm": (bench_tcm_like, ("S", "T")),
}
