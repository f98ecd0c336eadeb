"""Random program generation and the differential-testing oracles.

Every generated artifact is a pure function of (seed, config), so any
failure replays from those two values alone.  On failure the harness
shrinks the program deterministically (dropping statements, unwrapping
blocks, lowering loop lengths) while the failure persists, and reports the
minimum it reached.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional

from .indices import EMPTY, AChain, Index, ROOT_CHAIN
from .ops import same_value
from .pmap import PMap
from .rdb import Rdb
from .source_interp import SrcState, run_src
from .state import SPARSE, make_state
from .syntax import (INT, REAL, Assign, Cmd, ExtendIndex, Fetch, For, Ifz,
                     IndexExpr, IntLit, LoopFixpt, PrimOp, RealLit, Score, Seq,
                     Skip, Var, Variable, print_cmd, seq, variables_of)
from .target_interp import FIXPOINT, UNROLLED, run_tgt
from .relaxed import run_relaxed
from .translate import embed, lower_relaxed, vectorise, vectorise_relaxed

RDB_STRINGS = ("z", "w", "u")
SCORE_TOL = 1e-9


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    max_depth: int = 4
    max_loop_len: int = 6
    max_vars: int = 6
    allow_ifz: bool = True
    allow_nesting: bool = True
    allow_fetch: bool = True
    data_dependence: bool = True


@dataclass(frozen=True)
class CheckReport:
    oracle: str
    program: str
    inputs_digest: str
    ok: bool
    detail: str = ""
    seed: int = 0
    config: Optional[GenConfig] = None
    shrunk_program: str = ""

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return f"{self.oracle} seed={self.seed}: {status} {self.detail}".rstrip()


# --------------------------------------------------------------------------
# Program generation
# --------------------------------------------------------------------------

class _Gen:
    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.real_vars = [Variable(f"x{k}", REAL)
                          for k in range(max(2, cfg.max_vars - 2))]
        self.int_vars = [Variable(f"n{k}", INT) for k in range(2)]

    def real_var(self) -> Variable:
        return self.rng.choice(self.real_vars)

    def int_var(self) -> Variable:
        return self.rng.choice(self.int_vars)

    def loop_len(self, depth: int) -> int:
        # keep the product of nested lengths desk-sized
        cap = self.cfg.max_loop_len if depth <= 1 else 3
        return self.rng.randint(1, max(1, cap))

    def int_expr(self, depth: int, loop_vars: list[Variable]):
        choices = ["lit", "var"]
        if depth > 0:
            choices += ["add", "mod", "mul"]
        kind = self.rng.choice(choices)
        if kind == "lit" or (kind == "var" and not loop_vars
                             and not self.int_vars):
            return IntLit(self.rng.randint(-3, 5))
        if kind == "var":
            pool = loop_vars + self.int_vars
            return Var(self.rng.choice(pool))
        left = self.int_expr(depth - 1, loop_vars)
        if kind == "mod":
            return PrimOp("mod", (left, IntLit(self.rng.randint(2, 5))))
        if kind == "mul":
            return PrimOp("mul", (left, IntLit(self.rng.randint(-2, 2))))
        return PrimOp("add", (left, self.int_expr(depth - 1, loop_vars)))

    def real_expr(self, depth: int, loop_vars: list[Variable]):
        choices = ["lit", "var", "var"]
        if depth > 0:
            choices += ["add", "sub", "mul_lit", "neg", "to_real", "logpdf"]
        kind = self.rng.choice(choices)
        if kind == "lit":
            return RealLit(round(self.rng.uniform(-2.0, 2.0), 3))
        if kind == "var":
            return Var(self.real_var())
        if kind == "neg":
            return PrimOp("neg", (self.real_expr(depth - 1, loop_vars),))
        if kind == "to_real":
            return PrimOp("to_real", (self.int_expr(depth - 1, loop_vars),))
        if kind == "mul_lit":
            return PrimOp("mul", (self.real_expr(depth - 1, loop_vars),
                                  RealLit(round(self.rng.uniform(-1.5, 1.5), 3))))
        if kind == "logpdf":
            return PrimOp("normal_logpdf", (
                self.real_expr(depth - 1, loop_vars),
                self.real_expr(depth - 1, loop_vars),
                RealLit(round(self.rng.uniform(0.5, 2.0), 3)),
            ))
        left = self.real_expr(depth - 1, loop_vars)
        right = self.real_expr(depth - 1, loop_vars)
        return PrimOp("add" if kind == "add" else "sub", (left, right))

    def condition(self, loop_vars: list[Variable]):
        if self.rng.random() < 0.5:
            return PrimOp("eq", (self.int_expr(1, loop_vars),
                                 IntLit(self.rng.randint(0, 2))))
        if self.rng.random() < 0.5:
            return PrimOp("lt", (self.int_expr(1, loop_vars),
                                 IntLit(self.rng.randint(0, 3))))
        return PrimOp("rlt", (Var(self.real_var()),
                              RealLit(round(self.rng.uniform(-1.0, 1.0), 3))))

    def fetch_stmt(self, loop_vars: list[Variable]) -> Cmd:
        name = self.rng.choice(RDB_STRINGS)
        z = (Var(self.rng.choice(loop_vars)) if loop_vars and self.rng.random() < 0.7
             else self.int_expr(1, loop_vars))
        pairs = [(name, z)]
        if self.rng.random() < 0.25:
            other = self.rng.choice([s for s in RDB_STRINGS if s != name])
            pairs.append((other, self.int_expr(0, loop_vars)))
        return Fetch(self.real_var(), IndexExpr(tuple(pairs)))

    def atomic(self, loop_vars: list[Variable]) -> Cmd:
        roll = self.rng.random()
        if roll < 0.1:
            return Skip()
        if roll < 0.35 and self.cfg.allow_fetch:
            return self.fetch_stmt(loop_vars)
        if roll < 0.55:
            return Score(self.real_expr(2, loop_vars))
        if roll < 0.7 and self.cfg.data_dependence:
            # loop-carried copy, the pattern that makes speculation matter
            return Assign(self.real_var(), Var(self.real_var()))
        if roll < 0.85:
            return Assign(self.real_var(), self.real_expr(2, loop_vars))
        return Assign(self.int_var(), self.int_expr(2, loop_vars))

    def command(self, depth: int, loop_vars: list[Variable],
                loop_depth: int) -> Cmd:
        roll = self.rng.random()
        if depth <= 0 or roll < 0.45:
            return self.atomic(loop_vars)
        if roll < 0.6 and self.cfg.allow_ifz:
            return Ifz(self.condition(loop_vars),
                       self.command(depth - 1, loop_vars, loop_depth),
                       self.command(depth - 1, loop_vars, loop_depth))
        if roll < 0.8 and (loop_depth == 0 or self.cfg.allow_nesting) \
                and loop_depth < 2:
            var = Variable(f"t{loop_depth}", INT)
            body = self.sequence(depth - 1, loop_vars + [var], loop_depth + 1)
            return For(var, self.loop_len(loop_depth), body)
        return self.sequence(depth - 1, loop_vars, loop_depth)

    def sequence(self, depth: int, loop_vars: list[Variable],
                 loop_depth: int) -> Cmd:
        count = self.rng.randint(1, 3)
        return seq(*[self.command(depth, loop_vars, loop_depth)
                     for _ in range(count)])

    def program(self) -> Cmd:
        return self.sequence(self.cfg.max_depth, [], 0)


def gen_program(cfg: GenConfig) -> Cmd:
    return _Gen(cfg).program()


def gen_rdb(seed: int) -> Rdb:
    rng = random.Random(seed ^ 0x5EED)
    explicit = {}
    for _ in range(rng.randint(0, 4)):
        name = rng.choice(RDB_STRINGS)
        i = Index(((name, rng.randint(0, 5)),))
        explicit[i] = round(rng.uniform(-2.0, 2.0), 6)
    return Rdb(explicit, "normal", 0.0, seed)


# --------------------------------------------------------------------------
# Probe indices for extensional state comparison
# --------------------------------------------------------------------------

def probe_indices(states: Iterable, seed: int, count: int = 64) -> list[Index]:
    probes: set[Index] = {EMPTY}
    for state in states:
        for var in state.variables():
            cell = state.cell(var) if hasattr(state, "cell") else None
            if cell is not None:
                probes.update(cell.domain())
    rng = random.Random(seed ^ 0xBEEF)
    base = sorted(probes, key=Index.sort_key)
    for _ in range(count):
        root = rng.choice(base)
        name = rng.choice(("z", "w", "u", "q", "$loop0", "$loop1"))
        if root.lookup(name) is None:
            probes.add(root.append(name, rng.randint(0, 6)))
    return sorted(probes, key=Index.sort_key)


def _close(a: float, b: float, tol: float = SCORE_TOL) -> bool:
    """Equal under `same_value` (-inf matches -inf), else within `tol`."""
    return same_value(a, b) or abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------

def root_cells(init: SrcState) -> dict:
    """A scalar state's values as lifted cells, each stored at the root."""
    return {v: PMap({EMPTY: val}) for v, val in init.values.items()}


def check_embedding(program: Cmd, db: Rdb, init: SrcState | None = None,
                    seed: int = 0, cfg: Optional[GenConfig] = None,
                    tgt_run: Callable = run_tgt) -> CheckReport:
    """Scalar run vs type-lifted run under the root index, unrolled loops."""
    return _check_root("embedding", embed, UNROLLED, "lifted", program, db,
                       init, seed, cfg, tgt_run)


def check_soundness(program: Cmd, db: Rdb, init: SrcState | None = None,
                    seed: int = 0, cfg: Optional[GenConfig] = None,
                    tgt_run: Callable = run_tgt) -> CheckReport:
    """Scalar run vs vectorised translation under the root index."""
    return _check_root("soundness", vectorise, FIXPOINT, "vectorised",
                       program, db, init, seed, cfg, tgt_run)


def _check_root(oracle: str, translate: Callable, mode: str, label: str,
                program: Cmd, db: Rdb, init: SrcState | None, seed: int,
                cfg: Optional[GenConfig], tgt_run: Callable) -> CheckReport:
    init = init or SrcState()
    src_state, score = run_src(program, db, init)
    outcome = tgt_run(translate(program), db,
                      make_state(SPARSE, root_cells(init)), ROOT_CHAIN,
                      mode=mode)
    problems = []
    for var in variables_of(program) | set(init.values):
        got = outcome.state.read(var, EMPTY)
        want = src_state.read(var)
        if not same_value(got, want):
            problems.append(f"{var.text()}: scalar {want!r} vs {label} {got!r}")
    if outcome.score.domain() != {EMPTY}:
        problems.append(f"score domain {sorted(i.text() for i in outcome.score.domain())}")
    else:
        got = outcome.score.get(EMPTY)
        if not _close(score, got):
            problems.append(f"score {score!r} vs {got!r}")
    return _report(oracle, program, db, not problems,
                   "; ".join(problems), seed, cfg)


def check_int_vs_fixpoint(program: Cmd, db: Rdb, state=None,
                          chain: AChain = ROOT_CHAIN, seed: int = 0,
                          cfg: Optional[GenConfig] = None,
                          tgt_run: Callable = run_tgt) -> CheckReport:
    """Early-exit loops vs fully unrolled loops on one target program."""
    base = state if state is not None else make_state(SPARSE)
    fix = tgt_run(program, db, base, chain, mode=FIXPOINT)
    unr = run_tgt(program, db, base, chain, mode=UNROLLED)
    problems = []
    if fix.score != unr.score:
        problems.append(f"score tensors differ: {fix.score.text()} vs "
                        f"{unr.score.text()}")
    probes = probe_indices([fix.state, unr.state], seed, count=128)
    problems.extend(_first_state_diff(fix.state, unr.state, probes))
    return _report("intfix", program, db, not problems,
                   "; ".join(problems), seed, cfg)


def _first_state_diff(left, right, probes) -> list[str]:
    found = left.first_difference(right, probes)
    if found is None:
        return []
    var, i, a, b = found
    return [f"states differ at {var.text()}@{i.text()}: {a!r} vs {b!r}"]


def check_relaxed(program: Cmd, db: Rdb, init: SrcState | None = None,
                  seed: int = 0, cfg: Optional[GenConfig] = None,
                  relaxed_run: Callable = run_relaxed) -> CheckReport:
    """Flag-masked loop exit vs plain fixed-point exit of the lowering."""
    cells = root_cells(init or SrcState())
    fused = vectorise_relaxed(program)
    plain = vectorise(program)
    if lower_relaxed(fused) != plain:
        return _report("relaxed", program, db, False,
                       "lowering disagrees with the plain translation",
                       seed, cfg)
    outcome, _flag = relaxed_run(fused, db, make_state(SPARSE, cells), ROOT_CHAIN)
    reference = run_tgt(plain, db, make_state(SPARSE, cells), ROOT_CHAIN,
                        mode=FIXPOINT)
    problems = []
    if outcome.score != reference.score:
        problems.append(f"score tensors differ: {outcome.score.text()} vs "
                        f"{reference.score.text()}")
    probes = probe_indices([outcome.state, reference.state], seed)
    problems.extend(_first_state_diff(outcome.state, reference.state, probes))
    mine, theirs = outcome.rounds_by_site(), reference.rounds_by_site()
    for site, rounds in mine.items():
        if rounds > theirs.get(site, 0):
            problems.append(f"site {site}: relaxed ran {rounds} > plain "
                            f"{theirs.get(site, 0)} rounds")
    return _report("relaxed", program, db, not problems,
                   "; ".join(problems), seed, cfg)


ORACLES: dict[str, Callable] = {
    "embedding": check_embedding,
    "soundness": check_soundness,
    "intfix": check_int_vs_fixpoint,
    "relaxed": check_relaxed,
}


def _rewrite(c: Cmd, node: Callable[[Cmd], Cmd]) -> Cmd:
    """Apply `node` to every command of a target program, innermost first."""
    if isinstance(c, Seq):
        c = Seq(tuple(_rewrite(item, node) for item in c.items))
    elif isinstance(c, Ifz):
        c = Ifz(c.cond, _rewrite(c.then, node), _rewrite(c.orelse, node))
    elif isinstance(c, (For, LoopFixpt, ExtendIndex)):
        c = replace(c, body=_rewrite(c.body, node))
    return node(c)


def _one_round(c: Cmd) -> Cmd:
    return LoopFixpt(1, c.body) if isinstance(c, LoopFixpt) else c


def _nudge(c: Cmd) -> Cmd:
    return Score(PrimOp("add", (c.expr, RealLit(1e-6)))) \
        if isinstance(c, Score) else c


def _mutant(node: Callable[[Cmd], Cmd], modes: tuple[str, ...]) -> Callable:
    def run(c: Cmd, db: Rdb, state=None, chain: AChain = ROOT_CHAIN,
            mode: str = FIXPOINT, backend: str = SPARSE):
        if mode in modes:
            c = _rewrite(c, node)
        return run_tgt(c, db, state, chain, mode, backend)
    return run


# Broken translations, run by the clean interpreter, that prove failures
# replay and shrink: every fixed-point loop stops after one round, or every
# score is off by 1e-6.
MUTANTS = {
    "loop-one-round": _mutant(_one_round, (FIXPOINT,)),
    "score-nudge": _mutant(_nudge, (FIXPOINT, UNROLLED)),
}


def _report(oracle: str, program: Cmd, db: Rdb, ok: bool, detail: str,
            seed: int, cfg: Optional[GenConfig]) -> CheckReport:
    digest = hashlib.sha256(
        (print_cmd(program) + repr(sorted((i.text(), v) for i, v in
                                          db.explicit.items()))).encode()
    ).hexdigest()[:16]
    return CheckReport(oracle, print_cmd(program), digest, ok, detail,
                       seed, cfg)


# --------------------------------------------------------------------------
# Shrinking
# --------------------------------------------------------------------------

def _shrink_candidates(c: Cmd) -> list[Cmd]:
    out: list[Cmd] = []
    if isinstance(c, Seq):
        items = list(c.items)
        for k in range(len(items)):
            out.append(seq(*(items[:k] + items[k + 1:])))
        for k, item in enumerate(items):
            for smaller in _shrink_candidates(item):
                out.append(seq(*(items[:k] + [smaller] + items[k + 1:])))
        return out
    if isinstance(c, Ifz):
        out.extend([c.then, c.orelse, Skip()])
        out.extend(Ifz(c.cond, t, c.orelse) for t in _shrink_candidates(c.then))
        out.extend(Ifz(c.cond, c.then, e) for e in _shrink_candidates(c.orelse))
        return out
    if isinstance(c, For):
        out.append(Skip())
        if c.count > 1:
            out.append(For(c.var, 1, c.body))
            out.append(For(c.var, c.count - 1, c.body))
        out.extend(For(c.var, c.count, b) for b in _shrink_candidates(c.body))
        return out
    if not isinstance(c, Skip):
        out.append(Skip())
    return out


def shrink(program: Cmd, still_fails: Callable[[Cmd], bool],
           max_steps: int = 400) -> Cmd:
    """Greedy deterministic minimisation preserving the failure."""
    current = program
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in _shrink_candidates(current):
            steps += 1
            if steps >= max_steps:
                break
            try:
                if still_fails(candidate):
                    current = candidate
                    improved = True
                    break
            except Exception:
                continue
    return current


# --------------------------------------------------------------------------
# Fuzz driver
# --------------------------------------------------------------------------

def fuzz(oracle: str, count: int, seed: int, cfg: Optional[GenConfig] = None,
         mutant: Optional[str] = None) -> list[CheckReport]:
    """Run `count` seeded checks; failed reports carry a shrunk program."""
    if oracle not in ORACLES:
        raise KeyError(f"unknown oracle {oracle!r}")
    return [run_one(oracle, seed + k, cfg, mutant) for k in range(count)]


def gen_target_case(seed: int, cfg: GenConfig) -> tuple[Cmd, AChain]:
    """A target-tier program plus the antichain to run it under.

    Two thirds of the cases are vectorised translations (exercising
    extend_index / shift / fixed-point loops), the rest are type-lifted
    programs whose loops stay as plain for-loops.
    """
    source = gen_program(cfg)
    rng = random.Random(seed ^ 0x7A11)
    program = vectorise(source) if rng.random() < 2 / 3 else embed(source)
    if rng.random() < 0.3:
        chain = AChain([Index((("out", k),)) for k in range(rng.randint(1, 3))])
    else:
        chain = ROOT_CHAIN
    return program, chain


def run_one(oracle: str, seed: int, cfg: Optional[GenConfig] = None,
            mutant: Optional[str] = None) -> CheckReport:
    base = cfg or GenConfig()
    case_cfg = replace(base, seed=seed)
    db = gen_rdb(seed)
    check = ORACLES[oracle]
    kwargs = {}
    if mutant is not None and oracle != "relaxed":
        kwargs["tgt_run"] = MUTANTS[mutant]
    if oracle == "intfix":
        program, chain = gen_target_case(seed, case_cfg)
        kwargs["chain"] = chain
    else:
        program = gen_program(case_cfg)
    report = check(program, db, seed=seed, cfg=case_cfg, **kwargs)
    if not report.ok:
        def still_fails(candidate: Cmd) -> bool:
            return not check(candidate, db, seed=seed, cfg=case_cfg,
                             **kwargs).ok
        smallest = shrink(program, still_fails)
        report = replace(report, shrunk_program=print_cmd(smallest))
    return report
