"""Acceptance suite: the package's exit criteria, one line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete.  Each criterion states its corpus size, tolerance, and wall-clock
budget; the assertions hold all of them at once.
"""

import random
import time
from dataclasses import replace

from _spec import decode, in_down, in_up
from _support import (oracle_copy, oracle_update, probes_for, rand_cell,
                      rand_chain, rand_tensor, shift_shape_rho)
from vecloop.bench import bench_arm, bench_hmm, bench_tcm_like
from vecloop.dense import dense_encode
from vecloop.harness import (GenConfig, MUTANTS, fuzz, gen_program, gen_rdb,
                             gen_target_case, probe_indices, run_one)
from vecloop.indices import EMPTY, AChain, Index
from vecloop.pmap import PMap
from vecloop.state import DENSE, SPARSE, SparseState, make_state
from vecloop.syntax import INT, Ifz, IntLit, PrimOp, Var, Variable, free_vars
from vecloop.target_interp import FIXPOINT, run_tgt
from vecloop.translate import vectorise

FULL_CFG = GenConfig(max_depth=4, max_loop_len=6, max_vars=6,
                     allow_ifz=True, allow_nesting=True, allow_fetch=True,
                     data_dependence=True)


def report(number, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {number}] {status}: {detail} "
          f"({elapsed:.1f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s"


def test_criterion_1_soundness_corpus():
    start = time.monotonic()
    reports = fuzz("soundness", 1000, seed=0, cfg=FULL_CFG)
    failures = [r for r in reports if not r.ok]
    report(1, not failures,
           f"vectorising translation vs scalar runs, 1000 programs, "
           f"rel tol 1e-9, {len(failures)} failures",
           time.monotonic() - start, 120)


def test_criterion_2_fixpoint_vs_unrolled_corpus():
    start = time.monotonic()
    reports = fuzz("intfix", 1000, seed=0, cfg=FULL_CFG)
    failures = [r for r in reports if not r.ok]
    report(2, not failures,
           f"early-exit vs unrolled loops, 1000 target programs, exact "
           f"scores, {len(failures)} failures",
           time.monotonic() - start, 120)


def test_criterion_3_relaxed_corpus():
    start = time.monotonic()
    reports = fuzz("relaxed", 500, seed=0, cfg=FULL_CFG)
    failures = [r for r in reports if not r.ok]
    report(3, not failures,
           f"masked vs plain fixed-point exits, 500 programs, equal scores "
           f"and rounds bounded, {len(failures)} failures",
           time.monotonic() - start, 120)


def test_criterion_4_iteration_counts():
    start = time.monotonic()
    problems = []
    for k in (1, 3, 5, 10):
        for n in (10, 20, 100):
            got = bench_arm(n, k)
            want = min(k + 1, n)
            if got.rounds != want or not got.agree:
                problems.append(f"arm({n},{k})={got.rounds}")
    for order, want in ((1, 2), (2, 3)):
        got = bench_hmm(10, order)
        if got.rounds != want or not got.agree:
            problems.append(f"hmm(ord{order})={got.rounds}")
    got = bench_tcm_like(2, 10)
    if got.rounds != 2 or not got.agree:
        problems.append(f"tcm={got.rounds}")
    report(4, not problems,
           "autoregressive rounds = min(K+1, N) on 12 grid points; "
           "hmm rounds = order+1; controller model rounds = 2"
           + (f"; problems: {problems}" if problems else ""),
           time.monotonic() - start, 30)


def test_criterion_5_update_copy_fixtures():
    start = time.monotonic()
    rv = [Index((("rv", k),)) for k in range(3)]
    cell = PMap({EMPTY: 1, rv[1]: 3, rv[2]: 4})
    checks = [
        cell.updated(PMap({EMPTY: 6})).entries == {EMPTY: 6},
        cell.updated(PMap({rv[0]: 8, rv[2]: 9})).entries
        == {EMPTY: 1, rv[0]: 8, rv[1]: 3, rv[2]: 9},
        cell.copied({EMPTY: rv[0], rv[0]: rv[1], rv[1]: rv[2]}).entries
        == {EMPTY: 1, rv[0]: 1, rv[2]: 3},
        cell.copied({rv[2]: EMPTY}).entries == {EMPTY: 4},
    ]
    report(5, all(checks),
           f"four update/copy fixtures reproduced bit-exactly "
           f"({sum(checks)}/4)",
           time.monotonic() - start, 30)


def test_criterion_6_dense_grid_fixture():
    start = time.monotonic()
    entries = {EMPTY: 0.5}
    for i in range(10):
        entries[Index((("alpha", i),))] = 1.0 + i
        for j in range(9):
            entries[Index((("alpha", i), ("beta", j)))] = 100.0 + 10 * i + j
    m = PMap(entries)
    dense = dense_encode(m, {"alpha": 0, "beta": 1})
    ok = dense.cells.shape == (11, 10)
    ok = ok and dense.cells[-1, -1] == 0.5
    ok = ok and all(dense.cells[i, -1] == 1.0 + i for i in range(10))
    ok = ok and all(dense.cells[-1, j] == 0.5 for j in range(9))
    ok = ok and all(dense.cells[i, j] == 100.0 + 10 * i + j
                    for i in range(10) for j in range(9))
    agreed = 0
    for i in [None] + list(range(10)):
        for j in [None] + list(range(9)):
            pairs = tuple(p for p in (("alpha", i), ("beta", j))
                          if p[1] is not None)
            probe = Index(pairs)
            if decode(dense, probe) == m.extend_eval(probe):
                agreed += 1
    ok = ok and agreed == 110
    report(6, ok,
           f"dense grid shape (11, 10), all four cell classes, decode "
           f"agrees with the sparse read on {agreed}/110 cells",
           time.monotonic() - start, 30)


# -- criterion 7: the lemma suite -------------------------------------------

def _trials_update_copy_equations(trials):
    rng = random.Random(100)
    for _ in range(trials):
        cell = rand_cell(rng)
        tensor = rand_tensor(rng, rand_chain(rng))
        updated = cell.updated(tensor)
        rho = shift_shape_rho(rng)
        copied = cell.copied(rho)
        for probe in probes_for(rng, cell, tensor, extra=64):
            if updated.extend_eval(probe) != \
                    oracle_update(cell.entries, tensor.entries, probe):
                return False
            if copied.extend_eval(probe) != \
                    oracle_copy(cell.entries, rho, probe):
                return False
    return True


def _trials_write_effects(trials):
    rng = random.Random(101)
    for _ in range(trials):
        cell = rand_cell(rng)
        tensor = rand_tensor(rng, rand_chain(rng))
        updated = cell.updated(tensor)
        outside = [p for p in probes_for(rng, cell, extra=64)
                   if not in_up(p, tensor.domain())]
        for probe in outside:
            if cell.extend_eval(probe) != updated.extend_eval(probe):
                return False
    return True


def _trials_empty_chain_identity(trials):
    from vecloop.indices import EMPTY_CHAIN
    for seed in range(trials):
        program = vectorise(gen_program(replace(FULL_CFG, seed=seed)))
        state = SparseState({Variable("x", "real"): PMap({EMPTY: 1.25})})
        out = run_tgt(program, gen_rdb(seed), state, EMPTY_CHAIN)
        if out.score.entries != {}:
            return False
        rng = random.Random(seed)
        for probe in probes_for(rng, state.cell(Variable("x", "real")),
                                extra=8):
            for var in out.state.variables() | state.variables():
                if out.state.read(var, probe) != state.read(var, probe):
                    return False
    return True


def _trials_score_domain_and_frame(trials):
    for seed in range(trials):
        program, chain = gen_target_case(seed, replace(FULL_CFG, seed=seed))
        state = make_state(SPARSE)
        out = run_tgt(program, gen_rdb(seed), state, chain, mode=FIXPOINT)
        if out.score.domain() != set(chain.members):
            return False
        outside = [p for p in probe_indices([out.state], seed)
                   if not in_up(p, chain.members)]
        if not state.eq_on(out.state, outside):
            return False
    return True


def _trials_l_state_preservation(trials):
    for seed in range(trials):
        program, chain = gen_target_case(seed, replace(FULL_CFG, seed=seed))
        out = run_tgt(program, gen_rdb(seed), make_state(SPARSE), chain,
                      mode=FIXPOINT)
        members = list(chain.members)
        for var in out.state.variables():
            if not all(in_down(i, members)
                       for i in out.state.cell(var).domain()):
                return False
    return True


def _trials_ifz_interchange(trials):
    rng = random.Random(103)
    n0 = Variable("n0", INT)
    for seed in range(trials):
        then_branch = vectorise(gen_program(
            replace(FULL_CFG, seed=seed, max_depth=2)))
        else_branch = vectorise(gen_program(
            replace(FULL_CFG, seed=seed + 10_000, max_depth=2)))
        db = gen_rdb(seed)
        chain = rand_chain(rng)
        state = make_state(SPARSE).updated(
            n0, {i: k for k, i in enumerate(chain)})
        cond = PrimOp("mod", (Var(n0), IntLit(2)))
        zero, nonzero = chain.partition(lambda i: state.read(n0, i) % 2 == 0)
        normal = run_tgt(Ifz(cond, then_branch, else_branch), db, state,
                         chain)
        mid = run_tgt(else_branch, db, state, nonzero)
        swapped = run_tgt(then_branch, db, mid.state, zero)
        merged = dict(swapped.score.entries)
        merged.update(mid.score.entries)
        if normal.score != PMap(merged):
            return False
        probes = probe_indices([normal.state, swapped.state], seed)
        if not normal.state.eq_on(swapped.state, probes):
            return False
    return True


def _trials_relaxed_expression(trials):
    from vecloop.evalexpr import eval_expr
    from vecloop.harness import _Gen
    rng = random.Random(104)
    for seed in range(trials):
        gen = _Gen(replace(FULL_CFG, seed=seed))
        expr = gen.real_expr(3, []) if seed % 2 else gen.int_expr(3, [])
        chain = AChain([Index((("rv", k),))
                        for k in range(rng.randint(1, 3))])
        s0 = SparseState()
        for var in free_vars(expr):
            s0 = s0.updated(var, {
                i: (rng.randint(-3, 3) if var.type == INT
                    else round(rng.uniform(-2, 2), 3)) for i in chain
            })
        s1 = s0
        for var in free_vars(expr):
            deep = next(iter(chain)).append("q", rng.randint(0, 2))
            s1 = s1.updated(var, {deep: 7 if var.type == INT else 7.5})
        for i in chain:
            if eval_expr(expr, lambda v: s0.read(v, i)) != \
                    eval_expr(expr, lambda v: s1.read(v, i)):
                return False
    return True


def test_criterion_7_lemma_suite():
    start = time.monotonic()
    suite = {
        "update/copy composite equations": _trials_update_copy_equations(500),
        "variable writes invisible outside cone": _trials_write_effects(500),
        "identity under the empty chain": _trials_empty_chain_identity(500),
        "score domain = chain, frame outside": _trials_score_domain_and_frame(500),
        "chain-cone state preservation": _trials_l_state_preservation(500),
        "ifz branch-order interchange": _trials_ifz_interchange(500),
        "masked-agreement expression lemma": _trials_relaxed_expression(500),
    }
    bad = [name for name, ok in suite.items() if not ok]
    report(7, not bad,
           f"7 lemma properties x 500 randomized trials, 64 probes each"
           + (f"; failing: {bad}" if bad else ""),
           time.monotonic() - start, 60)


def test_criterion_8_backend_agreement():
    start = time.monotonic()
    failures = 0
    for seed in range(300):
        program, chain = gen_target_case(seed, replace(FULL_CFG, seed=seed))
        db = gen_rdb(seed)
        sparse = run_tgt(program, db, make_state(SPARSE), chain,
                         mode=FIXPOINT)
        dense = run_tgt(program, db, make_state(DENSE), chain, mode=FIXPOINT)
        failures += not (sparse.score == dense.score
                         and sparse.trace == dense.trace
                         and sparse.state.canonical_text()
                         == dense.state.canonical_text())
    report(8, failures == 0,
           f"sparse and dense backends agree on 300 target programs "
           f"({failures} failures)",
           time.monotonic() - start, 60)


def test_criterion_9_failure_replay_and_shrinking():
    start = time.monotonic()
    problems = []
    for mutant in sorted(MUTANTS):
        reports = fuzz("soundness", 40, seed=50, cfg=FULL_CFG, mutant=mutant)
        failures = [r for r in reports if not r.ok]
        if not failures:
            problems.append(f"mutant {mutant} undetected")
            continue
        first = failures[0]
        replay = run_one("soundness", first.seed, cfg=FULL_CFG, mutant=mutant)
        if replay != first:
            problems.append(f"mutant {mutant} replay diverged")
        if not first.shrunk_program or \
                len(first.shrunk_program) > len(first.program):
            problems.append(f"mutant {mutant} did not shrink")
    report(9, not problems,
           "injected interpreter mutants are caught; failures replay and "
           "shrink deterministically from (seed, config)"
           + (f"; problems: {problems}" if problems else ""),
           time.monotonic() - start, 120)
