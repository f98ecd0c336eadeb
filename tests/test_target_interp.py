import gc
import hashlib
import math
import os
import random
import subprocess
import sys
from dataclasses import replace

import pytest

import vecloop
from _spec import in_down, in_up, loop_sites
from _support import cli_process, logpdf, probes_for, rand_chain
from vecloop.bench import arm_program, hmm_program, tcm_program
from vecloop.errors import MissingString, StringAlreadyPresent
from vecloop.harness import (GenConfig, gen_program, gen_rdb, gen_target_case,
                             probe_indices)
from vecloop.indices import EMPTY, EMPTY_CHAIN, AChain, Index, ROOT_CHAIN
from vecloop.parser import parse
from vecloop.pmap import PMap
from vecloop.rdb import Rdb
from vecloop.relaxed import run_relaxed
from vecloop.state import DENSE, SPARSE, SparseState, make_state
from vecloop.syntax import INT, Variable, print_cmd, variables_of
from vecloop.target_interp import (FIXPOINT, UNROLLED, exit_rho, loop_facts,
                                   run_tgt, shift_rho)
from vecloop.translate import vectorise, vectorise_relaxed

X = Variable("x", "real")
Y = Variable("y", "real")
T = Variable("t", INT)

VEC = [Index((("vec", k),)) for k in range(10)]
A_VEC3 = AChain(VEC[:3])


def zdb(count=10, step=0.1):
    return Rdb({Index((("z", k),)): step * k for k in range(count)},
               "const", 0.0, 0)


def test_skip_returns_zero_tensor():
    out = run_tgt(parse("skip", "target"), Rdb(), chain=A_VEC3)
    assert out.score.entries == {i: 0.0 for i in VEC[:3]}


def test_score_rule_evaluates_pointwise():
    state = SparseState({X: PMap({EMPTY: 0.0, VEC[1]: 2.0})})
    out = run_tgt(parse("score(x + 1.0)", "target"), Rdb(), state, A_VEC3)
    assert out.score.entries == {VEC[0]: 1.0, VEC[1]: 3.0, VEC[2]: 1.0}


def test_expression_reads_go_through_extend():
    cell = PMap({EMPTY: 1, Index((("rv", 1),)): 3})
    state = SparseState({Variable("n", INT): cell})
    out = run_tgt(parse("m:int := n:int + 2", "target"), Rdb(), state,
                  AChain([Index((("rv", 0),)), Index((("rv", 1),))]))
    m = out.state.cell(Variable("m", INT))
    assert m.extend_eval(Index((("rv", 0),))) == 3
    assert m.extend_eval(Index((("rv", 1),))) == 5


def test_reads_of_an_unwritten_variable_build_no_pmap(monkeypatch):
    built = []
    init = PMap.__init__
    monkeypatch.setattr(PMap, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    state = SparseState()
    assert state.read(X, Index((("a", 1),))) == 0.0
    assert state.read(T, EMPTY) == 0 and type(state.read(T, EMPTY)) is int
    assert state.cell(X) is state.cell(X)
    assert built == []


def test_fetch_rule_broadcasts():
    state = SparseState({T: PMap({EMPTY: 0, VEC[1]: 1, VEC[2]: 2})})
    out = run_tgt(parse('x := fetch([("z", t:int)])', "target"), zdb(),
                  state, A_VEC3)
    cell = out.state.cell(X)
    assert cell.extend_eval(VEC[2]) == 0.2
    deep = VEC[2].append("rest", 5)
    assert cell.extend_eval(deep) == 0.2  # write covers the whole subtree
    assert out.score.entries == {i: 0.0 for i in VEC[:3]}


def c0_program():
    return parse("""
      x := fetch([("z", t:int)]);
      score(normal_logpdf(x, y, 1.0));
      score(normal_logpdf(0.0, x, 1.0));
      y := x
    """, "target")


def test_c0_fixture_speculative_round():
    # one vectorised pass of the loop body: scores use the speculated y = 0
    m_t = PMap({EMPTY: 0, VEC[1]: 1, VEC[2]: 2})
    state = SparseState({T: m_t})
    out = run_tgt(c0_program(), zdb(), state, A_VEC3)
    for ell in range(3):
        z = 0.1 * ell
        assert out.score.get(VEC[ell]) == logpdf(z, 0.0) + logpdf(0.0, z)
    for var in (X, Y):
        cell = out.state.cell(var)
        assert cell.extend_eval(EMPTY) == 0.0
        for ell in range(3):
            assert cell.extend_eval(VEC[ell]) == 0.1 * ell


def test_ifz_partitions_the_chain():
    program = parse("""
      ifz eq(t:int, 1) { x := 1.0 } else { x := 2.0; score(9.0) }
    """, "target")
    state = SparseState({T: PMap({EMPTY: 0, VEC[1]: 1, VEC[2]: 2})})
    out = run_tgt(program, Rdb(), state, A_VEC3)
    cell = out.state.cell(X)
    assert cell.extend_eval(VEC[0]) == 2.0
    assert cell.extend_eval(VEC[1]) == 1.0
    assert cell.extend_eval(VEC[2]) == 2.0
    assert out.score.entries == {VEC[0]: 9.0, VEC[1]: 0.0, VEC[2]: 9.0}


def test_for_rule_sets_counter_tensor_each_round():
    program = parse("for t:int in range(3) { score(to_real(t:int)) }", "target")
    out = run_tgt(program, Rdb(), chain=A_VEC3)
    assert out.score.entries == {i: 3.0 for i in VEC[:3]}
    assert out.state.read(T, VEC[0]) == 2


def test_lookup_index_rule_and_error():
    out = run_tgt(parse('t:int := lookup_index("vec")', "target"),
                  Rdb(), chain=A_VEC3)
    for ell in range(3):
        assert out.state.read(T, VEC[ell]) == ell
    with pytest.raises(MissingString):
        run_tgt(parse('t:int := lookup_index("nope")', "target"),
                Rdb(), chain=A_VEC3)


def test_extend_index_requires_fresh_string():
    with pytest.raises(StringAlreadyPresent):
        run_tgt(parse('extend_index("vec", 2) { skip }', "target"),
                Rdb(), chain=A_VEC3)


def test_shift_rule_matches_figure_relocation():
    rho = shift_rho(A_VEC3, "vec")
    assert rho == {EMPTY: VEC[0], VEC[0]: VEC[1], VEC[1]: VEC[2]}
    state = SparseState({X: PMap({EMPTY: 1.0, VEC[1]: 3.0, VEC[2]: 4.0})})
    out = run_tgt(parse('shift("vec")', "target"), Rdb(), state, A_VEC3)
    assert out.state.cell(X).entries == {EMPTY: 1.0, VEC[0]: 1.0, VEC[2]: 3.0}
    assert exit_rho(ROOT_CHAIN, "vec", 3) == {VEC[2]: EMPTY}
    # built once per chain, name (and count), with the chain's own objects
    assert shift_rho(A_VEC3, "vec") is rho
    assert exit_rho(ROOT_CHAIN, "vec", 3) is exit_rho(ROOT_CHAIN, "vec", 3)
    assert all(any(s is i for i in A_VEC3) for s in rho if s.pairs)


def test_extend_index_sums_scores_and_keeps_last_slot():
    program = parse("""
      extend_index("vec", 3) {
        t:int := lookup_index("vec");
        x := to_real(t:int);
        score(to_real(t:int) * 2.0)
      }
    """, "target")
    out = run_tgt(program, Rdb())
    assert out.score.entries == {EMPTY: 6.0}  # 0 + 2 + 4
    assert out.state.read(X, EMPTY) == 2.0
    assert out.state.read(X, VEC[0]) == 2.0  # outer view only


HMM3 = """
x := 0.0; y := 0.0;
for t:int in range(3) {
  x := fetch([("z", t:int)]);
  score(normal_logpdf(x, y, 1.0));
  score(normal_logpdf(0.0, x, 1.0));
  y := x
}
"""


def test_c2_fixture_two_rounds_and_exact_score():
    translated = vectorise(parse(HMM3))
    out = run_tgt(translated, zdb(), mode=FIXPOINT)
    assert [(rec.rounds, rec.fixpoint_hit) for rec in out.trace] == [(2, True)]
    total = 0.0
    prev = 0.0
    for t in range(3):
        z = 0.1 * t
        total += logpdf(z, prev) + logpdf(0.0, z)
        prev = z
    assert out.score.entries == {EMPTY: total}
    assert out.state.read(X, EMPTY) == 0.2
    assert out.state.read(Y, EMPTY) == 0.2
    unrolled = run_tgt(translated, zdb(), mode=UNROLLED)
    assert unrolled.score == out.score
    assert [rec.rounds for rec in unrolled.trace] == [3]


def test_loop_executes_once_when_body_is_state_invariant():
    program = parse("loop_fixpt_noacc(5) { score(1.0); skip }", "target")
    out = run_tgt(program, Rdb())
    assert [rec.rounds for rec in out.trace] == [1]
    assert out.score.entries == {EMPTY: 1.0}


def test_loop_round_bound():
    for seed in range(60):
        program, chain = gen_target_case(seed, replace(GenConfig(), seed=seed))
        out = run_tgt(program, gen_rdb(seed), chain=chain, mode=FIXPOINT)
        for rec in out.trace:
            assert rec.rounds >= 1


def test_fixpoint_check_ignores_representation_noise():
    # a body that rewrites the represented values it already has
    program = parse("""
      extend_index("vec", 4) {
        loop_fixpt_noacc(4) { x := x + 0.0; score(x) }
      }
    """, "target")
    out = run_tgt(program, Rdb(), SparseState({X: PMap({EMPTY: 2.0})}))
    assert [rec.rounds for rec in out.trace] == [1]


def test_run_under_empty_set():
    for seed in range(40):
        program = vectorise(gen_program(replace(GenConfig(), seed=seed)))
        db = gen_rdb(seed)
        state = SparseState({X: PMap({EMPTY: 1.25})})
        out = run_tgt(program, db, state, EMPTY_CHAIN)
        assert out.score.entries == {}
        rng = random.Random(seed)
        for probe in probes_for(rng, state.cell(X)):
            for var in variables_of(program) | {X}:
                assert out.state.read(var, probe) == state.read(var, probe)


def test_score_domain_is_the_chain_and_rest_untouched():
    # dom(score) = A exactly; state unchanged outside the chain's cone
    for seed in range(60):
        program, chain = gen_target_case(seed, replace(GenConfig(), seed=seed))
        db = gen_rdb(seed)
        state = make_state(SPARSE)
        out = run_tgt(program, db, state, chain, mode=FIXPOINT)
        assert out.score.domain() == set(chain.members)
        outside = [p for p in probe_indices([out.state], seed)
                   if not in_up(p, chain.members)]
        assert state.eq_on(out.state, outside,
                           variables_of(program) | {X})


def test_l_state_preservation():
    # domains stay inside the cone below the chain the command ran under
    for seed in range(60):
        program, chain = gen_target_case(seed, replace(GenConfig(), seed=seed))
        out = run_tgt(program, gen_rdb(seed),
                      make_state(SPARSE), chain, mode=FIXPOINT)
        members = list(chain.members)
        for var in out.state.variables():
            for i in out.state.cell(var).domain():
                assert in_down(i, members)


def test_ifz_branch_order_interchange():
    rng = random.Random(31)
    for seed in range(80):
        cfg = replace(GenConfig(), seed=seed, max_depth=2)
        gen = gen_program(cfg)
        db = gen_rdb(seed)
        chain = rand_chain(rng)
        cond = parse("ifz eq(n0:int % 2, 0) { skip } else { skip }").cond
        then_branch = vectorise(gen)
        else_branch = parse("x := x + 1.0; score(x)", "target")
        state = make_state(SPARSE).updated(
            Variable("n0", INT), {i: k for k, i in enumerate(chain)})
        zero, nonzero = chain.partition(
            lambda i: state.read(Variable("n0", INT), i) % 2 == 0)
        from vecloop.syntax import Ifz
        normal = run_tgt(Ifz(cond, then_branch, else_branch), db, state, chain)
        # run the false branch first, then the true branch
        mid = run_tgt(else_branch, db, state, nonzero)
        swapped_state = run_tgt(then_branch, db, mid.state, zero)
        merged = dict(swapped_state.score.entries)
        merged.update(mid.score.entries)
        assert normal.score == PMap(merged)
        probes = probe_indices([normal.state, swapped_state.state], seed)
        assert normal.state.eq_on(swapped_state.state, probes)


def test_target_primitive_domain_error_and_nan_score():
    from vecloop.errors import PrimitiveDomainError, ScoreNaN
    with pytest.raises(PrimitiveDomainError):
        run_tgt(parse("x := log(0.0 - 1.0)", "target"), Rdb(), chain=A_VEC3)
    with pytest.raises(ScoreNaN):
        run_tgt(parse("x := exp(9000.0); score(x - x)", "target"), Rdb())


def test_int_vs_fixpoint_on_corpus_sample():
    for seed in range(80):
        program, chain = gen_target_case(seed, replace(GenConfig(), seed=seed))
        db = gen_rdb(seed)
        fix = run_tgt(program, db, make_state(SPARSE), chain, mode=FIXPOINT)
        unr = run_tgt(program, db, make_state(SPARSE), chain, mode=UNROLLED)
        assert fix.score == unr.score
        probes = probe_indices([fix.state, unr.state], seed, count=128)
        assert fix.state.eq_on(unr.state, probes)


COUNT_CANONICAL = """
from vecloop.bench import arm_program
from vecloop.pmap import PMap
from vecloop.rdb import Rdb
from vecloop.target_interp import run_tgt
from vecloop.translate import vectorise

calls = 0
canonical = PMap.canonical


def counted(self):
    global calls
    calls += 1
    return canonical(self)


PMap.canonical = counted
run_tgt(vectorise(arm_program(100, 2)), Rdb({}, "normal", 0.0, 20240901))
print(calls)
"""


def test_fixpoint_check_cost_does_not_follow_hash_seed():
    # variables are compared in name order, so the first difference found,
    # and with it the work done, is the same under every hash seed
    src = os.path.dirname(os.path.dirname(os.path.abspath(vecloop.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    counts = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", COUNT_CANONICAL],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        counts.append(int(proc.stdout))
    assert counts[0] == counts[1] > 0


IFZ_LOG = ("for t:int in range(4) { x := to_real(t:int); "
           "ifz rlt(log(sub(x, 5.0)), 0.0) {skip} else {skip}; score(x) }")


def test_ifz_failure_names_the_first_thread_under_every_hash_seed(tmp_path):
    # the condition is evaluated in chain order, so the failing thread is
    # the scalar run's, t = 0, whatever order a set of indices iterates in
    program = tmp_path / "ifz_t.vl"
    program.write_text(print_cmd(vectorise(parse(IFZ_LOG))))
    for backend in (SPARSE, DENSE):
        errors = set()
        for hash_seed in ("0", "1", "2", "3"):
            proc = cli_process(["run", "--tier", "target", "--backend",
                                backend, "--program", str(program)],
                               PYTHONHASHSEED=hash_seed)
            assert proc.returncode == 3
            errors.add(proc.stderr)
        assert len(errors) == 1, backend
        assert errors.pop().startswith("PrimitiveDomainError: log(-5.0,) ")


def test_score_tensors_and_traces_are_pinned():
    # Recorded before scores moved from per-statement tensors into one
    # buffer per run; the vectorised and relaxed tiers must not change by a
    # bit.
    cases = [(gen_program(replace(GenConfig(), seed=seed)), gen_rdb(seed))
             for seed in range(100)]
    shapes = Rdb({}, "normal", 0.0, 20240901)
    cases += [(arm_program(12, 3), shapes), (hmm_program(10, 2), shapes),
              (tcm_program(2, 6), shapes)]
    digest = hashlib.sha256()
    for source, db in cases:
        program = vectorise(source)
        runs = [run_tgt(program, db, backend=SPARSE),
                run_tgt(program, db, backend=DENSE),
                run_tgt(program, db, mode=UNROLLED),
                run_relaxed(vectorise_relaxed(source), db)[0]]
        for out in runs:
            digest.update(repr((out.score, out.trace)).encode())
    assert digest.hexdigest() == \
        "8f5c938e014f9fc91ecd67f43860a1953e85e87cc356f88170e2b4ff90fc624f"


NAN_LOOP = ("big := 100000000000000000000.0 * 100000000000000000000.0; "
            "big := big * big; big := big * big; big := big * big; "
            "z := big - big; for t:int in range(4) { y := z; score(0.0) }")


def test_nan_equals_nan_in_every_fixed_point_check():
    # the loop copies one NaN each round: on both backends the second round
    # changes nothing, and the relaxed check agrees that it is a fixed point
    from vecloop.state import LoopRound

    source = parse(NAN_LOOP)
    db = Rdb({}, "const", 0.0, 0)
    target = vectorise(source)
    sparse = run_tgt(target, db, backend=SPARSE)
    dense = run_tgt(target, db, backend=DENSE)
    assert sparse.trace == dense.trace == (LoopRound(0, 2, True),)
    for backend in (SPARSE, DENSE):
        relaxed, _ = run_relaxed(vectorise_relaxed(source), db, backend=backend)
        assert relaxed.trace[0].rounds <= sparse.trace[0].rounds


def test_nan_rule_in_maps_and_probes():
    from vecloop.dense import dense_encode

    a = Index((("a", 0),))
    nan1, nan2 = float("nan"), float("nan")
    assert nan1 is not nan2
    assert PMap({EMPTY: nan1}).same_function(PMap({EMPTY: nan2}))
    assert PMap({EMPTY: nan1, a: nan2}).canonical().entries.keys() == {EMPTY}
    assert not PMap({EMPTY: nan1}).same_function(PMap({EMPTY: 0.0}))
    # 0.0 == -0.0 stays an equality
    assert PMap({EMPTY: 0.0}).same_function(PMap({EMPTY: -0.0}))
    dense = [dense_encode(PMap({EMPTY: 1.0, a: v}), {"a": 0})
             for v in (nan1, nan2, 0.0)]
    assert dense[0].same_function(dense[1])
    assert not dense[0].same_function(dense[2])
    assert dense[0].same_function(dense_encode(PMap({EMPTY: 1.0, a: nan2})))
    assert dense_encode(PMap({EMPTY: nan1, a: nan2}), {"a": 0}).same_function(
        dense_encode(PMap({EMPTY: nan2})))
    for backend in (SPARSE, DENSE):
        left = make_state(backend).updated(X, {EMPTY: nan1})
        right = make_state(backend).updated(X, {EMPTY: nan2})
        assert left.eq_on(right, [EMPTY, a])
        assert left.same_function(right)
        assert not left.eq_on(make_state(backend).updated(X, {EMPTY: 1.0}),
                              [EMPTY])


def test_runs_leave_no_reference_cycles():
    # an index caches its proper prefixes, never itself, so the vectorised
    # runs leave the cyclic collector nothing to find
    db = Rdb({}, "normal", 0.0, 5)
    cases = [(arm_program(12, 3), db), (hmm_program(8, 2), db),
             (tcm_program(2, 5), db)]
    cases += [(gen_program(GenConfig(seed=s)), gen_rdb(s)) for s in range(12)]

    def run_all():
        for program, rdb in cases:
            target = vectorise(program)
            run_tgt(target, rdb)
            run_tgt(target, rdb, backend=DENSE)
            run_relaxed(vectorise_relaxed(program), rdb)

    run_all()  # first imports (numpy's among them) leave cyclic garbage
    gc.collect()
    gc.disable()
    try:
        run_all()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_site_numbers_are_the_preorder_walk():
    programs = [arm_program(20, 3), hmm_program(20, 2), tcm_program(3, 10)]
    programs += [gen_program(GenConfig(seed=seed)) for seed in range(300)]
    sites_seen = 0
    for seed, source in enumerate(programs):
        targets = [vectorise(source), vectorise_relaxed(source)]
        if seed >= 3:
            targets.append(gen_target_case(seed - 3, GenConfig(seed=seed - 3))[0])
        for target in targets:
            sites, _ = loop_facts(target)
            assert sites == loop_sites(target)
            sites_seen += len(sites)
    assert sites_seen > 1000


def test_a_per_thread_fetch_looks_each_index_up_once_per_run(monkeypatch):
    # arm N=48 K=16 runs 17 rounds of one fetch on 48 threads, at 48
    # indices; the database is a function of the index
    calls = []
    lookup = Rdb.lookup
    monkeypatch.setattr(Rdb, "lookup",
                        lambda self, i: calls.append(i) or lookup(self, i))
    program = vectorise(arm_program(48, 16))
    db = Rdb({}, "normal", 0.0, 1)
    out = run_tgt(program, db)
    assert out.rounds_by_site() == {0: 17}
    assert len(calls) == len(set(calls)) == 48
    monkeypatch.undo()
    # the dense backend fetches all 48 lanes at once, from no memo
    assert repr(out.score) == repr(run_tgt(program, db, backend=DENSE).score)


class ColumnsOnly:
    """A reader with nothing but the reader protocol: each variable's
    values on a chain's threads, in chain order."""

    def __init__(self, columns):
        self.columns = columns

    def column(self, var, chain):
        return self.columns[var][:len(chain)]


def test_the_per_thread_rules_read_only_columns():
    from vecloop.errors import PrimitiveDomainError, ScoreNaN
    from vecloop.target_interp import _TargetRun

    n = Variable("n", INT)
    chain = AChain(VEC[:2])
    reader = ColumnsOnly({X: [-math.inf, 0.0], Y: [math.inf, 0.0],
                          n: [1, 0]})
    run = _TargetRun(parse("skip", "target"), zdb(), FIXPOINT, chain)

    def expr(text):
        return parse(f"score({text})", "target").expr

    assert run.values(expr("add(x, 1.0)"), reader, chain) == [-math.inf, 1.0]
    assert run.scores(expr("log(y)"), reader, ROOT_CHAIN) == [math.inf]
    index = parse('x := fetch([("z", n:int)])', "target").index
    assert run.fetches(index, reader, chain) == [0.1, 0.0]
    # the column walk fails; each rule then fails as its first failing
    # thread does: thread 0's NaN score comes before thread 1's log(0.0)
    with pytest.raises(PrimitiveDomainError) as err:
        run.values(expr("log(y)"), reader, chain)
    assert str(err.value) == "log(0.0,) outside the operator's domain"
    with pytest.raises(ScoreNaN) as err:
        run.scores(expr("add(log(y), x)"), reader, chain)
    assert str(err.value) == f"score evaluated to NaN at {VEC[0].text()}"
    fails = parse('x := fetch([("z", mod(5, n:int))])', "target").index
    with pytest.raises(PrimitiveDomainError) as err:
        run.fetches(fails, reader, chain)
    assert str(err.value) == "mod(5, 0) outside the operator's domain"


def test_runs_that_do_not_fail_evaluate_no_thread_by_itself(monkeypatch):
    # every rule's column walk completes where no thread fails; a reader
    # whose `column` raised would send every rule to its per-thread loop
    from vecloop import target_interp
    from vecloop.errors import VecloopError

    calls = []
    original = target_interp.eval_expr
    monkeypatch.setattr(target_interp, "eval_expr",
                        lambda *args: calls.append(args) or original(*args))
    ran = 0
    for seed in range(12):
        cfg = GenConfig(seed=seed)
        db = gen_rdb(seed)
        source = gen_program(cfg)
        case, chain = gen_target_case(seed, cfg)
        for backend in (SPARSE, DENSE):
            for run in (lambda: run_tgt(vectorise(source), db,
                                        backend=backend),
                        lambda: run_relaxed(vectorise_relaxed(source), db,
                                            backend=backend),
                        lambda: run_tgt(case, db, chain=chain,
                                        backend=backend)):
                calls.clear()
                try:
                    run()
                except VecloopError:
                    continue
                assert calls == [], (seed, backend)
                ran += 1
    assert ran > 50


@pytest.mark.parametrize("backend", [SPARSE, DENSE])
def test_scores_do_not_follow_sums_algorithm(backend, monkeypatch):
    # from Python 3.12 on, `sum` of floats is compensated (Neumaier); the
    # scalar run adds left to right, and so must the exit of a loop
    import builtins

    from vecloop.source_interp import run_src

    plain = builtins.sum

    def compensated(iterable, start=0):
        items = list(iterable)
        if not all(type(v) in (int, float) for v in [start, *items]):
            return plain(items, start)
        total, carry = float(start), 0.0
        for v in items:
            t = total + v
            carry += ((total - t) + v if abs(total) >= abs(v)
                      else (v - t) + total)
            total = t
        return total + carry if carry and math.isfinite(carry) else total

    assert compensated([0.1] * 10) == 1.0
    monkeypatch.setattr(builtins, "sum", compensated)
    source = parse("for t:int in range(10) { score(0.1) }")
    _, scalar = run_src(source, Rdb())
    assert scalar == 0.9999999999999999
    for run in (run_tgt(vectorise(source), Rdb(), backend=backend),
                run_relaxed(vectorise_relaxed(source), Rdb(),
                            backend=backend)[0]):
        assert repr(run.score.entries) == repr({EMPTY: scalar})
