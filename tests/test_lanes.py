"""The dense backend's chain-batched layer against its per-index definitions.

`DenseMap.read` defines a read at one index, and the per-index write loop
below (one slice assignment per index, in index order) is how `updated`
wrote before writes were grouped.  Gathers, scatters and copies over whole
chains must agree with them, and a compiled loop body's lane evaluation
must give what `eval_expr` gives thread by thread, bit for bit, or
decline.  The interpreter's rules, which evaluate once per chain, must
give what `eval_expr` gives thread by thread, or fail as the first failing
thread does.  A loop run in lane registers (`dense._Loop`), or run again on
grids where its lanes decline, must give the scores, traces and state text
the same loop gives on grids, and what the sparse backend gives.
"""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _support import cli_process, python_process
from vecloop.dense import (FETCH_MIN_LANES, DenseMap, DenseState, _Body,
                          _bound, _columns, _fetched, _grouped, _index_columns,
                          _lanes, _looked_up, dense_encode)
from vecloop.dense import _Loop as ResidentLoop
from vecloop.errors import AxisOrderConflict, MissingString, ScoreNaN
from vecloop.evalexpr import eval_expr, lane_code
from vecloop.harness import (GenConfig, _rewrite, gen_program, gen_rdb,
                             gen_target_case)
from vecloop.indices import (EMPTY, EMPTY_CHAIN, AChain, Index, ROOT_CHAIN,
                             is_antichain, prefix_leq)
from vecloop.parser import parse
from vecloop.pmap import PMap
from vecloop.rdb import Rdb
from vecloop.relaxed import run_relaxed
from vecloop.state import DENSE, SPARSE, Declined, Lanes, make_state
from vecloop.syntax import (INT, REAL, Fetch, IndexExpr, IntLit, PrimOp,
                            RealLit, Shift, Skip, Var, Variable)
from vecloop.target_interp import (FIXPOINT, UNROLLED, _TargetRun, loop_facts,
                                   run_tgt)
from vecloop.translate import vectorise, vectorise_relaxed

NAMES = "abc"
DIMS = {name: k for k, name in enumerate(NAMES)}


def index_of(pairs) -> Index:
    return Index(tuple(pairs))


# pairs in any order, strings the maps may lack ("d"), integers outside
# every extent (-1, 4)
probes = st.lists(st.tuples(st.sampled_from("abcd"), st.integers(-1, 4)),
                  max_size=4, unique_by=lambda pair: pair[0]).map(index_of)
# pairs in axis order, as translated programs write them
ordered = st.lists(st.tuples(st.sampled_from(NAMES), st.integers(0, 3)),
                   max_size=3, unique_by=lambda pair: pair[0]).map(
    lambda pairs: index_of(sorted(pairs)))
values = st.sampled_from([0.0, -0.0, 1.5, -2.0, math.inf, -math.inf, math.nan])
pmaps = st.dictionaries(ordered, values, max_size=8).map(
    lambda entries: PMap({EMPTY: 0.25, **entries}))


def bits(value) -> bytes:
    return struct.pack("d", value) if isinstance(value, float) else repr(value).encode()


def maximal(items) -> AChain:
    items = set(items)
    return AChain(i for i in items
                  if not any(i != j and prefix_leq(i, j) for j in items))


def updated_per_index(m: DenseMap, tensor) -> DenseMap:
    """`DenseMap.updated` as one slice assignment per index, in index order."""
    axes, extents = dict(m._axis), list(m.cells.shape)
    for i in tensor:
        for name, value in i.pairs:
            axis = axes.setdefault(name, len(extents))
            if axis == len(extents):
                extents.append(value + 2)
            elif value + 2 > extents[axis]:
                extents[axis] = value + 2
    new = DenseMap(tuple(axes), m._grown(extents))
    for i, v in sorted(tensor.items(), key=lambda kv: kv[0].sort_key()):
        bound = [(new._axis[name], value) for name, value in i.pairs]
        top = max((axis for axis, _ in bound), default=-1)
        region: list = [-1] * (top + 1) + [slice(None)] * (len(new.axes) - top - 1)
        for axis, value in bound:
            region[axis] = value
        new.cells[tuple(region)] = v
    return new


def same_grid(a: DenseMap, b: DenseMap) -> bool:
    return (a.axes == b.axes and a.cells.shape == b.cells.shape
            and a.cells.tobytes() == b.cells.tobytes())


@settings(max_examples=300, deadline=None)
@given(pmaps, st.lists(probes, max_size=12), st.lists(ordered, max_size=4),
       st.integers(1, 3), st.lists(st.booleans(), min_size=1, max_size=12))
def test_gather_is_read_at_every_index(m, indices, members, count, flags):
    # and so is a state's column, on an index list, on a chain `extend`
    # made and on each part `compress` cut from it
    dense = dense_encode(m, DIMS if len(m) % 2 else None)
    if indices:
        got = dense.gather(_grouped(indices), len(indices))
        lanes = (got.tolist() if isinstance(got, np.ndarray)
                 else [got] * len(indices))
        assert [bits(v) for v in lanes] == [bits(dense.read(i))
                                            for i in indices]
    x = Variable("x", REAL)
    state = DenseState({x: dense})
    chain = maximal(i for i in members if "c" not in i.names()).extend(
        "c", count)
    parts = chain.compress(flags[k % len(flags)] for k in range(len(chain)))
    for where in (indices, chain, *parts):
        assert [bits(v) for v in state.column(x, where)] == \
            [bits(dense.read(i)) for i in where]


@settings(max_examples=300, deadline=None)
@given(pmaps, st.permutations(NAMES))
def test_an_encoded_map_prints_as_the_pmap(m, names):
    # text, not PMap equality: it keeps a zero's sign and a NaN equals a NaN
    assert dense_encode(m, DIMS).canonical().text() == m.canonical().text()
    # without axes given, under strings that nest in any one order, which
    # need not be the order of their first appearance
    renamed = PMap({Index(tuple((names[DIMS[name]], k) for name, k in i)): v
                    for i, v in m.entries.items()})
    assert dense_encode(renamed).canonical().text() == \
        renamed.canonical().text()


@settings(max_examples=300, deadline=None)
@given(pmaps, st.dictionaries(ordered, values, min_size=1, max_size=8),
       st.lists(ordered, max_size=8))
def test_scatter_is_the_per_index_write(m, tensor, extra):
    # any tensor, antichain or not: shorter indices are written first
    dense = dense_encode(m, DIMS)
    got = dense.updated(tensor)
    assert same_grid(got, updated_per_index(dense, tensor))
    want = m.updated(PMap(tensor))
    for i in [*tensor, *m.domain(), *extra]:
        assert bits(got.read(i)) == bits(want.extend_eval(i)), i.text()


@settings(max_examples=300, deadline=None)
@given(pmaps, st.lists(ordered, max_size=8), st.data())
def test_scatter_of_lanes_matches_a_dict(m, members, data):
    chain = maximal(members)
    tensor = {i: data.draw(values) for i in chain}
    dense = dense_encode(m, DIMS)
    lanes = Lanes(chain, np.array([tensor[i] for i in chain]))
    assert same_grid(dense.updated(lanes), updated_per_index(dense, tensor))


@st.composite
def relocations(draw):
    sources = draw(st.lists(ordered, max_size=6, unique=True))
    targets = draw(st.lists(ordered, min_size=len(sources),
                            max_size=len(sources), unique=True))
    return dict(zip(sources, targets))


@settings(max_examples=300, deadline=None)
@given(pmaps, relocations(), st.lists(ordered, max_size=8))
def test_copied_is_one_gather_and_one_scatter(m, rho, extra):
    dense = dense_encode(m, DIMS)
    got = dense.copied(rho)
    want = updated_per_index(dense, {t: dense.read(s) for s, t in rho.items()})
    while want.axes and (short := want._dropped(len(want.axes) - 1, True)):
        want = short
    assert same_grid(got, want)
    if not is_antichain(rho.values()):
        return  # no interpreter relocation writes a slot and its extension
    # PMap.copied repairs a slot whose read changes under ==, or whose
    # zero changes sign, so both read alike bit for bit
    moved = m.copied(rho)
    for i in [*rho, *rho.values(), *m.domain(), *extra]:
        a, b = got.read(i), moved.extend_eval(i)
        assert bits(a) == bits(b), i.text()


@settings(max_examples=200, deadline=None)
@given(st.lists(ordered, min_size=1, max_size=10), st.data())
def test_split_keeps_each_parts_rows_of_the_columns(members, data):
    chain = maximal(members)
    flags = data.draw(st.lists(st.integers(0, 1), min_size=len(chain),
                               max_size=len(chain)))
    zero, nonzero = chain.compress(f == 0 for f in flags)
    assert set(zero) == {i for i, f in zip(chain, flags) if f == 0}
    assert set(nonzero) == {i for i, f in zip(chain, flags) if f != 0}
    for part in (zero, nonzero):
        assert list(part) == sorted(part.members, key=Index.sort_key)
        if part:
            fresh = _grouped(tuple(part))
            kept = _columns(part)
            for k, i in enumerate(part):
                assert row_of(kept, k) == row_of(fresh, k) == i.pairs


def row_of(groups, k: int):
    for g in groups:
        rows = range(len(g.matrix)) if g.rows is None else g.rows.tolist()
        if k in rows:
            ints = g.matrix[list(rows).index(k)].tolist()
            return tuple(zip(g.names, ints))
    raise AssertionError(f"no row {k}")


# --------------------------------------------------------------------------
# A compiled body's lane evaluation, bit for bit against eval_expr
# --------------------------------------------------------------------------

I_VARS = [Variable("m", INT), Variable("n", INT)]
R_VARS = [Variable("x", REAL), Variable("y", REAL)]
BIG = 2 ** 63
INTS = [0, 1, -1, 2, -3, 7, BIG - 1, -BIG, BIG - 2, -BIG + 1, 3037000500]
REALS = [0.0, -0.0, 1.0, -2.5, 1e308, -1e308, 5e-324, math.inf, -math.inf,
         math.nan]


def int_exprs(depth):
    leaf = st.one_of(st.sampled_from(I_VARS).map(Var),
                     st.sampled_from(INTS + [BIG, -BIG - 1]).map(IntLit))
    if depth == 0:
        return leaf
    sub, real = int_exprs(depth - 1), real_exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["add", "sub", "mul", "mod", "eq", "lt"]),
                  sub, sub).map(lambda t: PrimOp(t[0], (t[1], t[2]))),
        st.tuples(real, real).map(lambda t: PrimOp("rlt", t)),
        sub.map(lambda a: PrimOp("const", (a,))))


def real_exprs(depth):
    leaf = st.one_of(st.sampled_from(R_VARS).map(Var),
                     st.sampled_from(REALS).map(RealLit))
    if depth == 0:
        return leaf
    sub = real_exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(["add", "sub", "mul", "div"]), sub, sub).map(
            lambda t: PrimOp(t[0], (t[1], t[2]))),
        st.tuples(st.sampled_from(["neg", "exp", "log"]), sub).map(
            lambda t: PrimOp(t[0], (t[1],))),
        st.tuples(sub, sub, sub).map(lambda t: PrimOp("normal_logpdf", t)),
        int_exprs(depth - 1).map(lambda a: PrimOp("to_real", (a,))))


@st.composite
def lane_writes(draw):
    """The writes of a state over a chain of 1-4 threads, a variable per
    kind spread along the chain and one held by every thread."""
    count = draw(st.integers(1, 4))
    chain = ROOT_CHAIN.extend("s", count)
    writes = []
    for var in I_VARS:
        writes.append((var, Lanes(chain, draw(st.lists(
            st.sampled_from(INTS), min_size=count, max_size=count)))))
    for var in R_VARS:
        writes.append((var, Lanes(chain, draw(st.lists(
            st.sampled_from(REALS), min_size=count, max_size=count)))))
    writes.append((I_VARS[1], {EMPTY: draw(st.sampled_from(INTS))}))
    return writes, chain


def written(backend, writes):
    state = make_state(backend)
    for var, tensor in writes:
        state = state.updated(var, tensor)
    return state


def lane_states():
    """A dense state of `lane_writes`, and its chain."""
    return lane_writes().map(lambda wc: (written(DENSE, wc[0]), wc[1]))


def entry_loop(state, chain, db=None) -> ResidentLoop:
    """A lane-resident loop over chain = parent.extend(...), entered from
    `state`, whose compiled body writes nothing: every variable reads its
    entry lanes (`_Loop.entry_lanes`)."""
    loop = ResidentLoop(state, chain, _Body(Shift("s"), frozenset()))
    loop.runner = _TargetRun(Skip(), db, FIXPOINT, chain)
    return loop


def compiled_lanes(expr, state, chain):
    """The lanes a compiled body's step takes for `expr` on the chain: an
    array, or None where the lane rule (`_lanes`) declines."""
    loop = entry_loop(state, chain)
    code = lane_code(expr, loop.body._var, _bound)
    try:
        return _lanes(expr, len(chain), code, loop, None)
    except Declined:
        return None


def compiled_fetch(index, state, chain, db):
    """The values a compiled body's fetch step looks up on the chain
    (`_index_columns`, `_fetched`), in one pass on FETCH_MIN_LANES lanes or
    more and lane by lane on fewer; None where its lanes decline."""
    loop = entry_loop(state, chain, db)
    codes = [lane_code(z, loop.body._var, _bound) for _, z in index.pairs]
    try:
        columns = _index_columns(index, codes, len(chain), loop, None)
    except Declined:
        return None
    return _fetched(loop, index, columns, len(chain))


def per_thread(expr, state, chain):
    """eval_expr at each thread: its values, or the first failure."""
    out = []
    for i in chain:
        try:
            out.append(eval_expr(expr, lambda var: state.read(var, i)))
        except Exception as err:  # the lanes must decline whatever this is
            return err
    return out


@settings(max_examples=1000, deadline=None)
@given(lane_states(), st.one_of(int_exprs(3), real_exprs(3)))
def test_lanes_are_eval_expr_bit_for_bit(state_chain, expr):
    state, chain = state_chain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lanes = compiled_lanes(expr, state, chain)
    want = per_thread(expr, state, chain)
    if lanes is None:
        return
    assert not isinstance(want, Exception), want
    got = lanes.tolist()
    assert [type(v) for v in got] == [type(v) for v in want]
    assert [bits(v) for v in got] == [bits(v) for v in want]


def settled(run):
    """A rule's values as (types, bits), or its error's class and message."""
    try:
        values = run()
    except Exception as err:
        return type(err).__name__, str(err)
    return [type(v) for v in values], [bits(v) for v in values]


def per_thread_scores(expr, state, chain):
    """`per_thread`, with each thread's value checked for NaN before the
    next thread runs."""
    out = []
    for i in chain:
        value = eval_expr(expr, lambda var: state.read(var, i))
        if math.isnan(value):
            raise ScoreNaN(f"score evaluated to NaN at {i.text()}")
        out.append(value)
    return out


def raising(values):
    if isinstance(values, Exception):
        raise values
    return values


@settings(max_examples=300, deadline=None)
@given(lane_writes(), st.one_of(int_exprs(2), real_exprs(2)),
       st.lists(st.tuples(st.sampled_from("pq"), int_exprs(2)), max_size=3))
def test_the_chain_rules_are_the_per_thread_rules(writes_chain, expr, pairs):
    # each rule evaluates the expression once per chain; a chain on which
    # some thread fails, or a score is NaN, runs once per thread
    writes, chain = writes_chain
    index = IndexExpr(tuple(pairs))
    db = Rdb({}, "normal", 0.0, 7)
    for backend in (SPARSE, DENSE):
        state = written(backend, writes)
        runner = _TargetRun(Skip(), db, FIXPOINT, chain)
        assert settled(lambda: runner.values(expr, state, chain)) == \
            settled(lambda: raising(per_thread(expr, state, chain)))
        assert settled(lambda: runner.scores(expr, state, chain)) == \
            settled(lambda: per_thread_scores(expr, state, chain))
        assert settled(lambda: runner.fetches(index, state, chain)) == \
            settled(lambda: [db.lookup(i) for i in
                             raising(per_thread(index, state, chain))])


@settings(max_examples=300, deadline=None)
@given(lane_states(), st.one_of(int_exprs(2), real_exprs(2)))
def test_lanes_decline_only_what_per_thread_fails_or_overflows(state_chain, expr):
    # a lane expression declines on a domain error, an int leaving int64
    # or an operator's NaN; whatever else one evaluation per thread
    # completes must batch
    state, chain = state_chain
    want = per_thread(expr, state, chain)
    if isinstance(want, Exception) or any(
            type(v) is int and not -BIG <= v < BIG for v in want):
        return
    if isinstance(expr, PrimOp) and any(v != v for v in want):
        return
    if _int_nodes_fit_int64(expr, state, chain):
        assert compiled_lanes(expr, state, chain) is not None


def _int_nodes_fit_int64(expr, state, chain) -> bool:
    """Every int operator node holds an int64 on every thread."""
    nodes = []

    def walk(e):
        if isinstance(e, PrimOp):
            nodes.append(e)
            for a in e.args:
                walk(a)
    walk(expr)
    for node in nodes:
        values = per_thread(node, state, chain)
        if isinstance(values, Exception) or any(
                type(v) is int and not -BIG <= v < BIG for v in values):
            return False
    return True


def test_lanes_decline_only_an_int_result_outside_int64():
    # int operators compute with Python ints per lane: a product that fits
    # stays in lanes, whatever the size of its operands
    x = Variable("x", REAL)
    chain = ROOT_CHAIN.extend("s", 3)
    state = make_state(DENSE).updated(x, Lanes(chain, [1.0, 2.0, 3.0]))
    one = PrimOp("rlt", (Var(x), Var(x)))
    fits = PrimOp("mul", (IntLit(BIG - 1), one))
    assert compiled_lanes(fits, state, chain).tolist() == [BIG - 1] * 3
    leaves = PrimOp("mul", (IntLit(BIG - 1), PrimOp("add", (one, one))))
    assert compiled_lanes(leaves, state, chain) is None


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_an_operators_nan_has_the_per_thread_bits(op):
    # IEEE 754 leaves the bits of a NaN from two NaN operands to the
    # implementation; numpy's add, for one, may give 0x7ff8000000000000
    # where CPython's a + b gives 0xfff8000000000000
    x = Variable("x", REAL)
    chain = ROOT_CHAIN.extend("s", 3)
    state = make_state(DENSE).updated(x, Lanes(chain, [1.0, 2.0, math.nan]))
    expr = PrimOp(op, (Var(x), PrimOp("neg", (Var(x),))))
    lanes = compiled_lanes(expr, state, chain)
    want = [bits(v) for v in per_thread(expr, state, chain)]
    assert lanes is None or [bits(v) for v in lanes.tolist()] == want
    # a bare variable is a copy, which keeps its bits
    assert [bits(v) for v in compiled_lanes(Var(x), state, chain).tolist()] \
        == [bits(state.read(x, i)) for i in chain]


def test_literal_arguments_stay_scalars_and_empty_chains_do_nothing():
    x = Variable("x", REAL)
    chain = ROOT_CHAIN.extend("s", 3)
    state = make_state(DENSE).updated(x, Lanes(chain, [1.0, 2.0, 3.0]))
    expr = PrimOp("normal_logpdf", (Var(x), RealLit(0.0), RealLit(1.0)))
    lanes = compiled_lanes(expr, state, chain)
    assert isinstance(lanes, np.ndarray)
    assert lanes.tolist() == [eval_expr(expr, lambda v: state.read(v, i))
                              for i in chain]
    # on an empty chain the per-thread rule gives no value, whose write
    # leaves the state alone
    runner = _TargetRun(Skip(), None, FIXPOINT, EMPTY_CHAIN)
    assert state.updated(x, Lanes(EMPTY_CHAIN, runner.values(
        expr, state, EMPTY_CHAIN))) is state
    # an index whose lanes all agree is looked up once per lane on a narrow
    # chain and hashed as one Python int on a wide one
    index = IndexExpr((("z", PrimOp("const", (IntLit(2),))),))
    db = Rdb({}, "normal", 0.0, 7)
    assert compiled_fetch(index, state, chain, db) == \
        [db.lookup(Index((("z", 2),)))] * 3
    wide = ROOT_CHAIN.extend("s", FETCH_MIN_LANES)
    assert compiled_fetch(index, state, wide, db) == \
        [db.lookup(Index((("z", 2),)))] * FETCH_MIN_LANES


def test_each_lane_rule_and_the_ifz_cut_are_written_once():
    import ast
    import inspect
    from pathlib import Path

    from vecloop import dense, evalexpr
    from vecloop.state import StateBase

    # grids run the interpreter's per-thread rules: no state evaluates
    # lanes, fetches or looks up a chain at once, and no state cuts a chain
    for cls in (StateBase, DenseState):
        assert not {"split", "lanes", "fetched", "looked_up", "add_scores",
                    "gather", "_evaluated"} & set(vars(cls))
    assert "lanes" not in vars(_TargetRun)
    assert not hasattr(evalexpr, "eval_lanes") and not hasattr(dense, "_apply")
    # one dense state: a lane-resident loop's registers are no state
    assert [name for name, obj in vars(dense).items()
            if isinstance(obj, type) and issubclass(obj, StateBase)
            and obj.__module__ == dense.__name__] == ["DenseState"]
    assert not hasattr(dense, "_PART") and not hasattr(dense._Loop, "rows")
    # numpy computes only total float operations; every int operator and
    # every partial one maps its scalar form over the lanes
    assert set(dense._LANE_OPS) == {
        ("add", REAL), ("sub", REAL), ("mul", REAL), ("neg", REAL),
        ("rlt", INT), ("to_real", REAL), ("normal_logpdf", REAL)}
    # lanes are evaluated only in compiled loop bodies (`_Body`), under one
    # lane rule: one handler takes the exceptions a lane expression
    # declines on, in `_lanes`, which every step calls
    tree = ast.parse(inspect.getsource(dense))
    handlers = [ast.unparse(node.type) for node in ast.walk(tree)
                if isinstance(node, ast.ExceptHandler) and node.type]
    assert [h for h in handlers if "ArithmeticError" in h] == \
        ["(VecloopError, ArithmeticError)"]
    rule = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_lanes")
    assert any(isinstance(node, ast.ExceptHandler) for node in ast.walk(rule))
    body = next(node for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == "_Body")
    assert "errstate" not in ast.unparse(body)
    # the lanes run a loop whole or not at all: no lane step calls a
    # per-thread rule, the registers are read by no rule, and one handler,
    # in `run_loop`, takes a declined lane run back to grids
    rules = {"values", "scores", "fetches", "indices", "each", "column"}
    assert [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in rules
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "runner"] == []
    assert not hasattr(dense._Loop, "column")
    assert not hasattr(dense, "_nan_free")
    assert list(inspect.signature(_TargetRun.indices).parameters) == \
        ["self", "name", "chain"]
    caught = [(source.stem, function.name)
              for source in Path(dense.__file__).parent.glob("*.py")
              for function in ast.walk(ast.parse(source.read_text()))
              if isinstance(function, ast.FunctionDef)
              for node in ast.walk(function)
              if isinstance(node, ast.ExceptHandler) and node.type
              and "Declined" in ast.unparse(node.type)]
    assert caught == [("target_interp", "run_loop")]
    # one per-thread lookup_index rule: a lane step declines where a string
    # is missing
    raised = [node for source in Path(dense.__file__).parent.glob("*.py")
              for node in ast.walk(ast.parse(source.read_text()))
              if isinstance(node, ast.Raise)
              and "MissingString(" in ast.unparse(node)]
    assert len(raised) == 1
    # the benchmark's tracer wraps these in the class's own namespace
    assert {"read", "updated", "copied", "same_function"} <= \
        set(vars(DenseState))


def test_scores_enter_the_buffer_through_one_rule():
    import ast
    import inspect
    from pathlib import Path

    from vecloop import dense

    # a compiled loop keeps no score state: its score step hands its lanes
    # to the interpreter's rule, and `run_rounds` itself starts each round
    # from the buffer the loop began with
    assert not {"add_scores", "restart", "slots"} & set(vars(dense._Loop))
    assert list(inspect.signature(_TargetRun.run_rounds).parameters) == \
        ["self", "c", "one_round", "state"]
    # one rule adds scores, and only target_interp writes into the buffer:
    # stores into `.score`, or its items, and mutating calls on it
    mutating = {"update", "pop", "append", "extend", "clear", "fill",
                "insert", "setdefault", "__setitem__"}

    def buffer(node):
        return isinstance(node, ast.Attribute) and node.attr == "score"

    rules, writers = [], set()
    for source in sorted(Path(dense.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name == "add_scores":
                rules.append(source.stem)
            stored = (isinstance(node, (ast.Attribute, ast.Subscript))
                      and isinstance(node.ctx, ast.Store)
                      and (buffer(node) or buffer(node.value)))
            called = (isinstance(node, ast.Attribute) and buffer(node.value)
                      and node.attr in mutating)
            if stored or called:
                writers.add(source.stem)
    assert rules == ["target_interp"] and "add_scores" in vars(_TargetRun)
    assert writers == {"target_interp"}


def test_columns_are_built_once_per_chain():
    chain = ROOT_CHAIN.extend("a", 2).extend("b", 3)
    groups = _columns(chain)
    assert _columns(chain) is groups
    assert len(groups) == 1 and groups[0].names == ("a", "b")
    assert groups[0].matrix.tolist() == [list(i.lookup(n) for n in "ab")
                                         for i in chain]


@settings(max_examples=200, deadline=None)
@given(st.lists(ordered, min_size=1, max_size=8), st.integers(0, 3),
       st.integers(1, 3))
def test_extended_columns_are_the_members_columns(members, count, again):
    # parents of one or several string sequences, extended once and twice
    chain = maximal(members).extend("d", count)
    for built in (chain, chain.extend("e", again)):
        groups, fresh = _columns(built), _grouped(tuple(built))
        assert len(groups) == len(fresh)
        for g, f in zip(groups, fresh):
            assert g.names == f.names
            assert g.matrix.dtype == f.matrix.dtype == np.int64
            assert g.matrix.tolist() == f.matrix.tolist()
            assert (g.rows is None) == (f.rows is None)
            if g.rows is not None:
                assert g.rows.tolist() == f.rows.tolist()
            assert (g.lows, g.needs) == (f.lows, f.needs)


def test_chains_of_several_string_sequences_run_as_on_sparse():
    # two groups whose strings nest in one order, as the grids assume
    chain = AChain([Index((("a", 0),)), Index((("a", 2),)),
                    Index((("a", 1), ("c", 0))), Index((("a", 1), ("c", 2)))])
    program = parse('t:int := lookup_index("a"); x := to_real(t:int); '
                    'y := fetch([("z", t:int)]); '
                    'ifz lt(t:int, 1) { y := mul(x, 2.0) } else { y := neg(y) }; '
                    'score(add(x, y))', "target")
    db = Rdb({}, "normal", 0.0, 5)
    sparse = run_tgt(program, db, chain=chain, backend=SPARSE)
    dense = run_tgt(program, db, chain=chain, backend=DENSE)
    assert repr(sparse.score) == repr(dense.score)
    for var in sparse.state.variables():
        assert [sparse.state.read(var, i) for i in chain] == \
            [dense.state.read(var, i) for i in chain]


def test_strings_nesting_in_two_orders_are_refused_on_dense():
    # the loop over "s" gives the grids the axes a, s, c; the members under
    # ("a",1);("c",0) then write under a, c, s, which those axes cannot hold
    chain = AChain([Index((("a", 0),)), Index((("b", 1),)),
                    Index((("a", 1), ("c", 0)))])
    program = parse('extend_index("s", 3) { t:int := lookup_index("s"); '
                    'x := to_real(t:int); y := fetch([("z", t:int)]); '
                    'ifz lt(t:int, 1) { y := mul(x, 2.0) } else { y := neg(y) }; '
                    'score(add(x, y)) }', "target")
    db = Rdb({}, "normal", 0.0, 5)
    sparse = run_tgt(program, db, chain=chain, backend=SPARSE)
    assert set(sparse.score.entries) == set(chain)
    assert {round(v, 4) for v in sparse.score.entries.values()} == {4.5869}
    with pytest.raises(AxisOrderConflict, match=r"\('a', 'c', 's'\)"):
        run_tgt(program, db, chain=chain, backend=DENSE)


def test_dense_arm_runs_without_a_per_thread_read(monkeypatch):
    from vecloop.bench import arm_program

    calls = []
    read = DenseState.read
    monkeypatch.setattr(DenseState, "read",
                        lambda self, var, i: calls.append(i) or read(self, var, i))
    out = run_tgt(vectorise(arm_program(12, 3)), Rdb({}, "normal", 0.0, 3),
                  backend=DENSE)
    assert calls == []
    assert [type(v) for v in out.score.entries.values()] == [float]


# --------------------------------------------------------------------------
# Batched fetch, bit for bit against Rdb.lookup per thread
# --------------------------------------------------------------------------

# quotes, brackets, separators, `$`, non-ASCII and astral characters, all of
# which the index text carries unescaped
fetch_names = st.text(st.sampled_from('az$"\'()[];,\\ é€😀'), max_size=4)
# mixed digit lengths and signs, and both ends of int64
fetch_ints = st.one_of(
    st.sampled_from([0, 1, -1, 9, 10, -10, 99, -100, 12345, BIG - 1, -BIG]),
    st.integers(-BIG, BIG - 1))


@st.composite
def fetch_cases(draw):
    """A dense state over a chain on either side of FETCH_MIN_LANES, a
    fetch index of 0-3 pairs, each a variable varying along the chain or a
    literal, and a database: a constant or seeded-normal default, with
    explicit entries at some lanes' indices, at other indices and under
    other strings."""
    count = draw(st.integers(1, 3 * FETCH_MIN_LANES))
    chain = ROOT_CHAIN.extend("s", count)
    names = draw(st.lists(fetch_names, max_size=3, unique=True))
    state = make_state(DENSE)
    pairs = []
    for k, name in enumerate(names):
        if draw(st.booleans()):
            pairs.append((name, IntLit(draw(fetch_ints))))
            continue
        var = Variable(f"v{k}", INT)
        values = draw(st.lists(fetch_ints, min_size=count, max_size=count))
        state = state.updated(var, Lanes(chain, values))
        pairs.append((name, Var(var)))
    index = IndexExpr(tuple(pairs))
    lanes = [eval_expr(index, lambda var: state.read(var, i)) for i in chain]
    picked = draw(st.lists(st.sampled_from(lanes), max_size=3))
    others = draw(st.lists(st.lists(st.tuples(fetch_names, fetch_ints),
                                    max_size=2, unique_by=lambda p: p[0]),
                           max_size=2))
    explicit = {i: draw(st.floats(allow_nan=False))
                for i in picked + [Index(tuple(p)) for p in others]}
    if draw(st.booleans()):
        db = Rdb(explicit, "const", draw(st.floats(allow_nan=False)), 0)
    else:
        db = Rdb(explicit, "normal", 0.0, draw(st.integers(-2 ** 65, 2 ** 65)))
    return state, chain, index, db, lanes


@settings(max_examples=500, deadline=None)
@given(fetch_cases())
def test_batched_fetch_is_the_per_thread_lookup_bit_for_bit(case):
    state, chain, index, db, lanes = case
    want = [bits(db.lookup(i)) for i in lanes]
    names = tuple(name for name, _ in index.pairs)
    columns = [np.array([i.lookup(name) for i in lanes], np.int64)
               for name in names]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [bits(v) for v in _looked_up(db, names, columns, len(chain))] \
            == want
        fetched = compiled_fetch(index, state, chain, db)
    # narrower chains look each lane's index up, as a thread's
    assert [bits(v) for v in fetched] == want


def test_fetch_declines_a_repeated_string_and_a_declining_pair():
    chain = ROOT_CHAIN.extend("s", FETCH_MIN_LANES)
    state = make_state(DENSE)
    db = Rdb({}, "normal", 0.0, 1)
    one = IntLit(1)
    assert compiled_fetch(IndexExpr((("a", one), ("a", one))), state, chain,
                          db) is None
    n = Variable("n", INT)
    state = state.updated(n, Lanes(chain, [0] * FETCH_MIN_LANES))
    assert compiled_fetch(IndexExpr((("a", PrimOp("mod", (one, Var(n)))),)),
                          state, chain, db) is None
    assert compiled_fetch(IndexExpr((("a", Var(n)),)), state, chain,
                          db) is not None


def test_importing_vecloop_imports_no_numpy():
    proc = python_process("import sys, vecloop; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# --------------------------------------------------------------------------
# Failures: the per-thread rule's class, message and thread
# --------------------------------------------------------------------------

CONST0 = Rdb({}, "const", 0.0, 0)
TWO = AChain([Index((("out", 0),)), Index((("out", 1),))])


def outcome(run):
    try:
        out = run()
    except Exception as err:
        return type(err).__name__, str(err)
    return repr(out.score), repr(out.trace)


def both_backends(program, chain=ROOT_CHAIN, db=CONST0):
    return [outcome(lambda: run_tgt(program, db, chain=chain, backend=b))
            for b in (SPARSE, DENSE)]


def test_first_failing_thread_wins_over_first_failing_node():
    # thread 0 fails in the right operand (div), thread 1 in the left (log):
    # node by node, log would fail first
    program = parse('n:int := lookup_index("out"); x := to_real(n:int); '
                    'score(add(log(sub(1.0, x)), div(1.0, x)))', "target")
    sparse, dense = both_backends(program, TWO)
    assert sparse == dense == ("PrimitiveDomainError",
                               "div(1.0, 0.0) outside the operator's domain"
                               " at target run")


def test_a_nan_score_fails_before_a_later_threads_domain_error():
    program = parse('n:int := lookup_index("out"); x := to_real(n:int); '
                    'score(add(log(sub(1.0, x)), sub(1e308 * 10.0, 1e309)))',
                    "target")
    sparse, dense = both_backends(program, TWO)
    assert sparse == dense == ("ScoreNaN",
                               'score evaluated to NaN at [("out",0)]')


def test_a_nan_score_names_the_first_nan_thread_in_chain_order():
    # lanes 1 and 2 are NaN (inf - inf); the lanes are checked at once
    program = parse('n:int := lookup_index("out"); x := mul(1000.0, '
                    'to_real(n:int)); score(sub(exp(x), exp(x)))', "target")
    three = AChain([Index((("out", k),)) for k in (2, 0, 1)])
    sparse, dense = both_backends(program, three)
    assert sparse == dense == ("ScoreNaN",
                               'score evaluated to NaN at [("out",1)]')


PARTIAL = ("{init}; for t:int in range(3) {{ ifz lt(t:int, 1) {{ {one} }} "
           "else {{ skip }}; score({expr}) }}")


@pytest.mark.parametrize("init, one, expr, message", [
    ("y := 0.0", "y := 1.0", "log(y)", "log(0.0,)"),
    ("y := 0.0", "y := 1.0", "div(1.0, y)", "div(1.0, 0.0)"),
    ("n:int := 0", "n:int := 1", "to_real(mod(5, n:int))", "mod(5, 0)"),
    ("y := 0.0", "y := 1.0", "normal_logpdf(0.0, 0.0, y)",
     "normal_logpdf(0.0, 0.0, 0.0)"),
])
def test_partial_operator_reproducers_fail_as_on_sparse(
        init, one, expr, message, resident, declined):
    program = vectorise(parse(PARTIAL.format(init=init, one=one, expr=expr)))
    sparse, dense = both_backends(program)
    assert sparse == dense == ("PrimitiveDomainError",
                               f"{message} outside the operator's domain"
                               " at target run")
    # inside the compiled loop, speculative round 1 reads the stale 0 on
    # thread 1: the score's lanes decline, and the loop's first round on
    # grids fails
    assert resident == [True]
    assert declined == [1]


def test_score_nan_and_missing_string_fail_as_on_sparse():
    nan = vectorise(parse(
        "big := 1e300 * 1e300; for t:int in range(3) { "
        "ifz lt(t:int, 1) { score(1.0) } else { score(sub(big, big)) } }"))
    sparse, dense = both_backends(nan)
    assert sparse == dense == ("ScoreNaN",
                               'score evaluated to NaN at [("$loop0",1)]')
    missing = parse('n:int := lookup_index("zz"); score(to_real(n:int))',
                    "target")
    sparse, dense = both_backends(missing, TWO)
    assert sparse == dense == ("MissingString",
                               'lookup_index("zz") under [("out",0)]')
    with pytest.raises(ScoreNaN):
        run_tgt(nan, CONST0, backend=DENSE)
    with pytest.raises(MissingString):
        run_tgt(missing, CONST0, chain=TWO, backend=DENSE)


def test_a_repeated_index_string_fails_as_per_thread(resident, declined):
    # the parser refuses such an index, so build one: a column walk checks
    # the names once and falls back to the per-thread rule, whose error
    # names the first thread's pairs; a compiled body's fetch declines, and
    # its loop fails so on grids
    def repeated(c):
        if not isinstance(c, Fetch):
            return c
        (name, z), = c.index.pairs
        return Fetch(c.var, IndexExpr(((name, z), (name, IntLit(1)))))

    error = ("DuplicateIndexString",
             "index repeats a string: (('a', 0), ('a', 1))")
    grids = _rewrite(parse('n:int := lookup_index("out"); '
                           'y := fetch([("a", n:int)]); score(y)', "target"),
                     repeated)
    assert both_backends(grids, TWO) == [error, error]
    loop = _rewrite(vectorise(parse(
        'for t:int in range(3) { y := fetch([("a", t:int)]); score(y) }')),
        repeated)
    assert both_backends(loop) == [error, error]
    assert resident == [True]
    assert declined == [1]


def test_int_overflow_falls_back_to_the_per_thread_rule():
    # Python ints do not overflow; the dense grid cannot hold the result,
    # and the per-thread write refuses it with a named error
    program = vectorise(parse(
        "n:int := 3037000500; for t:int in range(3) { "
        "m:int := mul(n:int, n:int); score(to_real(mul(m:int, 2))) }"))
    sparse, dense = both_backends(program)
    assert sparse[0].startswith("PMap(")
    assert dense == ("IntOverflow", "int 9223372037000250000 lies outside "
                                    "int64, the dense backend's int type")
    scored = vectorise(parse(
        "n:int := 3037000500; for t:int in range(3) { "
        "score(to_real(mul(add(n:int, t:int), n:int))) }"))
    sparse, dense = both_backends(scored)
    assert sparse == dense


# inf * 0, inf - inf, overflow to inf, exp overflow, division by a tiny
NOISY = ("big := 1e300 * 1e300; tiny := 1e-300 * 1e-300; "
         "for t:int in range(3) { x := to_real(t:int); "
         "y := sub(mul(big, x), big); z := mul(1e300, mul(1e300, x)); "
         "w := exp(mul(1000.0, x)); v := div(x, 1e-310); "
         "ifz rlt(y, 0.0) { u := neg(z) } else { u := z } }")


def test_float_specials_raise_no_numpy_warning():
    program = vectorise(parse(NOISY))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sparse, dense = both_backends(program)
        relaxed = [outcome(lambda: run_relaxed(vectorise_relaxed(parse(NOISY)),
                                               CONST0, backend=b)[0])
                   for b in (SPARSE, DENSE)]
    assert sparse[0] == dense[0] and relaxed[0][0] == relaxed[1][0]


def test_cli_dense_run_leaves_stderr_empty(tmp_path):
    source = tmp_path / "noisy.vl"
    source.write_text(NOISY)
    target = tmp_path / "noisy_t.vl"
    cli_process(["translate", "--to", "target", str(source),
                 "--out", str(target)]).check_returncode()
    proc = cli_process(["run", "--tier", "target", "--program", str(target),
                        "--backend", "dense"])
    assert proc.returncode == 0
    assert proc.stderr == ""


# --------------------------------------------------------------------------
# Lane-resident loops against the sparse reference
# --------------------------------------------------------------------------

@pytest.fixture
def resident(monkeypatch):
    """Whether each loop the dense backend offered lane arrays took them."""
    taken = []
    offer = DenseState.resident

    def recorded(self, *args):
        state = offer(self, *args)
        taken.append(state is not None)
        return state

    monkeypatch.setattr(DenseState, "resident", recorded)
    return taken


def run_on(backend, program, chain=ROOT_CHAIN, db=CONST0, mode=FIXPOINT,
           cells=None):
    """One run: its outcome, or (error class, message)."""
    try:
        return run_tgt(program, db, make_state(backend, cells), chain, mode,
                       backend)
    except Exception as err:
        return type(err).__name__, str(err)


def run_dense(*args, **kwargs):
    """The dense run, which must be the dense run on grids alone: the same
    scores and traces, byte for byte, and the same state text, though the
    final grids may differ in shape."""
    dense = run_on(DENSE, *args, **kwargs)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DenseState, "resident", lambda self, *offer: None)
        grids = run_on(DENSE, *args, **kwargs)
    if isinstance(dense, tuple) or isinstance(grids, tuple):
        assert dense == grids
    else:
        assert (repr(dense.score), dense.trace, dense.state.canonical_text()) \
            == (repr(grids.score), grids.trace, grids.state.canonical_text())
    return dense


def run_both(*args, **kwargs):
    """The sparse and the dense run (`run_dense`)."""
    dense = run_dense(*args, **kwargs)
    return run_on(SPARSE, *args, **kwargs), dense


def assert_agree(sparse, dense):
    """Equal errors, or equal scores and traces bit for bit and equal state
    texts, so equal reads everywhere."""
    if isinstance(sparse, tuple) or isinstance(dense, tuple):
        assert sparse == dense
        return
    assert repr(sparse.score) == repr(dense.score)
    assert [bits(v) for v in sparse.score.entries.values()] == \
        [bits(dense.score.entries[i]) for i in sparse.score.entries]
    assert sparse.trace == dense.trace
    assert sparse.state.canonical_text() == dense.state.canonical_text()


LOOPS = {
    # masked writes under nested ifz; `lt(t, 0)` never holds, so one branch
    # is always empty, and a nested ifz splits that empty part again
    "nested-ifz": "y := 0.5; for t:int in range(6) { "
                  "ifz lt(t:int, 3) { ifz lt(t:int, 1) { y := add(y, 1.0) } "
                  "else { ifz lt(t:int, 0) { y := 5.0 } else { skip } } } "
                  "else { y := mul(y, 2.0) }; "
                  "ifz lt(t:int, 0) { ifz lt(t:int, 1) { z := 1.0 } "
                  "else { w := 2.0 } } else { skip }; score(y) }",
    # a NaN carried from round to round is equal to itself, also when
    # `neg` flips its sign bit
    "nan-carried": "big := 1e300 * 1e300; n := sub(big, big); "
                   "for t:int in range(4) { y := n; x := add(y, 1.0); "
                   "score(0.0) }",
    "nan-sign": "big := 1e300 * 1e300; y := sub(big, big); "
                "for t:int in range(3) { y := neg(y); score(0.0) }",
    # the product (2**61 + t) * 4 leaves int64, so the lanes decline and
    # the loop runs again on grids, where the expression, whose result
    # fits, runs per thread
    "per-thread-read": "n:int := 2305843009213693952; y := 0.0; "
                       "for t:int in range(5) { "
                       "m:int := sub(mul(add(n:int, t:int), 4), mul(n:int, 4)); "
                       "y := add(y, to_real(m:int)); score(y) }",
    # the condition's lanes decline as above: on grids the chain is cut
    # from the per-thread values, and the else-branch's fetch runs on a part
    # of 3 of 5 threads (`lt` gives 0 where a < b, so the else-branch runs
    # on t = 2, 3, 4)
    "declined-ifz": "n:int := 2305843009213693952; y := 0.0; "
                    "for t:int in range(5) { "
                    "ifz lt(mul(add(n:int, t:int), 4), 9223372036854775816) "
                    "{ y := add(y, 1.0) } "
                    "else { y := fetch([(\"y\", t:int)]) }; score(y) }",
    # the fetch index changes from round to round, until k settles
    "fetch-carried": "k:int := 0; for t:int in range(9) { "
                     "k:int := add(k:int, t:int); "
                     "y := fetch([(\"y\", mod(k:int, 7))]); score(y) }",
    # a fetch with no pairs reads the same index on parts of every width;
    # its lanes kept from a narrower part must not serve a wider one
    "fetch-no-pairs": "k:int := 0; for t:int in range(20) { "
                      "k:int := add(k:int, 1); ifz lt(t:int, k:int) "
                      "{ y := fetch([]) } else { skip }; score(y) }",
    "nan-score": "big := 1e300 * 1e300; for t:int in range(3) { "
                 "ifz lt(t:int, 1) { score(1.0) } else { score(sub(big, big)) } }",
    "arm": "p1 := 0.0; p2 := 0.0; for i:int in range(9) { "
           "y := fetch([(\"y\", i:int)]); score(normal_logpdf(y, add(p1, p2), 1.0)); "
           "p2 := p1; p1 := y }",
    "nested": "for s:int in range(3) { prev := 20.0; for t:int in range(9) { "
              "u := fetch([(\"u\", s:int); (\"t\", t:int)]); "
              "ifz rlt(u, 0.0) { score(normal_logpdf(u, prev, 0.5)) } "
              "else { score(neg(prev)) }; prev := add(prev, u) } }",
}
LOOPS.update({f"partial-{op}": PARTIAL.format(init=init, one=one, expr=expr)
              for op, (init, one, expr) in {
                  "log": ("y := 0.0", "y := 1.0", "log(y)"),
                  "div": ("y := 0.0", "y := 1.0", "div(1.0, y)"),
                  "mod": ("n:int := 0", "n:int := 1", "to_real(mod(5, n:int))"),
                  "normal_logpdf": ("y := 0.0", "y := 1.0",
                                    "normal_logpdf(0.0, 0.0, y)")}.items()})
NORMAL = Rdb({}, "normal", 0.0, 11)


@pytest.mark.parametrize("mode", [FIXPOINT, UNROLLED])
@pytest.mark.parametrize("name", sorted(LOOPS))
def test_resident_loops_run_as_on_sparse(name, mode, resident):
    program = vectorise(parse(LOOPS[name]))
    for chain in (ROOT_CHAIN, TWO):
        resident.clear()
        sparse, dense = run_both(program, chain, NORMAL, mode)
        assert_agree(sparse, dense)
        assert resident and resident[0]


def test_int_overflow_inside_a_resident_loop(resident):
    # sparse ints do not overflow: the dense backend's named error instead
    program = vectorise(parse(
        "n:int := 3037000500; for t:int in range(3) { "
        "m:int := add(mul(n:int, n:int), t:int); score(to_real(m:int)) }"))
    sparse, dense = run_both(program)
    assert sparse.score.entries[EMPTY] > 2.0 ** 63
    assert dense == ("IntOverflow", "int 9223372037000250002 lies outside "
                                    "int64, the dense backend's int type")
    assert resident == [True]


def test_a_variable_written_only_on_empty_branches_stays_absent(resident):
    sparse, dense = run_both(vectorise(parse(LOOPS["nested-ifz"])))
    assert_agree(sparse, dense)
    assert resident == [True]
    names = {var.name for var in dense.state.variables()}
    assert "y" in names and not names & {"z", "w"}


@pytest.fixture
def declined(monkeypatch):
    """The round, counted from 1, in which each lane run declined, so
    that its loop ran again on grids."""
    sent, rounds = [], {}
    original = ResidentLoop.round

    def recorded(self, runner, check):
        rounds[self] = rounds.get(self, 0) + 1
        try:
            return original(self, runner, check)
        except Declined:
            sent.append(rounds[self])
            raise

    monkeypatch.setattr(ResidentLoop, "round", recorded)
    return sent


def test_a_compiled_body_runs_no_command_through_the_interpreter(
        monkeypatch, declined):
    from vecloop.bench import arm_program
    from vecloop.target_interp import _TargetRun

    ran = []
    run = _TargetRun.run
    monkeypatch.setattr(_TargetRun, "run", lambda self, c, *args:
                        ran.append(type(c).__name__) or run(self, c, *args))
    for k in (4, 16):
        ran.clear()
        out = run_tgt(vectorise(arm_program(48, k)), NORMAL, backend=DENSE)
        assert out.trace[0].rounds == k + 1
        # the extend_index and its loop; no statement of the loop's body,
        # whatever the number of rounds
        assert ran == ["ExtendIndex", "LoopFixpt"]
    assert declined == []


def test_the_relaxed_runner_never_enters_a_compiled_body():
    # the relaxed runner records each command's accesses as `run` meets it;
    # a compiled body runs its commands without `run`
    from vecloop.relaxed import _RelaxedRun

    program = vectorise(parse(LOOPS["arm"]))
    runner = _RelaxedRun(program, NORMAL, ROOT_CHAIN)
    with pytest.raises(AssertionError, match="compiled loop"):
        runner.run(program, make_state(DENSE), ROOT_CHAIN)


@pytest.mark.parametrize("name", ["nan-carried", "nan-sign", "per-thread-read"])
def test_compiled_loops_decline_per_thread(name, resident, declined):
    # an operator's NaN and a product that leaves int64 make an
    # assignment's lanes decline in round 1: the loop runs on grids, where
    # the interpreter's rules evaluate once per thread
    sparse, dense = run_both(vectorise(parse(LOOPS[name])), db=NORMAL)
    assert_agree(sparse, dense)
    assert resident == [True] and declined == [1]


def test_a_for_loop_inside_a_resident_loop_runs_as_on_sparse(resident):
    # `vectorise` leaves no for-loop in a loop body, but the target tier
    # allows one, also under an ifz; `loop_facts` does not admit such a
    # loop, so no body is compiled and it runs on grids, as on sparse
    program = parse(
        'y := 0.5; extend_index("s", 5) { loop_fixpt_noacc(5) { shift("s"); '
        't:int := lookup_index("s"); '
        'for k:int in range(3) { y := add(y, to_real(mul(k:int, t:int))) }; '
        'ifz lt(t:int, 2) { for k:int in range(2) { y := mul(y, 0.5) } } '
        'else { skip }; score(y) } }', "target")
    for chain in (ROOT_CHAIN, TWO):
        for mode in (FIXPOINT, UNROLLED):
            assert_agree(*run_both(program, chain, NORMAL, mode))
    assert loop_facts(program)[1] == {} and resident == []
    assert program.items[-1].body.compiled is None


def test_for_inside_a_resident_loop(resident):
    # the same on a plain for-loop: the loop runs on grids, as on sparse,
    # and still reaches its fixed point in 4 rounds
    program = parse('x := 1.0; extend_index("s", 4) { loop_fixpt_noacc(4) { '
                    'shift("s"); t:int := lookup_index("s"); '
                    'for j:int in range(3) { '
                    'x := add(x, to_real(mul(t:int, j:int))) }; score(x) } }',
                    "target")
    sparse, dense = run_both(program, TWO)
    assert_agree(sparse, dense)
    assert resident == []
    assert sparse.trace[0].rounds == 4


def test_an_operator_that_does_not_resolve_fails_where_it_runs(
        resident, declined):
    # compiling the body meets the ill-typed node first; the expression
    # holding it declines only where a nonempty part reaches it, and then
    # fails on grids
    from vecloop.syntax import (Assign, For, Ifz, Score, Skip, seq)

    t, x = Variable("t", INT), Variable("x", REAL)
    bad = Assign(x, PrimOp("add", (IntLit(1), RealLit(2.0))))
    for taken, want in ((0, None), (9, "KeyError")):
        cond = PrimOp("lt", (Var(t), IntLit(taken)))
        program = vectorise(For(t, 3, seq(
            Ifz(cond, bad, Skip()), Score(PrimOp("to_real", (Var(t),))))))
        resident.clear()
        declined.clear()
        sparse, dense = run_both(program)
        assert resident == [True]
        if want is None:
            assert_agree(sparse, dense)
            assert declined == []
        else:
            assert sparse[0] == dense[0] == want
            assert declined == [1]


def test_a_resident_loop_reads_per_thread_where_the_lanes_decline(
        resident, declined, monkeypatch):
    # the loop runs again on grids, whose per-thread rules read a
    # variable's column on the chain
    reads = []
    column = DenseState.column
    monkeypatch.setattr(DenseState, "column", lambda self, var, chain:
                        reads.append(var.name) or column(self, var, chain))
    sparse, dense = run_both(vectorise(parse(LOOPS["per-thread-read"])))
    assert_agree(sparse, dense)
    assert resident == [True] and declined == [1]
    assert {"n", "t"} <= set(reads)


def test_a_lane_run_declining_in_a_later_round_leaves_no_trace(
        resident, declined):
    # round 1 reads k = 0 on every thread; from round 2 on, thread 1 reads
    # k = 1, and (2**61 - 1 + k) * 4 leaves int64, after the round's score
    # step has added its lanes: the grids start again from the score
    # buffer and the state the loop began with, and the loop is traced once
    program = vectorise(parse(
        "n:int := 2305843009213693951; k:int := 0; for t:int in range(4) { "
        "score(to_real(k:int)); "
        "m:int := sub(mul(add(n:int, k:int), 4), mul(n:int, 4)); "
        "k:int := add(t:int, 1) }"))
    sparse, dense = run_both(program, db=NORMAL)
    assert_agree(sparse, dense)
    assert resident == [True] and declined == [2]
    assert [record.site for record in dense.trace] == [0]
    assert dense.score.entries[EMPTY] == 0.0 + 1.0 + 2.0 + 3.0


def test_entry_grids_storing_values_above_the_members_run_on_grids(resident):
    # x stores 7.0 above the member [("s",1)]: round 1 leaves every member's
    # lane as it was but overwrites that value, so the fixed point needs a
    # second round, as on the sparse backend
    x = Variable("x", REAL)
    cells = {x: PMap({EMPTY: 0.0, Index((("s", 1), ("u", 0))): 7.0})}
    program = parse('extend_index("s", 3) { loop_fixpt_noacc(3) { '
                    'shift("s"); x := 0.0; score(x) } }', "target")
    sparse, dense = run_both(program, cells=cells)
    assert_agree(sparse, dense)
    assert resident == [False]
    assert sparse.trace[0].rounds == 2
    # an entry grid with the loop's own axis runs on grids too
    resident.clear()
    cells = {x: PMap({EMPTY: 0.0, Index((("s", 1),)): 7.0})}
    sparse, dense = run_both(program, cells=cells)
    assert_agree(sparse, dense)
    assert resident == [False]


def test_a_grid_a_shift_would_shrink_runs_resident_and_prints_as_on_sparse(
        resident):
    # v is 0.0 on both threads and below them, so a copy on grids drops its
    # axis "out", 3 wide, and the write that follows regrows it 2 wide for
    # the part out = 0; the lanes keep the entry grid's 3, which reads alike
    program = parse('v := 0.0; o:int := lookup_index("out"); '
                    'ifz lt(o:int, 1) { extend_index("s", 3) { '
                    'loop_fixpt_noacc(3) { shift("s"); v := add(v, 1.0) } } } '
                    'else { skip }', "target")
    sparse, dense = run_both(program, TWO)
    assert_agree(sparse, dense)
    assert resident == [True]


def test_every_loop_of_arm_hmm_and_tcm_innermost_runs_resident(resident):
    from vecloop.bench import arm_program, hmm_program, tcm_program

    for program, site in ((arm_program(20, 3), 0), (hmm_program(20, 2), 0),
                          (tcm_program(3, 10), 1)):
        resident.clear()
        sparse, dense = run_both(vectorise(program), db=NORMAL)
        assert_agree(sparse, dense)
        # tcm's outer loop holds a loop, so it runs on grids; its inner loop
        # runs once per outer round, on all outer threads at once
        runs = [record for record in sparse.trace if record.site == site]
        assert resident == [True] * len(runs) and runs


def test_generated_programs_run_alike_in_lanes_and_on_grids(resident):
    for seed in range(60):
        cfg = GenConfig(seed=seed)
        db = gen_rdb(seed)
        run_dense(vectorise(gen_program(cfg)), db=db)
        program, chain = gen_target_case(seed, cfg)
        for mode in (FIXPOINT, UNROLLED):
            run_dense(program, chain, db, mode)
    assert resident.count(True) >= 100


def _arm_counts(monkeypatch, k: int) -> tuple[int, int, int]:
    """`DenseMap._written` calls, batched hash passes and rounds of one
    dense run of vectorised arm N=48."""
    from vecloop import dense
    from vecloop.bench import arm_program

    calls = {"written": 0, "hashed": 0}

    def counted(name, original):
        def run(*args):
            calls[name] += 1
            return original(*args)
        return run

    monkeypatch.setattr(DenseMap, "_written",
                        counted("written", DenseMap._written))
    monkeypatch.setattr(dense, "_hash_normal_lanes",
                        counted("hashed", dense._hash_normal_lanes))
    out = run_tgt(vectorise(arm_program(48, k)), NORMAL, backend=DENSE)
    monkeypatch.undo()
    return calls["written"], calls["hashed"], out.trace[0].rounds


def test_generated_programs_keep_their_loops_in_lanes(monkeypatch):
    # an exit copy leaves a grid without the loop's axis as it is, with any
    # trailing axis along which it is constant: none of those may push a
    # loop off the lanes, which want every grid's axes a proper prefix of
    # the chain's strings (`DenseState.resident`)
    runs, offered = [], []
    run_loop, offer = _TargetRun.run_loop, DenseState.resident

    def counted_run_loop(self, c, state, chain):
        runs.append(c)
        return run_loop(self, c, state, chain)

    def counted_offer(self, loop, writes, chain):
        lanes = offer(self, loop, writes, chain)
        offered.append((lanes is not None, len(chain)))
        return lanes

    monkeypatch.setattr(_TargetRun, "run_loop", counted_run_loop)
    monkeypatch.setattr(DenseState, "resident", counted_offer)
    for seed in range(300):
        run_tgt(vectorise(gen_program(GenConfig(seed=seed))), gen_rdb(seed),
                backend=DENSE)
    monkeypatch.undo()
    in_lanes = sum(taken for taken, _ in offered)
    declined = [width for taken, width in offered if not taken]
    assert (in_lanes, len(declined), len(runs) - len(offered)) == \
        (358, 96, 117)
    assert set(declined) == {0}


def test_grid_writes_and_hash_passes_do_not_grow_with_rounds(monkeypatch):
    # K + 1 rounds each; the grids are written once at loop exit (i, y and
    # p1..pK), and the extend_index's exit copy leaves them as they are,
    # since none has the loop's axis; the fetch's index lanes repeat every
    # round, so the database is hashed once
    assert _arm_counts(monkeypatch, 4) == (4 + 2, 1, 5)
    assert _arm_counts(monkeypatch, 16) == (16 + 2, 1, 17)
