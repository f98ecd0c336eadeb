"""The dense backend's chain-batched layer against its per-index definitions.

`DenseMap.read` defines a read at one index, and the per-index write loop
below (one slice assignment per index, in index order) is how `updated`
wrote before writes were grouped.  Gathers, scatters and copies over whole
chains must agree with them, and the lane evaluator must give what
`eval_expr` gives thread by thread, bit for bit, or decline.
"""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _support import cli_process, python_process
from vecloop.dense import (FETCH_MIN_LANES, DenseMap, DenseState, _columns,
                          _grouped, _looked_up, dense_encode)
from vecloop.errors import AxisOrderConflict, MissingString, ScoreNaN
from vecloop.evalexpr import eval_expr
from vecloop.indices import (EMPTY, EMPTY_CHAIN, AChain, Index, ROOT_CHAIN,
                             is_antichain, prefix_leq)
from vecloop.ops import same_value
from vecloop.parser import parse
from vecloop.pmap import PMap
from vecloop.rdb import Rdb
from vecloop.relaxed import run_relaxed
from vecloop.state import DENSE, SPARSE, Lanes, make_state
from vecloop.syntax import (INT, REAL, IndexExpr, IntLit, PrimOp, RealLit,
                            Var, Variable)
from vecloop.target_interp import run_tgt
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
@given(pmaps, st.lists(probes, min_size=1, max_size=12))
def test_gather_is_read_at_every_index(m, indices):
    dense = dense_encode(m, DIMS if len(m) % 2 else None)
    got = dense.gather(_grouped(indices), len(indices))
    lanes = got.tolist() if isinstance(got, np.ndarray) else [got] * len(indices)
    assert [bits(v) for v in lanes] == [bits(dense.read(i)) for i in indices]


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
    # PMap.copied repairs a slot only when its read changes under ==, so
    # the sparse map may keep 0.0 where the grid moved a -0.0
    moved = m.copied(rho)
    for i in [*rho, *rho.values(), *m.domain(), *extra]:
        a, b = got.read(i), moved.extend_eval(i)
        assert same_value(a, b), i.text()


@settings(max_examples=200, deadline=None)
@given(st.lists(ordered, min_size=1, max_size=10), st.data())
def test_split_keeps_each_parts_rows_of_the_columns(members, data):
    chain = maximal(members)
    flags = data.draw(st.lists(st.integers(0, 1), min_size=len(chain),
                               max_size=len(chain)))
    cond = Lanes(chain, np.array(flags, np.int64))
    zero, nonzero = DenseState().split(cond)
    assert set(zero) == {i for i, f in zip(chain, flags) if f == 0}
    assert set(nonzero) == {i for i, f in zip(chain, flags) if f != 0}
    for part in (zero, nonzero):
        assert list(part) == sorted(part.members, key=Index.sort_key)
        if part:
            fresh = _grouped(tuple(part))
            kept = part.memo["dense.columns"]
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
# The lane evaluator, bit for bit against eval_expr
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
def lane_states(draw):
    """A dense state over a chain of 1-4 threads, a variable per kind
    spread along the chain and one held by every thread."""
    count = draw(st.integers(1, 4))
    chain = ROOT_CHAIN.extend("s", count)
    state = make_state(DENSE)
    for var in I_VARS:
        state = state.updated(var, Lanes(chain, draw(st.lists(
            st.sampled_from(INTS), min_size=count, max_size=count))))
    for var in R_VARS:
        state = state.updated(var, Lanes(chain, draw(st.lists(
            st.sampled_from(REALS), min_size=count, max_size=count))))
    state = state.updated(I_VARS[1], {EMPTY: draw(st.sampled_from(INTS))})
    return state, chain


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
        lanes = state.lanes(expr, chain)
    want = per_thread(expr, state, chain)
    if lanes is None:
        return
    assert not isinstance(want, Exception), want
    got = lanes.python()
    assert [type(v) for v in got] == [type(v) for v in want]
    assert [bits(v) for v in got] == [bits(v) for v in want]


@settings(max_examples=300, deadline=None)
@given(lane_states(), st.one_of(int_exprs(2), real_exprs(2)))
def test_lanes_decline_only_what_per_thread_fails_or_overflows(state_chain, expr):
    # a lane expression declines on a domain error or an int leaving int64;
    # whatever one evaluation per thread completes inside int64 must batch
    state, chain = state_chain
    want = per_thread(expr, state, chain)
    if isinstance(want, Exception) or any(
            type(v) is int and not -BIG <= v < BIG for v in want):
        return
    if _int_nodes_stay_small(expr, state, chain):
        assert state.lanes(expr, chain) is not None


def _int_nodes_stay_small(expr, state, chain) -> bool:
    """Every int literal and int node on every thread is below 2**62 in
    magnitude, so no conservative overflow test can decline it."""
    nodes = []

    def walk(e):
        if isinstance(e, IntLit):
            nodes.append(e)
        if isinstance(e, PrimOp):
            nodes.append(e)
            for a in e.args:
                walk(a)
    walk(expr)
    for node in nodes:
        values = per_thread(node, state, chain)
        if isinstance(values, Exception):
            return False
        if any(type(v) is int and abs(v) >= 2 ** 62 for v in values):
            return False
        if isinstance(node, PrimOp) and node.op == "mul" and any(type(v) is int for v in values):
            operands = [per_thread(a, state, chain) for a in node.args]
            if any(abs(a * b) >= 2 ** 62 for a, b in zip(*operands)):
                return False
    return True


def test_literal_arguments_stay_scalars_and_empty_chains_do_nothing():
    x = Variable("x", REAL)
    chain = ROOT_CHAIN.extend("s", 3)
    state = make_state(DENSE).updated(x, Lanes(chain, [1.0, 2.0, 3.0]))
    expr = PrimOp("normal_logpdf", (Var(x), RealLit(0.0), RealLit(1.0)))
    lanes = state.lanes(expr, chain)
    assert isinstance(lanes.data, np.ndarray)
    assert lanes.python() == [eval_expr(expr, lambda v: state.read(v, i))
                              for i in chain]
    assert state.lanes(expr, EMPTY_CHAIN) is None
    # an index whose lanes all agree fetches once per lane on a narrow chain
    # and is hashed as one Python int on a wide one
    index = IndexExpr((("z", PrimOp("const", (IntLit(2),))),))
    db = Rdb({}, "normal", 0.0, 7)
    assert state.fetched(index, chain, db) is None
    wide = ROOT_CHAIN.extend("s", FETCH_MIN_LANES)
    assert state.fetched(index, wide, db).python() == \
        [db.lookup(Index((("z", 2),)))] * FETCH_MIN_LANES


def test_columns_are_built_once_per_chain():
    chain = ROOT_CHAIN.extend("a", 2).extend("b", 3)
    groups = _columns(chain)
    assert _columns(chain) is groups
    assert len(groups) == 1 and groups[0].names == ("a", "b")
    assert groups[0].matrix.tolist() == [list(i.lookup(n) for n in "ab")
                                         for i in chain]


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
        fetched = state.fetched(index, chain, db)
    if len(chain) < FETCH_MIN_LANES:
        assert fetched is None
    else:
        assert [bits(v) for v in fetched.python()] == want


def test_fetch_declines_a_repeated_string_and_a_declining_pair():
    chain = ROOT_CHAIN.extend("s", FETCH_MIN_LANES)
    state = make_state(DENSE)
    db = Rdb({}, "normal", 0.0, 1)
    one = IntLit(1)
    assert state.fetched(IndexExpr((("a", one), ("a", one))), chain, db) is None
    n = Variable("n", INT)
    state = state.updated(n, Lanes(chain, [0] * FETCH_MIN_LANES))
    assert state.fetched(IndexExpr((("a", PrimOp("mod", (one, Var(n)))),)),
                         chain, db) is None
    assert state.fetched(IndexExpr((("a", Var(n)),)), chain, db) is not None


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


PARTIAL = ("{init}; for t:int in range(3) {{ ifz lt(t:int, 1) {{ {one} }} "
           "else {{ skip }}; score({expr}) }}")


@pytest.mark.parametrize("init, one, expr, message", [
    ("y := 0.0", "y := 1.0", "log(y)", "log(0.0,)"),
    ("y := 0.0", "y := 1.0", "div(1.0, y)", "div(1.0, 0.0)"),
    ("n:int := 0", "n:int := 1", "to_real(mod(5, n:int))", "mod(5, 0)"),
    ("y := 0.0", "y := 1.0", "normal_logpdf(0.0, 0.0, y)",
     "normal_logpdf(0.0, 0.0, 0.0)"),
])
def test_partial_operator_reproducers_fail_as_on_sparse(init, one, expr, message):
    program = vectorise(parse(PARTIAL.format(init=init, one=one, expr=expr)))
    sparse, dense = both_backends(program)
    assert sparse == dense == ("PrimitiveDomainError",
                               f"{message} outside the operator's domain"
                               " at target run")


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
