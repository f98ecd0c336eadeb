import random

import numpy as np
import pytest

from _spec import decode, to_csv
from _support import rand_chain, rand_tensor
from vecloop.dense import dense_encode
from vecloop.errors import NegativeComponent, UnknownString
from vecloop.indices import EMPTY, Index
from vecloop.pmap import PMap
from vecloop.state import SparseState, make_state
from vecloop.syntax import INT, Variable


def grid_fixture():
    """Two-axis broadcast map: a scalar, a vector over alpha, a matrix."""
    entries = {EMPTY: 0.5}
    for i in range(10):
        entries[Index((("alpha", i),))] = 1.0 + i
    for i in range(10):
        for j in range(9):
            entries[Index((("alpha", i), ("beta", j)))] = 100.0 + 10 * i + j
    return PMap(entries)


def test_grid_fixture_shape_and_cells():
    dense = dense_encode(grid_fixture(), {"alpha": 0, "beta": 1})
    assert dense.cells.shape == (11, 10)
    assert dense.cells[-1, -1] == 0.5
    for i in range(10):
        assert dense.cells[i, -1] == 1.0 + i
    for j in range(9):
        assert dense.cells[-1, j] == 0.5
    for i in range(10):
        for j in range(9):
            assert dense.cells[i, j] == 100.0 + 10 * i + j


def test_grid_fixture_decode_matches_extend_everywhere():
    m = grid_fixture()
    dense = dense_encode(m, {"alpha": 0, "beta": 1})
    checked = 0
    for i in list(range(10)) + [None]:
        for j in list(range(9)) + [None]:
            pairs = []
            if i is not None:
                pairs.append(("alpha", i))
            if j is not None:
                pairs.append(("beta", j))
            probe = Index(tuple(pairs))
            assert decode(dense, probe) == m.extend_eval(probe)
            checked += 1
    assert checked == 110


def test_encode_errors():
    with pytest.raises(UnknownString):
        dense_encode(PMap({Index((("gamma", 0),)): 1.0}), {"alpha": 0})
    with pytest.raises(NegativeComponent):
        dense_encode(PMap({Index((("alpha", -1),)): 1.0}), {"alpha": 0})
    dense = dense_encode(PMap({EMPTY: 1.0}), {"alpha": 0})
    with pytest.raises(UnknownString):
        decode(dense, Index((("gamma", 0),)))


def test_scalar_broadcast():
    dense = dense_encode(PMap({EMPTY: 5.0}), {"alpha": 0})
    assert dense.cells.shape == (1,)
    assert decode(dense, Index((("alpha", 3),))) == 5.0


def test_roundtrip_random_maps():
    # 200 random two-string maps; the sparse read is the oracle
    rng = random.Random(11)
    dims = {"a": 0, "b": 1}
    for _ in range(200):
        entries = {}
        if rng.random() < 0.9:
            entries[EMPTY] = rng.randint(0, 99) / 4.0
        for _ in range(rng.randint(0, 6)):
            pairs = []
            if rng.random() < 0.7:
                pairs.append(("a", rng.randint(0, 3)))
            if rng.random() < 0.7:
                pairs.append(("b", rng.randint(0, 3)))
            entries[Index(tuple(pairs))] = rng.randint(0, 99) / 4.0
        m = PMap(entries)
        dense = dense_encode(m, dims)
        for i in [None] + list(range(4)):
            for j in [None] + list(range(4)):
                pairs = []
                if i is not None:
                    pairs.append(("a", i))
                if j is not None:
                    pairs.append(("b", j))
                probe = Index(tuple(pairs))
                assert decode(dense, probe) == m.extend_eval(probe)


def test_csv_dump_has_axis_header():
    dense = dense_encode(PMap({EMPTY: 1.0, Index((("a", 0),)): 2.0}),
                         {"a": 0})
    lines = to_csv(dense).splitlines()
    assert lines[0] == "a,value"
    assert lines[1] == "0,2.0"
    assert lines[-1] == "-1,1.0"


def test_dense_state_matches_sparse_on_random_ops():
    # random walk of the operations an execution can perform: extend the
    # chain with a fresh string, write a tensor, shift, or exit a level
    from vecloop.indices import ROOT_CHAIN
    from vecloop.target_interp import exit_rho, shift_rho

    rng = random.Random(12)
    x = Variable("x", "real")
    n = Variable("n", INT)
    for _ in range(150):
        sparse = SparseState()
        dense = make_state("dense")
        stack = [(ROOT_CHAIN, None, None)]
        names = iter(f"s{k}" for k in range(10))
        for _ in range(rng.randint(2, 10)):
            sparse_prev, dense_prev = sparse, dense
            chain, _, _ = stack[-1]
            roll = rng.random()
            if roll < 0.3 and len(stack) < 4:
                name, count = next(names), rng.randint(1, 3)
                stack.append((chain.extend(name, count), name, count))
            elif roll < 0.7:
                var = x if rng.random() < 0.7 else n
                tensor = {
                    i: (rng.randint(-3, 3) if var is n
                        else round(rng.uniform(-4, 4), 3))
                    for i in chain
                }
                sparse = sparse.updated(var, tensor)
                dense = dense.updated(var, tensor)
            elif roll < 0.85 and len(stack) > 1:
                rho = shift_rho(chain, stack[-1][1])
                sparse = sparse.copied(rho)
                dense = dense.copied(rho)
            elif len(stack) > 1:
                _, name, count = stack.pop()
                rho = exit_rho(stack[-1][0], name, count)
                sparse = sparse.copied(rho)
                dense = dense.copied(rho)
            assert (sparse_prev.same_function(sparse)
                    == dense_prev.same_function(dense))
        probes = {i for v in sparse.variables() for i in sparse.cell(v).domain()}
        probes.update(chain for chain, _, _ in stack for chain in chain)
        for probe in sorted(probes, key=lambda i: i.sort_key()):
            for var in (x, n):
                assert sparse.read(var, probe) == dense.read(var, probe), \
                    (var, probe.text())


def test_dense_same_function_tracks_sparse_equality():
    rng = random.Random(13)
    x = Variable("x", "real")
    for _ in range(100):
        chain = rand_chain(rng)
        tensor = rand_tensor(rng, chain).entries
        s0, d0 = SparseState(), make_state("dense")
        s1 = s0.updated(x, tensor)
        d1 = d0.updated(x, tensor)
        assert s0.same_function(s1) == d0.same_function(d1)
        assert d1.same_function(d1)
        # a redundant rewrite of represented values is still a fixpoint
        again = {i: s1.read(x, i) for i in chain}
        s2, d2 = s1.updated(x, again), d1.updated(x, again)
        assert s1.same_function(s2)
        assert d1.same_function(d2)


def test_copy_trims_only_bit_identical_axes():
    # 0.0 == -0.0, but a trimmed axis must leave every read bit-identical
    from vecloop.indices import ROOT_CHAIN
    from vecloop.target_interp import shift_rho

    x = Variable("x", "real")
    chain = ROOT_CHAIN.extend("s", 2)
    rho = shift_rho(chain, "s")
    for state in (SparseState(), make_state("dense")):
        moved = state.updated(x, dict.fromkeys(chain, -0.0)).copied(rho)
        assert [str(moved.read(x, i)) for i in chain] == ["0.0", "-0.0"]
    # the dense copy grouped rho's sources and targets once, kept with rho
    grouped = rho.derived["dense.columns"]
    make_state("dense").updated(x, {EMPTY: 1.0}).copied(rho)
    assert rho.derived["dense.columns"] is grouped


def test_dense_map_same_function_matches_pmap():
    # pairs of maps whose axes, extents or axis orders differ; the sparse
    # comparison is the oracle
    rng = random.Random(14)

    def value():
        return rng.randint(0, 2) / 2

    def pairs(nested):
        a, b = ("a", rng.randint(0, 2)), ("b", rng.randint(0, 2))
        return rng.choice([(a,), (b,), (a, b)] if nested else [(a,), (b,)])

    def encode(m, nested):
        names = [n for n in ("a", "b", "c") if any(i.lookup(n) is not None
                                              for i in m.domain())]
        if not nested:
            rng.shuffle(names)
        return dense_encode(m, {n: k for k, n in enumerate(names)})

    outcomes = set()
    for _ in range(400):
        nested = rng.random() < 0.5
        m1 = PMap({EMPTY: value(), **{Index(pairs(nested)): value()
                                      for _ in range(rng.randint(0, 4))}})
        entries = dict(m1.entries)
        for _ in range(rng.randint(0, 2)):
            deeper = nested and rng.random() < 0.3
            i = Index(pairs(nested) + ((("c", 0),) if deeper else ()))
            # a redundant entry changes the axes, not the function
            entries[i] = m1.extend_eval(i) if rng.random() < 0.7 else value()
        m2 = PMap(entries)
        d1, d2 = encode(m1, nested), encode(m2, nested)
        want = m1.same_function(m2)
        assert d1.same_function(d2) == want == d2.same_function(d1)
        outcomes.add((want, d1.axes == d2.axes))
    assert outcomes == {(True, True), (True, False), (False, True),
                        (False, False)}


def test_dense_grids_use_int_dtype_for_int_vars():
    n = Variable("n", INT)
    dense = make_state("dense").updated(n, {EMPTY: 3})
    assert dense.grid(n).dtype == np.int64
    assert dense.read(n, Index((("a", 1),))) == 3


def test_final_dense_grids_of_generated_programs_are_constant():
    # every loop axis is exhausted by the time a vectorised run returns to
    # the root chain, so each final grid holds one value, and the exit
    # copies have dropped every axis
    from vecloop.harness import GenConfig, gen_program, gen_rdb
    from vecloop.target_interp import run_tgt
    from vecloop.translate import vectorise

    for seed in range(300):
        program = vectorise(gen_program(GenConfig(seed=seed)))
        final = run_tgt(program, gen_rdb(seed), backend="dense").state
        for var in final.variables():
            grid = final.grid(var)
            assert (grid == grid.flat[0]).all(), (seed, var.text())
            assert final.cells[var].axes == (), (seed, var.text())


def test_axis_growth_reads_match_sparse():
    # a read at an integer an axis did not have before stops there, so
    # it gives the all-absent cell on every later axis
    x, y = Variable("x", "real"), Variable("y", "real")
    a = [Index((("a", k),)) for k in range(4)]
    b0 = Index((("b", 0),))
    probe = Index((("a", 2), ("b", 0)))
    writes = [(x, {a[0]: 1.0}), (x, {b0: 5.0}), (y, {a[3]: 2.0})]
    sparse, dense = SparseState(), make_state("dense")
    for var, tensor in writes:
        sparse, dense = sparse.updated(var, tensor), dense.updated(var, tensor)
    assert sparse.read(x, probe) == dense.read(x, probe) == 0.0
    grown = dense.updated(x, {a[3]: 2.0})
    assert grown.read(x, probe) == 0.0
    assert grown.read(x, b0) == 5.0
    encoded = make_state("dense", sparse.cells)
    for i in (probe, b0, a[0], a[3], EMPTY):
        for var in (x, y):
            assert encoded.read(var, i) == sparse.read(var, i), (var, i.text())
