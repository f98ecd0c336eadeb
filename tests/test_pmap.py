import random

import pytest
from hypothesis import given, strategies as st

from _spec import in_down, in_up
from _support import (oracle_copy, oracle_extend, oracle_update, probes_for,
                      rand_cell, rand_chain, rand_index, rand_tensor,
                      shift_shape_rho, var)
from vecloop.errors import EmptyIndexLost
from vecloop.indices import EMPTY, AChain, Index
from vecloop.pmap import PMap
from vecloop.state import SparseState
from vecloop.target_interp import shift_rho

RV = [Index((("rv", k),)) for k in range(3)]
X = var("x")


def fig4_cell():
    return PMap({EMPTY: 1, RV[1]: 3, RV[2]: 4})


def test_extend_examples():
    cell = fig4_cell()
    assert cell.extend_eval(RV[0]) == 1
    assert PMap({EMPTY: 6}).extend_eval(RV[2]) == 6
    assert PMap({Index((("a", 0),)): 5}).extend_eval(EMPTY) is None


def test_update_fixture_scalar_overwrite():
    updated = fig4_cell().updated(PMap({EMPTY: 6}))
    assert updated.entries == {EMPTY: 6}


def test_update_fixture_partial_overwrite():
    updated = fig4_cell().updated(PMap({RV[0]: 8, RV[2]: 9}))
    assert updated.entries == {EMPTY: 1, RV[0]: 8, RV[1]: 3, RV[2]: 9}


def test_update_empty_tensor_is_identity():
    state = SparseState({X: fig4_cell()})
    assert state.updated(X, {}) is state


def test_copy_fixture_shift_shape():
    rho = {EMPTY: RV[0], RV[0]: RV[1], RV[1]: RV[2]}
    copied = fig4_cell().copied(rho)
    assert copied.entries == {EMPTY: 1, RV[0]: 1, RV[2]: 3}


def test_copy_fixture_collapse():
    copied = fig4_cell().copied({RV[2]: EMPTY})
    assert copied.entries == {EMPTY: 4}


def test_copy_empty_rho_is_identity():
    state = SparseState({X: fig4_cell()})
    assert state.copied({}) is state


def test_copy_preserves_root_totality():
    # exit-style relocation whose source has no stored entry
    cell = PMap({EMPTY: 7.5})
    copied = cell.copied({Index((("a", 2),)): EMPTY})
    assert copied.extend_eval(EMPTY) == 7.5


def test_update_guards_malformed_cell():
    rootless = SparseState({X: PMap({RV[0]: 1.0})})
    with pytest.raises(EmptyIndexLost):
        rootless.updated(X, {RV[1]: 2.0})


def test_state_eq_on():
    state = SparseState({X: fig4_cell()})
    probes = [EMPTY] + RV
    assert state.eq_on(state, probes)
    bumped = state.updated(X, {RV[0]: 99})
    assert state.eq_on(bumped, [RV[1]])
    assert not state.eq_on(bumped, [RV[0]])


def test_canonical_drops_induced_entries():
    a = Index((("a", 0),))
    ab = Index((("a", 0), ("b", 0)))
    assert PMap({EMPTY: 1, a: 1, ab: 1}).canonical().entries == {EMPTY: 1}
    kept = PMap({EMPTY: 1, a: 2, ab: 2}).canonical()
    assert kept.entries == {EMPTY: 1, a: 2}


def test_canonical_is_representation_independent():
    rng = random.Random(2)
    for _ in range(200):
        cell = rand_cell(rng)
        # pad with entries the represented function already induces
        padded = dict(cell.entries)
        for _ in range(3):
            i = rand_index(rng)
            value = cell.extend_eval(i)
            if value is not None:
                padded[i] = value
        assert PMap(padded).canonical() == cell.canonical()
        assert cell.same_function(PMap(padded))


def test_update_matches_composite_of_extends():
    # the update equation, checked against brute-force oracles
    rng = random.Random(3)
    for _ in range(300):
        cell = rand_cell(rng)
        tensor = rand_tensor(rng, rand_chain(rng))
        updated = cell.updated(tensor)
        for probe in probes_for(rng, cell, tensor, extra=16):
            assert updated.extend_eval(probe) == \
                oracle_update(cell.entries, tensor.entries, probe)


def test_copy_matches_composite_of_extends():
    rng = random.Random(4)
    for _ in range(300):
        cell = rand_cell(rng)
        rho = shift_shape_rho(rng)
        copied = cell.copied(rho)
        for probe in probes_for(rng, cell, extra=16):
            assert copied.extend_eval(probe) == \
                oracle_copy(cell.entries, rho, probe)


def test_update_only_touches_covered_region():
    # writes are invisible outside the written region's upward closure
    rng = random.Random(5)
    for _ in range(300):
        cell = rand_cell(rng)
        tensor = rand_tensor(rng, rand_chain(rng))
        updated = cell.updated(tensor)
        outside = [p for p in probes_for(rng, cell, extra=32)
                   if not in_up(p, tensor.domain())]
        assert all(cell.extend_eval(p) == updated.extend_eval(p)
                   for p in outside)


def test_update_keeps_cell_domains_under_closure():
    rng = random.Random(6)
    for _ in range(200):
        chain = rand_chain(rng)
        cell = PMap({EMPTY: 0.0})
        tensor = rand_tensor(rng, chain)
        updated = cell.updated(tensor)
        assert all(in_down(i, chain) for i in updated.domain())


def test_extend_against_bruteforce():
    rng = random.Random(7)
    for _ in range(300):
        cell = rand_cell(rng)
        for probe in probes_for(rng, cell, extra=8):
            assert cell.extend_eval(probe) == oracle_extend(cell.entries, probe)


def _index_over(names, values):
    return st.lists(st.tuples(st.sampled_from(names), st.integers(0, values)),
                    max_size=3, unique_by=lambda pair: pair[0]
                    ).map(lambda pairs: Index(tuple(pairs)))


def _maximal(items) -> AChain:
    items = set(items)
    return AChain(i for i in items
                  if not any(i != j and in_up(j, [i]) for j in items))


@given(st.dictionaries(_index_over("abs", 2), st.integers(-2, 2), max_size=8),
       st.lists(_index_over("ab", 1), max_size=5).map(_maximal),
       st.integers(1, 3))
def test_copied_makes_no_repairs_on_shift(entries, chain, count):
    # Shift moves each slot to its next sibling, or a parent to its first
    # child, onto an antichain: every slot whose source holds no entry
    # already reads the source's value, so only stored entries move.
    rho = shift_rho(chain.extend("s", count), "s")
    image = {target: source for source, target in rho.items()}
    literal = {t: entries[s] for t, s in image.items() if s in entries}
    literal.update((i, v) for i, v in entries.items() if not in_up(i, image))
    assert PMap(entries).copied(rho).entries == literal
