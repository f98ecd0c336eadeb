import copy
import pickle
import random
import weakref
from dataclasses import FrozenInstanceError
from operator import attrgetter

import pytest
from hypothesis import given, strategies as st

from _spec import in_down, in_up, max_below
from vecloop import indices
from vecloop.errors import (DuplicateIndexString, StringAlreadyPresent,
                            ThreadBudgetExceeded)
from vecloop.indices import (EMPTY, AChain, Index, ROOT_CHAIN, is_antichain,
                             prefix_leq)


def idx(*pairs):
    return Index(tuple(pairs))


A0 = idx(("a", 0))
A1 = idx(("a", 1))
AB = idx(("a", 0), ("b", 1))


def test_prefix_examples():
    assert prefix_leq(EMPTY, A0)
    assert prefix_leq(A0, AB)
    assert not prefix_leq(A0, A1)


def test_index_rejects_repeated_strings():
    with pytest.raises(DuplicateIndexString):
        idx(("a", 0), ("a", 1))
    with pytest.raises(DuplicateIndexString):
        AB.append("a", 2)
    with pytest.raises(DuplicateIndexString):
        A0.concat(idx(("b", 0), ("a", 1)))
    assert A0.append("b", 1) == AB
    assert A0.concat(idx(("b", 1))) == AB


def test_index_is_immutable():
    with pytest.raises(FrozenInstanceError):
        AB.pairs = ()
    with pytest.raises(FrozenInstanceError):
        AB.extra = 1
    with pytest.raises(FrozenInstanceError):
        del AB.pairs
    assert AB.pairs == (("a", 0), ("b", 1))


def test_index_survives_pickle_and_copy():
    for clone in (pickle.loads(pickle.dumps(AB)), copy.deepcopy(AB)):
        assert clone is AB


def test_max_below_examples():
    assert max_below({EMPTY, A1}, idx(("a", 1), ("b", 0))) == A1
    assert max_below({EMPTY}, A0) == EMPTY
    assert max_below({A0}, idx(("b", 0))) is None


def test_closure_membership():
    assert in_up(AB, {A0})
    assert in_down(EMPTY, {A0})
    assert not in_up(EMPTY, {A0})


def test_is_antichain():
    assert is_antichain({A0, A1})
    assert not is_antichain({EMPTY, A0})
    assert is_antichain(set())


def test_extend_indices():
    vec = ROOT_CHAIN.extend("vec", 3)
    assert set(vec.members) == {idx(("vec", k)) for k in range(3)}
    two = AChain([idx(("s", 0)), idx(("s", 1))]).extend("t", 2)
    assert len(two) == 4
    with pytest.raises(StringAlreadyPresent):
        AChain([idx(("vec", 0))]).extend("vec", 2)


def test_lookup_string():
    assert idx(("vec", 7)).lookup("vec") == 7
    assert EMPTY.lookup("vec") is None
    assert idx(("a", 1), ("b", 2)).lookup("b") == 2


def test_extend_refuses_chains_over_the_thread_budget(monkeypatch):
    # checked before anything is built: ten million indices never exist
    with pytest.raises(ThreadBudgetExceeded):
        ROOT_CHAIN.extend("a", 10**7)
    wide = ROOT_CHAIN.extend("a", 2000)
    with pytest.raises(ThreadBudgetExceeded):
        wide.extend("b", 2000)
    monkeypatch.setattr(indices, "THREAD_BUDGET", 6)
    assert len(AChain([A0, A1]).extend("b", 3)) == 6
    with pytest.raises(ThreadBudgetExceeded):
        AChain([A0, A1]).extend("b", 4)


def test_achain_iterates_in_sort_key_order():
    chain = AChain([idx(("b", 0)), A1, idx(("a", 0), ("c", 2)), A0.append("c", 1)])
    expected = sorted(chain.members, key=Index.sort_key)
    assert list(chain) == expected
    assert list(chain) == expected  # the cached order is reused unchanged


def test_achain_rejects_comparable_members():
    with pytest.raises(ValueError):
        AChain([EMPTY, A0])


pairs = st.lists(
    st.tuples(st.sampled_from("abcd"), st.integers(0, 5)),
    max_size=4,
).filter(lambda ps: len({n for n, _ in ps}) == len(ps))
indexes = pairs.map(lambda ps: Index(tuple(ps)))


@given(indexes)
def test_unchecked_prefixes_equal_checked_indices(i):
    # prefix, prefixes and parent skip the distinct-names check
    n = len(i)
    walked = list(i.prefixes())
    assert [len(p) for p in walked] == list(range(n, -1, -1))
    for length in range(n + 1):
        fresh = Index(i.pairs[:length])
        for built in (i.prefix(length), walked[n - length]):
            assert built == fresh and fresh == built
            assert hash(built) == hash(fresh)
            assert {built: 1}[fresh] == 1
    if n:
        assert i.parent() == Index(i.pairs[:-1])
        assert hash(i.parent()) == hash(Index(i.pairs[:-1]))


def check_prefix_cache(i: Index) -> None:
    """The cached prefixes agree with the slice definitions, end in EMPTY,
    share the shorter ones, and never hold the index itself."""
    n = len(i)
    assert i.prefixes() == tuple(Index(i.pairs[:k]) for k in range(n, -1, -1))
    assert Index(i.pairs) is i
    assert pickle.dumps(i) == pickle.dumps(Index(i.pairs))
    proper = i.proper_prefixes()
    assert all(p is not i for p in proper)
    if n:
        assert i.parent() == Index(i.pairs[:-1]) and i.parent() is proper[0]
        assert proper[-1] is EMPTY
    for k, p in enumerate(proper):
        assert all(a is b for a, b in zip(p.proper_prefixes(), proper[k + 1:],
                                          strict=True))


@given(indexes, st.sampled_from("efgh"), st.integers(0, 5), st.data())
def test_every_constructor_returns_the_one_index_over_its_pairs(i, name,
                                                                value, data):
    child = i.pairs + ((name, value),)
    # an index built before its chain is the one the chain holds
    first = Index(i.pairs + ((name, 0),))
    chain = AChain([i]).extend(name, value + 1)
    flags = data.draw(st.lists(st.booleans(), min_size=len(chain),
                               max_size=len(chain)))
    assert chain._order[0] is first
    built = [i.append(name, value), i.concat(Index(((name, value),))),
             *(i.prefix(n) for n in range(len(i) + 2)), *i.proper_prefixes(),
             *chain, *(j for part in chain.compress(flags) for j in part)]
    if i.pairs:
        built.append(i.parent())
    for j in built:
        assert Index(j.pairs) is j
    assert built[0] is built[1] is Index(child) is chain._order[value]
    assert pickle.loads(pickle.dumps(i)) is i and copy.deepcopy(i) is i


def test_the_intern_table_keeps_no_index_alive_and_stays_bounded():
    member = weakref.ref(ROOT_CHAIN.extend("t", 10_000)._order[-1])
    assert member() is None
    indices._sweep()
    live = len(indices._TABLE)
    for n in range(10):
        ROOT_CHAIN.extend(f"t{n}", 10_000)
    # 100,000 indices were interned; the table swept the dead ones
    assert len(indices._TABLE) <= max(2 * (live + 10_000),
                                      indices._SWEEP_FLOOR)


OPS = ("append", "concat", "prefix", "parent", "extend", "partition",
       "compress", "pickle", "deepcopy")


@given(indexes, st.lists(st.sampled_from(OPS), max_size=5), st.data())
def test_prefix_cache_through_every_constructor(i, ops, data):
    check_prefix_cache(i)
    for op in ops:
        fresh = [name for name in "efghijklm" if i.lookup(name) is None]
        name, value = data.draw(st.sampled_from(fresh)), data.draw(st.integers(0, 5))
        if op == "append":
            i = i.append(name, value)
        elif op == "concat":
            i = i.concat(Index(((name, value), (name.upper(), value))))
        elif op == "prefix":
            i = i.prefix(data.draw(st.integers(0, len(i) + 1)))
        elif op == "parent" and i.pairs:
            i = i.parent()
        elif op in ("extend", "partition", "compress"):
            chain = AChain([i]).extend(name, data.draw(st.integers(1, 4)))
            if op == "partition":
                parts = chain.partition(lambda j: j.pairs[-1][1] % 2 == 0)
            elif op == "compress":
                parts = chain.compress(data.draw(st.lists(
                    st.booleans(), min_size=len(chain), max_size=len(chain))))
            else:
                parts = (chain,)
            member = data.draw(st.sampled_from([j for part in parts for j in part]))
            # a member's children start their prefixes with the member
            assert member.parent() is (i if i.pairs else EMPTY)
            i = member
        elif op == "pickle":
            i = pickle.loads(pickle.dumps(i))
        elif op == "deepcopy":
            i = copy.deepcopy(i)
        check_prefix_cache(i)


@st.composite
def cut_bases(draw):
    """A chain that `extend` built, up to three strings deep, or one built
    by hand from any indices, keeping those no other one extends."""
    if draw(st.booleans()):
        chain = ROOT_CHAIN
        for name in draw(st.lists(st.sampled_from("abc"), max_size=3,
                                  unique=True)):
            chain = chain.extend(name, draw(st.integers(0, 3)))
        return chain
    items = set(draw(st.lists(indexes, max_size=10)))
    return AChain(i for i in items
                  if not any(i != j and prefix_leq(i, j) for j in items))


@given(cut_bases(), st.integers(1, 3), st.data())
def test_nested_cuts_keep_their_rows_in_the_first_base(base, depth, data):
    assert base.part is None
    chain = base
    for _ in range(depth):
        flags = data.draw(st.lists(st.booleans(), min_size=len(chain),
                                   max_size=len(chain)))
        parts = chain.compress(flags)
        assert [list(part) for part in parts] == [
            [i for i, f in zip(chain, flags) if f == keep]
            for keep in (True, False)]
        for part in parts:
            # an empty part too records its base and its (no) rows
            first, rows = part.part
            assert first is base
            assert type(rows) is tuple
            assert [list(base)[r] for r in rows] == list(part)
        chain = data.draw(st.sampled_from(parts))


@given(cut_bases(), st.lists(st.tuples(st.sampled_from("xy"),
                                       st.integers(0, 3)),
                             min_size=1, max_size=2, unique_by=lambda p: p[0]),
       st.data())
def test_extend_and_compress_build_their_chains_in_order(base, steps, data):
    # no sort after an extend or a cut: each hands its chain the order it
    # built, which must be the order a sort gives
    chain = base
    for name, count in steps:
        chain = chain.extend(name, count)
        assert "_order" in vars(chain)
        flags = data.draw(st.lists(st.booleans(), min_size=len(chain),
                                   max_size=len(chain)))
        for built in (chain, *chain.compress(flags)):
            assert built._order == tuple(sorted(built.members,
                                                key=attrgetter("pairs")))


@given(indexes, indexes, indexes)
def test_prefix_order_is_a_partial_order(i, j, k):
    assert prefix_leq(i, i)
    if prefix_leq(i, j) and prefix_leq(j, i):
        assert i == j
    if prefix_leq(i, j) and prefix_leq(j, k):
        assert prefix_leq(i, k)


@given(st.lists(indexes, min_size=1, max_size=6), indexes)
def test_max_below_total_with_root(pool, i):
    pool = set(pool) | {EMPTY}
    best = max_below(pool, i)
    assert best is not None
    below = [j for j in pool if prefix_leq(j, i)]
    for a in below:
        for b in below:
            assert prefix_leq(a, b) or prefix_leq(b, a)
    assert all(prefix_leq(j, best) for j in below)


def test_extension_stays_antichain_and_covers():
    rng = random.Random(6)
    for _ in range(100):
        base = ROOT_CHAIN.extend("a", rng.randint(1, 4))
        ext = base.extend("b", rng.randint(1, 4))
        assert is_antichain(ext.members)
        for i in ext:
            parents = [j for j in base if prefix_leq(j, i)]
            assert len(parents) == 1


def test_canonical_iteration_order():
    chain = AChain([A1, A0])
    assert list(chain) == [A0, A1]
    assert idx(("a", 0)).text() == '[("a",0)]'
    assert EMPTY.text() == "[]"
