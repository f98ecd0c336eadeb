"""The prefix-walk PMap operations against their scan definitions.

`max_below`, `in_up` and `in_down` in `_spec` define extend, the
written region and the downward closure by scanning every candidate.  The
interpreters walk an index's own prefixes instead, and take fast paths
(column reads, the equal-entries check); these properties check that both
give the same maps on random PMaps, antichains and the relocations loops
make.
"""

import math

from hypothesis import assume, given, strategies as st

from _spec import in_down, in_up, max_below
from vecloop.dense import dense_encode
from vecloop.errors import AxisOrderConflict
from vecloop.indices import EMPTY, AChain, Index, prefix_leq
from vecloop.ops import same_value
from vecloop.pmap import SHIFT, PMap
from vecloop.state import Lanes
from vecloop.target_interp import exit_rho, shift_rho

NAMES = "abc"

indexes = st.lists(
    st.tuples(st.sampled_from(NAMES), st.integers(0, 3)),
    max_size=3, unique_by=lambda pair: pair[0],
).map(lambda pairs: Index(tuple(pairs)))
# few distinct values, so that entries often repeat what a prefix holds
pmaps = st.dictionaries(indexes, st.integers(-2, 2), max_size=8).map(PMap)
# values equal under `same_value` but not all alike: an int and a float,
# both zeros, NaN, inf
SPECIAL = (0, 1, 0.0, -0.0, math.nan, math.inf)
special_pmaps = st.dictionaries(indexes, st.sampled_from(SPECIAL),
                                max_size=8).map(PMap)


def maximal(items) -> AChain:
    """The antichain of the prefix-maximal members of `items`."""
    items = set(items)
    return AChain(i for i in items
                  if not any(i != j and prefix_leq(i, j) for j in items))


antichains = st.lists(indexes, max_size=8).map(maximal)
# Shift tells a slot in the chain's downward closure from a chain member
# only when one member extends another member's predecessor slot.  Few
# strings and values make such chains common.
shift_indexes = st.lists(
    st.tuples(st.sampled_from("ab"), st.integers(0, 1)),
    max_size=3, unique_by=lambda pair: pair[0],
).map(lambda pairs: Index(tuple(pairs)))
shift_chains = st.lists(shift_indexes, max_size=6).map(maximal)


@st.composite
def relocations(draw):
    """An injective map between indices, as `copied` expects."""
    sources = draw(st.lists(indexes, max_size=5, unique=True))
    targets = draw(st.lists(indexes, min_size=len(sources),
                            max_size=len(sources), unique=True))
    return dict(zip(sources, targets))


def extend_by_scan(entries, i: Index):
    best = max_below(entries, i)
    return None if best is None else entries[best]


def copied_by_scan(entries, rho):
    """A slot whose source holds no entry is repaired when its read in the
    relocated map differs, under != or as a zero of the other sign, from
    its source's read, unless both reads come from one entry the
    relocation kept: a NaN differs from itself under !=, and such a slot
    reads that NaN already."""
    image = {target: source for source, target in rho.items()}
    new = {t: entries[s] for t, s in image.items() if s in entries}
    new.update((i, v) for i, v in entries.items() if not in_up(i, image))
    base = dict(new)
    for target in sorted(image, key=Index.sort_key):
        source = image[target]
        if source in entries:
            continue
        at = max_below(entries, source)
        if at is None or (at not in image and at == max_below(base, target)):
            continue
        value, read = entries[at], extend_by_scan(base, target)
        if read != value or (value == 0 and str(read).startswith("-")
                             != str(value).startswith("-")):
            new[target] = value
    return new


def canonical_by_scan(entries):
    kept = dict(entries)
    for i in sorted(entries, key=len, reverse=True):
        if len(i) == 0:
            continue
        nearest = max_below((j for j in kept if j != i), i)
        if nearest is not None and same_value(kept[nearest], entries[i]):
            del kept[i]
    return kept


def same_function_by_scan(a, b):
    """Equal canonical forms, under `same_value`."""
    mine, theirs = canonical_by_scan(a), canonical_by_scan(b)
    return mine.keys() == theirs.keys() and all(
        same_value(mine[i], theirs[i]) for i in mine)


def shift_rho_by_scan(chain: AChain, name: str):
    rho = {}
    for target in chain:
        if not target.pairs or target.pairs[-1][0] != name:
            continue
        k = target.pairs[-1][1]
        if k == 0:
            rho[target.parent()] = target
        else:
            source = target.parent().append(name, k - 1)
            if in_down(source, chain.members):
                rho[source] = target
    return rho


@given(pmaps, indexes)
def test_extend_eval_matches_max_below(cell, i):
    assert cell.extend_eval(i) == extend_by_scan(cell.entries, i)


@given(pmaps, antichains, st.integers(-2, 2))
def test_updated_keeps_old_entries_outside_written_region(cell, chain, value):
    tensor = PMap({i: value for i in chain})
    expected = dict(tensor.entries)
    expected.update((i, v) for i, v in cell.entries.items()
                    if not in_up(i, tensor.entries))
    assert cell.updated(tensor).entries == expected


@given(pmaps, relocations())
def test_copied_matches_scan(cell, rho):
    assert cell.copied(rho).entries == copied_by_scan(cell.entries, rho)


@given(st.one_of(pmaps, special_pmaps))
def test_canonical_matches_longest_first_scan(cell):
    assert cell.canonical().entries == canonical_by_scan(cell.entries)


@given(pmaps, st.lists(indexes, max_size=8), st.booleans())
def test_column_matches_extend_by_scan(cell, indices, as_chain):
    # any iterable of indices, a chain too, read in its own order
    if as_chain:
        indices = maximal(indices)
    assert cell.column(indices) == [extend_by_scan(cell.entries, i)
                                    for i in indices]
    assert cell.column(iter(indices)) == cell.column(list(indices))


def alike(value):
    """A value equal to `value` under `same_value`, stored differently
    where it can be: a fresh NaN object, the other zero, a float for an
    int."""
    if value != value:
        return float("nan")
    if value == 0:
        return -0.0 if math.copysign(1.0, value) > 0 else 0.0
    return float(value)


@given(special_pmaps, special_pmaps,
       st.sampled_from(["drawn", "padded", "revalued"]), st.data())
def test_same_function_matches_canonical_scan(cell, other, how, data):
    if how == "padded":
        # the same function as `cell`, stored with more entries, each one a
        # read of `cell` stored differently
        reads = {i: cell.extend_eval(i) for i in [*other.entries, *cell.entries]}
        other = PMap({i: alike(v) for i, v in reads.items() if v is not None})
    elif how == "revalued":
        # the same keys, each value drawn again
        other = PMap({i: data.draw(st.sampled_from(SPECIAL))
                      for i in cell.entries})
    expected = same_function_by_scan(cell.entries, other.entries)
    assert expected or how != "padded"
    assert cell.same_function(other) == expected
    assert other.same_function(cell) == expected
    assert cell.same_function(PMap(cell.entries))


# few distinct values, and the floats that != and `same_value` tell apart
loop_values = st.one_of(st.integers(-2, 2),
                        st.sampled_from((0.0, -0.0, math.nan, math.inf)))


@st.composite
def loop_copies(draw):
    """A map and a relocation that a loop makes: the shift of a chain
    extended by one or two strings, or the exit back to its parent, with
    entries drawn from the chain's downward closure and anywhere."""
    chain = draw(antichains)
    chains = [chain]
    for name in draw(st.lists(st.sampled_from("xy"), min_size=1, max_size=2,
                              unique=True)):
        chains.append(chains[-1].extend(name, draw(st.integers(1, 3))))
    moves = []
    for parent, inner in zip(chains, chains[1:]):
        _, name, count = inner.origin
        moves += [shift_rho(inner, name), exit_rho(parent, name, count)]
    rho = draw(st.sampled_from(moves))
    closure = sorted({p for i in chains[-1] for p in i.prefixes()} | {EMPTY},
                     key=Index.sort_key)
    entries = draw(st.dictionaries(st.one_of(st.sampled_from(closure), indexes),
                                   loop_values, max_size=10))
    return PMap(entries), rho


@given(loop_copies())
def test_copied_matches_scan_on_loop_relocations(case):
    # a shift repairs nothing and an exit only slots that held an entry,
    # an entry holding NaN always; as a plain mapping, `rho` takes the
    # general path, which agrees with the scan up to such NaN repairs
    cell, rho = case
    copied = cell.copied(rho)
    assert copied.entries == copied_by_scan(cell.entries, rho)
    assert copied.same_function(cell.copied(dict(rho)))


@given(loop_copies(), st.booleans(), st.lists(indexes, max_size=4))
def test_dense_copy_leaves_a_grid_without_the_axis_as_it_is(case, strip,
                                                            others):
    # without an axis for the string a loop moves along, every source reads
    # what its target reads, and so does every index above a shift's
    # target; above an exit's target too, when the target's strings are
    # all the grid's axes.  Else the copy gathers, scatters and trims.
    cell, rho = case
    entries = {i: v for i, v in cell.entries.items()
               if not (strip and rho.name in i.names())}
    entries.setdefault(EMPTY, 0)
    try:
        grid = dense_encode(PMap(entries))
        full = grid.copied(dict(rho))
    except AxisOrderConflict:
        assume(False)
    moved = grid.copied(rho)
    covered = rho.kind == SHIFT or all(set(grid.axes) <= set(t.names())
                                       for t in rho.values())
    assert (moved is grid) == (rho.name not in grid.axes and covered)
    probes = {p for i in [*rho, *rho.values(), *entries, *others]
              for p in i.prefixes()}
    probes |= {t.concat(i) for t in rho.values() for i in others
               if not set(t.names()) & set(i.names())}
    for p in probes:
        assert repr(moved.read(p)) == repr(full.read(p)), p.text()


@given(pmaps, antichains, st.data())
def test_updated_from_lanes_matches_updated_from_a_pmap(cell, chain, data):
    values = data.draw(st.lists(st.integers(-2, 2), min_size=len(chain),
                                max_size=len(chain)))
    lanes = Lanes(chain, values)
    assert cell.updated(lanes) == cell.updated(PMap(dict(zip(chain, values))))


@given(shift_chains, st.sampled_from("ab"))
def test_shift_rho_matches_in_down(chain, name):
    assert shift_rho(chain, name) == shift_rho_by_scan(chain, name)


@given(antichains, st.sampled_from(NAMES), st.integers(1, 3))
def test_shift_rho_matches_in_down_on_extended_chains(chain, name, count):
    # the chains loops shift over: every member ends in the shifted string
    assume(all(i.lookup(name) is None for i in chain))
    extended = chain.extend(name, count)
    assert shift_rho(extended, name) == shift_rho_by_scan(extended, name)
