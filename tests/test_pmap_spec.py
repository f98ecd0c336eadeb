"""The prefix-walk PMap operations against their scan definitions.

`max_below`, `in_up` and `in_down` in `_spec` define extend, the
written region and the downward closure by scanning every candidate.  The
interpreters walk an index's own prefixes instead; these properties check
that both give the same maps on random PMaps and antichains.
"""

from hypothesis import assume, given, strategies as st

from _spec import in_down, in_up, max_below
from vecloop.indices import AChain, Index, prefix_leq
from vecloop.pmap import PMap
from vecloop.target_interp import shift_rho

NAMES = "abc"

indexes = st.lists(
    st.tuples(st.sampled_from(NAMES), st.integers(0, 3)),
    max_size=3, unique_by=lambda pair: pair[0],
).map(lambda pairs: Index(tuple(pairs)))
# few distinct values, so that entries often repeat what a prefix holds
pmaps = st.dictionaries(indexes, st.integers(-2, 2), max_size=8).map(PMap)


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
    image = {target: source for source, target in rho.items()}
    new = {t: entries[s] for t, s in image.items() if s in entries}
    new.update((i, v) for i, v in entries.items() if not in_up(i, image))
    base = dict(new)
    for target in sorted(image, key=Index.sort_key):
        source = image[target]
        if source in entries:
            continue
        value = extend_by_scan(entries, source)
        if value is not None and extend_by_scan(base, target) != value:
            new[target] = value
    return new


def canonical_by_scan(entries):
    kept = dict(entries)
    for i in sorted(entries, key=len, reverse=True):
        if len(i) == 0:
            continue
        nearest = max_below((j for j in kept if j != i), i)
        if nearest is not None and kept[nearest] == entries[i]:
            del kept[i]
    return kept


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


@given(pmaps)
def test_canonical_matches_longest_first_scan(cell):
    assert cell.canonical().entries == canonical_by_scan(cell.entries)


@given(shift_chains, st.sampled_from("ab"))
def test_shift_rho_matches_in_down(chain, name):
    assert shift_rho(chain, name) == shift_rho_by_scan(chain, name)


@given(antichains, st.sampled_from(NAMES), st.integers(1, 3))
def test_shift_rho_matches_in_down_on_extended_chains(chain, name, count):
    # the chains loops shift over: every member ends in the shifted string
    assume(all(i.lookup(name) is None for i in chain))
    extended = chain.extend(name, count)
    assert shift_rho(extended, name) == shift_rho_by_scan(extended, name)
