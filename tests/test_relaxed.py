import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from _spec import (EMPTY_FLAG, NotComparable, bits_on, flag_diff, flag_leq,
                   flag_restrict, flag_shift, flag_unshift, flag_update,
                   in_down)
from _support import rand_cell
from vecloop.harness import GenConfig, gen_program, gen_rdb, probe_indices
from vecloop.indices import EMPTY, AChain, Index, ROOT_CHAIN
from vecloop.parser import parse
from vecloop.pmap import PMap
from vecloop.relaxed import Flag, fixcheck, flag_pull_back, run_relaxed
from vecloop.state import SPARSE, SparseState, make_state
from vecloop.syntax import INT, Variable
from vecloop.target_interp import FIXPOINT, run_tgt, shift_rho
from vecloop.translate import lower_relaxed, vectorise, vectorise_relaxed

X = Variable("x", "real")
Y = Variable("y", "real")
RV = [Index((("rv", k),)) for k in range(3)]
A_RV = AChain(RV)


def test_flag_update_first_access_wins():
    base = flag_update(EMPTY_FLAG, {X: bits_on(A_RV, 0)})
    assert base.bits(X) == {i: 0 for i in RV}
    flag = Flag({X: {RV[0]: 1}})
    merged = flag_update(flag, {X: {RV[0]: 0, RV[1]: 0}})
    assert merged.bits(X) == {RV[0]: 1, RV[1]: 0}
    assert flag_update(flag, {}) == flag


def test_flag_order_and_difference():
    small = Flag({X: {RV[0]: 0}})
    big = Flag({X: {RV[0]: 0, RV[1]: 1}})
    assert flag_leq(EMPTY_FLAG, big)
    assert flag_leq(small, big)
    assert not flag_leq(big, small)
    assert flag_diff(big, small) == Flag({X: {RV[1]: 1}})
    assert flag_diff(big, big) == EMPTY_FLAG
    with pytest.raises(NotComparable):
        flag_diff(small, big)


def test_flag_shift_follows_state_copy():
    rho = {EMPTY: RV[0], RV[0]: RV[1], RV[1]: RV[2]}
    shifted = flag_shift(Flag({X: {EMPTY: 0}}), rho)
    assert shifted.bits(X) == {EMPTY: 0, RV[0]: 0}


def test_flag_unshift_cases():
    rho = shift_rho(A_RV, "rv")
    flag = Flag({X: {RV[0]: 1, RV[1]: 1, RV[2]: 0}})
    pulled = flag_unshift(flag, rho, ROOT_CHAIN)
    # base receives slot 0's bit; agreeing neighbours meet; the last slot
    # has no successor and passes through
    assert pulled.bits(X) == {EMPTY: 1, RV[0]: 1, RV[2]: 0}
    assert flag_unshift(EMPTY_FLAG, rho, ROOT_CHAIN) == EMPTY_FLAG


def test_unshift_after_shift_shrinks_on_slot_supported_flags():
    rng = random.Random(17)
    for _ in range(200):
        chain = ROOT_CHAIN.extend("rv", rng.randint(1, 4))
        rho = shift_rho(chain, "rv")
        bits = {i: rng.randint(0, 1) for i in chain if rng.random() < 0.8}
        flag = Flag({X: bits})
        rebuilt = flag_shift(flag_unshift(flag, rho, ROOT_CHAIN), rho)
        assert flag_leq(flag_restrict(rebuilt, chain), flag)


@st.composite
def round_flags(draw):
    """A fused loop's outer chain, its length, a round number and a flag
    over the loop's slots and the outer chain."""
    width = draw(st.integers(0, 3))
    chain = ROOT_CHAIN if width == 0 else AChain(
        [Index((("o", j),)) for j in range(width)])
    count = draw(st.integers(1, 6))
    k = draw(st.integers(0, 7))
    slots = sorted(chain.extend("s", count).members, key=Index.sort_key)
    slots += list(chain)
    flag = Flag({var: draw(st.dictionaries(st.sampled_from(slots),
                                           st.integers(0, 1)))
                 for var in (X, Y)})
    return flag, chain, count, k


@given(round_flags())
def test_pull_back_is_repeated_unshift_on_the_chain(case):
    flag, chain, count, k = case
    rho = shift_rho(chain.extend("s", count), "s")
    pulled = flag
    for _ in range(k + 1):
        pulled = flag_unshift(pulled, rho, chain)
    assert flag_pull_back(flag, chain, "s", count, k) == \
        flag_restrict(pulled, chain)


def test_flag_restrict():
    flag = Flag({X: {EMPTY: 0, RV[0]: 1}})
    assert flag_restrict(flag, ROOT_CHAIN) == Flag({X: {EMPTY: 0}})


def test_fixcheck_basics():
    state = SparseState({X: PMap({EMPTY: 1.0})})
    assert fixcheck(state, state, EMPTY_FLAG, A_RV)
    bumped = state.updated(X, {RV[0]: 9.0})
    masked = Flag({X: {RV[0]: 1}})
    assert not fixcheck(state, bumped, EMPTY_FLAG, A_RV)
    assert fixcheck(state, bumped, masked, A_RV)


def test_fixcheck_with_empty_flag_is_plain_equality():
    rng = random.Random(23)
    for _ in range(100):
        cell = rand_cell(rng)
        s0 = SparseState({X: cell})
        tensor = {i: round(rng.uniform(-2, 2), 3) for i in A_RV
                  if rng.random() < 0.5}
        s1 = s0.updated(X, tensor) if tensor else s0
        agree = all(s0.read(X, i) == s1.read(X, i) for i in A_RV)
        assert fixcheck(s0, s1, EMPTY_FLAG, A_RV) == agree


def test_run_relaxed_skip():
    out, flag = run_relaxed(parse("skip", "relaxed"), gen_rdb(0),
                            chain=A_RV)
    assert out.score.entries == {i: 0.0 for i in RV}
    assert flag == EMPTY_FLAG


def test_run_relaxed_assignment_flags():
    out, flag = run_relaxed(parse("x := 1.0; score(x)", "relaxed"), gen_rdb(0))
    assert flag.bits(X) == {EMPTY: 1}
    assert out.score.entries == {EMPTY: 1.0}


def test_read_then_write_keeps_read_flag():
    _, flag = run_relaxed(parse("x := x + 1.0", "relaxed"), gen_rdb(0))
    assert flag.bits(X) == {EMPTY: 0}


def test_engineered_masked_early_exit():
    # the lagged write-first variable lets the masked check stop one round
    # before plain state equality holds
    program = parse("""
      for i:int in range(4) {
        w := p1;
        p1 := fetch([("y", i:int)]);
        score(normal_logpdf(w, 0.0, 1.0))
      }
    """)
    db = gen_rdb(7)
    relaxed_out, _ = run_relaxed(vectorise_relaxed(program), db)
    plain_out = run_tgt(vectorise(program), db, mode=FIXPOINT)
    assert [rec.rounds for rec in relaxed_out.trace] == [2]
    assert [rec.rounds for rec in plain_out.trace] == [3]
    assert relaxed_out.score == plain_out.score
    probes = probe_indices([relaxed_out.state, plain_out.state], 7)
    assert relaxed_out.state.eq_on(plain_out.state, probes)


def test_relaxed_expression_lemma():
    # states agreeing on the chain (over the free variables) evaluate
    # expressions identically at every chain index
    from vecloop.evalexpr import eval_expr
    from vecloop.syntax import free_vars

    rng = random.Random(29)
    from vecloop.harness import _Gen
    for seed in range(500):
        gen = _Gen(replace(GenConfig(), seed=seed))
        expr = gen.real_expr(3, []) if seed % 2 else gen.int_expr(3, [])
        chain = AChain([Index((("rv", k),)) for k in range(rng.randint(1, 3))])
        s0 = SparseState()
        for var in free_vars(expr):
            s0 = s0.updated(var, {
                i: (rng.randint(-3, 3) if var.type == INT
                    else round(rng.uniform(-2, 2), 3))
                for i in chain
            })
        # perturb outside the chain only
        s1 = s0
        for var in free_vars(expr):
            deep = next(iter(chain)).append("q", rng.randint(0, 2))
            s1 = s1.updated(var, {deep: 7 if var.type == INT else 7.5})
        other = SparseState({Y: PMap({EMPTY: 3.14})})
        s1 = SparseState({**other.cells, **s1.cells})
        for i in chain:
            v0 = eval_expr(expr, lambda v: s0.read(v, i))
            v1 = eval_expr(expr, lambda v: s1.read(v, i))
            assert v0 == v1


def run_relaxed_pair(seed):
    source = gen_program(replace(GenConfig(), seed=seed))
    db = gen_rdb(seed)
    fused = vectorise_relaxed(source)
    relaxed_out, flag = run_relaxed(fused, db)
    plain_out = run_tgt(lower_relaxed(fused), db, mode=FIXPOINT)
    return relaxed_out, flag, plain_out


def test_relaxed_soundness_on_corpus_sample():
    for seed in range(100):
        relaxed_out, _, plain_out = run_relaxed_pair(seed)
        assert relaxed_out.score == plain_out.score
        probes = probe_indices([relaxed_out.state, plain_out.state], seed)
        assert relaxed_out.state.eq_on(plain_out.state, probes)
        mine = relaxed_out.rounds_by_site()
        theirs = plain_out.rounds_by_site()
        for site, rounds in mine.items():
            assert rounds <= theirs.get(site, 0)


def test_relaxed_command_lemma():
    # two starting states related by the run's own flag produce the same
    # flag and tensor, and outputs related by the leftover flag
    for seed in range(150):
        source = gen_program(replace(GenConfig(), seed=seed, max_depth=3))
        fused = vectorise_relaxed(source)
        db = gen_rdb(seed)
        rng = random.Random(seed ^ 0xFA15)
        s0 = make_state(SPARSE)
        out0, flag0 = run_relaxed(fused, db, s0)
        # build sigma1 differing from sigma0 only at write-first indices
        s1 = s0
        touched = False
        for var in flag0.variables():
            masked = [i for i, b in flag0.bits(var).items()
                      if b == 1 and i in ROOT_CHAIN.members]
            if masked and var.type != INT:
                s1 = s1.updated(var, {i: round(rng.uniform(-2, 2), 3)
                                      for i in masked})
                touched = True
        if not touched:
            continue
        assert fixcheck(s0, s1, flag0, ROOT_CHAIN)
        out1, flag1 = run_relaxed(fused, db, s1)
        assert flag0 == flag1
        assert out0.score == out1.score
        # the leftover mask is empty here, so outputs agree on the chain
        assert fixcheck(out0.state, out1.state,
                        flag_diff(flag0, flag0), ROOT_CHAIN)


def test_flag_domains_stay_below_the_chain():
    for seed in range(80):
        source = gen_program(replace(GenConfig(), seed=seed))
        _, flag = run_relaxed(vectorise_relaxed(source), gen_rdb(seed))
        for var in flag.variables():
            for i in flag.bits(var):
                assert in_down(i, ROOT_CHAIN.members)


NESTED_MASKED_EXIT = """
for o:int in range(3) {
  for i:int in range(4) {
    w := p1;
    p1 := fetch([("y", i:int)]);
    score(normal_logpdf(w, 0.0, 1.0))
  }
}
"""


def test_relaxed_flags_are_pinned(tmp_path, capsys):
    # Expected values were recorded before the relaxed and target rules were
    # merged into one interpreter core; a nested loop is where the returned
    # loop flag feeds the enclosing loop's fixcheck.
    import hashlib
    import json

    from vecloop.cli import main
    from vecloop.syntax import print_cmd

    program = tmp_path / "nested.vl"
    program.write_text(print_cmd(vectorise_relaxed(parse(NESTED_MASKED_EXIT))))
    db = tmp_path / "db.json"
    gen_rdb(7).dump(str(db))
    assert main(["run", "--tier", "relaxed", "--program", str(program),
                 "--rdb", str(db)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["flags"] == {"i:int": {"[]": 1}, "o:int": {"[]": 1},
                            "p1": {"[]": 0}, "w": {"[]": 1}}
    assert doc["roundsPerLoop"] == [
        {"fixpointHit": True, "rounds": 2, "site": 1},
        {"fixpointHit": True, "rounds": 2, "site": 1},
        {"fixpointHit": True, "rounds": 2, "site": 0},
    ]
    assert doc["plainRoundsPerLoop"] == [
        {"fixpointHit": True, "rounds": 3, "site": 1},
        {"fixpointHit": True, "rounds": 3, "site": 1},
        {"fixpointHit": True, "rounds": 2, "site": 0},
    ]

    digest = hashlib.sha256()
    for seed in range(100):
        source = gen_program(replace(GenConfig(), seed=seed))
        out, flag = run_relaxed(vectorise_relaxed(source), gen_rdb(seed))
        digest.update(repr((repr(flag), out.trace)).encode())
    assert digest.hexdigest() == \
        "b111319a94d4be03175d91c9a3cd28ac7f61eff80630406a99d9bc0547ff2966"
