"""Operator nodes are resolved once and keep their semantics; a
lane-resident loop's body is compiled once and keeps its node's
identity."""

import pickle
from dataclasses import fields, is_dataclass

import pytest

from vecloop import bench, ops
from vecloop.evalexpr import eval_expr, expr_kind
from vecloop.rdb import Rdb
from vecloop.syntax import (INT, IntLit, LoopFixpt, PrimOp, RealLit, Var,
                            Variable, walk)
from vecloop.target_interp import run_tgt
from vecloop.translate import vectorise


def primops(node, found=None) -> dict:
    """Every PrimOp node reachable from `node`, by identity."""
    found = {} if found is None else found
    if isinstance(node, PrimOp):
        found[id(node)] = node
    if isinstance(node, tuple):
        for item in node:
            primops(item, found)
    elif is_dataclass(node):
        for f in fields(node):
            if f.compare:
                primops(getattr(node, f.name), found)
    return found


def test_resolve_runs_once_per_operator_node(monkeypatch):
    calls = []
    real_resolve = ops.resolve

    def counting(op, kinds):
        calls.append(op)
        return real_resolve(op, kinds)

    monkeypatch.setattr(ops, "resolve", counting)
    program = vectorise(bench.arm_program(48, 16))
    nodes = primops(program)
    db = Rdb({}, "normal", 0.0, 1)
    first = run_tgt(program, db)
    assert first.rounds_by_site() == {0: 17}
    assert len(calls) == len(nodes) > 0
    run_tgt(program, db, backend="dense")
    assert len(calls) == len(nodes)


def test_ill_typed_operator_raises_on_every_evaluation():
    bad = PrimOp("add", (IntLit(1), RealLit(2.0)))
    for _ in range(2):
        with pytest.raises(KeyError, match="no operator add"):
            eval_expr(bad, lambda var: 0)
        with pytest.raises(KeyError, match="no operator add"):
            expr_kind(bad)
    assert bad.impl is None


def test_resolution_is_not_part_of_node_identity():
    x = Variable("x", INT)
    used = PrimOp("lt", (Var(x), IntLit(3)))
    fresh = PrimOp("lt", (Var(x), IntLit(3)))
    assert eval_expr(used, lambda var: 1) == 0
    assert used.impl is not None and fresh.impl is None
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    clone = pickle.loads(pickle.dumps(used))
    assert clone == used and eval_expr(clone, lambda var: 5) == 1


def test_a_loop_body_is_compiled_once_per_loop_node(monkeypatch):
    from vecloop import dense

    built = []
    real_body = dense._Body

    def counting(body, writes):
        built.append(body)
        return real_body(body, writes)

    monkeypatch.setattr(dense, "_Body", counting)
    program = vectorise(bench.arm_program(48, 16))
    loop, = [node for node in walk(program) if isinstance(node, LoopFixpt)]
    db = Rdb({}, "normal", 0.0, 1)
    assert loop.compiled is None
    first = run_tgt(program, db, backend="dense")
    assert built == [loop.body] and loop.compiled is not None
    compiled = loop.compiled
    for _ in range(3):
        again = run_tgt(program, db, backend="dense")
        assert again.score == first.score and again.trace == first.trace
    assert len(built) == 1 and loop.compiled is compiled
    # the sparse backend offers no lane arrays and compiles nothing
    run_tgt(vectorise(bench.arm_program(48, 16)), db)
    assert len(built) == 1


def test_compilation_is_not_part_of_node_identity():
    program = vectorise(bench.arm_program(6, 2))
    run_tgt(program, Rdb({}, "normal", 0.0, 1), backend="dense")
    used = program.body
    fresh = vectorise(bench.arm_program(6, 2)).body
    assert used.compiled is not None and fresh.compiled is None
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    clone = pickle.loads(pickle.dumps(used))
    assert clone == used and clone.compiled is None
