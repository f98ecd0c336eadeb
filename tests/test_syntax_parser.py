import pickle
from dataclasses import replace

import pytest

from _support import python_process

from vecloop.errors import ParseFailure, TierViolation
from vecloop.harness import GenConfig, gen_program
from vecloop.parser import parse
from vecloop.syntax import (INT, Assign, ExtendIndex, Fetch, For, IndexExpr,
                            LookupIndex, LoopFixpt, PrimOp, RealLit, Score,
                            Seq, Shift, Skip, Var, Variable, free_vars,
                            print_cmd, seq, strings_of, validate_tier)
from vecloop.translate import vectorise


def roundtrip(c, tier="source"):
    assert parse(print_cmd(c), tier) == c


def test_parse_simple_source():
    got = parse("x := 0.0; score(x)")
    x = Variable("x", "real")
    assert got == Seq((Assign(x, RealLit(0.0)), Score(Var(x))))


def test_parse_fig7_shape_target():
    text = """
    extend_index("vec", 10) {
      loop_fixpt_noacc(10) {
        shift("vec");
        t:int := lookup_index("vec");
        skip
      }
    }
    """
    got = parse(text, "target")
    assert isinstance(got, ExtendIndex)
    assert isinstance(got.body, LoopFixpt)
    assert got.body.body == seq(Shift("vec"),
                                LookupIndex(Variable("t", INT), "vec"),
                                Skip())
    roundtrip(got, "target")


def test_tier_violation():
    with pytest.raises(TierViolation):
        parse('shift("a")', "source")
    with pytest.raises(TierViolation):
        parse('extended_loop_with_shift("a", 2) { skip }', "target")
    parse('extended_loop_with_shift("a", 2) { skip }', "relaxed")


def test_reserved_sigil_rules():
    # translation-owned loop strings parse in the construct positions only
    parse('extend_index("$loop0", 2) { skip }', "target")
    with pytest.raises(ParseFailure):
        parse('x := fetch([("$loop0", 1)])', "source")


def test_duplicate_index_string_rejected():
    with pytest.raises(ParseFailure):
        parse('x := fetch([("z", 1); ("z", 2)])')


def test_diagnostics_carry_location():
    with pytest.raises(ParseFailure) as err:
        parse("x := ;")
    assert err.value.line == 1
    assert err.value.col >= 6


@pytest.mark.parametrize("text", [
    "y := " + "(" * 3000 + "1.0" + ")" * 3000,
    "y := " + "-" * 3000 + "1.0",
    "y := " + " + ".join(["1.0"] * 3000),
    "ifz 0 { " * 3000 + "skip" + " } else { skip }" * 3000,
])
def test_deep_nesting_is_a_parse_failure(text):
    with pytest.raises(ParseFailure, match="nesting deeper than"):
        parse(text)


def test_nesting_below_the_limit_parses():
    parse("y := " + "(" * 90 + "1.0" + ")" * 90)
    parse("y := " + " + ".join(["1.0"] * 90))
    parse("ifz 0 { " * 90 + "skip" + " } else { skip }" * 90)


def test_variable_types_are_sticky():
    with pytest.raises(ParseFailure):
        parse("x:int := 1; x := 2.0")
    with pytest.raises(ParseFailure):
        parse("score(n:int)")  # score needs a real expression


def test_kind_checked_operators():
    with pytest.raises(ParseFailure):
        parse("x := 1 + 2.0")
    with pytest.raises(ParseFailure):
        parse("n:int := 1 / 2")  # division is real-only
    parse("n:int := 1 % 2; x := 1.0 / 2.0")


def test_ifz_requires_integer_scrutinee():
    with pytest.raises(ParseFailure):
        parse("ifz 1.5 { skip } else { skip }")
    parse("ifz eq(1, 2) { skip } else { skip }")
    parse("ifz rlt(x, 0.5) { skip } else { skip }")


def test_loop_counts_must_be_positive_literals():
    with pytest.raises(ParseFailure):
        parse("for t:int in range(0) { skip }")
    with pytest.raises(ParseFailure):
        parse("loop_fixpt_noacc(0) { skip }", "target")


def test_print_examples():
    assert print_cmd(Skip()) == "skip"
    body = parse('for t:int in range(3) { score(to_real(t:int)) }')
    assert "for t:int in range(3)" in print_cmd(body)


def test_free_vars():
    x = Variable("x", "real")
    t = Variable("t", INT)
    assert free_vars(Var(x)) == {x}
    assert free_vars(PrimOp("add", (Var(x), RealLit(3.0)))) == {x}
    assert free_vars(IndexExpr((("z", Var(t)),))) == {t}


def test_strings_of():
    assert strings_of(Skip()) == set()
    assert strings_of(Fetch(Variable("x", "real"),
                            IndexExpr((("z", Var(Variable("t", INT))),)))) == {"z"}
    hmm = parse('x := fetch([("z", t:int)]); score(x); y := x')
    translated = vectorise(For(Variable("t", INT), 3, hmm))
    assert strings_of(translated) == {"z", "$loop0"}


def test_roundtrip_on_generated_corpus():
    for seed in range(1000):
        program = gen_program(replace(GenConfig(), seed=seed))
        roundtrip(program)


def test_roundtrip_translated_corpus():
    for seed in range(120):
        program = gen_program(replace(GenConfig(), seed=seed))
        translated = vectorise(program)
        assert parse(print_cmd(translated), "target") == translated


def test_validate_tier_accepts_source_in_target():
    program = parse("for t:int in range(2) { score(1.0) }")
    validate_tier(program, "target")


UNPICKLE_AND_HASH = """
import pickle, sys
from vecloop.syntax import Variable
v = pickle.loads(bytes.fromhex(sys.stdin.read()))
print(hash(v) == hash((v.name, v.type)), v in {Variable(v.name, v.type)})
"""


def test_variable_hash_is_the_dataclass_hash_and_pickles_rebuild_it():
    v = Variable("x", INT)
    assert hash(v) == hash(("x", INT)) == hash(Variable("x", INT))
    assert {v: 1}[Variable("x", INT)] == 1 and v != Variable("x", "real")
    # string hashes follow the hash seed, so a clone in another process must
    # compute its own; one of the two seeds differs from this process's
    for hash_seed in ("1", "2"):
        proc = python_process(UNPICKLE_AND_HASH, stdin=pickle.dumps(v).hex(),
                              PYTHONHASHSEED=hash_seed)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "True"]
