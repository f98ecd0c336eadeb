from dataclasses import replace

import pytest

from vecloop.harness import (GenConfig, MUTANTS, check_embedding,
                             check_int_vs_fixpoint, check_relaxed,
                             check_soundness, fuzz, gen_program, gen_rdb,
                             run_one, shrink)
from vecloop.parser import parse
from vecloop.rdb import Rdb
from vecloop.source_interp import SrcState
from vecloop.syntax import Skip, Variable, print_cmd
from vecloop.translate import vectorise

# A loop that copies one NaN (inf - inf) each round; every oracle must
# count the scalar NaN and the vectorised NaN as the same value.
NAN_LOOP = parse(
    "big := 100000000000000000000.0 * 100000000000000000000.0; "
    "big := big * big; big := big * big; big := big * big; "
    "z := big - big; for t:int in range(4) { y := z; score(0.0) }")
# gap * gap overflows, so both runs score -inf
NEG_INF_SCORE = parse("score(normal_logpdf(1e200, 0.0, 1.0))")


def test_generator_is_deterministic():
    cfg = replace(GenConfig(), seed=77)
    assert gen_program(cfg) == gen_program(cfg)
    assert gen_program(cfg) != gen_program(replace(cfg, seed=78))


def test_generator_depth_zero_is_atomic():
    program = gen_program(replace(GenConfig(), seed=1, max_depth=0))
    assert not any(
        kind in print_cmd(program) for kind in ("for ", "ifz ")
    )


def test_generated_programs_parse_and_respect_toggles():
    cfg = replace(GenConfig(), seed=5, allow_ifz=False, allow_fetch=False)
    for seed in range(100):
        program = gen_program(replace(cfg, seed=seed))
        text = print_cmd(program)
        assert "ifz" not in text
        assert "fetch" not in text
        assert parse(text) == program


def test_check_embedding_trivial_cases():
    report = check_embedding(Skip(), Rdb())
    assert report.ok
    report = check_embedding(parse("score(2.0)"), Rdb())
    assert report.ok
    for program in (NAN_LOOP, NEG_INF_SCORE):
        report = check_embedding(program, Rdb())
        assert report.ok, report.detail


def test_check_soundness_trivial_and_fixture():
    assert check_soundness(parse("x := 1.5; score(x)"), Rdb()).ok
    hmm = parse("""
      x := 0.0; y := 0.0;
      for t:int in range(3) {
        x := fetch([("z", t:int)]);
        score(normal_logpdf(x, y, 1.0));
        y := x
      }
    """)
    assert check_soundness(hmm, gen_rdb(3)).ok
    for program in (NAN_LOOP, NEG_INF_SCORE):
        report = check_soundness(program, Rdb())
        assert report.ok, report.detail


def test_check_soundness_respects_initial_state():
    program = parse("score(x)")
    init = SrcState({Variable("x", "real"): 2.25})
    report = check_soundness(program, Rdb(), init)
    assert report.ok


def test_check_int_vs_fixpoint_trivial():
    assert check_int_vs_fixpoint(parse("skip", "target"), Rdb()).ok
    report = check_int_vs_fixpoint(vectorise(NAN_LOOP), Rdb())
    assert report.ok, report.detail


def test_check_relaxed_trivial():
    assert check_relaxed(Skip(), Rdb()).ok
    report = check_relaxed(NAN_LOOP, Rdb())
    assert report.ok, report.detail


def test_fuzz_small_corpora_all_green():
    for oracle in ("embedding", "soundness", "intfix", "relaxed"):
        reports = fuzz(oracle, 25, seed=900)
        assert all(r.ok for r in reports), oracle


def test_mutants_are_caught_and_replay_deterministically():
    for mutant in MUTANTS:
        reports = fuzz("soundness", 40, seed=50, mutant=mutant)
        failures = [r for r in reports if not r.ok]
        assert failures, f"mutant {mutant} survived"
        first = failures[0]
        again = run_one("soundness", first.seed, mutant=mutant)
        assert again == first
        assert first.shrunk_program
        # the shrunk program still fails, and shrinking is reproducible
        assert again.shrunk_program == first.shrunk_program


def test_shrunk_counterexamples_are_small():
    reports = fuzz("soundness", 60, seed=10, mutant="loop-one-round")
    failures = [r for r in reports if not r.ok]
    assert failures
    for report in failures:
        shrunk = parse(report.shrunk_program)
        original = parse(report.program)
        assert len(print_cmd(shrunk)) <= len(print_cmd(original))


def test_shrink_reaches_a_local_minimum():
    program = parse("""
      score(1.0);
      for t:int in range(3) { x := x + 1.0; score(x) };
      skip
    """)

    def fails_if_has_loop(candidate):
        return "for " in print_cmd(candidate)

    smallest = shrink(program, fails_if_has_loop)
    assert fails_if_has_loop(smallest)
    assert print_cmd(smallest) == "for t:int in range(1) {\n  skip\n}"


def test_failure_reports_carry_replay_coordinates():
    reports = fuzz("soundness", 30, seed=123, mutant="score-nudge")
    failures = [r for r in reports if not r.ok]
    assert failures
    report = failures[0]
    assert report.config is not None
    assert report.config.seed == report.seed
    assert report.inputs_digest
    assert not report.line().startswith("soundness seed=0: pass")


def test_clean_interpreters_pass_where_mutants_fail():
    reports = fuzz("soundness", 30, seed=123)
    assert all(r.ok for r in reports)


@pytest.mark.parametrize("oracle", ["embedding", "soundness", "intfix",
                                    "relaxed"])
def test_reports_replay_from_seed_and_config(oracle):
    first = run_one(oracle, 321)
    second = run_one(oracle, 321)
    assert first == second
