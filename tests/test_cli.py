import json
import math
import os

import pytest

from _support import cli_process
from vecloop.bench import arm_program, hmm_program, tcm_program
from vecloop.cli import main
from vecloop.harness import GenConfig, gen_program, gen_rdb
from vecloop.indices import Index
from vecloop.rdb import Rdb
from vecloop.syntax import print_cmd

HMM = """
x := 0.0; y := 0.0;
for t:int in range(3) {
  x := fetch([("z", t:int)]);
  score(normal_logpdf(x, y, 1.0));
  y := x
}
"""


@pytest.fixture()
def workdir(tmp_path):
    program = tmp_path / "hmm.vl"
    program.write_text(HMM)
    db = tmp_path / "db.json"
    Rdb({Index((("z", k),)): 0.1 * k for k in range(3)},
        "const", 0.0, 0).dump(str(db))
    return tmp_path, str(program), str(db)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_run_source(workdir, capsys):
    _, program, db = workdir
    code, out = run_cli(["run", "--tier", "source", "--program", program,
                         "--rdb", db], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["finalState"]["x"] == 0.2
    assert doc["score"] == -2.766815599614018


def test_run_target_and_relaxed_agree(workdir, capsys, tmp_path):
    _, program, db = workdir
    translated = tmp_path / "hmm_t.vl"
    code = main(["translate", "--to", "target", program,
                 "--out", str(translated)])
    assert code == 0
    text = translated.read_text()
    assert 'extend_index("$loop0", 3)' in text
    assert "loop_fixpt_noacc(3)" in text

    code, out = run_cli(["run", "--tier", "target", "--program",
                         str(translated), "--rdb", db], capsys)
    assert code == 0
    target_doc = json.loads(out)
    assert target_doc["roundsPerLoop"] == [
        {"site": 0, "rounds": 2, "fixpointHit": True}
    ]

    fused = tmp_path / "hmm_r.vl"
    assert main(["translate", "--to", "relaxed", program,
                 "--out", str(fused)]) == 0
    code, out = run_cli(["run", "--tier", "relaxed", "--program", str(fused),
                         "--rdb", db], capsys)
    assert code == 0
    relaxed_doc = json.loads(out)
    assert relaxed_doc["scoreTensor"] == target_doc["scoreTensor"]
    assert "flags" in relaxed_doc
    relaxed_rounds = {rec["site"]: rec["rounds"]
                      for rec in relaxed_doc["roundsPerLoop"]}
    plain_rounds = {rec["site"]: rec["rounds"]
                    for rec in relaxed_doc["plainRoundsPerLoop"]}
    assert all(relaxed_rounds[s] <= plain_rounds[s] for s in relaxed_rounds)


def test_run_is_byte_identical(workdir, capsys):
    _, program, db = workdir
    _, first = run_cli(["run", "--tier", "source", "--program", program,
                        "--rdb", db], capsys)
    _, second = run_cli(["run", "--tier", "source", "--program", program,
                         "--rdb", db], capsys)
    assert first == second


def test_run_dense_backend_matches_sparse(workdir, capsys, tmp_path):
    _, program, db = workdir
    translated = tmp_path / "t.vl"
    main(["translate", "--to", "target", program, "--out", str(translated)])
    _, sparse = run_cli(["run", "--tier", "target", "--program",
                         str(translated), "--rdb", db], capsys)
    _, dense = run_cli(["run", "--tier", "target", "--program",
                        str(translated), "--rdb", db, "--backend", "dense"],
                       capsys)
    assert json.loads(sparse)["scoreTensor"] == json.loads(dense)["scoreTensor"]
    assert json.loads(sparse)["roundsPerLoop"] == \
        json.loads(dense)["roundsPerLoop"]


BACKEND_PROGRAMS = {
    "arm": lambda: arm_program(12, 2),
    "hmm": lambda: hmm_program(12, 2),
    "tcm": lambda: tcm_program(3, 6),
    "generated": lambda: gen_program(GenConfig(seed=6)),
}


@pytest.mark.parametrize("name", sorted(BACKEND_PROGRAMS))
def test_final_state_digest_is_the_same_on_both_backends(name, tmp_path,
                                                         capsys):
    source, translated = tmp_path / "p.vl", tmp_path / "t.vl"
    source.write_text(print_cmd(BACKEND_PROGRAMS[name]()))
    assert main(["translate", "--to", "target", str(source),
                 "--out", str(translated)]) == 0
    db = tmp_path / "db.json"
    gen_rdb(6).dump(str(db))
    docs = []
    for backend in ("sparse", "dense"):
        code, out = run_cli(["run", "--tier", "target", "--program",
                             str(translated), "--rdb", str(db),
                             "--backend", backend], capsys)
        assert code == 0
        docs.append(json.loads(out))
    sparse, dense = docs
    assert sparse["roundsPerLoop"] and sparse == dense


def test_state_file_override(workdir, capsys, tmp_path):
    tmp, _, db = workdir
    program = tmp / "read.vl"
    program.write_text("score(x); score(to_real(n:int))")
    state = tmp / "state.json"
    state.write_text(json.dumps({"x": 1.5, "n:int": 2}))
    code, out = run_cli(["run", "--tier", "source", "--program", str(program),
                         "--rdb", db, "--state", str(state)], capsys)
    assert code == 0
    assert json.loads(out)["score"] == 3.5


@pytest.mark.parametrize("option,doc,names", [
    ("--rdb", "[]", "rdb: expected a JSON object"),
    ("--rdb", '{"default": []}', "rdb default:"),
    ("--rdb", '{"entries": [{"index": 5, "value": 1}]}',
     "rdb entries[0].index:"),
    ("--rdb", '{"default": {"kind": "weird"}}', "rdb default.kind:"),
    ("--rdb", '{"entries": [{"index": [["a", 0], ["a", 1]], "value": 1}]}',
     "rdb entries[0].index: repeats a string"),
    ("--rdb", '{"entries": [{"index": [["a", 0]], "value": 1}, '
     '{"index": [["a", 0]], "value": 2}]}', "rdb entries[1]: repeats the index"),
    ("--state", "[1]", "expected a JSON object"),
    ("--state", '{"x": [1]}', ": x: expected a number"),
    ("--state", '{"n:int": 1.5}', ": n:int: expected an integer"),
    ("--state", '{"x": 1.0, "x:real": 2.0}', ": x:real: names x a second time"),
    ("--rdb", '{"entries": [{"index": [["a", 0]], "value": 1, "value": 5}]}',
     "rdb: repeats the key 'value'"),
    ("--state", '{"x": 1.0, "x": 2.0}', ": repeats the key 'x'"),
])
def test_malformed_rdb_and_state_files_exit_2(workdir, tmp_path, capsys,
                                              option, doc, names):
    _, program, _ = workdir
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    commands = [["run", "--tier", "source"]]
    if option == "--rdb":  # check takes no --state
        commands.append(["check", "--oracle", "soundness"])
    for command in commands:
        assert main(command + ["--program", program, option, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert names in err


def test_check_subcommand(workdir, capsys):
    _, program, db = workdir
    code, out = run_cli(["check", "--oracle", "soundness", "--program",
                         program, "--rdb", db], capsys)
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_fuzz_exit_codes(capsys):
    code, out = run_cli(["fuzz", "--oracle", "soundness", "--n", "8",
                         "--seed", "7"], capsys)
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 8 and all(doc["ok"] for doc in lines)
    code, out = run_cli(["fuzz", "--oracle", "soundness", "--n", "30",
                         "--seed", "50", "--mutant", "loop-one-round"],
                        capsys)
    assert code == 1


def test_fuzz_cfg_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_depth": 2, "allow_ifz": False}))
    code, out = run_cli(["fuzz", "--oracle", "soundness", "--n", "5",
                         "--seed", "2", "--cfg", str(cfg)], capsys)
    assert code == 0
    docs = [json.loads(line) for line in out.strip().splitlines()]
    assert all("ifz" not in doc["program"] for doc in docs)


@pytest.mark.parametrize("doc", ["[1, 2]", '{"bogus": 1}',
                                 '{"max_loop_len": "x"}',
                                 '{"max_depth": 2, "max_depth": 3}'])
def test_fuzz_malformed_cfg_exits_2(tmp_path, capsys, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc)
    assert main(["fuzz", "--oracle", "soundness", "--n", "2",
                 "--cfg", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --cfg") and err.count("\n") == 1


def test_fuzz_jobs_out_of_range_exits_2(monkeypatch, capsys):
    # refused before any pool exists; never run with a large accepted value
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was created")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for jobs in (os.cpu_count() + 1, 0):
        assert main(["fuzz", "--oracle", "embedding", "--n", "1",
                     "--jobs", str(jobs)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --jobs") and err.count("\n") == 1


@pytest.mark.parametrize("n", ["0", "-3"])
def test_fuzz_n_below_1_exits_2(capsys, n):
    assert main(["fuzz", "--oracle", "soundness", "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --n") and captured.err.count("\n") == 1


@pytest.mark.parametrize("tier, flags", [
    ("relaxed", ["--mode", "unrolled"]), ("source", ["--mode", "unrolled"]),
    ("source", ["--backend", "dense"]),
])
def test_run_refuses_a_flag_its_tier_ignores(workdir, capsys, tier, flags):
    _, program, db = workdir
    assert main(["run", "--tier", tier, "--program", program, "--rdb", db,
                 *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flags[0]} ")
    assert captured.err.count("\n") == 1


def test_fuzz_jobs_matches_serial(capsys):
    _, serial = run_cli(["fuzz", "--oracle", "embedding", "--n", "6",
                         "--seed", "3"], capsys)
    _, parallel = run_cli(["fuzz", "--oracle", "embedding", "--n", "6",
                           "--seed", "3", "--jobs", "2"], capsys)
    assert serial == parallel


def test_bench_subcommand(capsys):
    code, out = run_cli(["bench", "--suite", "arm", "--params", "N=6,K=2"],
                        capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "N,K,rounds,agree,wallclock_ms"
    assert row.startswith("6,2,3,true,")


@pytest.mark.parametrize("params, named", [
    ("N=20,K=3,Q=9", "'Q'"), ("N=20,K=3,N=5", "N given twice"),
    ("K=3", "N is missing"), ("N=20,K=three", "K='three'"), ("N,K=3", "N=''"),
])
def test_bench_params_name_the_bad_parameter(params, named, capsys):
    assert main(["bench", "--suite", "arm", "--params", params]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --params: ")
    assert named in captured.err and captured.err.count("\n") == 1


def test_usage_and_parse_errors_exit_2(tmp_path, capsys):
    assert main(["run", "--tier", "source", "--program",
                 str(tmp_path / "missing.vl")]) == 2
    bad = tmp_path / "bad.vl"
    bad.write_text("x := ;")
    assert main(["run", "--tier", "source", "--program", str(bad)]) == 2
    tier = tmp_path / "tier.vl"
    tier.write_text('shift("a")')
    assert main(["run", "--tier", "source", "--program", str(tier)]) == 2
    assert main(["nonsense"]) == 2


def test_deep_nesting_is_a_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.vl"
    deep.write_text("y := " + "(" * 3000 + "1.0" + ")" * 3000 + ";")
    assert main(["run", "--tier", "source", "--program", str(deep)]) == 2
    assert "nesting deeper than" in capsys.readouterr().err


def test_semantic_errors_exit_3(tmp_path, capsys):
    bad = tmp_path / "log.vl"
    bad.write_text("x := log(0.0 - 2.0)")
    assert main(["run", "--tier", "source", "--program", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "PrimitiveDomainError" in err


def test_thread_budget_exits_3(tmp_path, capsys):
    # 2000 x 2000 threads: refused at the inner loop's extend
    program = tmp_path / "wide.vl"
    program.write_text("for a:int in range(2000) { "
                       "for b:int in range(2000) { skip } }")
    for tier in ("target", "relaxed"):
        translated = tmp_path / f"wide_{tier}.vl"
        assert main(["translate", "--to", tier, str(program),
                     "--out", str(translated)]) == 0
        assert main(["run", "--tier", tier, "--program",
                     str(translated)]) == 3
        assert "ThreadBudgetExceeded" in capsys.readouterr().err


def test_dense_int64_overflow_exits_3_without_traceback(tmp_path, capsys):
    # 3037000500 ** 2 leaves int64: the sparse backend keeps the Python int,
    # the dense one refuses it with a named error
    program = tmp_path / "big.vl"
    program.write_text("n:int := 3037000500; for t:int in range(3) { "
                       "m:int := mul(n:int, n:int); score(to_real(m:int)) }")
    translated = tmp_path / "big_t.vl"
    assert main(["translate", "--to", "target", str(program),
                 "--out", str(translated)]) == 0
    code, out = run_cli(["run", "--tier", "target", "--backend", "sparse",
                         "--program", str(translated)], capsys)
    assert code == 0
    assert json.loads(out)["scoreTensor"]["[]"] == pytest.approx(
        3.0 * 3037000500 ** 2)
    proc = cli_process(["run", "--tier", "target", "--backend", "dense",
                        "--program", str(translated)])
    assert proc.returncode == 3
    assert proc.stderr.startswith("IntOverflow: int 9223372037000250000 ")
    assert "Traceback" not in proc.stderr


def test_an_underflowing_normal_variance_runs_without_traceback(tmp_path):
    # 2 * sd * sd is 0.0 here; the scalar rule once divided by it
    program = tmp_path / "tiny_sd.vl"
    program.write_text("x := 1.0; score(normal_logpdf(x, 0.0, 1e-170))")
    proc = cli_process(["run", "--tier", "source", "--program", str(program)])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["score"] == -math.inf


def test_a_rebound_extend_string_names_the_first_member(tmp_path):
    # the error names the first member in chain order, whatever the hash
    # seed or the members' addresses
    program = tmp_path / "rebound.vl"
    program.write_text('extend_index("a", 9) { extend_index("a", 2) { skip } }')
    for seed in "0123":
        proc = cli_process(["run", "--tier", "target", "--program",
                            str(program)], PYTHONHASHSEED=seed)
        assert proc.returncode == 3
        assert proc.stderr == ('StringAlreadyPresent: string "a" already '
                               'bound in [("a",0)]\n')
