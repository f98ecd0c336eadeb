"""The benchmark's workloads: which programs, databases and oracles each runs.

Every input is a pure function of the workload seed.  Programs come from
vecloop itself (the `bench` model shapes and the `harness` generator); the
expected scores come from `model`, which shares no code with vecloop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import model
from vecloop import bench, harness, parser, translate
from vecloop.indices import AChain
from vecloop.rdb import Rdb
from vecloop.syntax import Cmd

# shapes-wide: few rounds, wide antichains, maps with hundreds of entries
SWEEP = (25, 50, 100, 200)
SWEEP_ORDER = 2
TCM_SHAPE = (4, 30)
# arm-deep: K + 1 rounds of shift/copy/fixed-point on moderate maps
DEEP_N, DEEP_K = 48, 16
# fuzz-corpus: generator seeds 0 .. FUZZ_PROGRAMS - 1 under the default GenConfig
FUZZ_PROGRAMS = 300

# ROADMAP item 2: speculative round 1 lets iteration 1 read the stale y = 0
# (n = 0), which lies outside the operator's domain.  The scalar run is fine.
_PARTIAL_TEMPLATE = ("{init}; for t:int in range(3) {{ "
                     "ifz lt(t:int, 1) {{ {set_one} }} else {{ skip }}; "
                     "score({expr}) }}")
PARTIAL_OPERATORS = {
    "log": ("y := 0.0", "y := 1.0", "log(y)", 0.0),
    "div": ("y := 0.0", "y := 1.0", "div(1.0, y)", 3.0),
    "mod": ("n:int := 0", "n:int := 1", "to_real(mod(5, n:int))", 0.0),
    "normal_logpdf": ("y := 0.0", "y := 1.0", "normal_logpdf(0.0, 0.0, y)",
                      3 * model.logpdf(0.0, 0.0, 1.0)),
}
PARTIAL_ORACLES = ("soundness", "relaxed")


@dataclass
class Case:
    """One source program with everything the timed phases need."""

    label: str
    program: Cmd
    db: Rdb
    oracles: tuple[str, ...]
    # the independent reference score, computed only when outputs are checked
    model_score: Optional[Callable[[], float]] = None
    expected_rounds: Optional[int] = None
    # fuzz only: the intfix oracle's target program and antichain
    target_case: Optional[tuple[Cmd, AChain]] = None
    seed: int = 0
    # shapes-wide sweep membership, for the growth-exponent fit
    shape: str = ""
    size: int = 0

    def __post_init__(self) -> None:
        self.target = translate.vectorise(self.program)
        self.relaxed = translate.vectorise_relaxed(self.program)


@dataclass
class Partial:
    """A partial-operator reproducer: the scalar run passes, the speculative
    oracles raise until speculation is made safe for partial operators."""

    label: str
    program: Cmd
    db: Rdb
    scalar_score: float


@dataclass
class Workload:
    cases: list[Case]
    partials: list[Partial]


def shapes_wide(seed: int) -> Workload:
    db = Rdb({}, "normal", 0.0, seed)
    cases = []
    for n in SWEEP:
        cases.append(Case(f"arm N={n} K={SWEEP_ORDER}",
                          bench.arm_program(n, SWEEP_ORDER), db, ("soundness",),
                          partial(model.arm_score, n, SWEEP_ORDER, seed),
                          min(SWEEP_ORDER + 1, n), shape="arm", size=n))
    for n in SWEEP:
        cases.append(Case(f"hmm T={n} order={SWEEP_ORDER}",
                          bench.hmm_program(n, SWEEP_ORDER), db, ("soundness",),
                          partial(model.hmm_score, n, SWEEP_ORDER, seed),
                          min(SWEEP_ORDER + 1, n), shape="hmm", size=n))
    s, t = TCM_SHAPE
    cases.append(Case(f"tcm S={s} T={t}", bench.tcm_program(s, t), db,
                      ("soundness",), partial(model.tcm_score, s, t, seed)))
    return Workload(cases, [])


def arm_deep(seed: int) -> Workload:
    db = Rdb({}, "normal", 0.0, seed)
    case = Case(f"arm N={DEEP_N} K={DEEP_K}", bench.arm_program(DEEP_N, DEEP_K),
                db, ("soundness",), partial(model.arm_score, DEEP_N, DEEP_K, seed),
                min(DEEP_K + 1, DEEP_N))
    return Workload([case], [])


def fuzz_corpus(seed: int) -> Workload:
    cases = []
    for k in range(FUZZ_PROGRAMS):
        cfg = harness.GenConfig(seed=k)
        cases.append(Case(f"gen seed={k}", harness.gen_program(cfg),
                          harness.gen_rdb(seed * 1000 + k),
                          ("embedding", "soundness", "intfix", "relaxed"),
                          target_case=harness.gen_target_case(k, cfg), seed=k))
    const_zero = Rdb({}, "const", 0.0, 0)
    partials = [
        Partial(op, parser.parse(_PARTIAL_TEMPLATE.format(
            init=init, set_one=set_one, expr=expr)), const_zero, score)
        for op, (init, set_one, expr, score) in PARTIAL_OPERATORS.items()
    ]
    return Workload(cases, partials)


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "shapes-wide": shapes_wide,
    "arm-deep": arm_deep,
    "fuzz-corpus": fuzz_corpus,
}
