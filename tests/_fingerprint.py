"""A digest of what the vectorised interpreters compute, to compare two
checkouts of vecloop: equal digests mean the same scores, traces, state
texts and errors on every case below, on both backends.

The cases: arm N=100 K=2, hmm T=100 order 2, tcm 4x30 and arm N=48 K=16,
each vectorised (target tier) and relaxed, on `bench`'s seeded-normal
database; generator seeds 0-299, each program vectorised and relaxed, and
`gen_target_case` in the fixpoint and the unrolled mode, on
`gen_rdb(seed)`; and the four partial-operator reproducers (a loop whose
speculative round 1 reads a stale value outside an operator's domain),
each vectorised and relaxed, on a const-0 database.  A record is one run:
its score tensor, loop trace and `canonical_text()`, and a relaxed run's
flag too, or its error class and message.  That is 2,432 records.

Run it with the checkout to fingerprint first on the path:

    PYTHONPATH=src python tests/_fingerprint.py
    PYTHONPATH=/path/to/other/checkout/src python tests/_fingerprint.py

It prints the number of records and the sha256 of all of them.
"""

from __future__ import annotations

import hashlib

from vecloop.bench import _bench_db, arm_program, hmm_program, tcm_program
from vecloop.harness import GenConfig, gen_program, gen_rdb, gen_target_case
from vecloop.parser import parse
from vecloop.rdb import Rdb
from vecloop.relaxed import run_relaxed
from vecloop.state import DENSE, SPARSE
from vecloop.target_interp import FIXPOINT, UNROLLED, run_tgt
from vecloop.translate import vectorise, vectorise_relaxed

BACKENDS = (SPARSE, DENSE)

# The scalar run scores each of these; round 1 of the speculative runs
# reads y = 0.0 (n = 0) at t = 1, outside the operator's domain.
PARTIAL_TEMPLATE = ("{init}; for t:int in range(3) {{ "
                    "ifz lt(t:int, 1) {{ {set_one} }} else {{ skip }}; "
                    "score({expr}) }}")
PARTIAL_OPERATORS = {
    "log": ("y := 0.0", "y := 1.0", "log(y)"),
    "div": ("y := 0.0", "y := 1.0", "div(1.0, y)"),
    "mod": ("n:int := 0", "n:int := 1", "to_real(mod(5, n:int))"),
    "normal_logpdf": ("y := 0.0", "y := 1.0", "normal_logpdf(0.0, 0.0, y)"),
}


def record(run) -> str:
    """A run's record; a relaxed run returns (outcome, flag)."""
    try:
        out = run()
    except Exception as err:
        return f"{type(err).__name__}: {err}"
    out, *flag = out if isinstance(out, tuple) else (out,)
    return "\n".join((repr(out.score), repr(out.trace),
                      out.state.canonical_text(), *map(repr, flag)))


def both_tiers(label: str, source, db):
    """(label, thunk) for the target and the relaxed run of `source`."""
    target, relaxed = vectorise(source), vectorise_relaxed(source)
    for b in BACKENDS:
        yield (f"{label} target {b}",
               lambda p=target, b=b: run_tgt(p, db, backend=b))
        yield (f"{label} relaxed {b}",
               lambda p=relaxed, b=b: run_relaxed(p, db, backend=b))


def runs():
    """(label, thunk) for every run, in a fixed order."""
    db = _bench_db()
    for label, source in (("arm 100 2", arm_program(100, 2)),
                          ("hmm 100 2", hmm_program(100, 2)),
                          ("tcm 4 30", tcm_program(4, 30)),
                          ("arm 48 16", arm_program(48, 16))):
        yield from both_tiers(label, source, db)
    for seed in range(300):
        cfg = GenConfig(seed=seed)
        db = gen_rdb(seed)
        source = gen_program(cfg)
        case, chain = gen_target_case(seed, cfg)
        yield from both_tiers(f"seed {seed}", source, db)
        for b in BACKENDS:
            for mode in (FIXPOINT, UNROLLED):
                yield (f"seed {seed} case {mode} {b}",
                       lambda b=b, mode=mode: run_tgt(case, db, chain=chain,
                                                      mode=mode, backend=b))
    const_zero = Rdb({}, "const", 0.0, 0)
    for op, (init, set_one, expr) in PARTIAL_OPERATORS.items():
        source = parse(PARTIAL_TEMPLATE.format(init=init, set_one=set_one,
                                               expr=expr))
        yield from both_tiers(f"partial {op}", source, const_zero)


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for label, run in runs():
        digest.update(f"{label}\n{record(run)}\n".encode())
        count += 1
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
