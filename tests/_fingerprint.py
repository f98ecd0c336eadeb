"""A digest of what the vectorised interpreters compute, to compare two
checkouts of vecloop: equal digests mean the same scores, traces, state
texts and errors on every case below, on both backends.

The cases: arm N=100 K=2, hmm T=100 order 2, tcm 4x30 and arm N=48 K=16,
each vectorised (target tier) and relaxed, on `bench`'s seeded-normal
database; and generator seeds 0-299, each program vectorised and relaxed,
and `gen_target_case` in the fixpoint and the unrolled mode, on
`gen_rdb(seed)`.  A record is one run: its score tensor, loop trace and
`canonical_text()`, or its error class and message.

Run it with the checkout to fingerprint first on the path:

    PYTHONPATH=src python tests/_fingerprint.py
    PYTHONPATH=/path/to/other/checkout/src python tests/_fingerprint.py

It prints the number of records and the sha256 of all of them.
"""

from __future__ import annotations

import hashlib

from vecloop.bench import _bench_db, arm_program, hmm_program, tcm_program
from vecloop.harness import GenConfig, gen_program, gen_rdb, gen_target_case
from vecloop.relaxed import run_relaxed
from vecloop.state import DENSE, SPARSE
from vecloop.target_interp import FIXPOINT, UNROLLED, run_tgt
from vecloop.translate import vectorise, vectorise_relaxed

BACKENDS = (SPARSE, DENSE)


def record(run) -> str:
    try:
        out = run()
    except Exception as err:
        return f"{type(err).__name__}: {err}"
    return "\n".join((repr(out.score), repr(out.trace),
                      out.state.canonical_text()))


def runs():
    """(label, thunk) for every run, in a fixed order."""
    db = _bench_db()
    for label, source in (("arm 100 2", arm_program(100, 2)),
                          ("hmm 100 2", hmm_program(100, 2)),
                          ("tcm 4 30", tcm_program(4, 30)),
                          ("arm 48 16", arm_program(48, 16))):
        target, relaxed = vectorise(source), vectorise_relaxed(source)
        for b in BACKENDS:
            yield (f"{label} target {b}",
                   lambda p=target, b=b: run_tgt(p, db, backend=b))
            yield (f"{label} relaxed {b}",
                   lambda p=relaxed, b=b: run_relaxed(p, db, backend=b)[0])
    for seed in range(300):
        cfg = GenConfig(seed=seed)
        db = gen_rdb(seed)
        source = gen_program(cfg)
        target, relaxed = vectorise(source), vectorise_relaxed(source)
        case, chain = gen_target_case(seed, cfg)
        for b in BACKENDS:
            yield (f"seed {seed} target {b}",
                   lambda p=target, b=b: run_tgt(p, db, backend=b))
            yield (f"seed {seed} relaxed {b}",
                   lambda p=relaxed, b=b: run_relaxed(p, db, backend=b)[0])
            for mode in (FIXPOINT, UNROLLED):
                yield (f"seed {seed} case {mode} {b}",
                       lambda b=b, mode=mode: run_tgt(case, db, chain=chain,
                                                      mode=mode, backend=b))


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for label, run in runs():
        digest.update(f"{label}\n{record(run)}\n".encode())
        count += 1
    print(count, digest.hexdigest())


if __name__ == "__main__":
    main()
