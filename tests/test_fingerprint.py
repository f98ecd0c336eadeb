"""Results do not move.  `_fingerprint.py` digests the scores, traces,
state texts, relaxed flags and errors of 2,432 runs on both backends
(target and relaxed tier, bench shapes, generated programs and the
partial-operator reproducers).  It must print the committed digest under
two hash seeds, and in a process whose indices sit at other addresses.  A
change that alters results on purpose updates `DIGEST` and says why."""

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from _support import python_process

DIGEST = "2432 ca88fa214c35722b8a3da34736729d6c54681ea235215715b14fe07be1924305"


# Runs `_fingerprint.py` after building and keeping a few thousand unrelated
# indices.  An index hashes by identity, so every index of the runs, and any
# set order derived from them, sits elsewhere than in a plain process.
SHIFTED = """
import runpy, sys
from vecloop.indices import Index
kept = [Index(((f"pad{n}", n), ("q", n % 7))) for n in range(5000)]
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def test_fingerprint_does_not_follow_hash_seed():
    # three fresh interpreters, two at a time
    path = Path(__file__).parent / "_fingerprint.py"
    script = path.read_text()
    runs = [lambda: python_process(script, PYTHONHASHSEED="0"),
            lambda: python_process(script, PYTHONHASHSEED="1"),
            lambda: python_process(SHIFTED, str(path), PYTHONHASHSEED="0")]
    with ThreadPoolExecutor(2) as pool:
        procs = list(pool.map(lambda run: run(), runs))
    for proc in procs:
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == DIGEST
