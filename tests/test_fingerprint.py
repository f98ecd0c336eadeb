"""Results do not move.  `_fingerprint.py` digests the scores, traces,
state texts, relaxed flags and errors of 2,432 runs on both backends
(target and relaxed tier, bench shapes, generated programs and the
partial-operator reproducers).  It must print the committed digest under
two hash seeds.  A change that alters results on purpose updates `DIGEST`
and says why."""

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from _support import python_process

DIGEST = "2432 ca88fa214c35722b8a3da34736729d6c54681ea235215715b14fe07be1924305"


def test_fingerprint_does_not_follow_hash_seed():
    # two fresh interpreters, run side by side
    script = (Path(__file__).parent / "_fingerprint.py").read_text()
    with ThreadPoolExecutor(2) as pool:
        procs = list(pool.map(lambda seed: python_process(
            script, PYTHONHASHSEED=seed), ("0", "1")))
    for proc in procs:
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == DIGEST
