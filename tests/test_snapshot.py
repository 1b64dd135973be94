"""The benchmark's outcome digests equal its recorded snapshot.

`bench/run.py --digests-only` prints, for one workload, the digest of every
op's outcome (status, exact value, float bits, mean-set parts, exit code).
A change that moves any of them drifts from `bench/snapshot.json`, so it
fails here, not only in a benchmark run.  The test reads `bench/` and
writes nothing there.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("workload", ["exact", "limits", "stream", "cli"])
def test_digests_equal_the_snapshot(workload):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--digests-only"],
        cwd=BENCH.parent,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    got = json.loads(done.stdout.splitlines()[-1])
    want = json.loads((BENCH / "snapshot.json").read_text())[workload]
    drift = sorted(k for k in want.keys() | got.keys() if got.get(k) != want.get(k))
    assert not drift, drift[:20]
