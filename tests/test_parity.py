"""The parity record: a tiny end-to-end run must reproduce ``parity.json``.

``scripts/parity.py`` pretrains, fine-tunes with all four losses, distills,
builds a store and ranks, in a child process with BLAS pinned to one thread,
and prints the digests of every file, history and ranking plus their float
values. On the environment stamp of a recorded entry every digest must match
exactly: a change that claims to keep every byte is held to it. On any other
stamp the floats must agree within the recorded tolerance, and the digests
that drifted are reported as a warning. The test never skips.

After a change that is meant to alter results, rewrite the record with
``python3 scripts/parity.py --write`` and say which entries changed and why.
"""

import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def test_tiny_pipeline_reproduces_the_parity_record():
    expected = json.loads((ROOT / "tests" / "parity.json").read_text())
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "parity.py")],
                          capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    current = json.loads(proc.stdout)

    assert sorted(current["values"]) == sorted(expected["values"])
    for name, want in expected["values"].items():
        np.testing.assert_allclose(current["values"][name], want, rtol=expected["rtol"],
                                   atol=expected["atol"], err_msg=name)

    entries = expected["digests"]
    same = [e["digests"] for e in entries if e["environment"] == current["environment"]]
    if same:
        changed = sorted(k for k in same[0].keys() | current["digests"].keys()
                         if same[0].get(k) != current["digests"].get(k))
        assert not changed, f"digests changed on a recorded environment: {changed}"
    else:
        drift = {k: sum(e["digests"].get(k) != v for e in entries) for k, v in current["digests"].items()}
        warnings.warn(
            f"environment {current['environment']} has no recorded digests; floats agree within "
            f"rtol {expected['rtol']}, digests differing from the {len(entries)} recorded "
            f"environment(s): {sorted(k for k, n in drift.items() if n)}"
        )
