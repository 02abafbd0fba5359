"""The golden hashes hold under a second string-hash seed.

The iteration order of sets and dicts built from strings depends on
`PYTHONHASHSEED`, so a serializer or harness that leaks that order can match
the golden hashes under one seed and miss them under another. This runs
`tests/test_golden.py` in a child interpreter with the seed fixed at 31337.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_golden_hashes_hold_under_hash_seed_31337():
    env = dict(os.environ, PYTHONHASHSEED="31337")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_golden.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout + child.stderr
