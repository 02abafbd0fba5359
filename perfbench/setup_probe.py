"""Time one workload's set-up in a fresh process and print it as JSON.

    python3 perfbench/setup_probe.py WORKLOAD SEED

The clock starts before `import txmonsim` and stops when the workload's
registries, pre-states, scenario specs and plans are built, that is when its
first transaction could start. Interpreter start-up is not counted.
"""

import time

start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import txmonsim  # noqa: E402,F401
import txmonsim.checks  # noqa: E402,F401
import txmonsim.equivalence  # noqa: E402,F401
import txmonsim.serialize  # noqa: E402,F401

imported = time.perf_counter()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path("."))
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "inputs_s": built - imported}))
