"""Reference figures for comparison with ROADMAP item 1's table.

    python3 perfbench/reference.py

Prints µs per trace record at DFS fan-out 100 / 1,000 / 4,000, µs per record
at fan-out 500 over 10 / 100 / 1,000 accounts, the traced memory of a
3,000-operation BFS trace, and the wall time of the three suites. Each time is
the median of five repeats in this one process. These figures are recorded
in the README, not gated.
"""

from __future__ import annotations

import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from txmonsim import core  # noqa: E402
from txmonsim.contracts import build, callspec  # noqa: E402
from txmonsim.core import Account, ChainState, Operation, SchedulerKind, VSeq  # noqa: E402
from txmonsim.engine import Engine, EngineConfig  # noqa: E402
from txmonsim.equivalence import run_equivalence_suite  # noqa: E402
from txmonsim.scenarios import counterexample_suite, run_flashloan_suite  # noqa: E402

REPEATS = 5


def fanout_tx(n: int, sinks: int, scheduler: SchedulerKind):
    """A forwarder emitting `n` calls spread over `sinks` sink accounts."""
    sink = build("sink_C", {}, 0).contract
    registry = {"B": build("forwarder_B", {}, 0).contract}
    accounts = {"B": Account(), "ext": Account()}
    for i in range(sinks):
        registry[f"S{i}"] = sink
        accounts[f"S{i}"] = Account()
    plan = VSeq(tuple(callspec(f"S{i % sinks}") for i in range(n)))
    engine = Engine(registry, EngineConfig(scheduler=scheduler, gas_limit=2 * n + 10))
    return engine, ChainState(accounts), Operation(dest="B", src="ext", method="run", param=plan)


def us_per_record(n: int, sinks: int, scheduler: SchedulerKind = SchedulerKind.DFS) -> float:
    engine, state, op = fanout_tx(n, sinks, scheduler)
    samples = []
    for _ in range(REPEATS):
        core._value_blob.cache_clear()
        start = time.perf_counter()
        result = engine.run_transaction(state, op)
        samples.append((time.perf_counter() - start) / len(result.trace.records))
        del result
    return 1e6 * statistics.median(samples)


def trace_mib(n: int) -> tuple[float, int]:
    engine, state, op = fanout_tx(n, 1, SchedulerKind.BFS)
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    result = engine.run_transaction(state, op)
    held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return held / 2**20, len(result.trace.records)


def wall_s(fn) -> float:
    samples = []
    for _ in range(REPEATS):
        core._value_blob.cache_clear()
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main() -> None:
    for n in (100, 1000, 4000):
        print(f"per record, DFS fan-out {n:5d}: {us_per_record(n, 1):8.1f} us")
    for sinks in (10, 100, 1000):
        print(f"per record, fan-out 500 at {sinks:4d} accounts: {us_per_record(500, sinks):8.1f} us")
    mib, records = trace_mib(3000)
    print(f"3,000-op BFS trace: {mib:.1f} MiB traced, {records} records, "
          f"{mib * 2**20 / records:.0f} B per record")
    print(f"counterexample suite: {1000 * wall_s(counterexample_suite):.1f} ms")
    print(f"flashloan suite: {wall_s(run_flashloan_suite):.3f} s")
    print(f"equivalence suite, 50 instances: {wall_s(lambda: run_equivalence_suite(0, 50)):.2f} s")


if __name__ == "__main__":
    main()
