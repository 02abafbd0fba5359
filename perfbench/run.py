"""Run one txmonsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
`src/`. The workload runs whole rounds in this process until S seconds have
passed. With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics; with `--trace 1` the per-module spans are
recorded and the per-layer metrics are printed instead. A summary for people
goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 11


def parse_args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def import_program() -> None:
    """Import txmonsim from this checkout's sources, and nowhere else."""
    if not (SRC / "txmonsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no txmonsim sources at {SRC / 'txmonsim'}")
    sys.path.insert(0, str(SRC))
    import txmonsim

    if Path(txmonsim.__file__).resolve().parent != SRC / "txmonsim":
        sys.exit(f"perfbench: imported txmonsim from {txmonsim.__file__}, not {SRC}")


def setup_time(workload: str, seed: int) -> dict:
    """Set-up timing of one fresh process."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def run_rounds(workload, rec, seconds: float, probe) -> tuple[int, list[dict]]:
    """Run whole rounds for `seconds` of round time. Set-up probes run
    between rounds at even intervals, so that a burst of interference on the
    machine meets few of them; their time is not counted in the window."""
    rounds, probes, first = 0, [], None
    spent = 0.0
    while True:
        if len(probes) < SETUP_PROBES and spent >= len(probes) * seconds / SETUP_PROBES:
            probes.append(probe())
        before = (rec.attempted, rec.failed)
        start = time.perf_counter()
        workload.round(rec)
        spent += time.perf_counter() - start
        rounds += 1
        this = (rec.attempted - before[0], rec.failed - before[1])
        first = first or this
        if this != first:
            rec.run_problems.append(f"round {rounds}: attempted/failed {this}, first round {first}")
        if spent >= seconds:
            break
    while len(probes) < SETUP_PROBES:
        probes.append(probe())
    rec.fresh_cache()
    return rounds, probes


def trace_bytes_per_record(workload) -> float:
    """Allocation retained by each transaction's result, per trace record,
    over one more round with tracemalloc on."""
    from txmonsim.engine import Engine

    import workloads

    original = Engine.run_transaction
    seen = [0, 0]

    def measured(engine, *args, **kwargs):
        before = tracemalloc.get_traced_memory()[0]
        result = original(engine, *args, **kwargs)
        seen[0] += tracemalloc.get_traced_memory()[0] - before
        seen[1] += len(result.trace.records)
        return result

    Engine.run_transaction = measured
    tracemalloc.start()
    try:
        workload.round(workloads.Recorder())
    finally:
        tracemalloc.stop()
        Engine.run_transaction = original
    return seen[0] / max(1, seen[1])


def ops_per_s(rec) -> float:
    """Operations of one round over the sum of each segment's median time."""
    ops = sum(rec.segment_ops.values())
    return ops / sum(statistics.median(times) for times in rec.segment_s.values())


def end_to_end(rec, workload, probes) -> dict:
    return {
        "ops_per_s": (ops_per_s(rec), "1/s"),
        "tx_ms_p50": (1000 * statistics.median(rec.tx_s), "ms"),
        "tx_ms_tail": (1000 * percentile(rec.tx_s, workload.tail_percentile), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (statistics.median(p["import_s"] + p["inputs_s"] for p in probes), "s"),
    }


def per_layer(rec, tracer, rounds: int, bytes_per_record: float, probes) -> dict:
    c = rec.count
    per_round = {}

    def calls(metric: str, span: str) -> None:
        per_round[metric] = (tracer.calls(span), "count")

    def ms(metric: str, span: str, self_time: bool = False) -> None:
        per_round[metric] = (tracer.ms(span, self_time), "ms")

    calls("core.digest.calls", "core.digest")
    ms("core.digest.self_ms", "core.digest", True)
    calls("core.storage_digest.calls", "core.storage_digest")
    ms("core.storage_digest.self_ms", "core.storage_digest", True)
    calls("core.state_update.calls", "core.state_update")
    ms("core.state_update.self_ms", "core.state_update", True)
    calls("core.context_update.calls", "core.context_update")
    ms("core.context_update.self_ms", "core.context_update", True)
    per_round["core.value_blob.entries"] = (c["blob_entries"], "count")
    calls("engine.run_transaction.calls", "engine.run_transaction")
    ms("engine.run_transaction.ms", "engine.run_transaction")
    ms("engine.self_ms", "engine.run_transaction", True)
    for name in ("ops", "records", "emitted", "gas_used", "aborts"):
        per_round[f"engine.{name}"] = (c[name], "count")
    calls("mechanisms.fold_effects.calls", "mechanisms.fold_effects")
    ms("mechanisms.fold_effects.self_ms", "mechanisms.fold_effects", True)
    calls("mechanisms.run_hookups.calls", "mechanisms.run_hookups")
    ms("mechanisms.run_hookups.self_ms", "mechanisms.run_hookups", True)
    per_round["mechanisms.readings"] = (c["readings"], "count")
    per_round["monitors.hook_records"] = (c["hook_records"], "count")
    ms("contracts.step.self_ms", "contracts.step", True)
    calls("equivalence.run_case.calls", "equivalence.run_case")
    ms("equivalence.run_case.ms", "equivalence.run_case")
    for fn in ("run_scenario", "counterexample_suite", "run_flashloan_suite", "verify_report"):
        ms(f"scenarios.{fn}.ms", f"scenarios.{fn}")
    calls("checks.check_all.calls", "checks.check_all")
    ms("checks.check_all.ms", "checks.check_all")
    ms("checks.check_queue_laws.self_ms", "checks.check_queue_laws", True)
    ms("checks.check_replay.self_ms", "checks.check_replay", True)
    ms("serialize.dump_traces.ms", "serialize.dump_traces")
    ms("serialize.report_to_json.ms", "serialize.report_to_json")
    ms("serialize.report_from_json.ms", "serialize.report_from_json")

    # Counts and times above are totals over the run; report them per round,
    # since every round runs the same operations.
    metrics = {k: (v / rounds, unit) for k, (v, unit) in per_round.items()}
    lookups = c["blob_hits"] + c["blob_misses"]
    metrics["core.value_blob.hit_ratio"] = (c["blob_hits"] / lookups if lookups else 0.0, "ratio")
    ops = c["ops"]
    metrics["engine.us_per_op"] = (1000 * tracer.ms("engine.run_transaction") / ops if ops else 0.0, "us")
    metrics["engine.queue_len.mean"] = (c["queue_len_sum"] / ops if ops else 0.0, "count")
    metrics["engine.queue_len.max"] = (rec.queue_len_max, "count")
    metrics["engine.aborted_op_share"] = (c["aborted_ops"] / ops if ops else 0.0, "ratio")
    metrics["engine.trace_bytes_per_record"] = (bytes_per_record, "B")
    metrics["serialize.dump_traces.bytes"] = (rec.dumped_bytes / rounds, "B")
    metrics["setup.import_ms"] = (1000 * statistics.median(p["import_s"] for p in probes), "ms")
    metrics["setup.inputs_ms"] = (1000 * statistics.median(p["inputs_s"] for p in probes), "ms")
    return metrics


def main() -> None:
    args = parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # A fixed string-hash seed gives every run the same dict and set
        # layouts; with random ones, timings differ from process to process
        # by a few per cent on the same inputs.
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED="0"))
    import_program()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = Tracer() if args.trace else None
        workload = workloads.WORKLOADS[args.workload](args.seed, out_dir, tracer)
        rec = workloads.Recorder()
        if tracer is not None:
            tracer.install()
        try:
            started = time.perf_counter()
            rounds, probes = run_rounds(
                workload, rec, args.seconds, lambda: setup_time(args.workload, args.seed))
            took = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            metrics = per_layer(rec, tracer, rounds, trace_bytes_per_record(workload), probes)
        else:
            metrics = end_to_end(rec, workload, probes)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass

    tail = percentile(rec.tx_s, workload.tail_percentile)
    n_beyond = sum(1 for t in rec.tx_s if t > tail)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": rounds,
        "seconds": round(took, 2), "transactions": len(rec.tx_s),
        "tail": f"p{workload.tail_percentile:g} with {n_beyond} beyond",
        "ops_per_s": round(ops_per_s(rec), 1), "checks": rec.checked,
        "failures": sorted(set(rec.failures))[:20], "run_problems": rec.run_problems[:20],
    }
    print(json.dumps(summary, indent=1), file=sys.stderr)
    print(json.dumps({
        "correct": not rec.run_problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
