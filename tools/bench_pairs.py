"""Run the benchmark in alternating parent/change pairs and record the result.

    python3 tools/bench_pairs.py PARENT_REF PAIRS

The change is this checkout, as its files stand; the parent is PARENT_REF,
exported with `git archive` into a temporary directory that is removed
afterwards. For
every workload in BENCHMARK.json the script runs

    perfbench/run.py --workload W --seed 0 --seconds S --trace 0

PAIRS times on each side, with S the file's `run_seconds`. Within a pair the
two runs follow each other, and the side that runs first alternates from
pair to pair, so slow drift on the machine falls on both sides alike. The
result goes to BENCH_<short sha of HEAD>.json at the repository root: per
workload and end-to-end metric, the median and quartiles of each side and
the number of pairs the change won, then every run with its `failed` count,
plus the Python version and CPU count of the machine.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_once(checkout: Path, workload: str, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    out = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "correct": out["correct"],
        "failed": out["failed"],
        "metrics": {name: m["value"] for name, m in out["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        values = {side: [r["metrics"][name] for r in runs if r["side"] == side] for side in SIDES}
        won = sum(
            (c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"])
        )
        out[name] = {
            "better": m["better"],
            "bound": m["bound"],
            **{side: spread(values[side]) for side in SIDES},
            "change_won": won,
        }
    return out


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    parent_ref, pairs = sys.argv[1], int(sys.argv[2])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    parent_sha = git("rev-parse", parent_ref)
    head = git("rev-parse", "--short", "HEAD")
    edited = bool(git("status", "--porcelain", "--untracked-files=no"))
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent_dir = Path(tmp) / "parent"
        parent_dir.mkdir()
        archive = subprocess.run(
            ["git", "archive", parent_sha], cwd=ROOT, capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_dir)], input=archive, check=True)
        checkouts = {"parent": parent_dir, "change": ROOT}
        workloads = {}
        for w in bench["workloads"]:
            runs = []
            for pair in range(pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    run = run_once(checkouts[side], w["name"], seconds)
                    runs.append({"pair": pair, "side": side, "first": position == 0, **run})
                    print(f"{w['name']} pair {pair} {side}: failed {run['failed']}, "
                          f"ops_per_s {run['metrics']['ops_per_s']:.1f}", file=sys.stderr)
            workloads[w["name"]] = {
                "metrics": summarize(runs, bench["end_to_end"]), "runs": runs,
            }
    result = {
        "parent": parent_sha,
        "change": git("rev-parse", "HEAD"),
        "change_has_uncommitted_edits": edited,
        "pairs": pairs,
        "run_seconds": seconds,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{head}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
