"""Command-line front end.

    txmonsim run SCENARIO.json [--trace OUT] [overrides]   exit 0/1/2
    txmonsim diff A.trace B.trace [--subject A] [--upto N] exit 0/1/2
    txmonsim suite {counterexamples|flashloan|equivalence} exit 0/1
    txmonsim explain REPORT.json                           exit 0/1

Exit codes: 0 every transaction committed / every claim held; 1 an abort or a
failed claim; 2 a scenario or usage error. TXMONSIM_SUITE_DIR names where
suites drop their report bundles and where `run` looks for scenario files
not found relative to the working directory.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import click

from .core import Mechanism, MonitorMode, ScenarioError, SchedulerKind
from .equivalence import run_equivalence_suite
from .scenarios import (
    check_obs_equivalence,
    counterexample_suite,
    run_flashloan_suite,
    run_scenario,
    verify_report,
)
from .serialize import (
    dump_traces,
    load_traces,
    outcome_to_json,
    report_from_json,
    report_to_json,
    scenario_from_json,
    to_json,
)

SUITE_DIR_VAR = "TXMONSIM_SUITE_DIR"


def _suite_dir() -> Path:
    return Path(os.environ.get(SUITE_DIR_VAR, "reports"))


def _resolve_scenario(path: str) -> Path:
    p = Path(path)
    if p.exists():
        return p
    alt = _suite_dir() / path
    if alt.exists():
        return alt
    raise ScenarioError(f"scenario file not found: {path}")


@contextmanager
def _writing(what: str) -> Iterator[None]:
    """An output path that cannot be written is a usage error."""
    try:
        yield
    except OSError as exc:
        click.echo(f"{what} error: {exc}", err=True)
        sys.exit(2)


def _write_json(path: Path, payload: object) -> None:
    with _writing("output"):
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in payload.get("lines", []):
            click.echo(line)


@click.group()
def main() -> None:
    """Deterministic smart-contract transaction simulator."""


@main.command()
@click.argument("scenario_path")
@click.option("--scheduler", type=click.Choice(["dfs", "bfs"]), default=None)
@click.option("--gas", type=int, default=None, help="Gas limit override.")
@click.option("--mechanisms", default=None, help="Comma-separated mechanism override.")
@click.option(
    "--monitor-mode", type=click.Choice(["none", "operation", "transaction"]), default=None
)
@click.option("--trace", "trace_out", default=None, help="Write the trace file here.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text")
def run(scenario_path, scheduler, gas, mechanisms, monitor_mode, trace_out, fmt):
    """Run a scenario file and report per-transaction outcomes."""
    try:
        path = _resolve_scenario(scenario_path)
        spec = scenario_from_json(json.loads(path.read_text()))
        engine = spec.engine
        if scheduler is not None:
            engine = replace(engine, scheduler=SchedulerKind(scheduler))
        if gas is not None:
            engine = replace(engine, gas_limit=gas)
        if mechanisms is not None:
            names = [m for m in mechanisms.split(",") if m]
            engine = replace(engine, mechanisms=frozenset(Mechanism(m) for m in names))
        if monitor_mode is not None:
            engine = replace(engine, monitor_mode=MonitorMode(monitor_mode))
        spec = replace(spec, engine=engine)
        result = run_scenario(spec)
    except (ScenarioError, ValueError, OSError, json.JSONDecodeError) as exc:
        click.echo(f"scenario error: {exc}", err=True)
        sys.exit(2)

    if trace_out:
        with _writing("trace"):
            Path(trace_out).write_text(dump_traces(list(result.traces)))
    outcomes = [outcome_to_json(o) for o in result.outcomes]
    lines = [f"tx {i}: {o.kind}" for i, o in enumerate(result.outcomes)]
    _emit({"outcomes": outcomes, "lines": lines}, fmt)
    sys.exit(0 if result.all_committed else 1)


@main.command()
@click.argument("trace_a")
@click.argument("trace_b")
@click.option("--subject", default=None, help="Compare this contract's observations only.")
@click.option("--upto", type=click.IntRange(min=1), help="Compare through invocation N (from 1).")
def diff(trace_a, trace_b, subject, upto):
    """Compare two trace files: full records, or one contract's observations."""
    if upto is not None and subject is None:
        raise click.UsageError("--upto bounds --subject's invocations; give --subject too")
    try:
        ta = load_traces(Path(trace_a).read_text())
        tb = load_traces(Path(trace_b).read_text())
    except (ScenarioError, OSError, json.JSONDecodeError) as exc:
        click.echo(f"trace error: {exc}", err=True)
        sys.exit(2)
    if len(ta) != len(tb):
        click.echo(f"transaction counts differ: {len(ta)} vs {len(tb)}")
        sys.exit(1)
    for i, (x, y) in enumerate(zip(ta, tb)):
        if subject is not None:
            res = check_obs_equivalence(x, y, subject, upto)
            if not res.equal:
                d = res.divergence
                click.echo(
                    f"tx {i}: diverges at invocation {d.invocation} of {subject} "
                    f"on {d.field}: {d.left!r} vs {d.right!r}"
                )
                sys.exit(1)
        else:
            if x.meta != y.meta or x.records != y.records:
                for j, (r, s) in enumerate(zip(x.records, y.records)):
                    if r != s:
                        click.echo(f"tx {i}: first divergent record index {j}")
                        click.echo(json.dumps(to_json(r), sort_keys=True))
                        click.echo(json.dumps(to_json(s), sort_keys=True))
                        sys.exit(1)
                click.echo(f"tx {i}: traces differ in length or metadata")
                sys.exit(1)
    click.echo("traces equal")
    sys.exit(0)


@main.command()
@click.argument("name", type=click.Choice(["counterexamples", "flashloan", "equivalence"]))
@click.option("--seed", type=int, default=0)
@click.option("--instances", type=click.IntRange(min=1), default=200, help="Scenario count per transformer.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]), default="text")
@click.option("--out", "out_dir", default=None, help="Report directory (default TXMONSIM_SUITE_DIR).")
def suite(name, seed, instances, fmt, out_dir):
    """Run a named suite, write its report bundle, exit 0 only if it holds."""
    out = Path(out_dir) if out_dir else _suite_dir()
    with _writing("output"):
        out.mkdir(parents=True, exist_ok=True)
    ok = True
    lines: list[str] = []
    payload: dict = {}

    if name == "counterexamples":
        try:
            reports = counterexample_suite()
        except ScenarioError as exc:
            click.echo(f"counter-example suite failed: {exc}", err=True)
            sys.exit(1)
        payload["reports"] = []
        for report in reports:
            problems = verify_report(report)
            ok = ok and not problems
            _write_json(out / f"{report.name}.json", report_to_json(report))
            verdicts = {k: v.kind for k, v in report.verdicts.items()}
            payload["reports"].append(
                {"name": report.name, "verdicts": verdicts, "problems": problems}
            )
            status = "ok" if not problems else f"FAILED {problems}"
            lines.append(f"{report.name}: {status} ({len(report.traces)} traces)")

    elif name == "flashloan":
        fl = run_flashloan_suite()
        agreement = fl.agreement()
        disagreements = {k: sorted(v) for k, v in agreement.items() if len(v) > 1}
        violations = fl.safety_violations()
        wrong = fl.wrong_verdicts()
        ok = fl.ok
        payload["rows"] = [
            {
                "scenario": r.scenario,
                "variant": r.variant,
                "outcome": r.outcome_kind,
                "expected_commit": r.expected_commit,
                "lender_pre": list(r.lender_balances_pre),
                "lender_post": list(r.lender_balances_post),
            }
            for r in fl.rows
        ]
        payload["agreement"] = {k: sorted(v) for k, v in agreement.items()}
        _write_json(out / "flashloan.json", payload)
        for r in fl.rows:
            flag = "" if r.committed == r.expected_commit else "  <- unexpected verdict"
            lines.append(f"{r.scenario:32s} {r.variant:16s} {r.outcome_kind}{flag}")
        lines.append(f"agreement: {'ok' if not disagreements else disagreements}")
        lines.append(f"safety: {'ok' if not violations else violations}")
        lines.append(f"expected verdicts: {'ok' if not wrong else [r.scenario for r in wrong]}")

    else:  # equivalence
        reports = run_equivalence_suite(seed=seed, instances=instances)
        payload["cases"] = []
        for rep in reports:
            ok = ok and rep.ok
            payload["cases"].append(
                {
                    "case": rep.case,
                    "scenarios": rep.scenarios,
                    "transactions": rep.transactions,
                    "commits": rep.commits,
                    "aborts": rep.aborts,
                    "failures": [
                        {"seed": f.seed, "tx": f.tx_index, "problem": f.problem}
                        for f in rep.failures
                    ],
                }
            )
            status = "ok" if rep.ok else f"{len(rep.failures)} failures"
            lines.append(
                f"{rep.case:32s} {status}  ({rep.scenarios} scenarios, "
                f"{rep.commits} commits, {rep.aborts} aborts)"
            )
        _write_json(out / "equivalence.json", payload)

    payload["lines"] = lines
    _emit(payload, fmt)
    sys.exit(0 if ok else 1)


@main.command()
@click.argument("report_path")
def explain(report_path):
    """Re-verify a saved counter-example report and print its claims."""
    try:
        report = report_from_json(json.loads(Path(report_path).read_text()))
    except (ScenarioError, OSError, json.JSONDecodeError) as exc:
        click.echo(f"report error: {exc}", err=True)
        sys.exit(2)
    problems = verify_report(report)
    click.echo(f"report: {report.name}")
    for key in sorted(report.traces):
        n = len(report.traces[key].records)
        click.echo(f"  trace {key}: {n} records, verdict {report.verdicts[key].kind}")
    for c in report.queue_claims:
        click.echo(f"  queue[{c.trace}]: {[' '.join(s) for s in c.shapes]}")
    for c in report.obs_claims:
        rel = "==" if c.expect_equal else "!="
        click.echo(f"  obs[{c.trace_a}] {rel} obs[{c.trace_b}] for {c.subject} upto {c.upto}")
    for c in report.cross_obs_claims:
        click.echo(
            f"  obs[{c.trace_a}]#{c.invocation_a} == obs[{c.trace_b}]#{c.invocation_b}"
            f" for {c.subject}"
        )
    for c in report.verdict_claims:
        click.echo(f"  verdict[{c.trace}] = {c.expect}")
    for c in report.hookup_claims:
        click.echo(
            f"  hookup inputs of {c.subject} equal across {c.trace_a} and {c.trace_b}"
        )
    click.echo(f"conclusion: {report.conclusion}")
    if problems:
        click.echo("VERIFICATION FAILED:")
        for p in problems:
            click.echo(f"  {p}")
        sys.exit(1)
    click.echo("all claims verified")
    sys.exit(0)


if __name__ == "__main__":
    main()
