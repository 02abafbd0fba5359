"""Byte identity of everything the package serializes.

Each output below is hashed with SHA-256 and compared with a hash committed
here. The hashes were taken before the derived views, the outcome-kind table,
the differential loops and the claim encoders were merged, so a refactor that
changes one byte of a trace, a report or a harness count fails this test.
`flashloan_traces` (every flash-loan suite transaction's trace and outcome)
was taken before the engine's step path stopped copying the queue per step.
`explain` (what `txmonsim explain` prints for each counter-example bundle)
was taken before the five report builders became one table.
Equivalence traces are collected by wrapping `Engine.run_transaction`, which
keeps the test independent of the harness API.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import pytest
from click.testing import CliRunner

from txmonsim.cli import main
from txmonsim.engine import Engine
from txmonsim.equivalence import CASES, run_case, run_composition
from txmonsim.scenarios import counterexample_suite, run_flashloan_suite, run_scenario
from txmonsim.serialize import dump_traces, outcome_to_json, report_to_json, scenario_from_json

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
EQUIVALENCE_SEEDS = range(0, 40)

GOLDEN = {
    "counterexamples": "fa352e8f521ffbc0744bb5570be6d98330070c8b2f2f83476b8b538cd1ee49ca",
    "explain": "6ce75cc2d7249ea1b2a55d1ddf32997a27571f5c5bd95dffc490f3e6663a927c",
    "equivalence": "7cbdd61038dd7ebf3093986583c10247f6587258a8264746921434518ab67757",
    "flashloan": "8f9367b5928e6fb9e98d0e234e16ca93d86e358454313683e972db177b3cf4e9",
    "flashloan_traces": "f38b7ba5ee296b03ab22322138daa90c5a3d122d68f2c5bda7c64cbad2f4e36e",
    "scenarios": "236098bade4a210f975ea722c00e937a14ef6fdbc03d82202188be1a6787b05d",
}


def _dumps(obj) -> bytes:
    return json.dumps(obj, indent=2, sort_keys=True).encode()


def counterexamples_output(h, monkeypatch) -> None:
    for report in counterexample_suite():
        h.update(_dumps(report_to_json(report)))


def explain_output(h, monkeypatch) -> None:
    runner = CliRunner()
    with runner.isolated_filesystem():
        for report in counterexample_suite():
            path = Path(f"{report.name}.json")
            path.write_text(json.dumps(report_to_json(report)))
            result = runner.invoke(main, ["explain", str(path)])
            assert result.exit_code == 0, result.output
            h.update(result.stdout.encode())


def flashloan_output(h, monkeypatch) -> None:
    h.update(_dumps([asdict(row) for row in run_flashloan_suite().rows]))


def _recorded_results(monkeypatch) -> list:
    """Collect every `Engine.run_transaction` result from here on."""
    results = []
    original = Engine.run_transaction

    def recording(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(Engine, "run_transaction", recording)
    return results


def flashloan_traces_output(h, monkeypatch) -> None:
    results = _recorded_results(monkeypatch)
    run_flashloan_suite()
    h.update(dump_traces([r.trace for r in results]).encode())
    h.update(_dumps([outcome_to_json(r.outcome) for r in results]))


def scenarios_output(h, monkeypatch) -> None:
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        result = run_scenario(scenario_from_json(json.loads(path.read_text())))
        h.update(path.name.encode())
        h.update(dump_traces(list(result.traces)).encode())
        h.update(_dumps([outcome_to_json(o) for o in result.outcomes]))


def equivalence_output(h, monkeypatch) -> None:
    results = _recorded_results(monkeypatch)
    runs = [lambda seeds, case=case: run_case(case, seeds) for case in CASES.values()]
    for run in runs + [run_composition]:
        report = run(EQUIVALENCE_SEEDS)
        h.update(dump_traces([r.trace for r in results]).encode())
        h.update(_dumps([outcome_to_json(r.outcome) for r in results]))
        counts = [report.case, report.scenarios, report.transactions, report.commits, report.aborts]
        h.update(_dumps(counts + [len(report.failures)]))
        results.clear()


OUTPUTS = {
    "counterexamples": counterexamples_output,
    "explain": explain_output,
    "flashloan": flashloan_output,
    "flashloan_traces": flashloan_traces_output,
    "scenarios": scenarios_output,
    "equivalence": equivalence_output,
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_serialized_output_is_byte_identical(name, monkeypatch):
    h = hashlib.sha256()
    OUTPUTS[name](h, monkeypatch)
    assert h.hexdigest() == GOLDEN[name]
