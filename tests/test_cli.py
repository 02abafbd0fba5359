"""Command-line behaviour: exit codes, trace round-trips, suites, reports."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from txmonsim.cli import main
from txmonsim.engine import Engine
from txmonsim.scenarios import (
    REPORTS,
    build_report,
    counterexample_suite,
    run_flashloan_suite,
)
from txmonsim.serialize import (
    dump_traces,
    load_traces,
    report_from_json,
    report_to_json,
    scenario_from_json,
    to_json,
)

TRMON_SCENARIO = {
    "engine": {"scheduler": "dfs", "gas_limit": 5000, "mechanisms": [], "monitor_mode": "transaction"},
    "contracts": [
        {"addr": "L1", "builtin": "lender_trmon", "balance": 100},
        {"addr": "L2", "builtin": "lender_trmon", "balance": 200},
        {
            "addr": "M",
            "builtin": "client_two_loans",
            "params": {"l1": "L1", "l2": "L2", "sink": "S", "amount1": 100, "amount2": 200},
        },
        {"addr": "S", "builtin": "invest_sink"},
    ],
    "externals": [{"addr": "ext", "balance": 0}],
    "transactions": [{"dest": "M", "method": "borrow_and_invest"}],
}

MALICIOUS_SCENARIO = {
    "engine": {"scheduler": "dfs", "gas_limit": 5000, "mechanisms": [], "monitor_mode": "transaction"},
    "contracts": [
        {"addr": "L1", "builtin": "lender_trmon", "balance": 100},
        {"addr": "M", "builtin": "client_malicious", "params": {"l": "L1", "sink": "S", "amount": 100}},
        {"addr": "S", "builtin": "invest_sink"},
    ],
    "externals": [{"addr": "ext", "balance": 0}],
    "transactions": [{"dest": "M", "method": "borrow_and_invest"}],
}


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_run_committed_scenario_exits_zero_and_writes_trace(runner, tmp_path):
    scenario = write(tmp_path, "ok.json", TRMON_SCENARIO)
    trace_path = tmp_path / "out.trace"
    result = runner.invoke(main, ["run", scenario, "--trace", str(trace_path)])
    assert result.exit_code == 0, result.output
    assert "committed" in result.output
    traces = load_traces(trace_path.read_text())
    assert len(traces) == 1
    kinds = {r.kind.value for r in traces[0].records}
    assert {"init", "op", "term"} <= kinds


def test_run_aborting_scenario_exits_one_with_reason(runner, tmp_path):
    scenario = write(tmp_path, "bad.json", MALICIOUS_SCENARIO)
    result = runner.invoke(main, ["run", scenario, "--format", "json"])
    assert result.exit_code == 1
    assert "monitor_term_fail" in result.output


def test_run_invalid_scenario_exits_two(runner, tmp_path):
    broken = dict(TRMON_SCENARIO, transactions=[{"dest": "GHOST", "method": "x"}])
    scenario = write(tmp_path, "broken.json", broken)
    result = runner.invoke(main, ["run", scenario])
    assert result.exit_code == 2
    missing = runner.invoke(main, ["run", str(tmp_path / "nowhere.json")])
    assert missing.exit_code == 2


def test_run_engine_overrides_change_the_outcome(runner, tmp_path):
    scenario = write(tmp_path, "ok.json", TRMON_SCENARIO)
    # the straight-line client cannot fund its investment under BFS ordering
    result = runner.invoke(main, ["run", scenario, "--scheduler", "bfs", "--format", "json"])
    assert result.exit_code == 1
    assert "insufficient_balance" in result.output


def test_trace_files_round_trip(monkeypatch):
    # Every trace both suites write, so that decoding meets every record
    # kind, abort reason and reading the encoders write.
    results = []
    original = Engine.run_transaction

    def recording(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(Engine, "run_transaction", recording)
    reports = counterexample_suite()
    run_flashloan_suite()
    traces = [r.trace for r in results]
    assert len(traces) == 52
    assert load_traces(dump_traces(traces)) == traces
    for report in reports:
        bundle = json.loads(json.dumps(report_to_json(report)))
        assert report_from_json(bundle).traces == report.traces


def test_diff_trace_against_itself_is_zero(runner, tmp_path):
    scenario = write(tmp_path, "ok.json", TRMON_SCENARIO)
    t = tmp_path / "a.trace"
    runner.invoke(main, ["run", scenario, "--trace", str(t)])
    result = runner.invoke(main, ["diff", str(t), str(t)])
    assert result.exit_code == 0


def test_diff_malformed_trace_is_a_usage_error(runner, tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text("not json\n")
    result = runner.invoke(main, ["diff", str(bad), str(bad)])
    assert result.exit_code == 2


def _cli_process(*args: str) -> subprocess.CompletedProcess:
    """The CLI in a child interpreter, so an uncaught error prints its traceback."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "txmonsim.cli", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )


def test_module_invocation_works():
    out = _cli_process("--help")
    assert out.returncode == 0
    assert "suite" in out.stdout


def test_run_trace_into_a_missing_directory_exits_two(tmp_path):
    scenario = write(tmp_path, "ok.json", TRMON_SCENARIO)
    out = _cli_process("run", scenario, "--trace", str(tmp_path / "no" / "such" / "x.trace"))
    assert out.returncode == 2
    assert "trace error" in out.stderr
    assert "Traceback" not in out.stdout + out.stderr


def test_suite_out_naming_an_existing_file_exits_two(tmp_path):
    existing = tmp_path / "existing"
    existing.write_text("")
    out = _cli_process("suite", "flashloan", "--out", str(existing))
    assert out.returncode == 2
    assert "output error" in out.stderr
    assert "Traceback" not in out.stdout + out.stderr


def test_diff_subject_prefix_equal_but_full_traces_diverge(runner, tmp_path):
    report = build_report(REPORTS["dfs_only_once"])
    a = tmp_path / "o1.trace"
    b = tmp_path / "o2.trace"
    a.write_text(dump_traces([report.traces["o1"]]))
    b.write_text(dump_traces([report.traces["o2"]]))
    prefix = runner.invoke(main, ["diff", str(a), str(b), "--subject", "A", "--upto", "1"])
    assert prefix.exit_code == 0
    full = runner.invoke(main, ["diff", str(a), str(b), "--subject", "A"])
    assert full.exit_code == 1
    assert "invocation 2" in full.output
    records = runner.invoke(main, ["diff", str(a), str(b)])
    assert records.exit_code == 1


def test_diff_prints_the_first_divergent_records(runner, tmp_path):
    report = build_report(REPORTS["dfs_only_once"])
    a = tmp_path / "o1.trace"
    b = tmp_path / "o2.trace"
    a.write_text(dump_traces([report.traces["o1"]]))
    b.write_text(dump_traces([report.traces["o2"]]))
    [x], [y] = load_traces(a.read_text()), load_traces(b.read_text())
    j = next(j for j, (r, s) in enumerate(zip(x.records, y.records)) if r != s)
    result = runner.invoke(main, ["diff", str(a), str(b)])
    assert result.exit_code == 1
    assert result.output.splitlines() == [
        f"tx 0: first divergent record index {j}",
        json.dumps(to_json(x.records[j]), sort_keys=True),
        json.dumps(to_json(y.records[j]), sort_keys=True),
    ]


def test_suite_counterexamples_writes_five_reports(runner, tmp_path):
    result = runner.invoke(
        main, ["suite", "counterexamples", "--out", str(tmp_path)], catch_exceptions=False
    )
    assert result.exit_code == 0, result.output
    written = sorted(p.name for p in tmp_path.glob("*.json"))
    assert written == [
        "bfs_only_once.json",
        "bfs_queue_gap.json",
        "dfs_fail_queue.json",
        "dfs_no_queue.json",
        "dfs_only_once.json",
    ]


def test_suite_flashloan_agreement_table(runner, tmp_path):
    result = runner.invoke(main, ["suite", "flashloan", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert "agreement: ok" in result.output
    assert (tmp_path / "flashloan.json").exists()


def test_suite_equivalence_small(runner, tmp_path):
    result = runner.invoke(
        main, ["suite", "equivalence", "--instances", "5", "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "equivalence.json").read_text())
    assert all(not c["failures"] for c in payload["cases"])


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_suite_equivalence_refuses_fewer_than_one_instance(runner, tmp_path, instances):
    result = runner.invoke(
        main, ["suite", "equivalence", "--instances", instances, "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert "--instances" in result.output
    assert not (tmp_path / "equivalence.json").exists()


def test_explain_verifies_saved_reports(runner, tmp_path):
    report = build_report(REPORTS["dfs_only_once"])
    path = tmp_path / "r.json"
    path.write_text(json.dumps(report_to_json(report)))
    result = runner.invoke(main, ["explain", str(path)])
    assert result.exit_code == 0
    assert "all claims verified" in result.output

    tampered = report_to_json(report)
    tampered["verdict_claims"][0]["expect"] = "committed"
    path.write_text(json.dumps(tampered))
    result = runner.invoke(main, ["explain", str(path)])
    assert result.exit_code == 1
    assert "VERIFICATION FAILED" in result.output


def test_suite_dir_env_var_is_honoured(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("TXMONSIM_SUITE_DIR", str(tmp_path / "bundles"))
    result = runner.invoke(main, ["suite", "flashloan"])
    assert result.exit_code == 0
    assert (tmp_path / "bundles" / "flashloan.json").exists()
    # scenario lookup falls back to the suite dir
    scenario_dir = tmp_path / "bundles"
    (scenario_dir / "s.json").write_text(json.dumps(TRMON_SCENARIO))
    result = runner.invoke(main, ["run", "s.json"])
    assert result.exit_code == 0


def test_scenario_parser_validates_shapes():
    spec = scenario_from_json(TRMON_SCENARIO)
    assert len(spec.contracts) == 4
    with pytest.raises(Exception):
        scenario_from_json({"engine": {}, "contracts": [{"addr": "A"}]})


FIXTURES = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize(
    "fixture,exit_code,expect",
    [
        ("flashloan_trmon.json", 0, "committed"),
        ("flashloan_malicious.json", 1, "monitor_term_fail"),
        ("only_once_dfs.json", 1, "monitor_term_fail"),
        ("bfs_first_lender.json", 0, "committed"),
    ],
)
def test_shipped_scenario_fixtures(runner, fixture, exit_code, expect):
    result = runner.invoke(main, ["run", str(FIXTURES / fixture)])
    assert result.exit_code == exit_code, result.output
    assert expect in result.output


def _trace_lines():
    return [json.loads(line) for line in dump_traces([build_report(REPORTS["dfs_only_once"]).traces["o2"]]).splitlines()]


def _record_of_unknown_tx():
    lines = _trace_lines()
    lines[1]["tx"] = 5
    return "diff", "\n".join(json.dumps(line) for line in lines), "trace line 2"


def _meta_without_monitor_mode():
    lines = _trace_lines()
    del lines[0]["meta"]["monitor_mode"]
    return "diff", "\n".join(json.dumps(line) for line in lines), "'monitor_mode'"


def _report_with_unknown_scheduler():
    bundle = report_to_json(build_report(REPORTS["dfs_only_once"]))
    bundle["traces"]["o1"]["meta"]["scheduler"] = "lifo"
    return "explain", json.dumps(bundle), "'lifo'"


def _record_with_fractional_money():
    lines = _trace_lines()
    op_line = next(line for line in lines if line.get("record", {}).get("executed"))
    op_line["record"]["executed"]["money"] = 1.5
    return "diff", "\n".join(json.dumps(line) for line in lines), "Operation.money: expected an integer, got 1.5"


def _record_with_int_queue_before():
    lines = _trace_lines()
    lines[1]["record"]["queue_before"] = 5
    return "diff", "\n".join(json.dumps(line) for line in lines), "StepRecord.queue_before: expected an array, got 5"


def _record_with_int_in_queue_after():
    lines = _trace_lines()
    lines[1]["record"]["queue_after"] = [5]
    return "diff", "\n".join(json.dumps(line) for line in lines), "StepRecord.queue_after: expected an object, got 5"


def _trace_with_op_record_without_executed():
    lines = _trace_lines()
    op_line = next(line for line in lines if line.get("record", {}).get("kind") == "op")
    op_line["record"]["executed"] = None
    return "diff", "\n".join(json.dumps(line) for line in lines), "has no executed operation"


def _trace_with_a_repeated_record_index():
    lines = _trace_lines()
    lines[9]["record"]["index"] = 7
    named = "trace line 10: transaction 0: record 8 has index 7"
    return "diff", "\n".join(json.dumps(line) for line in lines), named


def _report_with_a_repeated_record_index():
    bundle = report_to_json(build_report(REPORTS["dfs_no_queue"]))
    bundle["traces"]["busy_plain"]["records"][1]["index"] = 0
    return "explain", json.dumps(bundle), "trace 'busy_plain': record 1 has index 0"


def _report_with_op_record_without_executed():
    bundle = report_to_json(build_report(REPORTS["dfs_no_queue"]))
    bundle["traces"]["busy_plain"]["records"][1]["executed"] = None
    named = "trace 'busy_plain': op record 1 has no executed operation"
    return "explain", json.dumps(bundle), named


def _obs_claim_with_string_upto():
    bundle = report_to_json(build_report(REPORTS["dfs_only_once"]))
    bundle["obs_claims"][0]["upto"] = "1"
    return "explain", json.dumps(bundle), "ObsClaim.upto: expected an integer, got '1'"


def _queue_claim_with_int_shape():
    bundle = report_to_json(build_report(REPORTS["dfs_only_once"]))
    bundle["queue_claims"][0]["shapes"] = [5]
    return "explain", json.dumps(bundle), "QueueClaim.shapes: expected an array, got 5"


def _claim_without_required_field():
    bundle = report_to_json(build_report(REPORTS["dfs_only_once"]))
    del bundle["obs_claims"][0]["subject"]
    return "explain", json.dumps(bundle), "ObsClaim lacks 'subject'"


def _verdict_claim_of_unknown_trace():
    bundle = report_to_json(build_report(REPORTS["dfs_only_once"]))
    bundle["verdict_claims"][0]["trace"] = "ghost"
    return "explain", json.dumps(bundle), "VerdictClaim.trace names no trace: 'ghost'"


def _obs_claim_of_unknown_trace():
    bundle = report_to_json(build_report(REPORTS["dfs_only_once"]))
    bundle["obs_claims"][0]["trace_a"] = "ghost"
    return "explain", json.dumps(bundle), "ObsClaim.trace_a names no trace: 'ghost'"


def _trace_without_verdict():
    bundle = report_to_json(build_report(REPORTS["dfs_only_once"]))
    del bundle["verdicts"]["o1"]
    return "explain", json.dumps(bundle), "do not match traces"


def _only_once_scenario(edit):
    obj = json.loads((FIXTURES / "only_once_dfs.json").read_text())
    edit(obj)
    return json.dumps(obj)


def _scenario_with_int_param():
    text = _only_once_scenario(lambda o: o["contracts"][0].update(params={"probe": 5}))
    return "run", text, "builtin contract 'once_monitored_A'"


def _scenario_with_list_params():
    text = _only_once_scenario(lambda o: o["contracts"][0].update(params=["x"]))
    return "run", text, "ContractSpec.params: expected an object"


def _scenario_with_list_dest():
    text = _only_once_scenario(lambda o: o["transactions"][0].update(dest=["B"]))
    return "run", text, "TxSpec.dest: expected a string"


def _scenario_with_int_addr():
    text = _only_once_scenario(lambda o: o["contracts"][0].update(addr=5))
    return "run", text, "ContractSpec.addr: expected a string, got 5"


def _scenario_with_int_external_addr():
    text = _only_once_scenario(lambda o: o["externals"][0].update(addr=5))
    return "run", text, "ExternalSpec.addr: expected a string, got 5"


def _scenario_with_list_builtin():
    text = _only_once_scenario(lambda o: o["contracts"][0].update(builtin=["x"]))
    return "run", text, "ContractSpec.builtin: expected a string"


def _scenario_with_tx_gas_limit():
    text = _only_once_scenario(lambda o: o["transactions"][0].update(gas_limit=10))
    return "run", text, "malformed scenario: unknown field 'gas_limit'"


def _scenario_with_tx_src():
    text = _only_once_scenario(lambda o: o["transactions"][0].update(src="ext"))
    return "run", text, "malformed scenario: unknown field 'src'"


def _scenario_with_misspelt_contract_field():
    text = _only_once_scenario(lambda o: o["contracts"][0].update(balnce=5))
    return "run", text, "malformed scenario: unknown field 'balnce'"


def _scenario_with_fractional_balance():
    text = _only_once_scenario(lambda o: o["contracts"][0].update(balance=100.9))
    return "run", text, "ContractSpec.balance: expected an integer, got 100.9"


def _scenario_with_boolean_gas_limit():
    text = _only_once_scenario(lambda o: o["engine"].update(gas_limit=True))
    return "run", text, "EngineConfig.gas_limit: expected an integer, got True"


def _scenario_with_string_money():
    text = _only_once_scenario(lambda o: o["transactions"][0].update(money="0"))
    return "run", text, "TxSpec.money: expected an integer, got '0'"


def _lender_scenario(edit):
    obj = json.loads((FIXTURES / "bfs_first_lender.json").read_text())
    edit(obj)
    return json.dumps(obj)


def _client_with_int_lender_addr():
    text = _lender_scenario(lambda o: o["contracts"][1]["params"].update(l=5))
    return "run", text, "address parameter 'l' is not a string: 5"


def _client_with_list_lender_addr():
    text = _lender_scenario(lambda o: o["contracts"][1]["params"].update(l=["x"]))
    return "run", text, "address parameter 'l' is not a string: ['x']"


def _client_with_fractional_amount():
    text = _lender_scenario(lambda o: o["contracts"][1]["params"].update(amount=100.9))
    return "run", text, "amount parameter 'amount' is not an integer: 100.9"


def _client_with_boolean_repay_amount():
    text = _lender_scenario(lambda o: o["contracts"][1]["params"].update(repay_amount=True))
    return "run", text, "amount parameter 'repay_amount' is not an integer: True"


def _storage_with_fractional_amount():
    text = _lender_scenario(lambda o: o["contracts"][0].update(storage={"x": {"$amt": 1.9}}))
    return "run", text, "ContractSpec.storage: expected an integer in $amt, got 1.9"


def _storage_with_int_address():
    text = _lender_scenario(lambda o: o["contracts"][0].update(storage={"x": {"$addr": 5}}))
    return "run", text, "ContractSpec.storage: expected a string in $addr, got 5"


@pytest.mark.parametrize(
    "malformed",
    [
        _record_of_unknown_tx,
        _meta_without_monitor_mode,
        _report_with_unknown_scheduler,
        _claim_without_required_field,
        _verdict_claim_of_unknown_trace,
        _obs_claim_of_unknown_trace,
        _trace_without_verdict,
        _scenario_with_int_param,
        _scenario_with_list_params,
        _scenario_with_list_dest,
        _scenario_with_int_addr,
        _scenario_with_int_external_addr,
        _scenario_with_list_builtin,
        _scenario_with_tx_gas_limit,
        _scenario_with_tx_src,
        _scenario_with_misspelt_contract_field,
        _client_with_int_lender_addr,
        _client_with_list_lender_addr,
        _record_with_fractional_money,
        _record_with_int_queue_before,
        _record_with_int_in_queue_after,
        _trace_with_op_record_without_executed,
        _report_with_op_record_without_executed,
        _trace_with_a_repeated_record_index,
        _report_with_a_repeated_record_index,
        _obs_claim_with_string_upto,
        _queue_claim_with_int_shape,
        _scenario_with_fractional_balance,
        _scenario_with_boolean_gas_limit,
        _scenario_with_string_money,
        _client_with_fractional_amount,
        _client_with_boolean_repay_amount,
        _storage_with_fractional_amount,
        _storage_with_int_address,
    ],
)
def test_malformed_trace_and_report_files_exit_two(runner, tmp_path, malformed):
    command, text, named = malformed()
    path = tmp_path / "malformed.json"
    path.write_text(text)
    args = [command, str(path)] + ([str(path)] if command == "diff" else [])
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert named in result.output


def test_diff_subject_on_op_record_without_executed_exits_two(runner, tmp_path):
    _, text, named = _trace_with_op_record_without_executed()
    path = tmp_path / "t.trace"
    path.write_text(text)
    result = runner.invoke(main, ["diff", str(path), str(path), "--subject", "A"])
    assert result.exit_code == 2, result.output
    assert named in result.output


@pytest.mark.parametrize("index", [0, -1])
def test_explain_fails_a_cross_claim_index_below_one(runner, tmp_path, index):
    bundle = report_to_json(build_report(REPORTS["bfs_only_once"]))
    bundle["cross_obs_claims"][0].update(invocation_a=index, invocation_b=index)
    path = write(tmp_path, "r.json", bundle)
    result = runner.invoke(main, ["explain", path])
    assert result.exit_code == 1, result.output
    assert "cross-observation index out of range" in result.output
    assert "all claims verified" not in result.output


def _no_queue_split():
    """dfs_no_queue's obs claim re-pointed at two runs whose first
    invocations of A differ."""
    bundle = report_to_json(build_report(REPORTS["dfs_no_queue"]))
    bundle["obs_claims"][0]["trace_b"] = "busy_probed"
    return bundle


def test_explain_fails_an_obs_claim_upto_zero(runner, tmp_path):
    bundle = _no_queue_split()
    path = write(tmp_path, "r.json", bundle)
    assert runner.invoke(main, ["explain", path]).exit_code == 1
    bundle["obs_claims"][0]["upto"] = 0
    path = write(tmp_path, "r0.json", bundle)
    result = runner.invoke(main, ["explain", path])
    assert result.exit_code == 1, result.output
    assert "upto=0; invocations count from 1" in result.output


def test_diff_upto_below_one_exits_two(runner, tmp_path):
    report = build_report(REPORTS["dfs_no_queue"])
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    a.write_text(dump_traces([report.traces["busy_plain"]]))
    b.write_text(dump_traces([report.traces["busy_probed"]]))
    split = runner.invoke(main, ["diff", str(a), str(b), "--subject", "A", "--upto", "1"])
    assert split.exit_code == 1, split.output
    result = runner.invoke(main, ["diff", str(a), str(b), "--subject", "A", "--upto", "0"])
    assert result.exit_code == 2, result.output
    assert "traces equal" not in result.output


def test_diff_upto_without_subject_exits_two(runner, tmp_path):
    path = tmp_path / "t.trace"
    path.write_text(dump_traces([build_report(REPORTS["dfs_only_once"]).traces["o2"]]))
    result = runner.invoke(main, ["diff", str(path), str(path), "--upto", "1"])
    assert result.exit_code == 2, result.output
    assert "--upto bounds --subject" in result.output
    assert "traces equal" not in result.output
