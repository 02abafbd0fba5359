"""Scenario harness, counter-example reports, and flash-loan suite checks."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from txmonsim.checks import check_all
from txmonsim.contracts import BUILTINS, build
from txmonsim.core import RecordKind, ScenarioError, SchedulerKind, VInt
from txmonsim.engine import Engine
from txmonsim.scenarios import (
    L1,
    LENDER_VARIANTS,
    REPORTS,
    SINK,
    STAGED_CLIENTS,
    Divergence,
    EquivCheck,
    LenderVariant,
    ObsClaim,
    QueueClaim,
    VerdictClaim,
    build_report,
    build_scenario,
    check_obs_equivalence,
    counterexample_suite,
    observations_of,
    run_flashloan_suite,
    run_scenario,
    verify_report,
    _loan_scenario,
)
from txmonsim.serialize import scenario_from_json


def test_every_builtin_constructs():
    for name in BUILTINS:
        params = {
            "l1": "L1", "l2": "L2", "l": "L1", "sink": "S",
            "amount": 10, "amount1": 10, "amount2": 20, "repay_amount": 5,
        }
        built = build(name, params, 50)
        assert built.contract.step is not None


def test_unknown_builtin_is_a_scenario_error():
    with pytest.raises(ScenarioError):
        build("no_such_contract", {}, 0)


# ---------------------------------------------------------------------------
# observational equivalence checker


def test_identical_traces_are_equal_at_all_indices():
    report = build_report(REPORTS["dfs_only_once"])
    t = report.traces["o1"]
    res = check_obs_equivalence(t, t, "A", upto=None)
    assert res.equal


def test_divergence_is_pinpointed_one_past_the_shared_prefix():
    report = build_report(REPORTS["dfs_only_once"])
    res = check_obs_equivalence(report.traces["o1"], report.traces["o2"], "A", upto=2)
    assert not res.equal
    assert res.divergence.invocation == 2
    assert res.divergence.field == "presence"


@pytest.mark.parametrize("upto", [0, -1])
def test_obs_equivalence_refuses_a_bound_below_one(upto):
    # busy_plain and busy_probed differ at the first invocation of A, so a
    # bound that compares nothing must not read as "equal".
    report = build_report(REPORTS["dfs_no_queue"])
    a, b = report.traces["busy_plain"], report.traces["busy_probed"]
    assert not check_obs_equivalence(a, b, "A", upto=1).equal
    with pytest.raises(ScenarioError, match=f"upto={upto}"):
        check_obs_equivalence(a, b, "A", upto=upto)


# One change per observed field, each to a value that differs from the record's.
_VIEW_CHANGES = {
    "method": lambda r: "other",
    "param": lambda r: VInt(99),
    "money": lambda r: r.executed.money + 1,
    "storage_before": lambda r: VInt(99),
    "balance_seen": lambda r: r.balance_seen + 1,
    "readings": lambda r: {**r.readings, "count": VInt(99)},
}


def _tampered(trace, subject, invocation, field):
    """`trace` with `field` changed in the op record of `subject`'s
    `invocation` (from 1)."""
    record = trace.ops(subject)[invocation - 1]
    value = _VIEW_CHANGES[field](record)
    if field in ("method", "param", "money"):
        changed = replace(record, executed=replace(record.executed, **{field: value}))
    else:
        changed = replace(record, **{field: value})
    records = list(trace.records)
    records[record.index] = changed
    return replace(trace, records=tuple(records))


@pytest.mark.parametrize("field", sorted(_VIEW_CHANGES))
def test_obs_equivalence_names_the_first_field_that_differs(field):
    trace = build_report(REPORTS["dfs_fail_queue"]).traces["o2"]
    tampered = _tampered(trace, "A", 2, field)
    left, right = observations_of(trace, "A")[1], observations_of(tampered, "A")[1]
    assert check_obs_equivalence(trace, trace, "A") == EquivCheck(True, 2)
    assert check_obs_equivalence(trace, tampered, "A") == EquivCheck(
        False, 1, Divergence(2, field, getattr(left, field), getattr(right, field))
    )


@pytest.mark.parametrize("field", sorted(_VIEW_CHANGES))
def test_verify_report_names_a_cross_observation_claim_whose_views_differ(field):
    report = build_report(REPORTS["bfs_only_once"])
    (claim,) = report.cross_obs_claims
    swapped = _tampered(report.traces[claim.trace_b], "A", claim.invocation_b, field)
    broken = replace(report, traces={**report.traces, claim.trace_b: swapped})
    assert verify_report(broken) == [
        "bfs_only_once: invocation 4 of t_prime0 and invocation 1 of seq_t differ for A"
    ]


@pytest.mark.parametrize("field,value", [("storage_before", VInt(99)), ("balance_seen", 99)])
def test_verify_report_names_a_hookup_claim_whose_inputs_differ(field, value):
    report = build_report(REPORTS["bfs_queue_gap"])
    (claim,) = report.hookup_claims
    trace = report.traces[claim.trace_b]
    records = list(trace.records)
    i = next(r.index for r in records if r.kind is RecordKind.HOOKUP and r.subject == "A")
    records[i] = replace(records[i], **{field: value})
    swapped = replace(trace, records=tuple(records))
    broken = replace(report, traces={**report.traces, claim.trace_b: swapped})
    assert verify_report(broken) == ["bfs_queue_gap: hookup inputs differ for A"]


def test_observations_carry_only_queried_readings():
    report = build_report(REPORTS["dfs_no_queue"])
    obs = observations_of(report.traces["busy_plain"], "A")
    assert obs[0].readings == {}
    probed = observations_of(report.traces["quiet_probed"], "A")
    assert "queue" in probed[0].readings


# ---------------------------------------------------------------------------
# counter-example reports


def test_counterexample_suite_builds_and_self_certifies():
    reports = counterexample_suite()
    assert [r.name for r in reports] == [
        "dfs_only_once",
        "dfs_no_queue",
        "dfs_fail_queue",
        "bfs_only_once",
        "bfs_queue_gap",
    ]
    for report in reports:
        assert verify_report(report) == []


def test_counterexample_suite_runs_each_transaction_once(monkeypatch):
    calls = []
    original = Engine.run_transaction

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "run_transaction", counting)
    reports = counterexample_suite()
    assert len(calls) == 25
    assert sum(len(r.traces) for r in reports) == 25


def test_verify_report_detects_falsified_claims():
    report = build_report(REPORTS["dfs_only_once"])
    bad_obs = replace(
        report,
        obs_claims=(ObsClaim("o1", "o2", "A", upto=2, expect_equal=True),),
    )
    assert verify_report(bad_obs)
    bad_queue = replace(report, queue_claims=(QueueClaim("o1", (("C.ping",),)),))
    assert verify_report(bad_queue)
    bad_verdict = replace(report, verdict_claims=(VerdictClaim("o2", "gas_exhausted"),))
    assert verify_report(bad_verdict)


def test_dfs_only_once_report_verdicts():
    report = build_report(REPORTS["dfs_only_once"])
    assert report.verdicts["o1"].kind == "monitor_term_fail"
    assert report.verdicts["o2"].kind == "committed"


def test_bfs_only_once_strategy_verdicts_show_the_trap():
    report = build_report(REPORTS["bfs_only_once"])
    assert report.verdicts["t"].kind == "gas_exhausted"
    for key in ("t0", "t1", "t2"):
        assert report.verdicts[key].kind == "committed"
    # the strategy starves the three-call transaction the monitor accepts
    assert report.verdicts["t_prime0"].kind == "gas_exhausted"
    assert report.verdicts["t_prime0_native"].kind == "committed"


def test_bfs_queue_gap_prober_separates_exactly_the_busy_run():
    report = build_report(REPORTS["bfs_queue_gap"])
    assert report.verdicts["busy_probed"].kind == "contract_fail"
    assert report.verdicts["quiet_probed"].kind == "committed"


def test_fail_queue_policy_handles_pairs_but_not_three_calls():
    report = build_report(REPORTS["dfs_fail_queue"])
    assert report.verdicts["o1"].kind == "fail_bit_set"
    assert report.verdicts["o2"].kind == "committed"
    assert report.verdicts["seq_o2"].kind == "committed"
    assert report.verdicts["seq_o1"].kind == "fail_bit_set"
    assert report.verdicts["o3"].kind == "fail_bit_set"
    assert report.verdicts["o3_native"].kind == "committed"


# ---------------------------------------------------------------------------
# flash-loan suite


def test_flashloan_cross_implementation_agreement():
    fl = run_flashloan_suite()
    for scenario, verdicts in fl.agreement().items():
        assert len(verdicts) == 1, f"{scenario} splits across variants: {verdicts}"


def test_flashloan_safety_holds_on_every_committed_run():
    fl = run_flashloan_suite()
    assert fl.safety_violations() == []


def test_flashloan_rows_match_their_declared_expectations():
    fl = run_flashloan_suite()
    assert fl.wrong_verdicts() == []
    assert fl.ok


def test_flashloan_expected_verdicts():
    fl = run_flashloan_suite()
    by_key = {(r.scenario, r.variant): r for r in fl.rows}
    assert by_key[("two_loans_repaid", "trmon@dfs")].committed
    assert by_key[("two_loans_flat@dfs", "trmon@dfs")].committed
    assert by_key[("two_loans_flat@dfs", "trmon@dfs")].lender_balances_post == (100, 200)
    assert not by_key[("malicious_unpaid", "trmon@dfs")].committed
    assert by_key[("malicious_unpaid", "trmon@dfs")].outcome_kind == "monitor_term_fail"
    assert not by_key[("two_loans_flat@dfs(naive)", "naive@dfs")].committed
    assert not by_key[("partial_repay", "bfs_queue@bfs")].committed


def test_flashloan_traces_satisfy_global_invariants():
    from txmonsim.scenarios import LENDER_VARIANTS, _loan_scenario, run_scenario

    spec = _loan_scenario(
        LENDER_VARIANTS[-1], "client_two_loans_staged",
        {"l1": "L1", "l2": "L2", "sink": "S", "amount1": 100, "amount2": 200},
    )
    state, registry = build_scenario(spec)
    result = run_scenario(spec, debug=True)
    assert result.all_committed
    for tx in result.results:
        assert check_all(registry, state, tx) == []
        state = tx.outcome.final


def test_every_lender_refuses_a_loan_above_its_balance():
    from txmonsim.core import ContractFail
    from txmonsim.scenarios import (
        L1, LENDER_VARIANTS, SINK, LenderVariant, SchedulerKind, _loan_scenario, run_scenario,
    )

    naive = LenderVariant("naive@dfs", "lender_naive", SchedulerKind.DFS)
    for variant in LENDER_VARIANTS + (naive,):
        spec = _loan_scenario(variant, "client_malicious", {"l": L1, "sink": SINK, "amount": 150})
        result = run_scenario(spec)
        assert result.outcomes[0].reason == ContractFail(L1, "insufficient funds for loan"), variant
        assert result.final_state == result.pre_state
    with pytest.raises(ScenarioError, match="repays at most the loan"):
        build("client_partial", {"l": L1, "sink": SINK, "amount": 100, "repay_amount": 101}, 0)


def _fixture_scenarios():
    fixtures = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
    assert len(fixtures) == 4
    return [scenario_from_json(json.loads(path.read_text())) for path in fixtures]


def _counterexample_scenarios():
    return [run.scenario for spec in REPORTS.values() for run in spec.runs]


def _flashloan_scenarios():
    """Every lender, the naive one too, against the suite's staged and
    straight-line clients and against a loan above its balance."""
    clients = [(client, params) for _, client, params, _ in STAGED_CLIENTS] + [
        ("client_two_loans", STAGED_CLIENTS[0][2]),
        ("client_malicious", {"l": L1, "sink": SINK, "amount": 150}),
    ]
    naive = LenderVariant("naive@dfs", "lender_naive", SchedulerKind.DFS)
    return [
        _loan_scenario(variant, client, params)
        for variant in LENDER_VARIANTS + (naive,)
        for client, params in clients
    ]


@pytest.mark.parametrize(
    "scenarios", [_fixture_scenarios, _counterexample_scenarios, _flashloan_scenarios]
)
def test_check_all_holds_on_every_trace_the_package_produces(scenarios):
    for spec in scenarios():
        state, registry = build_scenario(spec)
        for tx in run_scenario(spec, debug=True).results:
            assert check_all(registry, state, tx) == [], (spec, tx.outcome)
            if tx.committed:
                state = tx.outcome.final
