"""The benchmark's own checkers accept real outputs and reject corrupted ones."""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from txmonsim.contracts import build, callspec  # noqa: E402
from txmonsim.core import (  # noqa: E402
    Aborted,
    Account,
    ChainState,
    Committed,
    ContractFail,
    MonitorMode,
    MonitorTermFail,
    Operation,
    SchedulerKind,
    UNIT,
    VInt,
    VSeq,
)
from txmonsim.engine import Engine, EngineConfig  # noqa: E402

import verify  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def forwarder_run(scheduler: SchedulerKind, targets=("A", "C", "C"), monitor=True):
    registry, accounts = {}, {}
    for addr, builtin in (("A", "once_monitored_A"), ("B", "forwarder_B"), ("C", "sink_C")):
        made = build(builtin, {}, 0)
        registry[addr] = made.contract
        accounts[addr] = Account(storage=made.storage, monitor_storage=made.monitor_storage)
    accounts["ext"] = Account(balance=50)
    pre = ChainState(accounts)
    plan = VSeq(tuple(callspec(t, money=2) for t in targets))
    op = Operation(dest="B", src="ext", method="run", param=plan, money=2 * len(targets))
    mode = MonitorMode.TRANSACTION if monitor else MonitorMode.NONE
    engine = Engine(registry, EngineConfig(scheduler=scheduler, gas_limit=100, monitor_mode=mode))
    return pre, engine.run_transaction(pre, op)


def with_record(result, index: int, **changes):
    records = list(result.trace.records)
    records[index] = replace(records[index], **changes)
    return replace(result, trace=replace(result.trace, records=tuple(records)))


def op_index(result, nth: int = 0) -> int:
    return [r.index for r in result.trace.records if r.kind.value == "op"][nth]


@pytest.mark.parametrize("scheduler", [SchedulerKind.DFS, SchedulerKind.BFS])
def test_real_transactions_pass(scheduler):
    for targets in (("A", "C", "C"), ("A", "A", "C"), ("C",)):
        pre, result = forwarder_run(scheduler, targets)
        assert verify.transaction(verify.supply(pre), result) == []
        ops, verdict = verify.fanout_expectation(targets, "A")
        assert verify.fanout(result, ops, verdict) == []


def test_gas_law_rejects_corrupted_records():
    pre, result = forwarder_run(SchedulerKind.DFS)
    i = op_index(result)
    bad = with_record(result, i, gas_after=result.trace.records[i].gas_after - 1)
    assert verify.gas_law(bad.trace)
    hook = next(r.index for r in result.trace.records if r.kind.value == "begin")
    bad = with_record(result, hook, gas_after=result.trace.records[hook].gas_after - 1)
    assert verify.gas_law(bad.trace)


@pytest.mark.parametrize("scheduler", [SchedulerKind.DFS, SchedulerKind.BFS])
def test_queue_laws_reject_corrupted_records(scheduler):
    pre, result = forwarder_run(scheduler, monitor=False)
    first = result.trace.records[op_index(result)]
    assert len(first.queue_after) == 3
    reordered = first.queue_after[1:] + first.queue_after[:1]
    assert verify.queue_laws(with_record(result, first.index, queue_after=reordered).trace)
    dropped = first.queue_after[:-1]
    assert verify.queue_laws(with_record(result, first.index, queue_after=dropped).trace)
    second = op_index(result, 1)
    wrong_head = result.trace.records[op_index(result, 2)].executed
    assert verify.queue_laws(with_record(result, second, executed=wrong_head).trace)


def test_queue_laws_reject_a_hook_record_that_moves_the_queue():
    pre, result = forwarder_run(SchedulerKind.DFS)
    hook = next(r for r in result.trace.records if r.kind.value == "begin")
    bad = with_record(result, hook.index, queue_after=hook.queue_after[1:])
    assert verify.queue_laws(bad.trace)


def test_conservation_rejects_minted_money():
    pre, result = forwarder_run(SchedulerKind.DFS, ("C", "C"))
    assert isinstance(result.outcome, Committed)
    final = result.outcome.final
    minted = final.with_account("C", replace(final.get("C"), balance=final.balance("C") + 1))
    assert verify.conservation(verify.supply(pre), Committed(minted))


def test_monitor_plan_rejects_wrong_verdict_and_count():
    assert verify.fanout_expectation(["C", "A", "C"], "A") == (4, "monitor_term_fail")
    assert verify.fanout_expectation(["A", "A"], "A") == (3, "committed")
    pre, result = forwarder_run(SchedulerKind.BFS, ("A", "C", "C"))
    assert isinstance(result.outcome.reason, MonitorTermFail)
    assert verify.fanout(result, 4, "committed")
    assert verify.fanout(result, 5, "monitor_term_fail")


def test_ledger_checks_commits_and_aborts():
    pre, result = forwarder_run(SchedulerKind.DFS, ("C", "C"))
    expected = verify.balances(pre)
    expected["ext"] -= 4
    expected["C"] += 4
    assert verify.ledger(pre, result, expected, True) == []
    assert verify.ledger(pre, result, {**expected, "C": 3}, True)
    assert verify.ledger(pre, result, expected, False)
    assert verify.ledger(pre, result, expected, True, {"C": UNIT}) == []
    assert verify.ledger(pre, result, expected, True, {"C": VInt(1)})
    aborted = replace(result, outcome=Aborted(ContractFail("G", "late")))
    assert verify.ledger(pre, aborted, verify.balances(pre), False) == []
    assert verify.ledger(pre, aborted, expected, False)


def test_paper_verdicts():
    committed = Committed(ChainState())
    term_fail = Aborted(MonitorTermFail("A"))
    assert verify.counterexample("dfs_only_once", {"o1": term_fail, "o2": committed}) == []
    assert verify.counterexample("dfs_only_once", {"o1": committed, "o2": committed})
    assert verify.counterexample("dfs_only_once", {"o1": term_fail})
    assert verify.counterexample_run("bfs_only_once", "t", committed)


def test_flashloan_checks():
    pre = ChainState({"L1": Account(balance=100), "M": Account()})
    robbed = Committed(pre.move("L1", "M", 10))
    assert verify.flashloan_row("two_loans_repaid", pre, Committed(pre)) == []
    assert verify.flashloan_row("two_loans_repaid", pre, robbed)
    assert verify.flashloan_row("malicious_unpaid", pre, Committed(pre))
    rows = [("a", True), ("a", True), ("b", False), ("b", True)]
    assert verify.flashloan_agreement(rows) == {"b"}


def test_outcome_label_reads_rebuilt_verdicts():
    class Stub:
        kind = "gas_exhausted"

    assert verify.outcome_label(Stub()) == "gas_exhausted"
    assert verify.outcome_label(Aborted(ContractFail("A", "x"))) == "contract_fail"


def test_wide_state_round_is_clean_and_repeats(tmp_path):
    workload = workloads.WideState(0, tmp_path)
    rec = workloads.Recorder()
    workload.round(rec)
    workload.round(rec)
    assert (rec.attempted, rec.failed, rec.run_problems) == (80, 0, [])
    assert rec.checked["ledger"] == 80
    assert rec.count["aborts"] == 10


def test_tracer_restores_what_it_wraps():
    from txmonsim import core, engine

    before = (engine.digest, core.ChainState.move, Engine.run_transaction)
    tracer = Tracer()
    tracer.install()
    try:
        pre, result = forwarder_run(SchedulerKind.DFS)
    finally:
        tracer.uninstall()
    assert (engine.digest, core.ChainState.move, Engine.run_transaction) == before
    assert tracer.calls("engine.run_transaction") == 1
    assert tracer.calls("core.digest") == len(result.trace.records)
