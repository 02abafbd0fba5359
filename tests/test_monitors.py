"""Monitor hook semantics: init/begin/end/term ordering, failures, isolation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import external, inert_contract
from txmonsim.checks import check_all, check_hook_isolation, check_monitor_shape
from txmonsim.contracts import build, callspec
from txmonsim.core import (
    Aborted,
    Account,
    ChainState,
    Committed,
    ContractError,
    MonitorBeginFail,
    MonitorEndFail,
    MonitorMode,
    MonitorTermFail,
    RecordKind,
    StepFail,
    VInt,
    VSeq,
    as_int,
)
from txmonsim.engine import Engine, EngineConfig


def once_registry(**extra):
    registry = {
        "A": build("once_monitored_A", {}, 0).contract,
        "B": build("forwarder_B", {}, 0).contract,
        "C": build("sink_C", {}, 0).contract,
    }
    registry.update(extra)
    return registry


def once_state():
    return ChainState(
        {
            "A": Account(monitor_storage=VInt(0)),
            "B": Account(),
            "C": Account(),
            "ext": Account(),
        }
    )


def tx_config(**kw):
    return EngineConfig(monitor_mode=MonitorMode.TRANSACTION, gas_limit=100, **kw)


def run_monitored(registry, state, op):
    return Engine(registry, tx_config()).run_transaction(state, op)


def plan(calls_to_a: int):
    return VSeq(tuple([callspec("A")] * calls_to_a + [callspec("C")]))


def test_one_call_is_rejected_by_term():
    res = run_monitored(once_registry(), once_state(), external("B", "run", plan(1)))
    assert isinstance(res.outcome, Aborted)
    assert res.outcome.reason == MonitorTermFail("A")


def test_two_calls_commit_with_counter_at_two():
    res = run_monitored(once_registry(), once_state(), external("B", "run", plan(2)))
    assert isinstance(res.outcome, Committed)
    assert as_int(res.outcome.final.monitor_storage("A")) == 2


def test_untouched_monitored_contract_gets_no_init_or_term():
    res = run_monitored(once_registry(), once_state(), external("B", "run", plan(0)))
    assert res.committed
    kinds = [r.kind for r in res.trace.records]
    assert RecordKind.INIT not in kinds and RecordKind.TERM not in kinds


def test_monitor_record_shape_and_isolation():
    registry = once_registry()
    res = run_monitored(registry, once_state(), external("B", "run", plan(2)))
    assert check_monitor_shape(res, registry) == []
    assert check_hook_isolation(res.trace) == []
    kinds = [(r.kind, r.subject) for r in res.trace.records]
    # one init strictly before A's first op, begin/end bracketing, term last
    assert kinds.count((RecordKind.INIT, "A")) == 1
    assert kinds.count((RecordKind.TERM, "A")) == 1
    assert kinds.index((RecordKind.INIT, "A")) < kinds.index((RecordKind.BEGIN, "A"))
    assert kinds[-1] == (RecordKind.TERM, "A")


def test_begin_failure_aborts():
    contract = build("once_monitored_A", {}, 0).contract

    def bad_begin(method, param, money, ms):
        raise ContractError("refused")

    registry = once_registry(A=replace(contract, begin=bad_begin))
    res = run_monitored(registry, once_state(), external("B", "run", plan(1)))
    assert isinstance(res.outcome, Aborted)
    assert res.outcome.reason == MonitorBeginFail("A")


def test_end_failure_aborts():
    contract = build("once_monitored_A", {}, 0).contract

    def bad_end(emitted, new_storage, ms):
        raise ContractError("refused")

    registry = once_registry(A=replace(contract, end=bad_end))
    res = run_monitored(registry, once_state(), external("B", "run", plan(1)))
    assert isinstance(res.outcome, Aborted)
    assert res.outcome.reason == MonitorEndFail("A")


def test_operation_monitor_identity_hooks_do_not_perturb_execution():
    plain = inert_contract()
    monitored = replace(
        plain,
        begin=lambda method, param, money, ms: ms,
        end=lambda emitted, new_storage, ms: ms,
    )
    registry_plain = {"A": plain, "B": once_registry()["B"], "C": once_registry()["C"]}
    registry_mon = dict(registry_plain, A=monitored)
    op = external("B", "run", plan(2))
    res_plain = Engine(registry_plain, EngineConfig(gas_limit=100)).run_transaction(
        once_state(), op
    )
    res_mon = Engine(
        registry_mon, EngineConfig(gas_limit=100, monitor_mode=MonitorMode.OPERATION)
    ).run_transaction(once_state(), op)
    assert res_plain.committed and res_mon.committed

    def op_view(trace):
        return [
            (r.executed, r.queue_before, r.queue_after, r.emitted, r.gas_before, r.gas_after)
            for r in trace.ops()
        ]

    assert op_view(res_plain.trace) == op_view(res_mon.trace)
    assert res_plain.trace.records[-1].state_digest == res_mon.trace.records[-1].state_digest


def test_operation_mode_runs_begin_end_but_never_init_term():
    registry = once_registry()
    res = Engine(
        registry, EngineConfig(gas_limit=100, monitor_mode=MonitorMode.OPERATION)
    ).run_transaction(once_state(), external("B", "run", plan(1)))
    kinds = {r.kind for r in res.trace.records}
    assert RecordKind.BEGIN in kinds and RecordKind.END in kinds
    assert RecordKind.INIT not in kinds and RecordKind.TERM not in kinds
    # without init/term the only-once property is not enforced
    assert res.committed


def test_term_runs_in_first_visit_order_and_stops_at_first_failure():
    def always_fail(storage, balance, ms):
        raise ContractError("no")

    def ok(storage, balance, ms):
        return None

    registry = {
        "X": replace(inert_contract(), term=ok),
        "Y": replace(inert_contract(), term=always_fail),
        "Z": replace(inert_contract(), term=ok),
        "B": build("forwarder_B", {}, 0).contract,
    }
    state = ChainState({a: Account() for a in registry} | {"ext": Account()})
    res = run_monitored(
        registry, state, external("B", "run", VSeq((callspec("X"), callspec("Y"), callspec("Z"))))
    )
    assert isinstance(res.outcome, Aborted)
    assert res.outcome.reason == MonitorTermFail("Y")
    terms = [r.subject for r in res.trace.records if r.kind is RecordKind.TERM]
    assert terms == ["X"]  # Y failed, Z never ran


def test_monitor_storage_survives_between_transactions_until_next_init():
    registry = once_registry()
    state = once_state()
    res1 = run_monitored(registry, state, external("B", "run", plan(2)))
    assert res1.committed
    state2 = res1.outcome.final
    assert as_int(state2.monitor_storage("A")) == 2
    # next transaction re-initializes before counting anew: three calls pass
    res2 = run_monitored(registry, state2, external("B", "run", plan(3)))
    assert res2.committed
    assert as_int(res2.outcome.final.monitor_storage("A")) == 3


def _refuse(*args):
    raise ContractError("refused")


# Ways a step of A can abort, as (hook or step replacements, gas limit). With
# a limit of 4, B's run spends it all and A's opening hooks run before A's op
# finds none left.
ABORTS = {
    "init": ({"init": _refuse}, 100),
    "begin": ({"begin": _refuse}, 100),
    "step": ({"step": lambda view, method, param, money, storage, balance: StepFail("no")}, 100),
    "end": ({"end": _refuse}, 100),
    "term": ({"term": _refuse}, 100),
    "gas": ({}, 4),
}


@pytest.mark.parametrize(
    "mode, where",
    [(MonitorMode.OPERATION, w) for w in ("begin", "step", "end", "gas")]
    + [(MonitorMode.TRANSACTION, w) for w in ABORTS],
)
def test_check_all_holds_when_a_monitored_step_aborts(mode, where):
    changes, gas = ABORTS[where]
    registry = once_registry(A=replace(build("once_monitored_A", {}, 0).contract, **changes))
    engine = Engine(registry, EngineConfig(monitor_mode=mode, gas_limit=gas))
    res = engine.run_transaction(once_state(), external("B", "run", plan(2)))
    assert isinstance(res.outcome, Aborted)
    assert check_all(registry, once_state(), res) == []


def _two_monitored(mode):
    """A committed run of B calling A twice, D twice, then C; A and D are
    both monitored for being called once."""
    registry = once_registry(D=build("once_monitored_A", {}, 0).contract)
    state = ChainState(dict(once_state().items()) | {"D": Account(monitor_storage=VInt(0))})
    calls = VSeq((callspec("A"), callspec("A"), callspec("D"), callspec("D"), callspec("C")))
    engine = Engine(registry, EngineConfig(monitor_mode=mode, gas_limit=100))
    res = engine.run_transaction(state, external("B", "run", calls))
    assert res.committed and check_monitor_shape(res, registry) == []
    return registry, res


def _hook_before_first_a(kind):
    return lambda rs: rs[:1] + [replace(rs[1], kind=kind)] + rs[1:]


# The transaction-monitored run's records are: op B; init, begin, op, end of
# A; begin, op, end of A; the same for D; op C; term A; term D.
TAMPERS = {
    "end dropped": (MonitorMode.TRANSACTION, lambda rs: rs[:4] + rs[5:], "record 5: begin A"),
    "term dropped": (MonitorMode.TRANSACTION, lambda rs: rs[:-1], "trace ends"),
    "terms swapped": (
        MonitorMode.TRANSACTION, lambda rs: rs[:-2] + [rs[-1], rs[-2]], "record 17: term D"
    ),
    "second init": (
        MonitorMode.TRANSACTION, lambda rs: rs[:5] + [rs[1]] + rs[5:], "record 1: init A where"
    ),
    "begin under none": (
        MonitorMode.NONE, _hook_before_first_a(RecordKind.BEGIN), "record 1: begin A"
    ),
    "init under operation monitoring": (
        MonitorMode.OPERATION, _hook_before_first_a(RecordKind.INIT), "record 1: init A"
    ),
}


@pytest.mark.parametrize("tamper", TAMPERS)
def test_monitor_shape_names_the_first_record_off_the_law(tamper):
    mode, edit, named = TAMPERS[tamper]
    registry, res = _two_monitored(mode)
    tampered = replace(res, trace=replace(res.trace, records=tuple(edit(list(res.trace.records)))))
    problems = check_monitor_shape(tampered, registry)
    assert len(problems) == 1 and problems[0].startswith(named), problems
