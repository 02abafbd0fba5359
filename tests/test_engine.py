"""Engine semantics: operation execution, queue disciplines, gas, atomicity."""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import emitting_contract, external, inert_contract
from txmonsim import core
from txmonsim.checks import check_all, check_atomicity, check_gas, check_queue_laws, check_replay
from txmonsim.contracts import build, call, callspec
from txmonsim.core import (
    Aborted,
    Account,
    ChainState,
    Committed,
    ContractFail,
    Context,
    GasExhausted,
    InsufficientBalance,
    Mechanism,
    MonitorMode,
    Operation,
    Pending,
    RecordKind,
    RecurringEscape,
    ScenarioError,
    SchedulerKind,
    StepOk,
    U64_MAX,
    UNIT,
    VAddr,
    VAmt,
    VBool,
    VRec,
    VSeq,
    digest,
)
from txmonsim.core import ContractDef
from txmonsim.engine import EMIT_COST, Engine, EngineConfig, OP_COST, charge_gas, replayer


def run_one(registry, state, op, scheduler=SchedulerKind.DFS, gas=100, **cfg):
    engine = Engine(registry, EngineConfig(scheduler=scheduler, gas_limit=gas, **cfg), debug=True)
    return engine.run_transaction(state, op)


# ---------------------------------------------------------------------------
# charge_gas


def test_charge_gas_boundary_exact():
    ctx = Context(gas_remaining=5)
    out = charge_gas(ctx, 5)
    assert out is not None and out.gas_remaining == 0


def test_charge_gas_unaffordable():
    assert charge_gas(Context(gas_remaining=4), 5) is None


def _counted_self_call():
    """A contract at A whose method `a` emits one call to A.b; `calls`
    lists the methods its step ran."""
    calls = []

    def step(view, method, param, money, storage, balance):
        calls.append(method)
        return StepOk(storage, (call("A", "b"),) if method == "a" else ())

    return {"A": ContractDef(step=step)}, calls


@pytest.mark.parametrize(
    "gas, outcome, calls",
    [
        # A.a pays for itself and its emission; A.b then meets a meter at 0
        # and never runs.
        (OP_COST + EMIT_COST, Aborted(GasExhausted()), ["a"]),
        # A.a can pay for itself but not its emission: it runs, then aborts.
        (OP_COST, Aborted(GasExhausted()), ["a"]),
        # Both ops and the emission, to the last unit.
        (2 * OP_COST + EMIT_COST, None, ["a", "b"]),
    ],
)
def test_the_op_cost_is_tested_before_the_step_and_charged_after_it(gas, outcome, calls):
    registry, ran = _counted_self_call()
    state = ChainState({"A": Account(), "ext": Account()})
    engine = Engine(registry, EngineConfig(gas_limit=gas))
    res = engine.run_transaction(state, external("A", "a"))
    assert ran == calls
    if outcome is not None:
        assert res.outcome == outcome
    else:
        assert res.committed
        assert res.trace.records[-1].gas_after == 0
        assert check_gas(res.trace) == []


def test_a_transfer_past_the_balance_bound_aborts_and_keeps_the_pre_state():
    registry = {"A": inert_contract()}
    state = ChainState({"A": Account(balance=U64_MAX - 5), "ext": Account(balance=10)})
    pre_digest = digest(state)
    res = run_one(registry, state, external("A", money=10))
    assert res.outcome == Aborted(ContractFail("A", "balance overflow at A"))
    assert res.trace.records == ()
    assert check_atomicity(state, pre_digest, res) == []
    assert (state.balance("A"), state.balance("ext")) == (U64_MAX - 5, 10)


def test_cost_model_three_ops_two_emissions_consume_five():
    # Oracle: 3 executed operations and 2 emissions at one unit each.
    expected = 3 * OP_COST + 2 * EMIT_COST
    registry = {
        "B": build("forwarder_B", {}, 0).contract,
        "A": build("sink_C", {}, 0).contract,
        "C": build("sink_C", {}, 0).contract,
    }
    state = ChainState({a: Account() for a in registry} | {"ext": Account()})
    plan = VSeq((callspec("A"), callspec("C")))
    res = run_one(registry, state, external("B", "run", plan), gas=100)
    assert res.committed
    assert res.trace.records[-1].gas_after == 100 - expected


# ---------------------------------------------------------------------------
# execute_operation level behaviour


def test_insufficient_balance_aborts():
    registry = {"A": inert_contract()}
    state = ChainState({"A": Account(), "ext": Account(balance=100)})
    res = run_one(registry, state, external("A", money=150))
    assert isinstance(res.outcome, Aborted)
    assert isinstance(res.outcome.reason, InsufficientBalance)


def test_zero_money_step_keeps_balances():
    registry = {"A": inert_contract()}
    state = ChainState({"A": Account(balance=3), "ext": Account(balance=9)})
    res = run_one(registry, state, external("A", money=0))
    assert isinstance(res.outcome, Committed)
    assert res.outcome.final.balance("A") == 3
    assert res.outcome.final.balance("ext") == 9
    assert res.trace.records[0].emitted == ()


def test_self_transfer_commits_without_minting():
    # A emits a 5-token operation to itself; supply must stay at 10.
    def step(view, method, param, money, storage, balance):
        if method == "go":
            return StepOk(storage, (Operation(dest="A", src="", method="take", money=5),))
        return StepOk(storage)

    registry = {"A": ContractDef(step=step)}
    state = ChainState({"A": Account(balance=10), "ext": Account()})
    res = run_one(registry, state, external("A", "go"))
    assert isinstance(res.outcome, Committed)
    assert res.trace.records[-1].executed.money == 5
    assert res.outcome.final.total_supply() == 10
    assert res.outcome.final.balance("A") == 10
    assert check_all(registry, state, res) == []


def test_lend_emits_one_transfer_of_the_amount():
    lender = build("lender_trmon", {}, 100)
    registry = {"L": lender.contract, "M": inert_contract()}
    state = ChainState({"L": Account(balance=100), "M": Account(), "ext": Account()})
    param = VRec({"dest": VAddr("M"), "amount": VAmt(100)})
    res = run_one(registry, state, external("L", "lend", param))
    assert res.committed
    first = res.trace.records[0]
    assert len(first.emitted) == 1
    op = first.emitted[0]
    assert (op.dest, op.src, op.money) == ("M", "L", 100)
    assert res.outcome.final.balance("M") == 100


def test_unknown_method_is_contract_fail():
    registry = {"L": build("lender_trmon", {}, 0).contract}
    state = ChainState({"L": Account(), "ext": Account()})
    res = run_one(registry, state, external("L", "no_such_method"))
    assert isinstance(res.outcome, Aborted)
    assert isinstance(res.outcome.reason, ContractFail)


def test_unregistered_destination_is_contract_fail():
    registry = {"B": emitting_contract(call("GHOST", "ping"))}
    state = ChainState({"B": Account(), "GHOST": Account(), "ext": Account()})
    res = run_one(registry, state, external("B"))
    assert isinstance(res.outcome, Aborted)
    assert isinstance(res.outcome.reason, ContractFail)
    assert res.outcome.reason.addr == "GHOST"


def test_recurring_escape_on_foreign_destination():
    bad = Operation(dest="C", src="", method="ping", recurring=True)
    registry = {"B": emitting_contract(bad), "C": inert_contract()}
    state = ChainState({"B": Account(), "C": Account(), "ext": Account()})
    res = run_one(registry, state, external("B"))
    assert isinstance(res.outcome, Aborted)
    assert isinstance(res.outcome.reason, RecurringEscape)


def test_recurring_ops_carry_no_money():
    def step(view, method, param, money, storage, balance):
        return StepOk(storage, (Operation(dest="B", src="", method="m", money=1, recurring=True),))

    registry = {"B": ContractDef(step=step, recurring_methods=frozenset({"m"}))}
    state = ChainState({"B": Account(balance=10), "ext": Account()})
    res = run_one(registry, state, external("B", "m"))
    assert isinstance(res.outcome, Aborted)
    assert isinstance(res.outcome.reason, RecurringEscape)


# ---------------------------------------------------------------------------
# Queue disciplines (exact shapes)


def _forwarders():
    registry = {
        "B": build("forwarder_B", {}, 0).contract,
        "A": build("forwarder_B", {}, 0).contract,
        "C": build("sink_C", {}, 0).contract,
    }
    state = ChainState({a: Account() for a in registry} | {"ext": Account()})
    return registry, state


def _labels(queue):
    return [f"{o.dest}.{o.method}" for o in queue]


def test_dfs_single_op_emitting_two():
    registry, state = _forwarders()
    plan = VSeq((callspec("A"), callspec("C")))
    res = run_one(registry, state, external("B", "run", plan))
    assert _labels(res.trace.records[0].queue_after) == ["A.ping", "C.ping"]


def test_dfs_emissions_prepend_with_pending_op():
    registry, state = _forwarders()
    child = VSeq((callspec("C", "ping"),))
    plan = VSeq((callspec("A", "run", child), callspec("A", "ping"), callspec("C", "ping")))
    res = run_one(registry, state, external("B", "run", plan))
    ops = res.trace.ops()
    assert _labels(ops[0].queue_after) == ["A.run", "A.ping", "C.ping"]
    assert _labels(ops[1].queue_after) == ["C.ping", "A.ping", "C.ping"]


def test_bfs_emissions_append():
    registry, state = _forwarders()
    child = VSeq((callspec("A", "ping"),))
    plan = VSeq((callspec("B", "run", child), callspec("A", "ping")))
    res = run_one(registry, state, external("B", "run", plan), scheduler=SchedulerKind.BFS)
    ops = res.trace.ops()
    # head B.run emits one op; the pending A.ping keeps its place at the front
    assert _labels(ops[1].queue_after) == ["A.ping", "A.ping"]


@given(
    scheduler=st.sampled_from([SchedulerKind.DFS, SchedulerKind.BFS]),
    shape=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_queue_laws_hold_on_random_plans(scheduler, shape):
    registry, state = _forwarders()
    plan = VSeq(
        tuple(
            callspec("A", "run", VSeq(tuple(callspec("C") for _ in range(n))))
            for n in shape
        )
    )
    res = run_one(registry, state, external("B", "run", plan), scheduler=scheduler, gas=500)
    assert res.committed
    assert check_queue_laws(res.trace) == []


@pytest.mark.parametrize("scheduler", [SchedulerKind.DFS, SchedulerKind.BFS])
def test_consecutive_records_share_the_queue_tuple(scheduler):
    # A step's hook and operation records hold the queue the step received,
    # not a copy of it: each record's queue_before is its predecessor's
    # queue_after object.
    registry = {
        "A": build("once_monitored_A", {}, 0).contract,
        "B": build("forwarder_B", {}, 0).contract,
        "C": build("sink_C", {}, 0).contract,
    }
    state = ChainState({a: Account() for a in registry} | {"ext": Account()})
    plan = VSeq((callspec("A"), callspec("A"), callspec("C")))
    res = run_one(
        registry, state, external("B", "run", plan), scheduler=scheduler,
        monitor_mode=MonitorMode.TRANSACTION,
    )
    assert res.committed
    pairs = [
        (earlier, later)
        for earlier, later in zip(res.trace.records, res.trace.records[1:])
        if earlier.queue_after
    ]
    assert len(pairs) == 8
    for earlier, later in pairs:
        assert later.queue_before is earlier.queue_after, (earlier.index, later.index)


# ---------------------------------------------------------------------------
# run_transaction


def test_single_step_drain_trace_length_one():
    registry = {"A": inert_contract()}
    state = ChainState({"A": Account(), "ext": Account()})
    res = run_one(registry, state, external("A"), gas=10)
    assert res.committed
    assert len(res.trace.records) == 1


def test_recurring_self_feeder_exhausts_gas():
    # Oracle: each step charges 1 to execute and 1 for its single emission,
    # so a gas meter of 50 admits exactly 25 completed steps.
    gas, steps = 50, 0
    while gas >= OP_COST + EMIT_COST:
        gas -= OP_COST + EMIT_COST
        steps += 1
    assert steps == 25

    def feeder(view, method, param, money, storage, balance):
        return StepOk(storage, (Operation(dest="R", src="", method="go", recurring=True),))

    registry = {"R": ContractDef(step=feeder, recurring_methods=frozenset({"go"}))}
    state = ChainState({"R": Account(), "ext": Account()})
    res = run_one(registry, state, external("R", "go"), gas=50)
    assert isinstance(res.outcome, Aborted)
    assert isinstance(res.outcome.reason, GasExhausted)
    assert len(res.trace.ops()) == steps


def test_gas_exhaustion_only_at_unaffordable_charge():
    registry = {"A": inert_contract()}
    state = ChainState({"A": Account(), "ext": Account()})
    res = run_one(registry, state, external("A"), gas=1)
    assert res.committed
    assert res.trace.records[-1].gas_after == 0


def test_check_all_names_a_record_that_breaks_the_gas_law():
    registry, state = _forwarders()
    plan = VSeq((callspec("A", "run", VSeq((callspec("C"),))), callspec("C")))
    res = run_one(registry, state, external("B", "run", plan))
    assert check_all(registry, state, res) == []
    records = list(res.trace.records)
    assert records[1].gas_before - records[1].gas_after == OP_COST + EMIT_COST
    records[1] = replace(records[1], gas_after=records[1].gas_before - 4)
    tampered = replace(res, trace=replace(res.trace, records=tuple(records)))
    problems = check_all(registry, state, tampered)
    assert any(p.startswith("record 1: op spent 4 gas") for p in problems), problems


def test_check_all_names_a_record_that_executes_an_operation_never_pending():
    registry, state = _forwarders()
    plan = VSeq((callspec("A", "run", VSeq((callspec("C"),))), callspec("C")))
    res = run_one(registry, state, external("B", "run", plan))
    records = list(res.trace.records)
    assert _labels(records[2].queue_before) == ["C.ping", "C.ping"]
    pong = replace(records[2].executed, method="pong")
    records[2] = replace(records[2], executed=pong, queue_before=(pong,) + records[2].queue_before[1:])
    tampered = replace(res, trace=replace(res.trace, records=tuple(records)))
    assert check_all(registry, state, tampered) == [
        "record 2: queue does not continue the previous record"
    ]


def _once_forwarder_run(scheduler, monitor_mode=MonitorMode.NONE, n=3):
    """B forwards to the once-monitored A, then to the sink C n-1 times."""
    registry = {
        "A": build("once_monitored_A", {}, 0).contract,
        "B": build("forwarder_B", {}, 0).contract,
        "C": build("sink_C", {}, 0).contract,
    }
    state = ChainState({a: Account() for a in registry} | {"ext": Account()})
    plan = VSeq((callspec("A"),) + (callspec("C"),) * (n - 1))
    engine = Engine(registry, EngineConfig(scheduler=scheduler, gas_limit=2 * n + 10,
                                           monitor_mode=monitor_mode))
    return engine.run_transaction(state, external("B", "run", plan))


def _tampered(res, index, **changes):
    records = list(res.trace.records)
    records[index] = replace(records[index], **changes)
    return replace(res.trace, records=tuple(records))


@pytest.mark.parametrize("scheduler", [SchedulerKind.DFS, SchedulerKind.BFS])
def test_check_queue_laws_names_each_tampered_record(scheduler):
    res = _once_forwarder_run(scheduler, MonitorMode.TRANSACTION)
    assert check_queue_laws(res.trace) == []
    dfs = scheduler is SchedulerKind.DFS
    first = res.trace.ops()[0]
    assert len(first.queue_after) == 3
    law = f"record {first.index}: op breaks the {scheduler.value} queue law"
    after = first.queue_after
    for forged in (
        after[1:] + after[:1],  # reordered
        after[:-1],  # missing its last op
        # a queue of the right length, sharing the rest, with one op changed
        first.queue_before.drop().push(
            first.emitted[:-1] + (replace(first.emitted[-1], method="pong"),), front=dfs
        ),
    ):
        tampered = _tampered(res, first.index, queue_after=forged)
        assert isinstance(tampered.records[first.index].queue_after, Pending)
        assert law in check_queue_laws(tampered), forged

    hook = next(r for r in res.trace.records if r.kind is RecordKind.BEGIN)
    moved = _tampered(res, hook.index, queue_after=hook.queue_after[1:])
    assert f"record {hook.index}: begin breaks the {scheduler.value} queue law" in (
        check_queue_laws(moved)
    )

    second = res.trace.ops()[1]
    emptied = _tampered(res, second.index, queue_before=())
    assert f"record {second.index}: op record starts from an empty queue" in (
        check_queue_laws(emptied)
    )


def _bytes_per_record(scheduler, n):
    """Memory a fan-out-n trace holds, per record, as tracemalloc counts it."""
    core._value_blob.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = _once_forwarder_run(scheduler, n=n)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert res.committed
    return held / len(res.trace.records)


def test_trace_memory_grows_linearly_in_records():
    # Each record holds its queues; shared pairs keep a record's share of
    # them constant, where a copy per record grows with the queue.
    small, large = (_bytes_per_record(SchedulerKind.BFS, n) for n in (500, 4000))
    assert large <= 1.5 * small, (small, large)


def test_external_validation():
    registry = {"A": inert_contract()}
    state = ChainState({"A": Account(), "ext": Account()})
    with pytest.raises(ScenarioError):
        run_one(registry, state, Operation(dest="A", src="nobody", method="ping"))
    with pytest.raises(ScenarioError):
        run_one(registry, state, Operation(dest="ext", src="ext", method="ping"))
    with pytest.raises(ScenarioError):
        run_one(registry, state, Operation(dest="A", src="A", method="ping"))


def test_determinism_identical_traces_on_rerun():
    registry, state = _forwarders()
    plan = VSeq((callspec("A", "run", VSeq((callspec("C"),))), callspec("C")))
    op = external("B", "run", plan)
    r1 = run_one(registry, state, op)
    r2 = run_one(registry, state, op)
    assert r1.trace == r2.trace
    assert [r.state_digest for r in r1.trace.records] == [
        r.state_digest for r in r2.trace.records
    ]


def test_atomicity_on_abort_preserves_pre_state():
    registry = {"A": inert_contract(), "B": emitting_contract(call("A", "ping", money=5))}
    state = ChainState({"A": Account(), "B": Account(balance=0), "ext": Account(balance=10)})
    pre_digest = digest(state)
    res = run_one(registry, state, external("B", money=0))
    assert isinstance(res.outcome, Aborted)
    assert check_atomicity(state, pre_digest, res) == []
    assert digest(state) == pre_digest


def test_conservation_and_full_checks_on_flashloan_run():
    from txmonsim.scenarios import LENDER_VARIANTS, _loan_scenario, build_scenario, run_scenario

    scenario = _loan_scenario(
        LENDER_VARIANTS[0], "client_two_loans_staged",
        {"l1": "L1", "l2": "L2", "sink": "S", "amount1": 100, "amount2": 200},
    )
    state, registry = build_scenario(scenario)
    result = run_scenario(scenario)
    assert result.all_committed
    for tx in result.results:
        assert check_all(registry, state, tx) == []


def test_replay_reproduces_recorded_steps():
    registry, state = _forwarders()
    plan = VSeq((callspec("A", "run", VSeq((callspec("C"),))), callspec("A", "ping")))
    res = run_one(registry, state, external("B", "run", plan))
    assert res.committed
    assert check_replay(registry, res.trace) == []


def test_nondeterministic_step_is_flagged_in_debug_runs():
    hits = []

    def flaky(view, method, param, money, storage, balance):
        hits.append(1)
        return StepOk(storage, ()) if len(hits) % 2 == 0 else StepOk(UNIT, ())

    registry = {"A": ContractDef(step=flaky)}
    state = ChainState({"A": Account(storage=VRec({})), "ext": Account()})
    with pytest.raises(ScenarioError):
        run_one(registry, state, external("A"))


def test_step_reading_first_on_alternate_evaluations_is_flagged_in_debug_runs():
    hits = []

    def flaky(view, method, param, money, storage, balance):
        hits.append(1)
        if len(hits) % 2:
            view.first
        return StepOk(storage, ())

    registry = {"A": ContractDef(step=flaky)}
    state = ChainState({"A": Account(storage=VRec({})), "ext": Account()})
    with pytest.raises(ScenarioError, match="non-deterministic step function at A"):
        run_one(registry, state, external("A"), mechanisms=frozenset({Mechanism.FIRST}))


def test_step_writing_an_alternating_fail_bit_is_flagged_in_debug_runs():
    hits = []

    def flaky(view, method, param, money, storage, balance):
        hits.append(1)
        view.set_fail(len(hits) % 2 == 0)
        return StepOk(storage, ())

    registry = {"A": ContractDef(step=flaky)}
    state = ChainState({"A": Account(storage=VRec({})), "ext": Account()})
    with pytest.raises(ScenarioError, match="non-deterministic step function at A"):
        run_one(registry, state, external("A"), mechanisms=frozenset({Mechanism.FAIL}))


def test_replay_of_a_record_that_lost_a_reading_names_it():
    def reads_first(view, method, param, money, storage, balance):
        return StepOk(VRec({"first": VBool(view.first)}), ())

    registry = {"A": ContractDef(step=reads_first)}
    state = ChainState({"A": Account(storage=VRec({})), "ext": Account()})
    res = run_one(registry, state, external("A"), mechanisms=frozenset({Mechanism.FIRST}))
    (record,) = res.trace.ops("A")
    replay = replayer(registry)
    assert replay(record)[0] == VRec({"first": VBool(True)})
    stripped = replace(record, readings={})
    with pytest.raises(ScenarioError, match="unrecorded reading 'first'"):
        replay(stripped)


@pytest.mark.parametrize("query, reading", [("first", "first"), ("txmem", "txmem_in")])
def test_replay_through_one_view_keeps_no_reading_of_an_earlier_record(query, reading):
    # Record 0 reads `first` and writes txmem; record 1 reads only `query`.
    # Replayed after record 0 through the same view, record 1 without its
    # readings must not be answered from record 0's readings or its write.
    def two_steps(view, method, param, money, storage, balance):
        if method == "a":
            view.set_txmem(VBool(view.first))
            return StepOk(storage, (call("A", "b"),))
        seen = getattr(view, query)
        return StepOk(VRec({"seen": VBool(seen) if query == "first" else seen}), ())

    registry = {"A": ContractDef(step=two_steps)}
    state = ChainState({"A": Account(storage=VRec({})), "ext": Account()})
    res = run_one(
        registry, state, external("A", "a"), mechanisms=frozenset({Mechanism.FIRST, Mechanism.TXMEM})
    )
    assert res.committed
    first, second = res.trace.ops("A")
    assert set(first.readings) == {"first"} and set(second.readings) == {reading}
    replay = replayer(registry)
    assert replay(first) == (first.storage_after, first.emitted)
    assert replay(second) == (second.storage_after, second.emitted)
    replay(first)
    with pytest.raises(ScenarioError, match=f"unrecorded reading {reading!r}"):
        replay(replace(second, readings={}))
    assert replay(second) == (second.storage_after, second.emitted)


def test_check_replay_names_the_record_whose_storage_or_emissions_differ():
    res = _once_forwarder_run(SchedulerKind.BFS, MonitorMode.TRANSACTION)
    registry = {
        "A": build("once_monitored_A", {}, 0).contract,
        "B": build("forwarder_B", {}, 0).contract,
        "C": build("sink_C", {}, 0).contract,
    }
    assert check_replay(registry, res.trace) == []
    forwarder, _, sink = res.trace.ops()[:3]
    assert forwarder.emitted and sink.subject == "C"
    tampered = _tampered(res, sink.index, storage_after=VRec({"forged": VBool(True)}))
    assert check_replay(registry, tampered) == [
        f"record {sink.index}: replay produced different storage"
    ]
    tampered = _tampered(res, forwarder.index, emitted=forwarder.emitted[:-1])
    assert check_replay(registry, tampered) == [
        f"record {forwarder.index}: replay produced different emissions"
    ]


def test_step_raising_a_non_contract_error_is_a_named_harness_fault():
    def broken(view, method, param, money, storage, balance):
        if method == "boom":
            raise TypeError("unsupported operand")
        return StepOk(storage, (call("A", "boom"),))

    registry = {"A": ContractDef(step=broken)}
    state = ChainState({"A": Account(storage=VRec({})), "ext": Account()})
    with pytest.raises(ScenarioError, match=r"step A\.boom at record 1 raised TypeError") as info:
        run_one(registry, state, external("A"))
    assert isinstance(info.value.__cause__, TypeError)


def test_suites_write_every_record_kind(monkeypatch):
    # The golden hashes pin the record builder only for the kinds the suites
    # write, so the suites must keep writing every kind.
    from txmonsim.scenarios import counterexample_suite, run_flashloan_suite

    results = []
    original = Engine.run_transaction

    def recording(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(Engine, "run_transaction", recording)
    counterexample_suite()
    run_flashloan_suite()
    kinds = {r.kind for res in results for r in res.trace.records}
    assert kinds == set(RecordKind)
