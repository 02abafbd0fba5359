"""Mechanism queries and end-of-transaction phases."""

from __future__ import annotations

import pytest
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import external, inert_contract
from txmonsim.contracts import build, callspec, methods
from txmonsim.core import (
    Aborted,
    Account,
    ChainState,
    ContractDef,
    Context,
    ContractError,
    FailBitSet,
    HookupFail,
    Mechanism,
    Operation,
    RecordKind,
    ScenarioError,
    SchedulerKind,
    StepOk,
    VAddr,
    VAmt,
    VBool,
    VInt,
    VRec,
    VSeq,
    as_bool,
    as_int,
    as_rec,
    as_seq,
)
from txmonsim.engine import Engine, EngineConfig
from txmonsim.mechanisms import BoundedHookupError, ContextView


ALL = frozenset(Mechanism)


def recorder(profile: str) -> ContractDef:
    """Logs one mechanism reading per `ping` into storage."""

    def ping(view, param, money, storage, balance):
        s = as_rec(storage)
        log = as_seq(s.get("log", VSeq()))
        if profile == "first":
            entry = VBool(view.first)
        elif profile == "count":
            entry = VInt(view.count)
        elif profile == "queue":
            entry = VBool(view.queue)
        else:
            entry = view.txmem
        return StepOk(s.set("log", VSeq(log + (entry,))))

    uses = {"first": Mechanism.FIRST, "count": Mechanism.COUNT, "queue": Mechanism.QUEUE}.get(
        profile, Mechanism.TXMEM
    )
    return ContractDef(step=methods(ping=ping), mechanism_uses=frozenset({uses}))


def run(registry, state, op, mechanisms=ALL, scheduler=SchedulerKind.DFS, gas=200):
    cfg = EngineConfig(scheduler=scheduler, gas_limit=gas, mechanisms=frozenset(mechanisms))
    return Engine(registry, cfg, debug=True).run_transaction(state, op)


def state_for(registry, **balances):
    accounts = {a: Account(storage=VRec({})) for a in registry}
    accounts["ext"] = Account()
    for a, b in balances.items():
        accounts[a] = Account(storage=VRec({}), balance=b)
    return ChainState(accounts)


def log_of(res, addr):
    return list(as_seq(as_rec(res.outcome.final.storage(addr)).get("log")))


# ---------------------------------------------------------------------------
# first / count


def test_first_true_then_false_within_a_transaction():
    registry = {"A": recorder("first"), "B": build("forwarder_B", {}, 0).contract}
    res = run(
        registry, state_for(registry),
        external("B", "run", VSeq((callspec("A"), callspec("A")))),
    )
    assert log_of(res, "A") == [VBool(True), VBool(False)]


def test_count_runs_one_to_k():
    registry = {"A": recorder("count"), "B": build("forwarder_B", {}, 0).contract}
    k = 4
    res = run(
        registry, state_for(registry),
        external("B", "run", VSeq(tuple(callspec("A") for _ in range(k)))),
    )
    assert log_of(res, "A") == [VInt(i) for i in range(1, k + 1)]
    # Oracle: replay the trace and count prior occurrences of the destination.
    seen = 0
    for r in res.trace.ops("A"):
        seen += 1
        assert r.readings["count"] == VInt(seen)


def test_first_iff_count_equals_one():
    def probe(view, method, param, money, storage, balance):
        assert view.first == (view.count == 1)
        return StepOk(storage)

    registry = {
        "A": ContractDef(step=probe, mechanism_uses=frozenset({Mechanism.FIRST, Mechanism.COUNT})),
        "B": build("forwarder_B", {}, 0).contract,
    }
    res = run(
        registry, state_for(registry),
        external("B", "run", VSeq(tuple(callspec("A") for _ in range(3)))),
    )
    assert res.committed


def test_disabled_mechanism_query_is_contract_fail():
    registry = {"A": recorder("first")}
    res = run(registry, state_for(registry), external("A"), mechanisms=frozenset())
    assert isinstance(res.outcome, Aborted)
    assert res.outcome.reason.addr == "A"
    assert "disabled" in res.outcome.reason.text


def test_transaction_scoped_state_resets_between_transactions():
    registry = {"A": recorder("count")}
    state = state_for(registry)
    r1 = run(registry, state, external("A"))
    r2 = run(registry, r1.outcome.final, external("A"))
    assert log_of(r2, "A") == [VInt(1), VInt(1)]


# ---------------------------------------------------------------------------
# fail bits


def set_fail_contract() -> ContractDef:
    def ping(view, param, money, storage, balance):
        view.set_fail(as_bool(param))
        return StepOk(storage)

    return ContractDef(step=methods(ping=ping), mechanism_uses=frozenset({Mechanism.FAIL}))


def test_fail_bit_defaults_false_and_commits():
    registry = {"A": inert_contract()}
    res = run(registry, state_for(registry), external("A"))
    assert res.committed


def test_fail_bit_raised_and_never_cleared_aborts():
    registry = {"A": set_fail_contract()}
    res = run(registry, state_for(registry), external("A", param=VBool(True)))
    assert isinstance(res.outcome, Aborted)
    assert res.outcome.reason == FailBitSet(frozenset({"A"}))
    kinds = [r.kind for r in res.trace.records]
    assert RecordKind.FAIL_BIT_CHECK in kinds


def test_fail_bit_set_lists_every_raised_contract():
    registry = {
        "A": set_fail_contract(),
        "D": set_fail_contract(),
        "B": build("forwarder_B", {}, 0).contract,
    }
    plan = VSeq((callspec("A", "ping", VBool(True)), callspec("D", "ping", VBool(True))))
    res = run(registry, state_for(registry), external("B", "run", plan))
    assert res.outcome.reason == FailBitSet(frozenset({"A", "D"}))


def test_fail_bit_cleared_before_drain_commits():
    registry = {"A": set_fail_contract(), "B": build("forwarder_B", {}, 0).contract}
    plan = VSeq((callspec("A", "ping", VBool(True)), callspec("A", "ping", VBool(False))))
    res = run(registry, state_for(registry), external("B", "run", plan))
    assert res.committed


# ---------------------------------------------------------------------------
# queue info


def test_queue_info_false_while_plain_op_pending():
    registry = {
        "A": recorder("queue"),
        "B": build("forwarder_B", {}, 0).contract,
        "C": build("sink_C", {}, 0).contract,
    }
    res = run(
        registry, state_for(registry),
        external("B", "run", VSeq((callspec("A"), callspec("C")))),
    )
    assert log_of(res, "A") == [VBool(False)]


def test_queue_info_true_on_empty_tail():
    registry = {"A": recorder("queue")}
    res = run(registry, state_for(registry), external("A"))
    assert log_of(res, "A") == [VBool(True)]


def test_queue_info_true_when_only_recurring_pending():
    def seed(view, param, money, storage, balance):
        return StepOk(
            storage,
            (
                Operation(dest="R", src="", method="probe", recurring=True),
                Operation(dest="R", src="", method="probe", recurring=True),
            ),
        )

    def probe(view, param, money, storage, balance):
        s = as_rec(storage)
        log = as_seq(s.get("log", VSeq()))
        return StepOk(s.set("log", VSeq(log + (VBool(view.queue),))))

    registry = {
        "R": ContractDef(
            step=methods(seed=seed, probe=probe),
            recurring_methods=frozenset({"probe"}),
            mechanism_uses=frozenset({Mechanism.QUEUE}),
        )
    }
    res = run(registry, state_for(registry), external("R", "seed"))
    assert res.committed
    # first probe still sees the second recurring probe pending: queue info true
    assert log_of(res, "R") == [VBool(True), VBool(True)]


def test_queue_info_monotone_under_bfs_until_plain_op_runs():
    registry = {
        "A": recorder("queue"),
        "B": build("forwarder_B", {}, 0).contract,
        "C": build("sink_C", {}, 0).contract,
    }
    plan = VSeq((callspec("A"), callspec("A"), callspec("C")))
    res = run(
        registry, state_for(registry), external("B", "run", plan),
        scheduler=SchedulerKind.BFS,
    )
    assert log_of(res, "A") == [VBool(False), VBool(False)]


# ---------------------------------------------------------------------------
# transaction memory


def txmem_contract() -> ContractDef:
    def ping(view, param, money, storage, balance):
        s = as_rec(storage)
        seg = as_rec(view.txmem)
        log = as_seq(s.get("log", VSeq()))
        view.set_txmem(
            VRec({"flag": VBool(False), "acc": VInt(as_int(seg.get("acc")) + 1)})
        )
        return StepOk(s.set("log", VSeq(log + (seg.get("flag"),))))

    return ContractDef(
        step=methods(ping=ping),
        txmem_init=lambda storage: VRec({"flag": VBool(True), "acc": VInt(0)}),
        mechanism_uses=frozenset({Mechanism.TXMEM}),
    )


def test_txmem_flag_true_only_on_first_interaction():
    registry = {"A": txmem_contract(), "B": build("forwarder_B", {}, 0).contract}
    res = run(
        registry, state_for(registry),
        external("B", "run", VSeq(tuple(callspec("A") for _ in range(3)))),
    )
    assert log_of(res, "A") == [VBool(True), VBool(False), VBool(False)]


def test_txmem_write_visible_to_later_op_same_transaction():
    registry = {"A": txmem_contract(), "B": build("forwarder_B", {}, 0).contract}
    res = run(
        registry, state_for(registry),
        external("B", "run", VSeq((callspec("A"), callspec("A")))),
    )
    second = res.trace.ops("A")[1]
    assert as_int(as_rec(second.readings["txmem_in"]).get("acc")) == 1


def test_txmem_never_persists_to_next_transaction():
    registry = {"A": txmem_contract()}
    state = state_for(registry)
    r1 = run(registry, state, external("A"))
    r2 = run(registry, r1.outcome.final, external("A"))
    assert log_of(r2, "A") == [VBool(True), VBool(True)]


def test_txmem_without_initializer_is_contract_fail():
    broken = replace(txmem_contract(), txmem_init=None)
    registry = {"A": broken}
    res = run(registry, state_for(registry), external("A"))
    assert isinstance(res.outcome, Aborted)
    assert "initializer" in res.outcome.reason.text


# ---------------------------------------------------------------------------
# storage hookups


def test_ustore_lender_hookup_rebaselines_on_commit():
    lender = build("lender_ustore", {}, 100)
    registry = {"L": lender.contract, "M": inert_contract()}
    state = ChainState(
        {"L": Account(storage=lender.storage, balance=100), "M": Account(), "ext": Account()}
    )
    res = run(registry, state, external("L", "lend", VRec({"dest": VAddr("M"), "amount": VAmt(0)})))
    assert res.committed
    assert as_rec(res.outcome.final.storage("L")).get("initial_balance") == VAmt(100)


def test_ustore_lender_hookup_fails_after_unpaid_loan():
    lender = build("lender_ustore", {}, 100)
    registry = {"L": lender.contract, "M": inert_contract()}
    state = ChainState(
        {"L": Account(storage=lender.storage, balance=100), "M": Account(), "ext": Account()}
    )
    res = run(
        registry, state, external("L", "lend", VRec({"dest": VAddr("M"), "amount": VAmt(60)}))
    )
    assert isinstance(res.outcome, Aborted)
    assert res.outcome.reason == HookupFail("L")


def test_bstore_identity_hook_keeps_state():
    contract = replace(inert_contract(), bstore_hook=lambda storage, balance: storage)
    registry = {"A": contract}
    state = state_for(registry)
    res = run(registry, state, external("A"))
    assert res.committed
    hookups = [r for r in res.trace.records if r.kind is RecordKind.HOOKUP]
    assert len(hookups) == 1
    assert hookups[0].storage_before == hookups[0].storage_after


def test_hookups_run_once_per_visited_contract_in_first_visit_order():
    def mark(tag):
        return lambda storage, balance: VRec({"tag": VInt(tag)})

    registry = {
        "X": replace(inert_contract(), bstore_hook=mark(1)),
        "Y": replace(inert_contract(), bstore_hook=mark(2)),
        "B": build("forwarder_B", {}, 0).contract,
    }
    plan = VSeq((callspec("Y"), callspec("X"), callspec("Y")))
    res = run(registry, state_for(registry), external("B", "run", plan))
    hookups = [r.subject for r in res.trace.records if r.kind is RecordKind.HOOKUP]
    assert hookups == ["Y", "X"]


def test_unvisited_contract_hookup_never_runs():
    registry = {
        "A": inert_contract(),
        "Z": replace(inert_contract(), ustore_hook=lambda s, b: (_ for _ in ()).throw(ContractError("boom"))),
    }
    res = run(registry, state_for(registry), external("A"))
    assert res.committed


def test_a_bounded_hookup_that_raises_is_a_diagnostic_not_an_abort():
    # A bounded hookup has no failure outcome: even a ContractError, which
    # an unbounded hookup turns into HookupFail, is an authoring error.
    for error in (ContractError("refused"), ValueError("broken")):
        def hook(storage, balance, error=error):
            raise error

        registry = {"A": replace(inert_contract(), bstore_hook=hook)}
        with pytest.raises(BoundedHookupError, match=f"bounded hookup at A raised: {error}"):
            run(registry, state_for(registry), external("A"))


def test_only_a_contract_error_from_an_unbounded_hookup_is_a_hookup_failure():
    def hook(storage, balance):
        raise ValueError("broken")

    registry = {"A": replace(inert_contract(), ustore_hook=hook)}
    with pytest.raises(ScenarioError) as raised:
        run(registry, state_for(registry), external("A"))
    assert str(raised.value) == "unbounded hookup at A raised ValueError: broken"
    assert type(raised.value) is ScenarioError
    assert isinstance(raised.value.__cause__, ValueError) and str(raised.value.__cause__) == "broken"


def test_disabling_unused_mechanisms_never_changes_the_outcome():
    lender = build("lender_ustore", {}, 100)
    registry = {"L": lender.contract, "M": inert_contract()}
    state = ChainState(
        {"L": Account(storage=lender.storage, balance=100), "M": Account(), "ext": Account()}
    )
    op = external("L", "lend", VRec({"dest": VAddr("M"), "amount": VAmt(0)}))
    full = run(registry, state, op, mechanisms=ALL)
    narrow = run(registry, state, op, mechanisms=frozenset({Mechanism.USTORE}))
    assert type(full.outcome) is type(narrow.outcome)
    assert full.outcome.final == narrow.outcome.final


@given(
    scheduler=st.sampled_from([SchedulerKind.DFS, SchedulerKind.BFS]),
    shape=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_mechanism_toggles_invisible_to_non_querying_contracts(scheduler, shape):
    registry = {
        "B": build("forwarder_B", {}, 0).contract,
        "A": build("forwarder_B", {}, 0).contract,
        "C": build("sink_C", {}, 0).contract,
    }
    state = state_for(registry)
    plan = VSeq(
        tuple(callspec("A", "run", VSeq(tuple(callspec("C") for _ in range(n)))) for n in shape)
    )
    op = external("B", "run", plan)
    with_all = run(registry, state, op, mechanisms=ALL, scheduler=scheduler)
    with_none = run(registry, state, op, mechanisms=frozenset(), scheduler=scheduler)
    assert with_all.outcome.final == with_none.outcome.final
    assert with_all.trace.records == with_none.trace.records


def test_derived_view_logs_its_simulated_readings_on_the_engine_view():
    base = ContextView(
        ctx=Context(counts={"A": 3}),
        self_addr="A",
        contract=inert_contract(),
        enabled=frozenset(),
        pending=(),
        storage=VRec({}),
    )
    view = base.derive(first=lambda: True, count=lambda: 7)
    assert view.first is True and view.count == 7
    assert base.readings == {"first": VBool(True), "count": VInt(7)}


def test_a_view_refuses_to_derive_an_answer_to_an_unknown_name():
    view = ContextView(Context(), "A", inert_contract(), frozenset(), (), VRec({}))
    with pytest.raises(TypeError, match=r"cannot answer \['balance', 'fist'\]"):
        view.derive(first=lambda: True, fist=lambda: True, balance=lambda: 0)
