"""Transformer behaviour: worked micro-examples, refusal diagnostics, and the
seeded differential suite at reduced scale (the full scale runs in the
acceptance module)."""

from __future__ import annotations

import pytest

from txmonsim.core import (
    Aborted,
    Account,
    ChainState,
    ContractDef,
    ContractFail,
    GasExhausted,
    HookupFail,
    Mechanism,
    MonitorMode,
    Operation,
    SchedulerKind,
    StepOk,
    UNIT,
    VAmt,
    VBool,
    VInt,
    VRec,
    VSeq,
    as_int,
    as_rec,
    as_seq,
)
from txmonsim.engine import Engine, EngineConfig
from txmonsim.equivalence import (
    CASES,
    make_subject,
    run_case,
    run_composition,
)
from txmonsim.transformers import (
    TransformRefused,
    monitor_via_first_fail,
    sim_bstore_via_first,
    sim_count_via_first,
    sim_fail_via_recurring_bfs,
    sim_fail_via_ustore,
    sim_first_via_bstore,
    sim_first_via_count,
    sim_first_via_txmem,
    sim_txmem_via_first,
    sim_ustore_via_first_bfs,
    sim_ustore_via_queue_bfs,
)

T, EXT = "T", "ext"


def run_tx(contract, storage, mechanisms, op, scheduler=SchedulerKind.DFS, gas=300,
           monitor_mode=MonitorMode.NONE, monitor_storage=None, balance=0, state=None):
    registry = {T: contract}
    if state is None:
        state = ChainState(
            {
                T: Account(
                    storage=storage,
                    balance=balance,
                    monitor_storage=monitor_storage if monitor_storage is not None else VInt(0),
                ),
                EXT: Account(balance=100),
            }
        )
    cfg = EngineConfig(
        scheduler=scheduler, gas_limit=gas, mechanisms=frozenset(mechanisms),
        monitor_mode=monitor_mode,
    )
    return Engine(registry, cfg, debug=True).run_transaction(state, op), state


def act_op(money=0, **script):
    acts = tuple(
        VRec({"kind": _t(k), "amt": VAmt(v if isinstance(v, int) else 0)})
        for k, v in script.items()
    )
    param = VRec({"acts": VSeq(acts), "calls": VSeq()})
    return Operation(dest=T, src=EXT, method="act", param=param, money=money)


def _t(s):
    from txmonsim.core import VText

    return VText(s)


def plain_act(n=1):
    return [act_op() for _ in range(n)]


# ---------------------------------------------------------------------------
# count <-> first micro-examples


def test_simulated_count_reads_one_on_single_call():
    subject, storage, _ = make_subject("count")
    t = sim_count_via_first(subject)
    res, _ = run_tx(t.wrapped, t.wrap_storage(storage), {Mechanism.FIRST}, act_op())
    assert res.committed
    log = as_seq(as_rec(t.project(res.outcome.final.storage(T))).get("log"))
    assert log == (VInt(1),)


def test_simulated_count_matches_native_over_three_calls():
    subject, storage, _ = make_subject("count")
    t = sim_count_via_first(subject)
    state = None
    readings = []
    for contract, store, mechs in (
        (subject, storage, {Mechanism.COUNT}),
        (t.wrapped, t.wrap_storage(storage), {Mechanism.FIRST}),
    ):
        registry = {T: contract}
        st = ChainState({T: Account(storage=store), EXT: Account()})
        engine = Engine(registry, EngineConfig(gas_limit=100, mechanisms=frozenset(mechs)))
        for op in plain_act(3):
            r = engine.run_transaction(st, op)
            st = r.outcome.final
        readings.append(as_rec(st.storage(T)))
    native, transformed = readings
    assert as_seq(native.get("log")) == (VInt(1),) * 3  # one call per transaction
    assert t.project(transformed) == native


def test_count_restarts_across_transactions():
    subject, storage, _ = make_subject("count")
    t = sim_count_via_first(subject)
    registry = {T: t.wrapped}
    st = ChainState({T: Account(storage=t.wrap_storage(storage)), EXT: Account()})
    engine = Engine(registry, EngineConfig(gas_limit=100, mechanisms=frozenset({Mechanism.FIRST})))
    for op in plain_act(2):
        st = engine.run_transaction(st, op).outcome.final
    log = as_seq(as_rec(t.project(st.storage(T))).get("log"))
    assert log == (VInt(1), VInt(1))


def test_simulated_first_true_then_false():
    subject, storage, _ = make_subject("first")
    t = sim_first_via_count(subject)
    registry = {T: t.wrapped, "F": _forwarder()}
    st = ChainState({T: Account(storage=storage), "F": Account(), EXT: Account()})
    engine = Engine(registry, EngineConfig(gas_limit=100, mechanisms=frozenset({Mechanism.COUNT})))
    plan = VSeq((_act_spec(), _act_spec()))
    res = engine.run_transaction(st, Operation(dest="F", src=EXT, method="run", param=plan))
    log = as_seq(as_rec(res.outcome.final.storage(T)).get("log"))
    assert log == (VBool(True), VBool(False))


def _forwarder():
    from txmonsim.contracts import build

    return build("forwarder_B", {}, 0).contract


def _act_spec():
    from txmonsim.contracts import callspec

    return callspec(T, "act", VRec({"acts": VSeq(), "calls": VSeq()}))


def test_first_via_txmem_reads_true_false_false():
    subject, storage, _ = make_subject("first")
    t = sim_first_via_txmem(subject)
    registry = {T: t.wrapped, "F": _forwarder()}
    st = ChainState({T: Account(storage=storage), "F": Account(), EXT: Account()})
    engine = Engine(registry, EngineConfig(gas_limit=100, mechanisms=frozenset({Mechanism.TXMEM})))
    plan = VSeq((_act_spec(), _act_spec(), _act_spec()))
    res = engine.run_transaction(st, Operation(dest="F", src=EXT, method="run", param=plan))
    log = as_seq(as_rec(res.outcome.final.storage(T)).get("log"))
    assert log == (VBool(True), VBool(False), VBool(False))


# ---------------------------------------------------------------------------
# bstore via first


def test_bstore_simulation_parks_hook_result_and_adopts_next_transaction():
    subject, storage, _ = make_subject("bstore", ("inc", 5))
    native_hooked = subject.bstore_hook(storage, 0)
    t = sim_bstore_via_first(subject)
    registry = {T: t.wrapped}
    st = ChainState({T: Account(storage=t.wrap_storage(storage)), EXT: Account()})
    engine = Engine(registry, EngineConfig(gas_limit=100, mechanisms=frozenset({Mechanism.FIRST})))
    r1 = engine.run_transaction(st, act_op())
    parked = t.project(r1.outcome.final.storage(T))
    assert as_int(as_rec(parked).get("n")) == 5
    assert as_int(as_rec(parked).get("hooked")) == 1
    # live storage is stale until the next transaction's first call adopts it
    live = as_rec(r1.outcome.final.storage(T)).get("base")
    assert as_int(as_rec(live).get("n", VInt(0))) == 0
    r2 = engine.run_transaction(r1.outcome.final, act_op())
    live2 = as_rec(r2.outcome.final.storage(T)).get("base")
    assert as_int(as_rec(live2).get("n")) == 5


def test_bstore_identity_hook_round_trips():
    subject, storage, _ = make_subject("bstore", ("mark", 0))
    t = sim_bstore_via_first(subject)
    res, _ = run_tx(t.wrapped, t.wrap_storage(storage), {Mechanism.FIRST}, act_op())
    assert res.committed


# ---------------------------------------------------------------------------
# fail via ustore / recurring; ustore via first / queue


def test_fail_via_ustore_maps_raised_bit_to_hookup_failure():
    subject, storage, _ = make_subject("fail")
    t = sim_fail_via_ustore(subject)
    res, _ = run_tx(t.wrapped, t.wrap_storage(storage), {Mechanism.USTORE}, act_op(fail_on=0))
    assert isinstance(res.outcome, Aborted)
    assert res.outcome.reason == HookupFail(T)


def test_fail_via_ustore_commits_when_bit_never_raised():
    subject, storage, _ = make_subject("fail")
    t = sim_fail_via_ustore(subject)
    res, _ = run_tx(t.wrapped, t.wrap_storage(storage), {Mechanism.USTORE}, act_op())
    assert res.committed
    assert t.project(res.outcome.final.storage(T)) is not None


def test_fail_via_recurring_raised_bit_burns_gas_at_200():
    subject, storage, _ = make_subject("fail")
    t = sim_fail_via_recurring_bfs(subject)
    res, _ = run_tx(
        t.wrapped, t.wrap_storage(storage), set(), act_op(fail_on=0),
        scheduler=SchedulerKind.BFS, gas=200,
    )
    assert isinstance(res.outcome, Aborted)
    assert isinstance(res.outcome.reason, GasExhausted)


def test_fail_via_recurring_clean_bit_commits_without_wrapper_ops():
    subject, storage, _ = make_subject("fail")
    t = sim_fail_via_recurring_bfs(subject)
    res, _ = run_tx(
        t.wrapped, t.wrap_storage(storage), set(), act_op(),
        scheduler=SchedulerKind.BFS, gas=200,
    )
    assert res.committed
    assert len(res.trace.ops()) == 1  # no poll was ever scheduled


def test_fail_via_recurring_cleared_bit_commits():
    subject, storage, _ = make_subject("fail")
    t = sim_fail_via_recurring_bfs(subject)
    registry = {T: t.wrapped, "F": _forwarder()}
    st = ChainState({T: Account(storage=t.wrap_storage(storage)), "F": Account(), EXT: Account()})
    from txmonsim.contracts import callspec

    def spec(kind):
        return callspec(
            T, "act",
            VRec({"acts": VSeq((VRec({"kind": _t(kind), "amt": VAmt(0)}),)), "calls": VSeq()}),
        )

    plan = VSeq((spec("fail_on"), spec("fail_off")))
    engine = Engine(
        registry,
        EngineConfig(scheduler=SchedulerKind.BFS, gas_limit=200),
    )
    res = engine.run_transaction(st, Operation(dest="F", src=EXT, method="run", param=plan))
    assert res.committed


def test_ustore_via_first_flush_equals_native_post_hookup_storage():
    subject, storage, _ = make_subject("ustore", ("open", 0))
    # native run
    n_res, _ = run_tx(
        subject, storage, {Mechanism.USTORE}, act_op(bump=0),
        scheduler=SchedulerKind.BFS, balance=100,
    )
    native_final = n_res.outcome.final.storage(T)
    # transformed run: shadow equals native after the commit, live after a flush
    t = sim_ustore_via_first_bfs(subject)
    t_res, _ = run_tx(
        t.wrapped, t.wrap_storage(storage), {Mechanism.FIRST}, act_op(bump=0),
        scheduler=SchedulerKind.BFS, balance=100,
    )
    assert t_res.committed
    assert t.project(t_res.outcome.final.storage(T)) == native_final
    # the next transaction's first call copies the shadow into live storage
    flushed = Engine(
        {T: t.wrapped},
        EngineConfig(scheduler=SchedulerKind.BFS, gas_limit=300, mechanisms=frozenset({Mechanism.FIRST})),
    ).run_transaction(t_res.outcome.final, act_op())
    first_op = flushed.trace.ops(T)[0]
    assert as_rec(first_op.storage_before).get("live") != native_final
    assert as_rec(first_op.storage_after).get("live") == native_final


def test_ustore_via_first_failing_hook_exhausts_gas():
    subject, storage, _ = make_subject("ustore", ("flag", 0))
    t = sim_ustore_via_first_bfs(subject)
    res, _ = run_tx(
        t.wrapped, t.wrap_storage(storage), {Mechanism.FIRST}, act_op(flag_on=0),
        scheduler=SchedulerKind.BFS, gas=200, balance=100,
    )
    assert isinstance(res.outcome, Aborted)
    assert isinstance(res.outcome.reason, GasExhausted)


def test_ustore_via_queue_failing_hook_aborts_explicitly():
    subject, storage, _ = make_subject("ustore", ("flag", 0))
    t = sim_ustore_via_queue_bfs(subject)
    res, _ = run_tx(
        t.wrapped, t.wrap_storage(storage), {Mechanism.QUEUE}, act_op(flag_on=0),
        scheduler=SchedulerKind.BFS, gas=200, balance=100,
    )
    assert isinstance(res.outcome, Aborted)
    assert isinstance(res.outcome.reason, ContractFail)


def test_ustore_via_queue_updates_storage_in_queue():
    subject, storage, _ = make_subject("ustore", ("open", 0))
    native, _ = run_tx(
        subject, storage, {Mechanism.USTORE}, act_op(),
        scheduler=SchedulerKind.BFS, balance=100,
    )
    t = sim_ustore_via_queue_bfs(subject)
    res, _ = run_tx(
        t.wrapped, t.wrap_storage(storage), {Mechanism.QUEUE}, act_op(),
        scheduler=SchedulerKind.BFS, gas=200, balance=100,
    )
    assert res.committed
    assert t.project(res.outcome.final.storage(T)) == native.outcome.final.storage(T)


# ---------------------------------------------------------------------------
# monitors via first + fail


def test_monitor_transform_matches_native_verdicts_for_once_pattern():
    subject, storage, monitor0 = make_subject("monitor", ("once",))
    t = monitor_via_first_fail(subject)
    for k in (1, 2, 3):
        ops = plain_act(1)[0]
        registry_n = {T: subject, "F": _forwarder()}
        registry_t = {T: t.wrapped, "F": _forwarder()}
        plan = VSeq(tuple(_act_spec() for _ in range(k)))
        op = Operation(dest="F", src=EXT, method="run", param=plan)
        st_n = ChainState(
            {T: Account(storage=storage, monitor_storage=monitor0), "F": Account(), EXT: Account()}
        )
        st_t = ChainState(
            {T: Account(storage=t.wrap_storage(storage, monitor0)), "F": Account(), EXT: Account()}
        )
        rn = Engine(
            registry_n, EngineConfig(gas_limit=100, monitor_mode=MonitorMode.TRANSACTION)
        ).run_transaction(st_n, op)
        rt = Engine(
            registry_t,
            EngineConfig(gas_limit=100, mechanisms=frozenset({Mechanism.FIRST, Mechanism.FAIL})),
        ).run_transaction(st_t, op)
        assert rn.committed == rt.committed == (k != 1)


def test_monitor_transform_refuses_fail_bit_owners():
    subject, _, _ = make_subject("fail")
    from dataclasses import replace as dc_replace

    monitored = dc_replace(subject, term=lambda storage, balance, ms: None)
    with pytest.raises(TransformRefused):
        monitor_via_first_fail(monitored)


def test_transform_refused_on_mixed_mechanism_inputs():
    subject, _, _ = make_subject("count")
    from dataclasses import replace as dc_replace

    mixed = dc_replace(
        subject, mechanism_uses=frozenset({Mechanism.COUNT, Mechanism.QUEUE})
    )
    with pytest.raises(TransformRefused):
        sim_count_via_first(mixed)
    with pytest.raises(TransformRefused):
        sim_first_via_count(subject)  # count user, not a first user


@pytest.mark.parametrize(
    "factory,profile,hook_spec",
    [
        (sim_count_via_first, "count", ()),
        (sim_first_via_count, "first", ()),
        (sim_first_via_txmem, "first", ()),
        (sim_bstore_via_first, "bstore", ("inc", 3)),
        (sim_first_via_bstore, "first", ()),
        (sim_fail_via_ustore, "fail", ()),
        (sim_fail_via_recurring_bfs, "fail", ()),
        (sim_ustore_via_first_bfs, "ustore", ("open", 0)),
        (sim_ustore_via_queue_bfs, "ustore", ("open", 0)),
        (monitor_via_first_fail, "monitor", ("once",)),
    ],
)
def test_projection_inverts_storage_wrapping(factory, profile, hook_spec):
    subject, storage, monitor0 = make_subject(profile, hook_spec)
    t = factory(subject)
    assert t.project(t.wrap_storage(storage, monitor0)) == storage


def test_txmem_projection_inverts_wrapping():
    subject, storage, _ = make_subject("txmem")
    t = sim_txmem_via_first(subject)
    assert t.project(t.wrap_storage(storage)) == storage


def test_wrappers_only_add_operations_toward_the_contract_itself():
    subject, storage, _ = make_subject("fail")
    t = sim_fail_via_recurring_bfs(subject)
    res, _ = run_tx(
        t.wrapped, t.wrap_storage(storage), set(), act_op(fail_on=0),
        scheduler=SchedulerKind.BFS, gas=120,
    )
    for r in res.trace.ops(T):
        for e in r.emitted:
            if e.method.startswith("__"):
                assert e.dest == T


# ---------------------------------------------------------------------------
# differential suite at reduced scale (full scale in acceptance)


@pytest.mark.parametrize("name", sorted(CASES))
def test_differential_equivalence_sampled(name):
    report = run_case(CASES[name], range(0, 40))
    assert report.ok, report.failures[:3]


def test_composition_round_trip_is_observational_identity():
    report = run_composition(range(0, 40))
    assert report.ok, report.failures[:3]


@pytest.mark.parametrize("seed", [1000029, 1000060])
def test_ustore_via_first_bfs_with_overdrawn_adjusted_balance(seed):
    # The subject emits transfers worth more than it holds, so the balance
    # adjusted for pending transfers is negative when the hookup is evaluated.
    report = run_case(CASES["ustore_via_first_bfs"], range(seed, seed + 1))
    assert report.ok, report.failures[:3]
    assert report.aborts >= 1


def test_unsimulated_query_still_reaches_the_engine_and_faults():
    def step(view, method, param, money, storage, balance):
        view.count  # simulated by the wrapper
        view.queue  # not simulated, and disabled on the engine
        return StepOk(storage)

    t = sim_count_via_first(ContractDef(step=step, mechanism_uses=frozenset({Mechanism.COUNT})))
    op = Operation(dest=T, src=EXT, method="m")
    res, _ = run_tx(t.wrapped, t.wrap_storage(UNIT), {Mechanism.FIRST}, op)
    assert isinstance(res.outcome, Aborted)
    assert "mechanism 'queue' disabled" in res.outcome.reason.text
