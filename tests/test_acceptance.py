"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is exact: queue laws, verdicts, storages and readings
are compared structurally with zero slack.
"""

from __future__ import annotations

import functools

import pytest

from txmonsim.checks import (
    check_gas,
    check_hook_isolation,
    check_monitor_shape,
    check_queue_laws,
    check_replay,
)
from txmonsim.contracts import build, callspec
from txmonsim.core import (
    Aborted,
    Account,
    ChainState,
    Committed,
    ContractFail,
    GasExhausted,
    Mechanism,
    MonitorMode,
    Operation,
    SchedulerKind,
    VAmt,
    VBool,
    VRec,
    VSeq,
    VText,
    as_rec,
    digest,
)
from txmonsim.engine import Engine, EngineConfig
from txmonsim.equivalence import (
    CASES,
    make_subject,
    run_case,
    run_composition,
)
from txmonsim.scenarios import (
    REPORTS,
    ContractSpec,
    ExternalSpec,
    LENDER_VARIANTS,
    STAGED_CLIENTS,
    ScenarioSpec,
    TxSpec,
    _loan_scenario,
    build_report,
    build_scenario,
    check_obs_equivalence,
    run_flashloan_suite,
    run_scenario,
    verify_report,
)
from txmonsim.transformers import (
    monitor_via_first_fail,
    sim_fail_via_recurring_bfs,
    sim_ustore_via_first_bfs,
    sim_ustore_via_queue_bfs,
)


def criterion(num: int, label: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num:2d}] FAIL  {label}")
                raise
            print(f"\n[criterion {num:2d}] PASS  {label}")

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# Shared battery: every scenario the acceptance run touches, with registries
# kept at hand so per-trace invariants can be checked afterwards.


def _once_monitored_spec(calls: int) -> ScenarioSpec:
    return ScenarioSpec(
        engine=EngineConfig(
            scheduler=SchedulerKind.DFS,
            gas_limit=100,
            mechanisms=frozenset({Mechanism.FIRST, Mechanism.QUEUE}),
            monitor_mode=MonitorMode.TRANSACTION,
        ),
        contracts=(
            ContractSpec("A", "once_monitored_A", {"probe": ("first", "queue")}),
            ContractSpec("B", "forwarder_B"),
            ContractSpec("C", "sink_C"),
        ),
        externals=(ExternalSpec("ext", 0),),
        transactions=(
            TxSpec(
                dest="B",
                method="run",
                param=VSeq(tuple([callspec("A")] * calls + [callspec("C")])),
            ),
        ),
    )


@pytest.fixture(scope="module")
def battery():
    specs = [_once_monitored_spec(1), _once_monitored_spec(2)]
    for _, client, params, _ in STAGED_CLIENTS:
        for variant in LENDER_VARIANTS:
            specs.append(_loan_scenario(variant, client, params))
    runs = []
    for spec in specs:
        state, registry = build_scenario(spec)
        first = run_scenario(spec)
        second = run_scenario(spec)
        runs.append((spec, registry, state, first, second))
    return runs


@pytest.fixture(scope="module")
def equivalence_traces():
    traces = []
    original = Engine.run_transaction

    def recording(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        traces.append(result.trace)
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Engine, "run_transaction", recording)
        for name in ("count_via_first", "fail_via_recurring_bfs", "ustore_via_queue_bfs"):
            run_case(CASES[name], range(0, 40))
    return traces


@pytest.fixture(scope="module")
def counterexample_reports():
    return {
        "dfs_only_once": build_report(REPORTS["dfs_only_once"]),
        "bfs_only_once": build_report(REPORTS["bfs_only_once"]),
        "bfs_queue_gap": build_report(REPORTS["bfs_queue_gap"]),
    }


@criterion(1, "queue-discipline laws hold exactly on every trace")
def test_c01_queue_discipline_laws(battery, equivalence_traces, counterexample_reports):
    checked = 0
    for _, _, _, first, second in battery:
        for res in list(first.results) + list(second.results):
            assert check_queue_laws(res.trace) == []
            checked += len(res.trace.records)
    for trace in equivalence_traces:
        assert check_queue_laws(trace) == []
        checked += len(trace.records)
    for report in counterexample_reports.values():
        for trace in report.traces.values():
            assert check_queue_laws(trace) == []
            checked += len(trace.records)
    assert checked > 1000  # the battery is not vacuous


@criterion(2, "DFS only-once counter-example: shapes, blindness, verdicts")
def test_c02_dfs_only_once(counterexample_reports):
    report = counterexample_reports["dfs_only_once"]
    assert verify_report(report) == []
    shapes = {c.trace: c.shapes for c in report.queue_claims}
    assert shapes["o1"][0] == ("A.ping", "C.ping")
    assert shapes["o2"][0] == ("A.ping", "A.ping", "C.ping")
    first_mechs = report.traces["o1"].meta.mechanisms
    assert {Mechanism.FIRST, Mechanism.QUEUE} <= set(first_mechs)
    res = check_obs_equivalence(report.traces["o1"], report.traces["o2"], "A", upto=1)
    assert res.equal
    # the equivalence is not vacuous: A really read both mechanisms and saw
    # queue info forced false by the pending third-party call in both runs
    for key in ("o1", "o2"):
        readings = report.traces[key].ops("A")[0].readings
        assert readings["first"] == VBool(True)
        assert readings["queue"] == VBool(False)
    assert report.verdicts["o1"].kind == "monitor_term_fail"
    assert report.verdicts["o2"].kind == "committed"


@criterion(3, "BFS only-once counter-example: proof shapes and the starvation trap")
def test_c03_bfs_only_once(counterexample_reports):
    report = counterexample_reports["bfs_only_once"]
    assert verify_report(report) == []
    shapes = {c.trace: c.shapes for c in report.queue_claims}
    assert shapes["t"][0] == ("A.ping",)
    assert shapes["t0"][:2] == (("B.f", "A.ping"), ("A.ping", "A.ping"))
    assert shapes["t1"][:2] == (("B.f", "A.ping"), ("A.ping", "B.f"))
    assert report.verdicts["t"].kind == "gas_exhausted"
    for key in ("t0", "t1", "t2"):
        assert report.verdicts[key].kind == "committed"
    assert report.verdicts["t_prime0"].kind == "gas_exhausted"
    assert report.verdicts["t_prime0_native"].kind == "committed"


@criterion(4, "equivalence cycle first/count/txmem/bstore: 200 seeded scenarios each")
def test_c04_equivalence_cycle():
    for name in (
        "count_via_first",
        "first_via_count",
        "first_via_txmem",
        "txmem_via_first",
        "bstore_via_first",
        "first_via_bstore",
    ):
        report = run_case(CASES[name], range(0, 200))
        assert report.scenarios == 200
        assert report.ok, (name, report.failures[:3])
    composition = run_composition(range(0, 200))
    assert composition.ok, composition.failures[:3]


@criterion(5, "monitors from first+fail: k = 1..5 under both schedulers, then commit/abort sequence")
def test_c05_monitors_from_first_fail():
    subject, storage, monitor0 = make_subject("monitor", ("once",))
    transformed = monitor_via_first_fail(subject)
    forwarder = build("forwarder_B", {}, 0).contract

    def plan(k: int):
        return VSeq(
            tuple(
                callspec("T", "act", VRec({"acts": VSeq(), "calls": VSeq()}))
                for _ in range(k)
            )
        )

    def engines(scheduler):
        native = Engine(
            {"T": subject, "B": forwarder},
            EngineConfig(
                scheduler=scheduler, gas_limit=200, monitor_mode=MonitorMode.TRANSACTION
            ),
        )
        trans = Engine(
            {"T": transformed.wrapped, "B": forwarder},
            EngineConfig(
                scheduler=scheduler,
                gas_limit=200,
                mechanisms=frozenset({Mechanism.FIRST, Mechanism.FAIL}),
            ),
        )
        return native, trans

    def states():
        native = ChainState(
            {"T": Account(storage=storage, monitor_storage=monitor0), "B": Account(), "ext": Account()}
        )
        trans = ChainState(
            {
                "T": Account(storage=transformed.wrap_storage(storage, monitor0)),
                "B": Account(),
                "ext": Account(),
            }
        )
        return native, trans

    for scheduler in (SchedulerKind.DFS, SchedulerKind.BFS):
        native_engine, trans_engine = engines(scheduler)
        for k in range(1, 6):
            sn, st = states()
            op = Operation(dest="B", src="ext", method="run", param=plan(k))
            rn = native_engine.run_transaction(sn, op)
            rt = trans_engine.run_transaction(st, op)
            assert rn.committed == rt.committed == (k != 1), (scheduler, k)

        # committed two-call transaction followed by a one-call transaction
        sn, st = states()
        first = Operation(dest="B", src="ext", method="run", param=plan(2))
        second = Operation(dest="B", src="ext", method="run", param=plan(1))
        rn1 = native_engine.run_transaction(sn, first)
        rt1 = trans_engine.run_transaction(st, first)
        assert rn1.committed and rt1.committed
        rn2 = native_engine.run_transaction(rn1.outcome.final, second)
        rt2 = trans_engine.run_transaction(rt1.outcome.final, second)
        assert isinstance(rn2.outcome, Aborted) and isinstance(rt2.outcome, Aborted)


@criterion(6, "fail bits from the unbounded hookup: 100 seeded scenarios + lender agreement")
def test_c06_fail_via_ustore_and_lender_agreement():
    report = run_case(CASES["fail_via_ustore"], range(0, 100))
    assert report.scenarios == 100
    assert report.ok, report.failures[:3]

    fl = run_flashloan_suite()
    by_key = {(r.scenario, r.variant): r.committed for r in fl.rows}
    for scenario, _, _, _ in STAGED_CLIENTS:
        for scheduler in ("dfs", "bfs"):
            assert (
                by_key[(scenario, f"ustore@{scheduler}")]
                == by_key[(scenario, f"trmon@{scheduler}")]
            ), scenario


@criterion(7, "BFS recurring constructions: gas starvation, shadow flush, queue-aware hookup")
def test_c07_bfs_recurring_constructions():
    # raised bit, never cleared: starves at gas limit 200; clean bit commits
    subject, storage, _ = make_subject("fail")
    t = sim_fail_via_recurring_bfs(subject)
    registry = {"T": t.wrapped}
    cfg = EngineConfig(scheduler=SchedulerKind.BFS, gas_limit=200)
    raise_bit = VRec(
        {"acts": VSeq((VRec({"kind": VText("fail_on"), "amt": VAmt(0)}),)), "calls": VSeq()}
    )
    calm = VRec({"acts": VSeq(), "calls": VSeq()})
    state = ChainState({"T": Account(storage=t.wrap_storage(storage)), "ext": Account()})
    raised = Engine(registry, cfg).run_transaction(
        state, Operation(dest="T", src="ext", method="act", param=raise_bit)
    )
    assert isinstance(raised.outcome, Aborted)
    assert isinstance(raised.outcome.reason, GasExhausted)
    clean = Engine(registry, cfg).run_transaction(
        state, Operation(dest="T", src="ext", method="act", param=calm)
    )
    assert isinstance(clean.outcome, Committed)

    # shadow flush equals native post-hookup storage; failing hook starves
    subject_u, storage_u, _ = make_subject("ustore", ("open", 0))
    native = Engine(
        {"T": subject_u},
        EngineConfig(
            scheduler=SchedulerKind.BFS, gas_limit=200, mechanisms=frozenset({Mechanism.USTORE})
        ),
    ).run_transaction(
        ChainState({"T": Account(storage=storage_u, balance=100), "ext": Account()}),
        Operation(dest="T", src="ext", method="act", param=calm),
    )
    tu = sim_ustore_via_first_bfs(subject_u)
    ecfg = EngineConfig(
        scheduler=SchedulerKind.BFS, gas_limit=200, mechanisms=frozenset({Mechanism.FIRST})
    )
    engine_u = Engine({"T": tu.wrapped}, ecfg)
    r1 = engine_u.run_transaction(
        ChainState({"T": Account(storage=tu.wrap_storage(storage_u), balance=100), "ext": Account()}),
        Operation(dest="T", src="ext", method="act", param=calm),
    )
    assert tu.project(r1.outcome.final.storage("T")) == native.outcome.final.storage("T")
    r2 = engine_u.run_transaction(
        r1.outcome.final, Operation(dest="T", src="ext", method="act", param=calm)
    )
    flushed_live = r2.trace.ops("T")[0].storage_after
    assert as_rec(flushed_live).get("live") == native.outcome.final.storage("T")

    subject_f, storage_f, _ = make_subject("ustore", ("flag", 0))
    tf = sim_ustore_via_first_bfs(subject_f)
    flag_on = VRec(
        {"acts": VSeq((VRec({"kind": VText("flag_on"), "amt": VAmt(0)}),)), "calls": VSeq()}
    )
    rf = Engine({"T": tf.wrapped}, ecfg).run_transaction(
        ChainState({"T": Account(storage=tf.wrap_storage(storage_f), balance=100), "ext": Account()}),
        Operation(dest="T", src="ext", method="act", param=flag_on),
    )
    assert isinstance(rf.outcome, Aborted)
    assert isinstance(rf.outcome.reason, GasExhausted)

    # queue-aware hookup: verdict-equal at scale, and failure is explicit
    report = run_case(CASES["ustore_via_queue_bfs"], range(0, 200))
    assert report.ok, report.failures[:3]
    tq = sim_ustore_via_queue_bfs(subject_f)
    rq = Engine(
        {"T": tq.wrapped},
        EngineConfig(
            scheduler=SchedulerKind.BFS, gas_limit=200, mechanisms=frozenset({Mechanism.QUEUE})
        ),
    ).run_transaction(
        ChainState({"T": Account(storage=tq.wrap_storage(storage_f), balance=100), "ext": Account()}),
        Operation(dest="T", src="ext", method="act", param=flag_on),
    )
    assert isinstance(rq.outcome, Aborted)
    assert isinstance(rq.outcome.reason, ContractFail)

    report5 = run_case(CASES["fail_via_recurring_bfs"], range(0, 200))
    assert report5.ok, report5.failures[:3]
    report6 = run_case(CASES["ustore_via_first_bfs"], range(0, 200))
    assert report6.ok, report6.failures[:3]


@criterion(8, "hookups cannot see the queue: blindness without queue info, separation with it")
def test_c08_bfs_queue_gap(counterexample_reports):
    report = counterexample_reports["bfs_queue_gap"]
    assert verify_report(report) == []
    res = check_obs_equivalence(
        report.traces["busy_plain"], report.traces["quiet_plain"], "A", upto=1
    )
    assert res.equal
    assert report.verdicts["busy_probed"].kind == "contract_fail"
    assert report.verdicts["quiet_probed"].kind == "committed"


@criterion(9, "flash-loan suite: expected verdicts and full cross-variant agreement")
def test_c09_flashloan_suite():
    fl = run_flashloan_suite()
    rows = {(r.scenario, r.variant): r for r in fl.rows}
    flat = rows[("two_loans_flat@dfs", "trmon@dfs")]
    assert flat.committed
    assert flat.lender_balances_post == flat.lender_balances_pre == (100, 200)
    assert rows[("malicious_unpaid", "trmon@dfs")].outcome_kind == "monitor_term_fail"
    assert not rows[("two_loans_flat@dfs(naive)", "naive@dfs")].committed
    for scenario, verdicts in fl.agreement().items():
        assert len(verdicts) == 1, (scenario, verdicts)
    assert fl.safety_violations() == []


@criterion(10, "global invariants: determinism, atomicity, conservation, monitor shape, gas")
def test_c10_global_invariants(battery):
    for spec, registry, pre, first, second in battery:
        # determinism: a re-run reproduces outcomes and byte-identical traces
        assert [o.kind for o in first.outcomes] == [
            o.kind for o in second.outcomes
        ]
        assert first.traces == second.traces

        state = pre
        for res in first.results:
            if isinstance(res.outcome, Aborted):
                assert digest(ChainState(dict(state.items()))) == digest(state)
            else:
                assert state.total_supply() == res.outcome.final.total_supply()
            assert check_gas(res.trace) == []
            assert check_monitor_shape(res, registry) == []
            assert check_hook_isolation(res.trace) == []
            assert check_replay(registry, res.trace) == []
            if isinstance(res.outcome, Committed):
                state = res.outcome.final

