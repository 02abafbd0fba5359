"""Seeded differential testing of the mechanism transformers.

For each transformer we generate small random scenarios (at most four
contracts, six external operations, call depth three), run them natively and
through the transformed contract, and demand: equal per-transaction verdicts
(with the abort-channel translation each construction is allowed), equal
projected subject storage at every commit, equal simulated mechanism readings,
and identical operation sequences toward third parties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional

from .contracts import call, callspec, forwarder_B, lender_trmon, once_monitored_A, sink_C
from .core import (
    Account,
    ChainState,
    Committed,
    ContractDef,
    ContractError,
    ContractFail,
    FailBitSet,
    GasExhausted,
    HookupFail,
    Mechanism,
    MonitorBeginFail,
    MonitorInitFail,
    MonitorMode,
    MonitorTermFail,
    Operation,
    SchedulerKind,
    StepOk,
    Trace,
    UNIT,
    VAmt,
    VBool,
    VInt,
    VRec,
    VSeq,
    VText,
    Value,
    as_amt,
    as_bool,
    as_int,
    as_rec,
    as_seq,
    as_text,
)
from .engine import Engine, EngineConfig
from .mechanisms import READINGS
from .transformers import (
    TransformedContract,
    monitor_storage_of,
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

T, F, S, EXT = "T", "F", "S", "ext"
GAS_LIMIT = 400


# ---------------------------------------------------------------------------
# Param-driven subject contracts


def _interpret_calls(spec_seq: Value) -> tuple[Operation, ...]:
    ops = []
    for spec in as_seq(spec_seq):
        r = as_rec(spec)
        ops.append(
            call(
                as_text(r.get("dest_method")).split(".", 1)[0],
                as_text(r.get("dest_method")).split(".", 1)[1],
                r.get("param", UNIT),
                as_amt(r.get("money", VAmt(0))),
            )
        )
    return tuple(ops)


def _act_call(dest: str, method: str, param: Value = UNIT, money: int = 0) -> VRec:
    return VRec(
        {"dest_method": VText(f"{dest}.{method}"), "param": param, "money": VAmt(money)}
    )


def make_subject(profile: str, hook_spec: tuple = ()) -> tuple[ContractDef, Value, Value]:
    """Build the contract under test for a mechanism profile.

    Its single method `act` takes a script parameter
    rec{acts: seq of rec{kind, amt}, calls: seq of call entries}: it logs what
    the profiled mechanism reads, applies the scripted storage/mechanism
    actions, and emits the scripted calls. Returns (contract, initial storage,
    initial monitor storage).
    """

    def act(view, method, param, money, storage, balance):
        s = as_rec(storage)
        script = as_rec(param) if isinstance(param, VRec) else VRec({})
        log = list(as_seq(s.get("log", VSeq())))

        if profile in READINGS:  # log the profiled query's answer, tagged as a trace logs it
            log.append(READINGS[profile][1](getattr(view, profile)))

        emitted = list(_interpret_calls(script.get("calls", VSeq())))
        for entry in as_seq(script.get("acts", VSeq())):
            r = as_rec(entry)
            kind = as_text(r.get("kind"))
            if kind == "bump":
                s = s.set("n", VInt(as_int(s.get("n", VInt(0))) + 1))
            elif kind in ("fail_on", "fail_off"):
                view.set_fail(kind == "fail_on")
            elif kind in ("flag_on", "flag_off"):
                s = s.set("flag", VBool(kind == "flag_on"))
            elif kind == "mem_bump":
                acc = as_int(as_rec(view.txmem).get("acc"))
                view.set_txmem(VRec({"flag": VBool(False), "acc": VInt(acc + 1)}))
            elif kind == "send":
                emitted.append(call(S, "receive", money=as_amt(r.get("amt"))))
            else:
                raise ContractError(f"unknown scripted action {kind!r}")

        s = s.set("log", VSeq(tuple(log)))
        return StepOk(s, tuple(emitted))

    def step(view, method, param, money, storage, balance):
        if method != "act":
            raise ContractError(f"no method {method!r}")
        return act(view, method, param, money, storage, balance)

    storage = VRec({"log": VSeq(), "n": VInt(0), "flag": VBool(False)})
    monitor_storage: Value = UNIT
    contract = ContractDef(step=step)

    if profile in ("count", "first", "fail"):
        contract = replace(contract, mechanism_uses=frozenset({Mechanism(profile)}))
    elif profile == "txmem":
        contract = replace(
            contract,
            txmem_init=lambda storage: VRec({"flag": VBool(True), "acc": VInt(0)}),
            mechanism_uses=frozenset({Mechanism.TXMEM}),
        )
    elif profile == "bstore":
        kind, k = hook_spec

        def bhook(storage: Value, balance: int) -> Value:
            s = as_rec(storage)
            s = s.set("hooked", VInt(as_int(s.get("hooked", VInt(0))) + 1))
            if kind == "inc":
                return s.set("n", VInt(as_int(s.get("n", VInt(0))) + k))
            return s.set("log", VSeq(as_seq(s.get("log")) + (VText("hook"),)))

        contract = replace(
            contract, bstore_hook=bhook, mechanism_uses=frozenset({Mechanism.BSTORE})
        )
    elif profile == "ustore":
        kind = hook_spec[0]

        def uhook(storage: Value, balance: int) -> Value:
            s = as_rec(storage)
            if kind == "flag" and as_bool(s.get("flag")):
                raise ContractError("flag raised at end of transaction")
            if kind == "threshold" and balance < hook_spec[1]:
                raise ContractError("balance below floor at end of transaction")
            s = s.set("hooked", VInt(as_int(s.get("hooked", VInt(0))) + 1))
            return s.set("last_bal", VAmt(balance))

        contract = replace(
            contract, ustore_hook=uhook, mechanism_uses=frozenset({Mechanism.USTORE})
        )
    elif profile == "monitor":
        # The library's only-once monitor, or its lender's balance floor.
        policy = (once_monitored_A if hook_spec[0] == "once" else lender_trmon)({}, 0)
        p = policy.contract
        contract = replace(contract, init=p.init, begin=p.begin, end=p.end, term=p.term)
        monitor_storage = policy.monitor_storage
    elif profile != "plain":
        raise ValueError(f"unknown profile {profile!r}")

    return contract, storage, monitor_storage


# ---------------------------------------------------------------------------
# Scenario generation


@dataclass(frozen=True)
class GeneratedScenario:
    scheduler: SchedulerKind
    hook_spec: tuple
    subject_balance: int
    transactions: tuple[Operation, ...]


def _gen_act_param(rng: random.Random, profile: str, depth: int) -> Value:
    acts = []
    vocab = {
        "count": ["bump"],
        "first": ["bump"],
        "txmem": ["bump", "mem_bump"],
        "fail": ["bump", "fail_on", "fail_off"],
        "bstore": ["bump"],
        "ustore": ["bump", "flag_on", "flag_off", "send"],
        "monitor": ["bump", "send"],
    }[profile]
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(vocab)
        amt = rng.randint(1, 25) if kind == "send" else 0
        acts.append(VRec({"kind": VText(kind), "amt": VAmt(amt)}))
    calls = []
    if depth > 0:
        for _ in range(rng.randint(0, 2)):
            calls.append(_gen_call_entry(rng, profile, depth - 1))
    return VRec({"acts": VSeq(tuple(acts)), "calls": VSeq(tuple(calls))})


def _gen_call_entry(rng: random.Random, profile: str, depth: int) -> VRec:
    roll = rng.random()
    if roll < 0.6:
        return _act_call(T, "act", _gen_act_param(rng, profile, depth))
    if roll < 0.8 and depth > 0:
        plan = VSeq(tuple(_plan_spec(rng, profile, depth - 1) for _ in range(rng.randint(1, 2))))
        return _act_call(F, "run", plan)
    return _act_call(S, "ping")


def _plan_spec(rng: random.Random, profile: str, depth: int) -> VRec:
    roll = rng.random()
    if roll < 0.7:
        return callspec(T, "act", _gen_act_param(rng, profile, depth))
    return callspec(S, "ping")


def generate_scenario(
    profile: str, seed: int, scheduler: Optional[SchedulerKind] = None
) -> GeneratedScenario:
    rng = random.Random(seed)
    if scheduler is None:
        scheduler = rng.choice([SchedulerKind.DFS, SchedulerKind.BFS])
    if profile == "bstore":
        hook_spec = rng.choice([("inc", rng.randint(1, 9)), ("mark", 0)])
    elif profile == "ustore":
        hook_spec = rng.choice([("flag", 0), ("threshold", rng.randint(60, 130)), ("open", 0)])
    elif profile == "monitor":
        hook_spec = rng.choice([("once",), ("floor",)])
    else:
        hook_spec = ()
    txs = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.75:
            dest, method = T, "act"
            param = _gen_act_param(rng, profile, depth=3)
        else:
            dest, method = F, "run"
            param = VSeq(
                tuple(_plan_spec(rng, profile, depth=2) for _ in range(rng.randint(1, 3)))
            )
        money = rng.randint(0, 20) if profile in ("ustore", "monitor") else 0
        txs.append(Operation(dest=dest, src=EXT, method=method, param=param, money=money))
    return GeneratedScenario(
        scheduler=scheduler,
        hook_spec=hook_spec,
        subject_balance=100,
        transactions=tuple(txs),
    )


# ---------------------------------------------------------------------------
# Differential runner


@dataclass(frozen=True)
class TransformerCase:
    """One transformer under differential test. The native run uses the
    subject's own mechanisms (and transaction monitoring when the subject is
    monitored); `target_mechs` is what the transformed run's engine offers.
    `aborts` maps a native abort reason's type to the one the construction
    turns it into; any other abort must keep its type."""

    name: str
    profile: str
    transform: Callable[[ContractDef], TransformedContract]
    target_mechs: frozenset[Mechanism]
    scheduler: Optional[SchedulerKind] = None
    aborts: Mapping[type, type] = field(default_factory=dict)


CASES: dict[str, TransformerCase] = {
    c.name: c
    for c in (
        TransformerCase(
            "count_via_first", "count", sim_count_via_first, frozenset({Mechanism.FIRST})
        ),
        TransformerCase(
            "first_via_count", "first", sim_first_via_count, frozenset({Mechanism.COUNT})
        ),
        TransformerCase(
            "first_via_txmem", "first", sim_first_via_txmem, frozenset({Mechanism.TXMEM})
        ),
        TransformerCase(
            "txmem_via_first", "txmem", sim_txmem_via_first, frozenset({Mechanism.FIRST})
        ),
        TransformerCase(
            "bstore_via_first", "bstore", sim_bstore_via_first, frozenset({Mechanism.FIRST})
        ),
        TransformerCase(
            "first_via_bstore", "first", sim_first_via_bstore, frozenset({Mechanism.BSTORE})
        ),
        TransformerCase(
            "fail_via_ustore", "fail", sim_fail_via_ustore, frozenset({Mechanism.USTORE}),
            aborts={FailBitSet: HookupFail},
        ),
        TransformerCase(
            "monitor_via_first_fail", "monitor", monitor_via_first_fail,
            frozenset({Mechanism.FIRST, Mechanism.FAIL}),
            aborts={
                MonitorTermFail: FailBitSet,
                MonitorInitFail: ContractFail,
                MonitorBeginFail: ContractFail,
            },
        ),
        TransformerCase(
            "fail_via_recurring_bfs", "fail", sim_fail_via_recurring_bfs, frozenset(),
            scheduler=SchedulerKind.BFS, aborts={FailBitSet: GasExhausted},
        ),
        TransformerCase(
            "ustore_via_first_bfs", "ustore", sim_ustore_via_first_bfs,
            frozenset({Mechanism.FIRST}),
            scheduler=SchedulerKind.BFS, aborts={HookupFail: GasExhausted},
        ),
        TransformerCase(
            "ustore_via_queue_bfs", "ustore", sim_ustore_via_queue_bfs,
            frozenset({Mechanism.QUEUE}),
            scheduler=SchedulerKind.BFS, aborts={HookupFail: ContractFail},
        ),
    )
}

WRAPPER_METHOD_PREFIX = "__"


def _subject_readings(trace: Trace, key: str) -> list[Value]:
    return [
        r.readings[key] for r in trace.ops(T)
        if key in r.readings and not r.executed.method.startswith(WRAPPER_METHOD_PREFIX)
    ]


def _third_party_ops(trace: Trace) -> list[tuple]:
    return [
        (e.dest, e.method, e.param, e.money) for r in trace.ops(T) for e in r.emitted if e.dest != T
    ]


def _build_states(
    scenario: GeneratedScenario,
    t_contract: ContractDef,
    t_storage: Value,
    t_monitor: Value,
) -> tuple[dict, ChainState]:
    fwd = forwarder_B({}, 0)
    snk = sink_C({}, 0)
    registry = {T: t_contract, F: fwd.contract, S: snk.contract}
    state = ChainState(
        {
            T: Account(storage=t_storage, balance=scenario.subject_balance, monitor_storage=t_monitor),
            F: Account(),
            S: Account(),
            EXT: Account(balance=500),
        }
    )
    return registry, state


@dataclass
class DiffFailure:
    case: str
    seed: int
    tx_index: int
    problem: str


@dataclass
class DiffReport:
    case: str
    scenarios: int = 0
    transactions: int = 0
    commits: int = 0
    aborts: int = 0
    failures: list[DiffFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_case(case: TransformerCase, seeds: range) -> DiffReport:
    report = DiffReport(case=case.name)
    reading_key = READINGS[case.profile][0] if case.profile in READINGS else None
    for seed in seeds:
        scenario = generate_scenario(case.profile, seed, scheduler=case.scheduler)
        subject, storage0, monitor0 = make_subject(case.profile, scenario.hook_spec)
        transformed = case.transform(subject)

        native_registry, native_state = _build_states(scenario, subject, storage0, monitor0)
        trans_registry, trans_state = _build_states(
            scenario, transformed.wrapped, transformed.wrap_storage(storage0, monitor0), UNIT
        )
        native_engine = Engine(
            native_registry,
            EngineConfig(
                scheduler=scenario.scheduler,
                gas_limit=GAS_LIMIT,
                mechanisms=subject.mechanism_uses,
                monitor_mode=MonitorMode.TRANSACTION if subject.monitored else MonitorMode.NONE,
            ),
        )
        trans_engine = Engine(
            trans_registry,
            EngineConfig(
                scheduler=scenario.scheduler,
                gas_limit=GAS_LIMIT,
                mechanisms=case.target_mechs,
            ),
        )
        report.scenarios += 1

        for i, op in enumerate(scenario.transactions):
            rn = native_engine.run_transaction(native_state, op)
            rt = trans_engine.run_transaction(trans_state, op)
            report.transactions += 1

            def fail(problem: str) -> None:
                report.failures.append(DiffFailure(case.name, seed, i, problem))

            if rn.committed != rt.committed:
                fail(
                    f"verdict split: native {rn.outcome.kind}, "
                    f"transformed {rt.outcome.kind}"
                )
                break
            if reading_key is not None:
                native_reads = _subject_readings(rn.trace, reading_key)
                trans_reads = _subject_readings(rt.trace, reading_key)
                if native_reads != trans_reads:
                    fail(f"{reading_key} readings differ: {native_reads} vs {trans_reads}")
                    break
            if _third_party_ops(rn.trace) != _third_party_ops(rt.trace):
                fail("operations toward third parties differ")
                break
            if isinstance(rn.outcome, Committed):
                report.commits += 1
                native_state = rn.outcome.final
                trans_state = rt.outcome.final  # type: ignore[union-attr]
                native_subject = native_state.storage(T)
                projected = transformed.project(trans_state.storage(T))
                if projected != native_subject:
                    fail(f"projected storage differs: {projected} vs {native_subject}")
                    break
                if subject.monitored:
                    if monitor_storage_of(trans_state.storage(T)) != native_state.monitor_storage(T):
                        fail("inlined monitor storage differs")
                        break
            else:
                report.aborts += 1
                native = type(rn.outcome.reason)  # type: ignore[union-attr]
                expected = case.aborts.get(native, native)
                if type(rt.outcome.reason) is not expected:  # type: ignore[union-attr]
                    fail(
                        f"abort channels differ: native {rn.outcome.kind}, "
                        f"transformed {rt.outcome.kind}"
                    )
                    break
    return report


def _count_round_trip(c: ContractDef) -> TransformedContract:
    """Compile count away with sim_count_via_first, then first away again
    with sim_first_via_count: a count contract on a count engine."""
    inner = sim_count_via_first(c)
    outer = sim_first_via_count(inner.wrapped)
    return TransformedContract(
        wrapped=outer.wrapped,
        project=lambda s: inner.project(outer.project(s)),
        wrap_storage=lambda s, ms=UNIT: outer.wrap_storage(inner.wrap_storage(s, ms)),
    )


COMPOSITION = TransformerCase(
    "composition_count_first_count", "count", _count_round_trip, frozenset({Mechanism.COUNT})
)


def run_composition(seeds: range) -> DiffReport:
    """Round trip: compile count away and back, then compare against the
    original under the native count engine."""
    return run_case(COMPOSITION, seeds)


def run_equivalence_suite(seed: int = 0, instances: int = 200) -> list[DiffReport]:
    """Every transformer case plus the composition round trip."""
    base = seed * 1_000_003
    reports = [
        run_case(case, range(base, base + instances)) for case in CASES.values()
    ]
    reports.append(run_composition(range(base, base + instances)))
    return reports
