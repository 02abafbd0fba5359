"""Scenario harness, counter-example reports, and the flash-loan suite.

A scenario declares contracts (by builtin name), external accounts, and a
sequence of externally issued transactions. Counter-example reports bundle the
traces of paired runs together with the claims that make them interesting:
queue shapes, observational equivalence of a chosen contract across runs, and
transaction verdicts. Every claim embedded in a report is recomputed from the
embedded traces by `verify_report`, so a report certifies itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .contracts import build, callspec
from .core import (
    Account,
    Address,
    ChainState,
    Committed,
    Mechanism,
    MonitorMode,
    Observation,
    Operation,
    Outcome,
    RecordKind,
    Registry,
    ScenarioError,
    SchedulerKind,
    Trace,
    UNIT,
    VAddr,
    VInt,
    VRec,
    VSeq,
    Value,
)
from .engine import Engine, EngineConfig, TxResult

# ---------------------------------------------------------------------------
# Scenario declarations and runner


@dataclass(frozen=True)
class ContractSpec:
    addr: Address
    builtin: str
    params: Mapping[str, object] = field(default_factory=dict)
    balance: int = 0
    storage: Optional[Value] = None
    monitor_storage: Optional[Value] = None


@dataclass(frozen=True)
class ExternalSpec:
    addr: Address
    balance: int = 0


@dataclass(frozen=True)
class TxSpec:
    dest: Address
    method: str
    param: Value = UNIT
    money: int = 0


@dataclass(frozen=True)
class ScenarioSpec:
    engine: EngineConfig = EngineConfig()
    contracts: tuple[ContractSpec, ...] = ()
    externals: tuple[ExternalSpec, ...] = ()
    transactions: tuple[TxSpec, ...] = ()

    def __post_init__(self) -> None:
        declared = {c.addr for c in self.contracts} | {e.addr for e in self.externals}
        if len(declared) != len(self.contracts) + len(self.externals):
            raise ScenarioError("duplicate addresses in scenario")
        if not self.externals:
            raise ScenarioError("scenario needs at least one external account")
        contract_addrs = {c.addr for c in self.contracts}
        for t in self.transactions:
            if t.dest not in contract_addrs:
                raise ScenarioError(f"transaction destination {t.dest!r} not a contract")


def build_scenario(spec: ScenarioSpec) -> tuple[ChainState, Registry]:
    registry = {}
    accounts = {}
    for c in spec.contracts:
        builtin = build(c.builtin, c.params, c.balance)
        registry[c.addr] = builtin.contract
        accounts[c.addr] = Account(
            storage=c.storage if c.storage is not None else builtin.storage,
            balance=c.balance,
            monitor_storage=(
                c.monitor_storage if c.monitor_storage is not None else builtin.monitor_storage
            ),
        )
    for e in spec.externals:
        accounts[e.addr] = Account(balance=e.balance)
    return ChainState(accounts), registry


@dataclass(frozen=True)
class ScenarioResult:
    spec: ScenarioSpec
    pre_state: ChainState
    final_state: ChainState
    results: tuple[TxResult, ...]

    @property
    def outcomes(self) -> tuple[Outcome, ...]:
        return tuple(r.outcome for r in self.results)

    @property
    def traces(self) -> tuple[Trace, ...]:
        return tuple(r.trace for r in self.results)

    @property
    def all_committed(self) -> bool:
        return all(r.committed for r in self.results)


def run_scenario(spec: ScenarioSpec, debug: bool = False) -> ScenarioResult:
    """Run the scenario's transactions in order, each sent from the first
    external account; commits thread the state forward, aborts leave it
    untouched."""
    state, registry = build_scenario(spec)
    pre = state
    engine = Engine(registry, spec.engine, debug=debug)
    src = spec.externals[0].addr
    results = []
    for t in spec.transactions:
        op = Operation(dest=t.dest, src=src, method=t.method, param=t.param, money=t.money)
        res = engine.run_transaction(state, op)
        results.append(res)
        if isinstance(res.outcome, Committed):
            state = res.outcome.final
    return ScenarioResult(spec, pre, state, tuple(results))


# ---------------------------------------------------------------------------
# Observations and observational equivalence


def observations_of(trace: Trace, subject: Address) -> tuple[Observation, ...]:
    out = []
    for r in trace.ops(subject):
        out.append(
            Observation(
                seq_no=len(out) + 1,
                method=r.executed.method,
                param=r.executed.param,
                money=r.executed.money,
                storage_before=r.storage_before,
                balance_seen=r.balance_seen,
                readings=dict(r.readings),
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class Divergence:
    invocation: int
    field: str
    left: object
    right: object


@dataclass(frozen=True)
class EquivCheck:
    equal: bool
    checked: int
    divergence: Optional[Divergence] = None


def check_obs_equivalence(
    trace_a: Trace, trace_b: Trace, subject: Address, upto: Optional[int] = None
) -> EquivCheck:
    """Compare the observation sequences of `subject` across two traces,
    through invocation index `upto` (all invocations, including sequence
    length, when upto is None)."""
    if upto is not None and upto < 1:
        raise ScenarioError(f"obs equivalence bound upto={upto}; invocations count from 1")
    obs_a = observations_of(trace_a, subject)
    obs_b = observations_of(trace_b, subject)
    span = max(len(obs_a), len(obs_b)) if upto is None else upto
    checked = 0
    for i in range(span):
        a = obs_a[i] if i < len(obs_a) else None
        b = obs_b[i] if i < len(obs_b) else None
        if a is None and b is None:
            break  # both runs stopped invoking the subject: vacuous agreement
        if a is None or b is None:
            return EquivCheck(False, checked, Divergence(i + 1, "presence", a, b))
        for f in Observation._VIEW_FIELDS:
            if getattr(a, f) != getattr(b, f):
                return EquivCheck(
                    False, checked, Divergence(i + 1, f, getattr(a, f), getattr(b, f))
                )
        checked += 1
    return EquivCheck(True, checked)


# ---------------------------------------------------------------------------
# Counter-example reports


def queue_labels(trace: Trace, steps: int) -> tuple[tuple[str, ...], ...]:
    """queue_after of the first `steps` operation records, as dest.method
    labels."""
    return tuple(
        tuple(f"{o.dest}.{o.method}" for o in r.queue_after) for r in trace.ops()[:steps]
    )


@dataclass(frozen=True)
class ObsClaim:
    trace_a: str
    trace_b: str
    subject: Address
    upto: Optional[int]
    expect_equal: bool
    note: str = ""


@dataclass(frozen=True)
class CrossObsClaim:
    """Two single invocations, possibly at different positions in different
    runs, present the same view to the contract."""

    trace_a: str
    invocation_a: int
    trace_b: str
    invocation_b: int
    subject: Address
    note: str = ""


@dataclass(frozen=True)
class QueueClaim:
    trace: str
    shapes: tuple[tuple[str, ...], ...]
    note: str = ""


@dataclass(frozen=True)
class VerdictClaim:
    trace: str
    expect: str
    note: str = ""


@dataclass(frozen=True)
class HookupInputClaim:
    """The storage hookup of `subject` ran on identical inputs in both runs."""

    trace_a: str
    trace_b: str
    subject: Address
    note: str = ""


@dataclass(frozen=True)
class CounterexampleReport:
    name: str
    traces: Mapping[str, Trace]
    verdicts: Mapping[str, Outcome]
    obs_claims: tuple[ObsClaim, ...] = ()
    cross_obs_claims: tuple[CrossObsClaim, ...] = ()
    queue_claims: tuple[QueueClaim, ...] = ()
    verdict_claims: tuple[VerdictClaim, ...] = ()
    hookup_claims: tuple[HookupInputClaim, ...] = ()
    conclusion: str = ""


def verify_report(report: CounterexampleReport) -> list[str]:
    """Recompute every claim from the embedded traces."""
    problems = []
    for qc in report.queue_claims:
        got = queue_labels(report.traces[qc.trace], steps=len(qc.shapes))
        if got != qc.shapes:
            problems.append(f"{report.name}/{qc.trace}: queue shapes {got} != {qc.shapes}")
    for oc in report.obs_claims:
        if oc.upto is not None and oc.upto < 1:
            problems.append(f"{report.name}: obs claim upto={oc.upto}; invocations count from 1")
            continue
        res = check_obs_equivalence(
            report.traces[oc.trace_a], report.traces[oc.trace_b], oc.subject, oc.upto
        )
        if res.equal != oc.expect_equal:
            problems.append(
                f"{report.name}: obs({oc.trace_a},{oc.trace_b},{oc.subject},upto={oc.upto})"
                f" = {res.equal}, expected {oc.expect_equal} ({res.divergence})"
            )
    for cc in report.cross_obs_claims:
        obs_a = observations_of(report.traces[cc.trace_a], cc.subject)
        obs_b = observations_of(report.traces[cc.trace_b], cc.subject)
        if not (0 < cc.invocation_a <= len(obs_a) and 0 < cc.invocation_b <= len(obs_b)):
            problems.append(
                f"{report.name}: cross-observation index out of range (invocations count from 1)"
            )
            continue
        if not obs_a[cc.invocation_a - 1].same_view(obs_b[cc.invocation_b - 1]):
            problems.append(
                f"{report.name}: invocation {cc.invocation_a} of {cc.trace_a} and "
                f"invocation {cc.invocation_b} of {cc.trace_b} differ for {cc.subject}"
            )
    for vc in report.verdict_claims:
        got = report.verdicts[vc.trace].kind
        if got != vc.expect:
            problems.append(f"{report.name}/{vc.trace}: verdict {got} != {vc.expect}")
    for hc in report.hookup_claims:
        ha, hb = (
            [
                (r.storage_before, r.balance_seen)
                for r in report.traces[name].records
                if r.kind is RecordKind.HOOKUP and r.subject == hc.subject
            ]
            for name in (hc.trace_a, hc.trace_b)
        )
        if not ha or ha != hb:
            problems.append(f"{report.name}: hookup inputs differ for {hc.subject}")
    return problems


def _certify(report: CounterexampleReport) -> CounterexampleReport:
    problems = verify_report(report)
    if problems:
        raise ScenarioError(f"report failed self-certification: {problems}")
    return report


# ---------------------------------------------------------------------------
# Counter-example suite: the reports as a table of runs and claims


@dataclass(frozen=True)
class Run:
    """A scenario run once from its fresh state; `labels[i]` names the trace
    and verdict of its i-th transaction."""

    scenario: ScenarioSpec
    labels: tuple[str, ...]


Claim = ObsClaim | CrossObsClaim | QueueClaim | VerdictClaim | HookupInputClaim

_CLAIM_GROUPS: dict[type, str] = {
    ObsClaim: "obs_claims",
    CrossObsClaim: "cross_obs_claims",
    QueueClaim: "queue_claims",
    VerdictClaim: "verdict_claims",
    HookupInputClaim: "hookup_claims",
}


@dataclass(frozen=True)
class ReportSpec:
    """A counter-example report as data, for `build_report` to run."""

    name: str
    runs: tuple[Run, ...]
    claims: tuple[Claim, ...]
    conclusion: str


def build_report(spec: ReportSpec) -> CounterexampleReport:
    """Run each of the spec's runs once, file its claims by kind in the
    order given, and certify the report."""
    traces: dict[str, Trace] = {}
    verdicts: dict[str, Outcome] = {}
    for run in spec.runs:
        results = run_scenario(run.scenario, debug=True).results
        for label, result in zip(run.labels, results, strict=True):
            if label in traces:
                raise ScenarioError(f"{spec.name}: run label {label!r} used twice")
            traces[label], verdicts[label] = result.trace, result.outcome
    groups: dict[str, list] = {group: [] for group in _CLAIM_GROUPS.values()}
    for claim in spec.claims:
        groups[_CLAIM_GROUPS[type(claim)]].append(claim)
    claims = {group: tuple(members) for group, members in groups.items()}
    return _certify(
        CounterexampleReport(spec.name, traces, verdicts, **claims, conclusion=spec.conclusion)
    )


A, B, C, EXT = "A", "B", "C", "ext"


def _forwarding(a_builtin: str, **params) -> list[ContractSpec]:
    """A runs `a_builtin` with `params`, B replays the plan it is sent, C
    accepts any call."""
    a = ContractSpec(A, a_builtin, params)
    return [a, ContractSpec(B, "forwarder_B"), ContractSpec(C, "sink_C")]


_Call = tuple[str, Value]  # a call to B: (method, param)


def _run(engine: EngineConfig, contracts: Sequence[ContractSpec], **calls: _Call) -> Run:
    """The calls to B, made in order from one fresh state of `contracts` and
    labelled by their keywords."""
    txs = tuple(TxSpec(B, method, param) for method, param in calls.values())
    return Run(ScenarioSpec(engine, tuple(contracts), (ExternalSpec(EXT, 0),), txs), tuple(calls))


def _each(
    engine: EngineConfig, contracts: Sequence[ContractSpec], **calls: _Call
) -> tuple[Run, ...]:
    """One run per call to B, each from its own fresh state."""
    return tuple(_run(engine, contracts, **{label: call}) for label, call in calls.items())


def _plan(calls: int) -> Value:
    """B's plan: `calls` calls to A, then one to C."""
    return VSeq((callspec(A),) * calls + (callspec(C),))


def _probe_runs(plain: EngineConfig, plain_a: str, probe: EngineConfig) -> tuple[Run, ...]:
    """B forwards to A with a third-party call to C pending (busy) or not
    (quiet), once with A running `plain_a` and once with A the queue prober."""
    busy, quiet = ("run", _plan(1)), ("run", VSeq((callspec(A),)))
    return (
        *_each(plain, _forwarding(plain_a), busy_plain=busy, quiet_plain=quiet),
        *_each(probe, _forwarding("queue_prober_A"), busy_probed=busy, quiet_probed=quiet),
    )


def _start(k: int) -> Value:
    """B's `start` argument: a ping to A and a call to itself recursing k times."""
    return VRec({"k": VInt(k), "a": VAddr(A)})


_CALL_A = VRec({"a": VAddr(A)})
# The engine and contracts of the two strategies that also run a sequence.
_PARITY = (
    EngineConfig(SchedulerKind.DFS, 100, frozenset({Mechanism.FAIL, Mechanism.QUEUE})),
    _forwarding("parity_fail_A", probe=("queue",)),
)
_WATCHER = (
    EngineConfig(SchedulerKind.BFS, 200),
    [ContractSpec(A, "once_recurring_A"), ContractSpec(B, "recursive_f")],
)

REPORTS: dict[str, ReportSpec] = {
    spec.name: spec
    for spec in (
        # DFS: A's first invocation cannot tell one call from two; the monitor can.
        ReportSpec(
            "dfs_only_once",
            runs=_each(
                EngineConfig(
                    SchedulerKind.DFS, 100, frozenset({Mechanism.FIRST, Mechanism.QUEUE}),
                    MonitorMode.TRANSACTION,
                ),
                _forwarding("once_monitored_A", probe=("first", "queue")),
                o1=("run", _plan(1)), o2=("run", _plan(2)),
            ),
            claims=(
                QueueClaim("o1", (("A.ping", "C.ping"),), "one call to A, then C"),
                QueueClaim("o2", (("A.ping", "A.ping", "C.ping"),), "two calls to A, then C"),
                ObsClaim(
                    "o1", "o2", A, upto=1, expect_equal=True,
                    note="first invocation of A sees the same view in both runs, "
                    "first and queue info included (the pending C call keeps queue "
                    "info false in both)",
                ),
                ObsClaim(
                    "o1", "o2", A, upto=2, expect_equal=False,
                    note="one step past the shared prefix the runs differ",
                ),
                VerdictClaim("o1", "monitor_term_fail", "exactly one call is rejected"),
                VerdictClaim("o2", "committed", "two calls are accepted"),
            ),
            conclusion=(
                "The first invocation of A cannot tell the rejected run from the "
                "accepted one, so no contract-side decision at that point can "
                "implement the monitor; the native transaction monitor separates "
                "the runs only because term executes after the drain."
            ),
        ),
        # DFS: only queue info lets a contract see a pending third-party call.
        ReportSpec(
            "dfs_no_queue",
            runs=_probe_runs(
                EngineConfig(SchedulerKind.DFS, 100),
                "sink_C",
                EngineConfig(SchedulerKind.DFS, 100, frozenset({Mechanism.QUEUE})),
            ),
            claims=(
                QueueClaim("busy_plain", (("A.ping", "C.ping"),)),
                QueueClaim("quiet_plain", (("A.ping",),)),
                ObsClaim(
                    "busy_plain", "quiet_plain", A, upto=1, expect_equal=True,
                    note="without queue info, A's invocation is blind to the pending C call",
                ),
                VerdictClaim("busy_probed", "contract_fail", "prober vetoes the busy queue"),
                VerdictClaim("quiet_probed", "committed", "prober passes the quiet queue"),
            ),
            conclusion=(
                "A contract that must fail exactly when other work is pending is "
                "realizable with queue info and unrealizable without it: the two "
                "runs give its only invocation identical views."
            ),
        ),
        # DFS: a fail-bit parity policy gets one and two calls right, not three.
        ReportSpec(
            "dfs_fail_queue",
            runs=(
                *_each(*_PARITY, o1=("run", _plan(1)), o2=("run", _plan(2)), o3=("run", _plan(3))),
                *_each(
                    EngineConfig(SchedulerKind.DFS, 100, monitor_mode=MonitorMode.TRANSACTION),
                    _forwarding("once_monitored_A"),
                    o3_native=("run", _plan(3)),
                ),
                _run(*_PARITY, seq_o2=("run", _plan(2)), seq_o1=("run", _plan(1))),
            ),
            claims=(
                ObsClaim(
                    "o1", "o2", A, upto=1, expect_equal=True,
                    note="queue info reads false in both runs (C is pending), so the "
                    "policy's first decision is forced to coincide",
                ),
                VerdictClaim("o1", "fail_bit_set", "one call rejected, as required"),
                VerdictClaim("o2", "committed", "two calls accepted, as required"),
                VerdictClaim("seq_o2", "committed", "committed two-call transaction"),
                VerdictClaim("seq_o1", "fail_bit_set", "following one-call transaction rejected"),
                VerdictClaim("o3", "fail_bit_set", "three calls wrongly rejected by the policy"),
                VerdictClaim("o3_native", "committed", "the monitor accepts three calls"),
            ),
            conclusion=(
                "Because the first invocation's view coincides across runs, a "
                "fail-bit policy must commit to raising the bit there; keeping the "
                "bit equal to lifetime call parity survives the paired sequences "
                "but misjudges a three-call transaction, which the native monitor "
                "accepts."
            ),
        ),
        # BFS: a recurring watcher starves a third call that looks like a first.
        ReportSpec(
            "bfs_only_once",
            runs=(
                *_each(
                    *_WATCHER, t=("call_a", _CALL_A), t0=("start", _start(0)),
                    t1=("start", _start(1)), t2=("start", _start(2)), t_prime0=("start3", _CALL_A),
                ),
                *_each(
                    EngineConfig(SchedulerKind.BFS, 200, monitor_mode=MonitorMode.TRANSACTION),
                    [ContractSpec(A, "once_monitored_A"), ContractSpec(B, "recursive_f")],
                    t_native=("call_a", _CALL_A),
                    t_prime0_native=("start3", _CALL_A),
                ),
                _run(*_WATCHER, seq_t0=("start", _start(0)), seq_t=("call_a", _CALL_A)),
            ),
            claims=(
                QueueClaim("t", (("A.ping",),), "single direct call"),
                QueueClaim("t0", (
                    ("B.f", "A.ping"),
                    ("A.ping", "A.ping"),
                    ("A.ping", "A.watch"),
                    ("A.watch",),
                ), "depth-0 recursion: the second call lands behind the first"),
                QueueClaim("t1", (
                    ("B.f", "A.ping"),
                    ("A.ping", "B.f"),
                    ("B.f", "A.watch"),
                    ("A.watch", "A.ping"),
                ), "depth-1 recursion interleaves with the watcher"),
                QueueClaim("t_prime0", (
                    ("B.f", "A.ping", "B.f"),
                    ("A.ping", "B.f", "A.ping"),
                    ("B.f", "A.ping", "A.watch"),
                    ("A.ping", "A.watch", "A.ping"),
                ), "three calls: the last one runs after the watcher stopped"),
                CrossObsClaim(
                    "t_prime0", 4, "seq_t", 1, A,
                    note="the third call of the three-call transaction and a fresh "
                    "first call after the committed two-call transaction present "
                    "identical views (both are ping invocations #4 and #1 "
                    "respectively, with storage counter at two)",
                ),
                VerdictClaim("t", "gas_exhausted", "one call starved out: correct rejection"),
                VerdictClaim("t0", "committed", "two calls accepted"),
                VerdictClaim("t1", "committed", "two calls accepted"),
                VerdictClaim("t2", "committed", "two calls accepted"),
                VerdictClaim("seq_t0", "committed", "two-call transaction commits"),
                VerdictClaim("seq_t", "gas_exhausted", "following one-call transaction rejected"),
                VerdictClaim(
                    "t_prime0", "gas_exhausted",
                    "three calls wrongly starved by the same strategy",
                ),
                VerdictClaim("t_native", "monitor_term_fail", "monitor rejects one call"),
                VerdictClaim("t_prime0_native", "committed", "monitor accepts three calls"),
            ),
            conclusion=(
                "The recurring watcher separates one from two calls by starving "
                "transactions whose call parity stays odd, but the third call of "
                "the three-call transaction sees exactly the view of a fresh first "
                "call after a committed two-call transaction; behaving identically "
                "on both, the strategy must starve one transaction the monitor "
                "accepts. The watcher here stops at its first run after the parity "
                "moves; delaying the stop by any finite number of re-injections "
                "only shifts where the trapped third call is placed, so this run "
                "exhibits one representative of the strategy space rather than "
                "exhausting it."
            ),
        ),
        # BFS: an unbounded storage hookup cannot stand in for queue info.
        ReportSpec(
            "bfs_queue_gap",
            runs=_probe_runs(
                EngineConfig(SchedulerKind.BFS, 100, frozenset({Mechanism.USTORE})),
                "ustore_echo_A",
                EngineConfig(SchedulerKind.BFS, 100, frozenset({Mechanism.QUEUE})),
            ),
            claims=(
                ObsClaim(
                    "busy_plain", "quiet_plain", A, upto=1, expect_equal=True,
                    note="without queue info A's only invocation is blind to the pending call",
                ),
                HookupInputClaim(
                    "busy_plain", "quiet_plain", A,
                    note="the unbounded hookup also runs on identical storage and balance",
                ),
                VerdictClaim("busy_probed", "contract_fail", "prober vetoes the busy queue"),
                VerdictClaim("quiet_probed", "committed", "prober passes the quiet queue"),
            ),
            conclusion=(
                "Since both the invocation of A and its storage hookup receive "
                "identical inputs in the two runs, any hookup-based strategy "
                "treats them alike, while queue info separates them."
            ),
        ),
    )
}


def counterexample_suite() -> list[CounterexampleReport]:
    return [build_report(spec) for spec in REPORTS.values()]


# ---------------------------------------------------------------------------
# Flash-loan suite


@dataclass(frozen=True)
class LenderVariant:
    label: str
    builtin: str
    scheduler: SchedulerKind
    mechanisms: frozenset[Mechanism] = frozenset()
    monitor_mode: MonitorMode = MonitorMode.NONE


LENDER_VARIANTS: tuple[LenderVariant, ...] = (
    LenderVariant("trmon@dfs", "lender_trmon", SchedulerKind.DFS, monitor_mode=MonitorMode.TRANSACTION),
    LenderVariant("trmon@bfs", "lender_trmon", SchedulerKind.BFS, monitor_mode=MonitorMode.TRANSACTION),
    LenderVariant("ustore@dfs", "lender_ustore", SchedulerKind.DFS, frozenset({Mechanism.USTORE})),
    LenderVariant("ustore@bfs", "lender_ustore", SchedulerKind.BFS, frozenset({Mechanism.USTORE})),
    LenderVariant("first_fail@dfs", "lender_first_fail", SchedulerKind.DFS, frozenset({Mechanism.FIRST, Mechanism.FAIL})),
    LenderVariant("first_fail@bfs", "lender_first_fail", SchedulerKind.BFS, frozenset({Mechanism.FIRST, Mechanism.FAIL})),
    LenderVariant("bfs_first@bfs", "lender_bfs_first", SchedulerKind.BFS, frozenset({Mechanism.FIRST})),
    LenderVariant("bfs_queue@bfs", "lender_bfs_queue", SchedulerKind.BFS, frozenset({Mechanism.QUEUE})),
)

L1, L2, CLIENT, SINK = "L1", "L2", "M", "S"
FLASHLOAN_GAS = 5_000


def _loan_scenario(variant: LenderVariant, client_builtin: str, client_params: dict) -> ScenarioSpec:
    lenders = [ContractSpec(L1, variant.builtin, balance=100)]
    if "l2" in client_params:
        lenders.append(ContractSpec(L2, variant.builtin, balance=200))
    return ScenarioSpec(
        engine=EngineConfig(
            scheduler=variant.scheduler,
            gas_limit=FLASHLOAN_GAS,
            mechanisms=variant.mechanisms,
            monitor_mode=variant.monitor_mode,
        ),
        contracts=tuple(
            lenders
            + [
                ContractSpec(CLIENT, client_builtin, client_params),
                ContractSpec(SINK, "invest_sink"),
            ]
        ),
        externals=(ExternalSpec(EXT, 0),),
        transactions=(TxSpec(dest=CLIENT, method="borrow_and_invest"),),
    )


STAGED_CLIENTS: tuple[tuple[str, str, dict, bool], ...] = (
    # (row label, client builtin, params, expect commit)
    (
        "two_loans_repaid",
        "client_two_loans_staged",
        {"l1": L1, "l2": L2, "sink": SINK, "amount1": 100, "amount2": 200},
        True,
    ),
    (
        "malicious_unpaid",
        "client_malicious",
        {"l": L1, "sink": SINK, "amount": 100},
        False,
    ),
    (
        "partial_repay",
        "client_partial",
        {"l": L1, "sink": SINK, "amount": 100, "repay_amount": 60},
        False,
    ),
)


@dataclass(frozen=True)
class FlashLoanRow:
    scenario: str
    variant: str
    outcome_kind: str
    committed: bool
    expected_commit: bool
    lender_balances_pre: tuple[int, ...]
    lender_balances_post: tuple[int, ...]
    safety_ok: bool


@dataclass(frozen=True)
class FlashLoanReport:
    rows: tuple[FlashLoanRow, ...]

    def agreement(self) -> dict[str, set[bool]]:
        """Per logical scenario, the set of commit verdicts across variants;
        singleton sets mean every lender implementation agrees."""
        table: dict[str, set[bool]] = {}
        for row in self.rows:
            table.setdefault(row.scenario, set()).add(row.committed)
        return table

    def safety_violations(self) -> list[FlashLoanRow]:
        return [r for r in self.rows if not r.safety_ok]

    def wrong_verdicts(self) -> list[FlashLoanRow]:
        return [r for r in self.rows if r.committed != r.expected_commit]

    @property
    def ok(self) -> bool:
        return (
            not self.wrong_verdicts()
            and not self.safety_violations()
            and all(len(v) == 1 for v in self.agreement().values())
        )


def _flashloan_row(
    scenario: str, variant: LenderVariant, client: str, params: dict, expected: bool
) -> FlashLoanRow:
    spec = _loan_scenario(variant, client, params)
    lender_addrs = [c.addr for c in spec.contracts if c.builtin == variant.builtin]
    result = run_scenario(spec)
    pre = tuple(result.pre_state.balance(a) for a in lender_addrs)
    post = tuple(result.final_state.balance(a) for a in lender_addrs)
    committed = result.all_committed
    safety_ok = (not committed) or all(b >= a for a, b in zip(pre, post))
    return FlashLoanRow(
        scenario=scenario,
        variant=variant.label,
        outcome_kind=result.outcomes[0].kind,
        committed=committed,
        expected_commit=expected,
        lender_balances_pre=pre,
        lender_balances_post=post,
        safety_ok=safety_ok,
    )


def run_flashloan_suite() -> FlashLoanReport:
    """Every lender variant against every client pattern, plus the DFS
    straight-line client rows showing the defensive lender's liveness gap."""
    two_loans, malicious = STAGED_CLIENTS[0][2], STAGED_CLIENTS[1][2]
    naive = LenderVariant("naive@dfs", "lender_naive", SchedulerKind.DFS)
    staged = [
        (scenario, variant, client, params, expected)
        for scenario, client, params, expected in STAGED_CLIENTS
        for variant in LENDER_VARIANTS
    ]
    flat = [
        ("two_loans_flat@dfs", LENDER_VARIANTS[0], "client_two_loans", two_loans, True),
        ("two_loans_flat@dfs(naive)", naive, "client_two_loans", two_loans, False),
        ("malicious@dfs(naive)", naive, "client_malicious", malicious, False),
    ]
    return FlashLoanReport(rows=tuple(_flashloan_row(*row) for row in staged + flat))
