"""Small-step transaction execution.

One transaction = one external operation driven to queue drain (commit) or to
the first failure (abort, pre-state preserved). Emitted operations go to the
front of the pending queue under DFS and to the back under BFS; those two
queue laws are the only difference between the schedulers.

Operation monitors bracket each operation of a contract with begin/end hooks.
Transaction monitors add init (before a contract's first operation of the
transaction) and term (after the queue drains, once per visited contract, in
first-visit order). Hooks read contract storage and balance but may only
rewrite the private monitor storage; term rewrites nothing.

Gas model: one unit per executed operation plus one unit per emitted
operation. Monitor hooks and storage hookups are free; the meter exists so
that recurring self-injection reliably exhausts it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional, Union

from .core import (
    AbortReason,
    Aborted,
    Address,
    ChainState,
    Committed,
    ContractError,
    ContractFail,
    Context,
    FailBitSet,
    GasExhausted,
    InsufficientBalance,
    Mechanism,
    MonitorBeginFail,
    MonitorEndFail,
    MonitorInitFail,
    MonitorMode,
    MonitorTermFail,
    HookupFail,
    Operation,
    Outcome,
    Pending,
    RecordKind,
    RecurringEscape,
    Registry,
    ScenarioError,
    SchedulerKind,
    StepFail,
    StepOk,
    StepRecord,
    Trace,
    TraceMeta,
    UNIT,
    Value,
    digest,
    stamp,
    storage_digest,
)
from .mechanisms import READINGS, ContextView, fold_effects, run_hookups

OP_COST = 1
EMIT_COST = 1


@dataclass(frozen=True)
class EngineConfig:
    scheduler: SchedulerKind = SchedulerKind.DFS
    gas_limit: int = 1_000
    mechanisms: frozenset[Mechanism] = frozenset()
    monitor_mode: MonitorMode = MonitorMode.NONE

    def __post_init__(self) -> None:
        if self.gas_limit < 1:
            raise ScenarioError("gas limit must be at least 1")
        object.__setattr__(self, "mechanisms", frozenset(self.mechanisms))


@dataclass(frozen=True)
class TxResult:
    outcome: Outcome
    trace: Trace

    @property
    def committed(self) -> bool:
        return self.outcome.committed


class Engine:
    """Runs transactions against a fixed contract registry and configuration.

    Instances own all mutable state of a run; separate instances are
    independent and may run on separate threads.
    """

    def __init__(self, registry: Registry, config: EngineConfig, debug: bool = False):
        self.registry = dict(registry)
        self.config = config
        self.debug = debug

    # -- public API ---------------------------------------------------------

    def run_transaction(self, state: ChainState, external: Operation) -> TxResult:
        cfg = self.config
        self._validate_external(state, external)

        meta = TraceMeta(
            scheduler=cfg.scheduler,
            monitor_mode=cfg.monitor_mode,
            mechanisms=cfg.mechanisms,
            gas_limit=cfg.gas_limit,
            external=external,
        )
        records: list[StepRecord] = []
        ctx = Context(gas_remaining=cfg.gas_limit)
        queue = Pending((external,))
        abort: Optional[AbortReason] = None

        while queue:
            stepped = self._step_op(state, ctx, queue, records)
            if isinstance(stepped, AbortReason):
                abort = stepped
                break
            state, ctx, queue = stepped

        if abort is None:
            state, abort = self._end_phases(state, ctx, queue, records)

        trace = Trace(meta=meta, records=tuple(records))
        if abort is not None:
            return TxResult(Aborted(abort), trace)
        return TxResult(Committed(state), trace)

    # -- single operation ------------------------------------------------------

    def _step_op(
        self, state: ChainState, ctx: Context, queue: Pending, records: list[StepRecord]
    ) -> Union[AbortReason, tuple[ChainState, Context, Pending]]:
        cfg = self.config
        op = queue.head()
        rest = queue.drop()
        contract = self.registry.get(op.dest)
        if contract is None:
            return ContractFail(op.dest, "no contract installed at destination")

        if (
            cfg.monitor_mode is MonitorMode.TRANSACTION
            and op.dest not in ctx.counts
            and contract.monitored
        ):
            if contract.init is not None:
                acct = state.get(op.dest)
                try:
                    new_ms = contract.init(acct.storage, acct.balance, acct.monitor_storage)
                except ContractError:
                    return MonitorInitFail(op.dest)
                state = state.with_monitor_storage(op.dest, new_ms)
            self._record(records, RecordKind.INIT, op.dest, state, ctx.gas_remaining, queue)

        if cfg.monitor_mode is not MonitorMode.NONE and contract.begin is not None:
            try:
                new_ms = contract.begin(op.method, op.param, op.money, state.monitor_storage(op.dest))
            except ContractError:
                return MonitorBeginFail(op.dest)
            state = state.with_monitor_storage(op.dest, new_ms)
            self._record(records, RecordKind.BEGIN, op.dest, state, ctx.gas_remaining, queue, op)

        # The op's cost is tested before the step and charged with its
        # emissions after it, so an unaffordable op never runs.
        gas_before = ctx.gas_remaining
        if OP_COST > gas_before:
            return GasExhausted()
        ctx = ctx.visit(op.dest)

        if state.balance(op.src) < op.money:
            return InsufficientBalance(op)
        try:
            state = state.move(op.src, op.dest, op.money)
        except ContractError as exc:
            return ContractFail(op.dest, str(exc))
        acct = state.get(op.dest)

        view = ContextView(ctx, op.dest, contract, cfg.mechanisms, rest, acct.storage)
        try:
            result = contract.step(view, op.method, op.param, op.money, acct.storage, acct.balance)
            if self.debug:
                self._audit_purity(view, op, acct.balance, result)
        except ContractError as exc:
            return ContractFail(op.dest, str(exc))
        except ScenarioError:
            raise
        except Exception as exc:
            # A fault of the step function or the harness, not an abort.
            raise ScenarioError(
                f"step {op.dest}.{op.method} at record {len(records)} raised "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if isinstance(result, StepFail):
            return ContractFail(op.dest, result.reason)
        if not isinstance(result, StepOk):
            raise ScenarioError(f"step at {op.dest} returned {result!r}")

        emitted = stamp(result.emitted, op.dest)
        for e in emitted:
            if e.recurring and (
                e.dest != op.dest
                or e.money != 0
                or e.method not in contract.recurring_methods
            ):
                return RecurringEscape(e)

        cost = OP_COST + EMIT_COST * len(emitted)
        if cost > gas_before:
            return GasExhausted()
        ctx = fold_effects(ctx.with_gas(gas_before - cost), op.dest, view.effects)

        if result.new_storage is not acct.storage:
            state = state.with_storage(op.dest, result.new_storage)
        new_queue = rest.push(emitted, front=cfg.scheduler is SchedulerKind.DFS)
        records.append(StepRecord(
            len(records), RecordKind.OP, op.dest, op, queue, new_queue, emitted, gas_before,
            ctx.gas_remaining, digest(state), storage_digest(state), acct.storage,
            result.new_storage, acct.balance, dict(view.readings),
        ))

        if cfg.monitor_mode is not MonitorMode.NONE and contract.end is not None:
            try:
                new_ms = contract.end(emitted, result.new_storage, state.monitor_storage(op.dest))
            except ContractError:
                return MonitorEndFail(op.dest)
            state = state.with_monitor_storage(op.dest, new_ms)
            self._record(records, RecordKind.END, op.dest, state, ctx.gas_remaining, new_queue, op)

        return state, ctx, new_queue

    # -- end-of-transaction phases ----------------------------------------------

    def _end_phases(
        self, state: ChainState, ctx: Context, queue: Pending, records: list[StepRecord]
    ) -> tuple[ChainState, Optional[AbortReason]]:
        cfg = self.config
        gas = ctx.gas_remaining

        for kind in (Mechanism.BSTORE, Mechanism.USTORE):
            if kind not in cfg.mechanisms:
                continue
            state, applied, failed = run_hookups(self.registry, state, ctx.visited, kind)
            for addr, before, snapshot in applied:
                self._record(records, RecordKind.HOOKUP, addr, snapshot, gas, queue, storage_before=before)
            if failed is not None:
                return state, HookupFail(failed)

        if Mechanism.FAIL in cfg.mechanisms:
            # A fail bit still raised once the queue has drained fails the
            # whole transaction.
            bad = frozenset(a for a, raised in ctx.fail_bits.items() if raised)
            if bad:
                for addr in ctx.visited:
                    if addr in bad:
                        self._record(records, RecordKind.FAIL_BIT_CHECK, addr, state, gas, queue)
                return state, FailBitSet(bad)

        if cfg.monitor_mode is MonitorMode.TRANSACTION:
            for addr in ctx.visited:
                contract = self.registry[addr]
                if not contract.monitored:
                    continue
                acct = state.get(addr)
                if contract.term is not None:
                    try:
                        contract.term(acct.storage, acct.balance, acct.monitor_storage)
                    except ContractError:
                        return state, MonitorTermFail(addr)
                self._record(records, RecordKind.TERM, addr, state, gas, queue)

        return state, None

    # -- helpers ---------------------------------------------------------------

    def _audit_purity(self, view: ContextView, op: Operation, balance: int, result) -> None:
        """Evaluate the step again on a fresh view; demand equal results, readings and writes."""
        again = replace(view, readings={}, effects={})
        result2 = view.contract.step(again, op.method, op.param, op.money, view.storage, balance)
        if (result, view.readings, view.effects) != (result2, again.readings, again.effects):
            raise ScenarioError(f"non-deterministic step function at {op.dest}")

    def _validate_external(self, state: ChainState, external: Operation) -> None:
        if not state.has(external.src):
            raise ScenarioError(f"external source {external.src!r} has no account")
        if external.src in self.registry:
            raise ScenarioError("external source must not be a registered contract")
        if external.dest not in self.registry:
            raise ScenarioError(
                f"external destination {external.dest!r} is not a registered contract"
            )
        if external.recurring:
            raise ScenarioError("external operations cannot be recurring")

    def _record(
        self, records: list[StepRecord], kind: RecordKind, addr: Address, state: ChainState,
        gas: int, queue: Pending, executed: Optional[Operation] = None,
        storage_before: Optional[Value] = None,
    ) -> None:
        """Record a hook step at `addr` that ends in `state`: gas and the
        queue are unchanged across it and it emits nothing. The subject's
        storage before it is its storage in `state` unless given."""
        acct = state.get(addr)
        before = acct.storage if storage_before is None else storage_before
        records.append(StepRecord(
            len(records), kind, addr, executed, queue, queue, (), gas, gas, digest(state),
            storage_digest(state), before, acct.storage, acct.balance, {},
        ))


def replayer(registry: Registry) -> Callable[[StepRecord], tuple[Value, tuple[Operation, ...]]]:
    """A function that re-runs an Op record's step function from its recorded
    inputs and returns the storage and (src-stamped) emissions the step
    produces on replay. Every record it replays goes through one view, whose
    queries read the record's readings and whose writes go nowhere, except a
    txmem write, which later txmem reads of the same step see."""
    seen: dict[str, Value] = {}

    def served(query: str):
        name, _, untag = READINGS[query]
        if name not in seen:
            raise ScenarioError(f"replay asked for unrecorded reading {name!r}")
        return untag(seen[name])

    answers = {query: partial(served, query) for query in READINGS}
    answers.update(set_txmem=partial(seen.__setitem__, READINGS["txmem"][0]), set_fail=lambda value: None)
    view = ContextView(Context(), "", None, frozenset(), Pending(), UNIT, answers=answers)

    def replay(record: StepRecord) -> tuple[Value, tuple[Operation, ...]]:
        if record.kind is not RecordKind.OP or record.executed is None:
            raise ScenarioError("only operation records can be replayed")
        contract = registry[record.subject]
        seen.clear()
        seen.update(record.readings)
        view.readings.clear()
        view.effects.clear()
        view.self_addr, view.contract, view.storage = record.subject, contract, record.storage_before
        op = record.executed
        result = contract.step(view, op.method, op.param, op.money, record.storage_before, record.balance_seen)
        if isinstance(result, StepFail):
            raise ContractError(result.reason)
        return result.new_storage, stamp(result.emitted, record.subject)

    return replay
