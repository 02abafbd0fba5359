"""Trace and outcome verifiers.

Each checker returns a list of problem strings (empty = clean) so suite
runners can aggregate them into reports and tests can assert emptiness.
"""

from __future__ import annotations

from .core import (
    Aborted,
    Address,
    ChainState,
    Committed,
    MonitorMode,
    RecordKind,
    Registry,
    SchedulerKind,
    Trace,
    digest,
)
from .engine import EMIT_COST, OP_COST, TxResult, replay_step


def check_queue_laws(trace: Trace) -> list[str]:
    """DFS: queue' = emitted ++ rest. BFS: queue' = rest ++ emitted. Exact."""
    problems = []
    for r in trace.records:
        if r.kind is not RecordKind.OP:
            if r.queue_before != r.queue_after:
                problems.append(f"record {r.index}: hook step changed the queue")
            continue
        rest = r.queue_before[1:]
        if trace.meta.scheduler is SchedulerKind.DFS:
            expect = r.emitted + rest
        else:
            expect = rest + r.emitted
        if r.queue_after != expect:
            problems.append(
                f"record {r.index}: queue law violated for {trace.meta.scheduler.value}"
            )
        if r.queue_before[:1] != (r.executed,):
            problems.append(f"record {r.index}: executed op is not the queue head")
    return problems


def check_gas(trace: Trace) -> list[str]:
    """Each record starts from the gas the previous one left, the first from
    the limit. An op record spends OP_COST plus EMIT_COST per emitted
    operation; every other record spends nothing."""
    problems = []
    level = trace.meta.gas_limit
    for r in trace.records:
        if r.gas_before != level:
            problems.append(f"record {r.index}: gas {r.gas_before} does not continue {level}")
        spent = r.gas_before - r.gas_after
        law = OP_COST + EMIT_COST * len(r.emitted) if r.kind is RecordKind.OP else 0
        if spent != law:
            problems.append(f"record {r.index}: {r.kind.value} spent {spent} gas, law says {law}")
        level = r.gas_after
    return problems


def check_monitor_shape(trace: Trace, registry: Registry) -> list[str]:
    """Init at most once and strictly before the first Op of its contract;
    Begin/Op/End contiguous where those hooks exist; all Terms after the last
    Op, in first-visit order."""
    problems = []
    monitored = {a for a, c in registry.items() if c.monitored}
    records = trace.records
    inits: dict[Address, int] = {}
    first_op: dict[Address, int] = {}
    visit_order: list[Address] = []
    last_op_index = -1
    for r in records:
        if r.kind is RecordKind.INIT:
            if r.subject in inits:
                problems.append(f"record {r.index}: second init for {r.subject}")
            inits[r.subject] = r.index
        elif r.kind is RecordKind.OP:
            last_op_index = r.index
            if r.subject not in first_op:
                first_op[r.subject] = r.index
                visit_order.append(r.subject)

    if trace.meta.monitor_mode is MonitorMode.TRANSACTION:
        for addr, idx in first_op.items():
            if addr in monitored:
                if addr not in inits:
                    problems.append(f"no init for monitored contract {addr}")
                elif inits[addr] > idx:
                    problems.append(f"init for {addr} after its first operation")
    for addr in inits:
        if addr not in first_op:
            problems.append(f"init without any operation for {addr}")

    if trace.meta.monitor_mode is not MonitorMode.NONE:
        for r in records:
            if r.kind is not RecordKind.OP:
                continue
            contract = registry.get(r.subject)
            if contract is None:
                continue
            before = records[r.index - 1] if r.index > 0 else None
            after = records[r.index + 1] if r.index + 1 < len(records) else None
            if contract.begin is not None and not (
                before and before.kind is RecordKind.BEGIN and before.subject == r.subject
            ):
                problems.append(f"record {r.index}: operation not preceded by begin")
            if contract.end is not None and not (
                after and after.kind is RecordKind.END and after.subject == r.subject
            ):
                problems.append(f"record {r.index}: operation not followed by end")

    term_subjects = [r.subject for r in records if r.kind is RecordKind.TERM]
    for r in records:
        if r.kind is RecordKind.TERM and r.index < last_op_index:
            problems.append(f"record {r.index}: term before the last operation")
    if trace.meta.monitor_mode is MonitorMode.TRANSACTION and term_subjects:
        expected_terms = [a for a in visit_order if a in monitored]
        if term_subjects != expected_terms[: len(term_subjects)]:
            problems.append(
                f"terms out of first-visit order: {term_subjects} vs {expected_terms}"
            )
    return problems


def check_hook_isolation(trace: Trace) -> list[str]:
    """Contract storages never change across hook records."""
    problems = []
    for i, r in enumerate(trace.records):
        if r.kind in (RecordKind.BEGIN, RecordKind.END, RecordKind.INIT, RecordKind.TERM):
            if i > 0 and trace.records[i - 1].storage_digest != r.storage_digest:
                problems.append(f"record {r.index}: hook step changed contract storage")
    return problems


def check_atomicity(pre: ChainState, pre_digest: str, result: TxResult) -> list[str]:
    """After an abort the observable state is the pre-state; rebuilding and
    re-digesting it must reproduce the digest taken before the run."""
    if isinstance(result.outcome, Aborted):
        if digest(ChainState(dict(pre.items()))) != pre_digest:
            return ["pre-state changed across an aborted transaction"]
    return []


def check_conservation(pre: ChainState, result: TxResult) -> list[str]:
    if isinstance(result.outcome, Committed):
        if pre.total_supply() != result.outcome.final.total_supply():
            return ["token supply changed across a committed transaction"]
    return []


def check_replay(registry: Registry, trace: Trace) -> list[str]:
    """Re-run recorded steps from their recorded inputs; pure steps must
    reproduce their storage result and emissions exactly."""
    problems = []
    ops = [r for r in trace.records if r.kind is RecordKind.OP]
    for r in ops:
        new_storage, emitted = replay_step(registry, r)
        if new_storage != r.storage_after:
            problems.append(f"record {r.index}: replay produced different storage")
        if emitted != r.emitted:
            problems.append(f"record {r.index}: replay produced different emissions")
    return problems


def check_all(registry: Registry, pre: ChainState, result: TxResult) -> list[str]:
    problems = []
    problems += check_queue_laws(result.trace)
    problems += check_gas(result.trace)
    problems += check_monitor_shape(result.trace, registry)
    problems += check_hook_isolation(result.trace)
    problems += check_conservation(pre, result)
    problems += check_replay(registry, result.trace)
    return problems
