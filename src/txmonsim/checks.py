"""Trace and outcome verifiers.

Each checker returns a list of problem strings (empty = clean) so suite
runners can aggregate them into reports and tests can assert emptiness.
"""

from __future__ import annotations

from itertools import pairwise
from typing import Optional

from .core import (
    Aborted,
    Address,
    ChainState,
    Committed,
    MonitorMode,
    Pending,
    RecordKind,
    Registry,
    SchedulerKind,
    Trace,
    digest,
)
from .engine import EMIT_COST, OP_COST, TxResult, replayer


def check_queue_laws(trace: Trace) -> list[str]:
    """Each record starts from the queue the previous one left, the first
    from the external operation alone. An op record executes the queue's
    head and leaves `before.drop().push(emitted, front=dfs)`: emitted ++ rest
    under DFS, rest ++ emitted under BFS. Every other record leaves the queue
    as it found it. Exact. On the engine's traces, whose queues share their
    nodes, a record costs O(1) apart from the amortized joins of a BFS back;
    on records built elsewhere, O(queue).
    Each comparison tests identity first, since engine records share their
    queues and operations."""
    problems = []
    dfs = trace.meta.scheduler is SchedulerKind.DFS
    previous = Pending((trace.meta.external,))
    for r in trace.records:
        before, after = r.queue_before, r.queue_after
        if before is not previous and before != previous:
            problems.append(f"record {r.index}: queue does not continue the previous record")
        previous, expect = after, before
        if r.kind is RecordKind.OP:
            if not before:
                problems.append(f"record {r.index}: op record starts from an empty queue")
                continue
            head = before.head()
            if head is not r.executed and head != r.executed:
                problems.append(f"record {r.index}: executed op is not the queue head")
            expect = before.drop().push(r.emitted, front=dfs)
        if after is not expect and after != expect:
            problems.append(
                f"record {r.index}: {r.kind.value} breaks the {trace.meta.scheduler.value} queue law"
            )
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


# The records the monitor law orders: all but the end-phase mechanism records.
_SHAPED = frozenset(RecordKind) - {RecordKind.HOOKUP, RecordKind.FAIL_BIT_CHECK}


def _op_shape(
    registry: Registry, mode: MonitorMode, subject: Address, first_visit: bool
) -> list[tuple[RecordKind, Address]]:
    """The records one operation at `subject` calls for: [init] [begin] op [end]."""
    contract = registry.get(subject)
    hooked = contract is not None and mode is not MonitorMode.NONE
    kinds = []
    if hooked and first_visit and mode is MonitorMode.TRANSACTION and contract.monitored:
        kinds.append(RecordKind.INIT)
    if hooked and contract.begin is not None:
        kinds.append(RecordKind.BEGIN)
    kinds.append(RecordKind.OP)
    if hooked and contract.end is not None:
        kinds.append(RecordKind.END)
    return [(kind, subject) for kind in kinds]


def check_monitor_shape(result: TxResult, registry: Registry) -> list[str]:
    """The init/begin/op/end/term records are exactly those the op records
    call for: each op its `_op_shape`, then one term per init, in the same
    order. An aborted trace may stop early: it is a prefix of that, or every
    op's records followed by the opening hooks of a step that never reached
    its op."""
    mode = result.trace.meta.monitor_mode
    found = [r for r in result.trace.records if r.kind in _SHAPED]
    # A visited contract's shape after its first op, built at its second.
    later: dict[Address, Optional[list]] = {}
    steps: list[tuple[RecordKind, Address]] = []
    for r in found:
        if r.kind is RecordKind.OP:
            shape = later.get(r.subject)
            if shape is None:
                first = r.subject not in later
                shape = _op_shape(registry, mode, r.subject, first)
                later[r.subject] = None if first else shape
            steps += shape
    law = steps + [(RecordKind.TERM, a) for kind, a in steps if kind is RecordKind.INIT]
    aborted = isinstance(result.outcome, Aborted)
    if aborted and len(found) > len(steps) and found[len(steps)].kind is not RecordKind.TERM:
        a = found[len(steps)].subject
        shape = _op_shape(registry, mode, a, a not in later)
        law = steps + shape[: shape.index((RecordKind.OP, a))]
    mismatches = (i for i, (r, want) in enumerate(zip(found, law)) if (r.kind, r.subject) != want)
    i = next(mismatches, min(len(found), len(law)))
    if i == len(found) and (aborted or i == len(law)):
        return []
    r = found[i] if i < len(found) else None
    where = f"record {r.index}: {r.kind.value} {r.subject}" if r else "trace ends"
    wanted = f"{law[i][0].value} {law[i][1]}" if i < len(law) else "nothing more"
    return [f"{where} where the monitor law calls for {wanted}"]


_HOOKS = frozenset({RecordKind.BEGIN, RecordKind.END, RecordKind.INIT, RecordKind.TERM})


def check_hook_isolation(trace: Trace) -> list[str]:
    """Contract storages never change across hook records."""
    problems = []
    for previous, r in pairwise(trace.records):
        if r.kind in _HOOKS and previous.storage_digest != r.storage_digest:
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
    """Re-run recorded steps from their recorded inputs, all through one
    replay view; pure steps must reproduce their storage result and
    emissions exactly, and a replay that raises is a problem too."""
    problems = []
    replay = replayer(registry)
    for r in trace.records:
        if r.kind is not RecordKind.OP:
            continue
        try:
            new_storage, emitted = replay(r)
        except Exception as exc:
            problems.append(f"record {r.index}: replay failed: {type(exc).__name__}: {exc}")
            continue
        if new_storage != r.storage_after:
            problems.append(f"record {r.index}: replay produced different storage")
        if emitted != r.emitted:
            problems.append(f"record {r.index}: replay produced different emissions")
    return problems


def check_all(registry: Registry, pre: ChainState, result: TxResult) -> list[str]:
    problems = []
    problems += check_queue_laws(result.trace)
    problems += check_gas(result.trace)
    problems += check_monitor_shape(result, registry)
    problems += check_hook_isolation(result.trace)
    problems += check_conservation(pre, result)
    problems += check_replay(registry, result.trace)
    return problems
