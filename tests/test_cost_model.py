"""Deterministic cost counters per trace record.

Wall time on a shared machine drifts; these counts do not. For one forwarder
transaction they count, per trace record, the Python calls (`sys.setprofile`
`call` and `c_call` events) of `Engine.run_transaction` and of `check_all`,
the bytes handed to SHA-256, and the account entries that state updates
copy. The targets are ROADMAP item 1's: the cost of a record stays flat as
the queue grows and as the account count grows.
"""

from __future__ import annotations

import hashlib
import sys
from functools import lru_cache

import pytest

from conftest import CountingSha256
from txmonsim import core
from txmonsim.checks import check_all
from txmonsim.contracts import build, callspec
from txmonsim.core import Account, ChainState, Operation, SchedulerKind, VSeq
from txmonsim.engine import Engine, EngineConfig


def fanout_tx(n: int, sinks: int, scheduler: SchedulerKind = SchedulerKind.DFS):
    """A forwarder emitting `n` calls spread over `sinks` sink accounts, as
    in `perfbench/reference.py`, except that each call carries one unit, so
    that every step changes the state."""
    sink = build("sink_C", {}, 0).contract
    registry = {"B": build("forwarder_B", {}, 0).contract}
    accounts = {"B": Account(), "ext": Account(balance=n)}
    for i in range(sinks):
        registry[f"S{i}"] = sink
        accounts[f"S{i}"] = Account()
    plan = VSeq(tuple(callspec(f"S{i % sinks}", money=1) for i in range(n)))
    engine = Engine(registry, EngineConfig(scheduler=scheduler, gas_limit=2 * n + 10))
    op = Operation(dest="B", src="ext", method="run", param=plan, money=n)
    return engine, ChainState(accounts), op


def _profiled(fn):
    """`fn()` and the Python and C calls it made."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, calls


@lru_cache(maxsize=None)
def per_record(n: int, sinks: int) -> dict[str, float]:
    engine, state, op = fanout_tx(n, sinks)
    core._value_blob.cache_clear()
    result, run_calls = _profiled(lambda: engine.run_transaction(state, op))
    problems, check_calls = _profiled(lambda: check_all(engine.registry, state, result))
    assert result.committed and problems == []

    core._value_blob.cache_clear()
    hashed, update, copied = CountingSha256(), ChainState._update, [0]

    def counting_update(self, changes):
        copied[0] += len(self._accounts)
        return update(self, changes)

    core.hashlib, ChainState._update = hashed, counting_update
    try:
        engine.run_transaction(state, op)
    finally:
        core.hashlib, ChainState._update = hashlib, update
    records = len(result.trace.records)
    return {
        "run_transaction calls": run_calls / records,
        "check_all calls": check_calls / records,
        "bytes hashed": hashed.bytes / records,
        "accounts copied": copied[0] / records,
    }


@pytest.mark.parametrize("counter", ["run_transaction calls", "check_all calls"])
def test_calls_per_record_are_flat_in_the_queue_length(counter):
    short, long = per_record(100, 1)[counter], per_record(4000, 1)[counter]
    assert long <= 1.1 * short, (short, long)


@pytest.mark.parametrize("counter", ["run_transaction calls", "check_all calls"])
def test_calls_per_record_are_flat_in_the_account_count(counter):
    few, many = per_record(500, 10)[counter], per_record(500, 1000)[counter]
    assert many <= 1.2 * few, (few, many)


@pytest.mark.parametrize(
    "counter",
    [
        pytest.param(
            "bytes hashed",
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP 1(b)"),
        ),
        pytest.param(
            "accounts copied",
            marks=pytest.mark.xfail(strict=True, reason="ROADMAP 1(c)"),
        ),
    ],
)
def test_state_work_per_record_is_flat_in_the_account_count(counter):
    few, many = per_record(500, 10)[counter], per_record(500, 1000)[counter]
    assert many <= 1.2 * few, (few, many)
