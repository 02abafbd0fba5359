"""Per-operation mechanism surface and end-of-transaction mechanism phases.

Contracts see mechanisms only through the ContextView handed to their step
function: the first/count/queue/txmem queries and the set_fail/set_txmem
writes. The engine's view answers from the transaction context; querying a
mechanism the engine has disabled is a contract failure, which lets tests
prove a contract does *not* depend on it. A transformer derives a view that
answers some queries itself, and replay answers every query from a trace
record. `READINGS` names the reading each query is logged under.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from .core import (
    Address,
    ContractDef,
    ContractError,
    Context,
    Mechanism,
    Pending,
    ScenarioError,
    VBool,
    VInt,
    Value,
    as_bool,
    as_int,
)


class MechanismDisabled(ContractError):
    """Query against a mechanism the engine does not provide."""

    def __init__(self, mech: Mechanism, addr: Address):
        super().__init__(f"mechanism {mech.value!r} disabled (queried by {addr})")
        self.mech = mech


class BStoreBudgetError(ScenarioError):
    """A bounded storage hookup exceeded its step budget: an authoring error,
    reported as a diagnostic instead of a transaction abort."""


BSTORE_STEP_BUDGET = 10_000

_hook_meter: contextvars.ContextVar[Optional[list[int]]] = contextvars.ContextVar(
    "bstore_hook_meter", default=None
)


def hook_tick() -> None:
    """Charge one abstract step against the active bounded-hookup budget.

    Hook bodies with loops call this once per iteration; outside a bounded
    hookup it is a no-op.
    """
    meter = _hook_meter.get()
    if meter is None:
        return
    meter[0] += 1
    if meter[0] > BSTORE_STEP_BUDGET:
        raise BStoreBudgetError(
            f"bounded hookup exceeded {BSTORE_STEP_BUDGET} abstract steps"
        )


def run_bounded_hook(hook, storage: Value, balance: int, addr: Address) -> Value:
    """Run a bstore hook under the step budget. The hook has no failure
    outcome; anything it raises is an authoring diagnostic."""
    token = _hook_meter.set([0])
    try:
        return hook(storage, balance)
    except BStoreBudgetError:
        raise
    except Exception as exc:
        raise BStoreBudgetError(f"bounded hookup at {addr} raised: {exc}") from exc
    finally:
        _hook_meter.reset(token)


# Per query: the reading name a record carries, the tag the answer is logged
# with, and the reader that turns a logged reading back into the answer.
READINGS: dict[str, tuple[str, Callable[[Any], Value], Callable[[Value], Any]]] = {
    "first": ("first", VBool, as_bool),
    "count": ("count", VInt, as_int),
    "queue": ("queue", VBool, as_bool),
    "txmem": ("txmem_in", lambda value: value, lambda value: value),
}
_ANSWERABLE = frozenset(READINGS) | {"set_fail", "set_txmem"}


def _query(live: Callable) -> property:
    """The view query named after `live`: answered by `answers` if it names
    the query, else by `live`, and logged under the query's reading name.
    The first read wins: replays and observation diffs see the original."""
    query = live.__name__
    name, tag, _ = READINGS[query]

    def read(view: "ContextView"):
        answer = view.answers.get(query)
        value = live(view) if answer is None else answer()
        view.readings.setdefault(name, tag(value))
        return value

    return property(read, doc=live.__doc__)


@dataclass
class ContextView:
    """Read surface handed to a step function for one operation. Readings
    are logged so traces carry what the contract actually saw; writes are
    buffered in `effects`, by mechanism, until the engine folds them."""

    ctx: Context
    self_addr: Address
    contract: ContractDef
    enabled: frozenset[Mechanism]
    pending: Pending
    storage: Value

    readings: dict[str, Value] = field(default_factory=dict)
    effects: dict[Mechanism, Any] = field(default_factory=dict)
    answers: dict[str, Callable] = field(default_factory=dict)

    def derive(self, **answers: Callable) -> "ContextView":
        """A view whose named queries (called with no argument) or writes
        (called with the written value) are answered by the given callables.
        It keeps every other answer of this view and shares its reading log
        and write buffer."""
        unknown = answers.keys() - _ANSWERABLE
        if unknown:
            raise TypeError(f"cannot answer {sorted(unknown)}")
        return ContextView(
            self.ctx, self.self_addr, self.contract, self.enabled, self.pending, self.storage,
            self.readings, self.effects, {**self.answers, **answers},
        )

    def _require(self, mech: Mechanism) -> None:
        if mech not in self.enabled:
            raise MechanismDisabled(mech, self.self_addr)

    # -- mechanism queries and writes ------------------------------------------

    @_query
    def first(self) -> bool:
        """True iff the executing operation is this contract's first in the
        current transaction (the running count, inclusive, is one)."""
        self._require(Mechanism.FIRST)
        return self.ctx.count_of(self.self_addr) == 1

    @_query
    def count(self) -> int:
        """Invocations of this contract started so far this transaction,
        including the executing one."""
        self._require(Mechanism.COUNT)
        return self.ctx.count_of(self.self_addr)

    @_query
    def queue(self) -> bool:
        """True iff every pending operation (the executing one excluded) is a
        recurring operation, i.e. no further inter-contract interaction."""
        self._require(Mechanism.QUEUE)
        return all(op.recurring for op in self.pending)

    @_query
    def txmem(self) -> Value:
        """This contract's transaction-memory segment, as last written in
        this transaction, or else built by the contract's initializer."""
        self._require(Mechanism.TXMEM)
        current = self.effects.get(Mechanism.TXMEM, self.ctx.txmem.get(self.self_addr))
        if current is None:
            if self.contract.txmem_init is None:
                raise ContractError(f"contract {self.self_addr} reads txmem without an initializer")
            current = self.contract.txmem_init(self.storage)
        self.effects[Mechanism.TXMEM] = current
        return current

    def set_fail(self, value: bool) -> None:
        """Assign this contract's fail bit; any bit still true when the
        transaction drains aborts it."""
        self._write("set_fail", Mechanism.FAIL, bool(value))

    def set_txmem(self, value: Value) -> None:
        self._write("set_txmem", Mechanism.TXMEM, value)

    def _write(self, query: str, mech: Mechanism, value) -> None:
        answer = self.answers.get(query)
        if answer is not None:
            answer(value)
            return
        self._require(mech)
        self.effects[mech] = value


def fold_effects(ctx: Context, addr: Address, effects: Mapping[Mechanism, Any]) -> Context:
    """Apply a successful step's buffered mechanism writes at `addr` to the
    context. Iterating, not testing for each key, costs nothing when the step
    wrote nothing: a Mechanism key hashes in Python code."""
    for mech, value in effects.items():
        if mech is Mechanism.TXMEM:
            ctx = ctx.with_txmem(addr, value)
        else:
            ctx = ctx.with_fail_bit(addr, value)
    return ctx


def run_hookups(registry, state, visited, kind: Mechanism):
    """Run the storage hookups of `kind` for every visited contract that
    declares one, in first-visit order.

    Returns (state', applied, failed) where `applied` lists
    (address, storage_before, state_after) per executed hook, and `failed` is
    the address whose unbounded hookup rejected, if any. The hook's new
    storage and the balance it saw are the address's in state_after. Bounded
    hookups have no failure outcome; anything they raise is an authoring
    diagnostic, not a transaction abort.
    """
    applied = []
    for addr in visited:
        contract = registry.get(addr)
        if contract is None:
            continue
        hook = contract.bstore_hook if kind is Mechanism.BSTORE else contract.ustore_hook
        if hook is None:
            continue
        acct = state.get(addr)
        if kind is Mechanism.BSTORE:
            new_storage = run_bounded_hook(hook, acct.storage, acct.balance, addr)
        else:
            try:
                new_storage = hook(acct.storage, acct.balance)
            except ContractError:
                return state, applied, addr
        state = state.with_storage(addr, new_storage)
        applied.append((addr, acct.storage, state))
    return state, applied, None
