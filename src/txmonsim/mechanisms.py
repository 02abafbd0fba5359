"""Per-operation mechanism surface and end-of-transaction mechanism phases.

Contracts see mechanisms only through a ContextView handed to their step
function: first/count/queue queries, the transaction-memory segment, and the
per-contract fail bit. Querying a mechanism the engine has disabled is a
contract failure, which lets tests prove a contract does *not* depend on it.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import (
    Address,
    ContractDef,
    ContractError,
    Context,
    Mechanism,
    ScenarioError,
    VBool,
    VInt,
    Value,
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


@dataclass
class ContextView:
    """Read surface handed to a step function for one operation.

    Mechanism effects (fail-bit writes, txmem writes) are buffered here and
    folded into the transaction context by the engine after a successful step;
    every query is also logged so traces carry what the contract actually saw.
    """

    ctx: Context
    self_addr: Address
    contract: ContractDef
    enabled: frozenset[Mechanism]
    pending: tuple
    storage: Value

    readings: dict[str, Value] = field(default_factory=dict)
    fail_write: Optional[bool] = None
    txmem_value: Optional[Value] = None

    # -- mechanism queries ---------------------------------------------------

    def _require(self, mech: Mechanism) -> None:
        if mech not in self.enabled:
            raise MechanismDisabled(mech, self.self_addr)

    @property
    def first(self) -> bool:
        """True iff the executing operation is this contract's first in the
        current transaction (the running count, inclusive, is one)."""
        self._require(Mechanism.FIRST)
        value = self.ctx.count_of(self.self_addr) == 1
        self.note_reading("first", VBool(value))
        return value

    @property
    def count(self) -> int:
        """Invocations of this contract started so far this transaction,
        including the executing one."""
        self._require(Mechanism.COUNT)
        value = self.ctx.count_of(self.self_addr)
        self.note_reading("count", VInt(value))
        return value

    @property
    def queue(self) -> bool:
        """True iff every pending operation (the executing one excluded) is a
        recurring operation, i.e. no further inter-contract interaction."""
        self._require(Mechanism.QUEUE)
        value = all(op.recurring for op in self.pending)
        self.note_reading("queue", VBool(value))
        return value

    def set_fail(self, value: bool) -> None:
        """Assign this contract's fail bit; any bit still true when the
        transaction drains aborts it."""
        self._require(Mechanism.FAIL)
        self.fail_write = bool(value)

    @property
    def txmem(self) -> Value:
        self._require(Mechanism.TXMEM)
        if self.txmem_value is None:
            current = self.ctx.txmem.get(self.self_addr)
            if current is None:
                if self.contract.txmem_init is None:
                    raise ContractError(
                        f"contract {self.self_addr} reads txmem without an initializer"
                    )
                current = self.contract.txmem_init(self.storage)
            self.txmem_value = current
        self.note_reading("txmem_in", self.txmem_value)
        return self.txmem_value  # type: ignore[return-value]

    def set_txmem(self, value: Value) -> None:
        self._require(Mechanism.TXMEM)
        self.txmem_value = value

    # -- bookkeeping -----------------------------------------------------------

    def note_reading(self, name: str, value: Value) -> None:
        """Record a (possibly simulated) mechanism reading for the trace.
        First read wins: replays and observation diffs see the original."""
        self.readings.setdefault(name, value)


class DerivedView:
    """A step view built over another: the given callables answer the
    `first`, `count`, `queue` and `txmem` queries (called with no argument)
    and take the `set_txmem`/`set_fail` writes; every other read falls
    through to `base`. An answered query is noted on `base` under the name
    and tag a `ContextView` logs it with, so traces carry the simulated
    reading. Over an engine view, a query against a mechanism the engine
    really disables still reaches it and faults."""

    READINGS: dict[str, tuple[str, Optional[Callable]]] = {
        "first": ("first", VBool),
        "count": ("count", VInt),
        "queue": ("queue", VBool),
        "txmem": ("txmem_in", None),
    }
    MEMBERS = frozenset(READINGS) | {"set_txmem", "set_fail"}

    def __init__(self, base, **overrides: Callable):
        if not self.MEMBERS.issuperset(overrides):
            raise TypeError(f"cannot override {sorted(overrides.keys() - self.MEMBERS)}")
        self._base = base
        self._overrides = overrides

    def __getattr__(self, name: str):
        override = self._overrides.get(name)
        if override is None:
            return getattr(self._base, name)
        reading = self.READINGS.get(name)
        if reading is None:
            return override
        value = override()
        key, tag = reading
        self._base.note_reading(key, value if tag is None else tag(value))
        return value


def fold_effects(ctx: Context, view: ContextView) -> Context:
    """Apply a successful step's buffered mechanism effects to the context."""
    if view.txmem_value is not None:
        ctx = ctx.with_txmem(view.self_addr, view.txmem_value)
    if view.fail_write is not None:
        ctx = ctx.with_fail_bit(view.self_addr, view.fail_write)
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
