"""Contract-to-contract compilers between execution mechanisms.

Each transformer takes a contract written against one mechanism (or against
monitor hooks) and produces a contract with observably equal behaviour that
uses a different mechanism. They are wrappers over the step function, not
source rewrites: the wrapped step simulates the original's mechanism queries,
keeps any bookkeeping in extra storage fields, and projects back to the
original storage for differential comparison.

Where the original semantics settles money transfers when the pending
operation executes (not when it is emitted), the monitor and hookup
simulations evaluate their final checks against an adjusted balance
start + received - emitted, which equals the real balance once every pending
transfer has run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from .contracts import call
from .core import (
    Address,
    ContractDef,
    ContractError,
    Mechanism,
    Operation,
    ScenarioError,
    StepOk,
    StepResult,
    UNIT,
    VAmt,
    VBool,
    VInt,
    VRec,
    Value,
    as_amt,
    as_bool,
    as_int,
    as_rec,
)

FAIL_POLL = "__fail_poll"
USTORE_POLL = "__ustore_poll"
USTORE_CHECK = "__ustore_check"


class TransformRefused(ScenarioError):
    """The input contract is outside the transformer's domain."""


@dataclass(frozen=True)
class TransformedContract:
    wrapped: ContractDef
    project: Callable[[Value], Value]
    wrap_storage: Callable[..., Value]


def _require_uses(c: ContractDef, allowed: frozenset[Mechanism], name: str) -> None:
    extra = c.mechanism_uses - allowed
    if extra:
        raise TransformRefused(
            f"{name} needs a contract using only {sorted(m.value for m in allowed)}, "
            f"got extra {sorted(m.value for m in extra)}"
        )


def _stamp(emitted: tuple[Operation, ...], addr: Address) -> tuple[Operation, ...]:
    return tuple(replace(e, src=addr) for e in emitted)


def _transformed(
    c: ContractDef,
    step,
    uses,
    project: Optional[str] = None,
    layout: Optional[Callable[[Value, Value], dict]] = None,
    **changes,
) -> TransformedContract:
    """Wrap `c` with a new step and mechanism set. Without a `layout` the
    storage is shared as is; with one, the wrapped storage is the record
    `layout(storage, monitor_storage)` and the projection reads its field
    `project`."""
    wrapped = replace(c, step=step, mechanism_uses=frozenset(uses), **changes)
    if layout is None:
        return TransformedContract(wrapped, lambda s: s, lambda s, ms=UNIT: s)
    return TransformedContract(
        wrapped,
        lambda s: as_rec(s).get(project),  # type: ignore[return-value]
        lambda s, ms=UNIT: VRec(layout(s, ms)),
    )


def _ledger(first: bool, s: VRec, balance: int, money: int) -> tuple[int, int, int]:
    """Pending-transfer bookkeeping (starting balance, received, sent) after
    receiving `money`: started afresh on a transaction's first call."""
    if first:
        return balance - money, money, 0
    return as_amt(s.get("bal0")), as_amt(s.get("recv")) + money, as_amt(s.get("sent"))


def _ledger_fields(bal0: int, recv: int, sent: int) -> dict[str, Value]:
    return {"bal0": VAmt(bal0), "recv": VAmt(recv), "sent": VAmt(sent)}


# ---------------------------------------------------------------------------
# Equivalence cycle: first / count / txmem / bstore


def sim_count_via_first(c: ContractDef) -> TransformedContract:
    """Serve count queries from a storage counter reset whenever first is
    true: 1 on the first call of a transaction, previous+1 afterwards."""
    _require_uses(c, frozenset({Mechanism.COUNT}), "sim_count_via_first")

    def step(view, method, param, money, storage, balance) -> StepResult:
        s = as_rec(storage)
        n = 1 if view.first else as_int(s.get("sim_count")) + 1
        res = c.step(view.derive(count=lambda: n), method, param, money, s.get("base"), balance)
        if not isinstance(res, StepOk):
            return res
        return StepOk(VRec({"base": res.new_storage, "sim_count": VInt(n)}), res.emitted)

    return _transformed(
        c, step, {Mechanism.FIRST}, "base", lambda s, ms: {"base": s, "sim_count": VInt(0)}
    )


def sim_first_via_count(c: ContractDef) -> TransformedContract:
    """Serve first queries as `count == 1` (count includes the running call)."""
    _require_uses(c, frozenset({Mechanism.FIRST}), "sim_first_via_count")

    def step(view, method, param, money, storage, balance) -> StepResult:
        derived = view.derive(first=lambda: view.count == 1)
        return c.step(derived, method, param, money, storage, balance)

    return _transformed(c, step, {Mechanism.COUNT})


def sim_first_via_txmem(c: ContractDef) -> TransformedContract:
    """A volatile flag starts true and is lowered at the end of every method,
    so it reads true exactly on the first interaction of a transaction."""
    _require_uses(c, frozenset({Mechanism.FIRST}), "sim_first_via_txmem")

    def step(view, method, param, money, storage, balance) -> StepResult:
        derived = view.derive(first=lambda: as_bool(view.txmem))
        res = c.step(derived, method, param, money, storage, balance)
        if isinstance(res, StepOk):
            view.set_txmem(VBool(False))
        return res

    return _transformed(c, step, {Mechanism.TXMEM}, txmem_init=lambda storage: VBool(True))


def sim_txmem_via_first(c: ContractDef) -> TransformedContract:
    """Keep a copy of the volatile segment in storage, rebuilt from the
    original initializer whenever first is true."""
    _require_uses(c, frozenset({Mechanism.TXMEM}), "sim_txmem_via_first")
    if c.txmem_init is None:
        raise TransformRefused("sim_txmem_via_first needs a txmem initializer")

    def step(view, method, param, money, storage, balance) -> StepResult:
        s = as_rec(storage)
        base = s.get("base")
        buf = [c.txmem_init(base) if view.first else s.get("sim_txmem")]
        res = c.step(
            view.derive(txmem=lambda: buf[0], set_txmem=lambda v: buf.__setitem__(0, v)),
            method, param, money, base, balance,
        )
        if not isinstance(res, StepOk):
            return res
        return StepOk(VRec({"base": res.new_storage, "sim_txmem": buf[0]}), res.emitted)

    return _transformed(
        c, step, {Mechanism.FIRST}, "base", lambda s, ms: {"base": s, "sim_txmem": UNIT},
        txmem_init=None,
    )


def sim_bstore_via_first(c: ContractDef) -> TransformedContract:
    """Apply the bounded hookup eagerly after every method, parking the result
    in a side field; the live storage adopts it at the start of the next
    transaction. The side field is the storage an outside comparison reads."""
    _require_uses(c, frozenset({Mechanism.BSTORE}), "sim_bstore_via_first")
    if c.bstore_hook is None:
        raise TransformRefused("sim_bstore_via_first needs a bounded hookup")
    hook = c.bstore_hook

    def step(view, method, param, money, storage, balance) -> StepResult:
        s = as_rec(storage)
        base = s.get("s_hookup") if view.first else s.get("base")
        res = c.step(view, method, param, money, base, balance)
        if not isinstance(res, StepOk):
            return res
        parked = hook(res.new_storage, balance)
        return StepOk(VRec({"base": res.new_storage, "s_hookup": parked}), res.emitted)

    return _transformed(
        c, step, {Mechanism.FIRST}, "s_hookup", lambda s, ms: {"base": s, "s_hookup": s},
        bstore_hook=None,
    )


def sim_first_via_bstore(c: ContractDef) -> TransformedContract:
    """A storage flag lowered by every invocation and raised again by the
    bounded hookup reads true exactly on the first call of a transaction."""
    _require_uses(c, frozenset({Mechanism.FIRST}), "sim_first_via_bstore")

    def step(view, method, param, money, storage, balance) -> StepResult:
        s = as_rec(storage)
        flag = as_bool(s.get("b_fst"))
        res = c.step(view.derive(first=lambda: flag), method, param, money, s.get("base"), balance)
        if not isinstance(res, StepOk):
            return res
        return StepOk(VRec({"base": res.new_storage, "b_fst": VBool(False)}), res.emitted)

    def raise_flag(storage: Value, balance: int) -> Value:
        return as_rec(storage).set("b_fst", VBool(True))

    return _transformed(
        c, step, {Mechanism.BSTORE}, "base", lambda s, ms: {"base": s, "b_fst": VBool(True)},
        bstore_hook=raise_flag,
    )


# ---------------------------------------------------------------------------
# Fail bits via unbounded hookup


def sim_fail_via_ustore(c: ContractDef) -> TransformedContract:
    """Mirror the fail bit in a storage field; the unbounded hookup fails the
    transaction when the mirrored bit is still raised at the end."""
    _require_uses(c, frozenset({Mechanism.FAIL}), "sim_fail_via_ustore")

    def step(view, method, param, money, storage, balance) -> StepResult:
        s = as_rec(storage)
        bit = [as_bool(s.get("fl"))]
        res = c.step(
            view.derive(set_fail=lambda v: bit.__setitem__(0, v)),
            method, param, money, s.get("base"), balance,
        )
        if not isinstance(res, StepOk):
            return res
        return StepOk(VRec({"base": res.new_storage, "fl": VBool(bit[0])}), res.emitted)

    def hookup(storage: Value, balance: int) -> Value:
        if as_bool(as_rec(storage).get("fl")):
            raise ContractError("mirrored fail bit raised")
        return storage

    return _transformed(
        c, step, {Mechanism.USTORE}, "base", lambda s, ms: {"base": s, "fl": VBool(False)},
        ustore_hook=hookup,
    )


# ---------------------------------------------------------------------------
# Transaction monitors from first + fail


def monitor_via_first_fail(c: ContractDef) -> TransformedContract:
    """Inline a monitored contract's hooks into its methods on a first+fail
    engine: run init when first is true, begin/end around the body, and after
    every method evaluate term against the balance adjusted for emitted but
    not yet executed transfers, recording the verdict in the fail bit. The
    last evaluation in the transaction is the one that counts.
    """
    if not c.monitored:
        raise TransformRefused("monitor_via_first_fail needs a monitored contract")
    if Mechanism.FAIL in c.mechanism_uses:
        raise TransformRefused("contract already owns its fail bit")

    def step(view, method, param, money, storage, balance) -> StepResult:
        s = as_rec(storage)
        first = view.first
        bal0, recv, sent = _ledger(first, s, balance, money)
        mon = s.get("mon")
        if first and c.init is not None:
            mon = c.init(s.get("base"), bal0, mon)
        if c.begin is not None:
            mon = c.begin(method, param, money, mon)
        res = c.step(view, method, param, money, s.get("base"), balance)
        if not isinstance(res, StepOk):
            return res
        # The inlined end hook sees the emissions as the engine would stamp them.
        emitted = _stamp(res.emitted, view.self_addr)
        sent += sum(e.money for e in emitted)
        if c.end is not None:
            mon = c.end(emitted, res.new_storage, mon)
        rejected = False
        if c.term is not None:
            try:
                c.term(res.new_storage, bal0 + recv - sent, mon)
            except ContractError:
                rejected = True
        view.set_fail(rejected)
        fields = {"base": res.new_storage, "mon": mon, **_ledger_fields(bal0, recv, sent)}
        return StepOk(VRec(fields), emitted)

    return _transformed(
        c, step, c.mechanism_uses | {Mechanism.FIRST, Mechanism.FAIL},
        "base", lambda s, ms: {"base": s, "mon": ms, **_ledger_fields(0, 0, 0)},
        init=None, begin=None, end=None, term=None,
    )


def monitor_storage_of(transformed_storage: Value) -> Value:
    """The inlined monitor storage of a monitor_via_first_fail contract."""
    return as_rec(transformed_storage).get("mon")  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# BFS constructions: recurring operations


def sim_fail_via_recurring_bfs(c: ContractDef) -> TransformedContract:
    """Fail bits on a bare BFS engine: mirror the bit in storage and keep one
    recurring poll alive while it is raised. A bit still raised when everything
    else has drained leaves the poll re-injecting itself until gas runs out."""
    _require_uses(c, frozenset({Mechanism.FAIL}), "sim_fail_via_recurring_bfs")

    def step(view, method, param, money, storage, balance) -> StepResult:
        s = as_rec(storage)
        if method == FAIL_POLL:
            if as_bool(s.get("fl")):
                return StepOk(s, (call(view.self_addr, FAIL_POLL, recurring=True),))
            return StepOk(s.set("poll", VBool(False)))
        bit = [as_bool(s.get("fl"))]
        res = c.step(
            view.derive(set_fail=lambda v: bit.__setitem__(0, v)),
            method, param, money, s.get("base"), balance,
        )
        if not isinstance(res, StepOk):
            return res
        emitted = res.emitted
        poll = as_bool(s.get("poll"))
        if bit[0] and not poll:
            emitted = emitted + (call(view.self_addr, FAIL_POLL, recurring=True),)
            poll = True
        return StepOk(
            VRec({"base": res.new_storage, "fl": VBool(bit[0]), "poll": VBool(poll)}),
            emitted,
        )

    return _transformed(
        c, step, (), "base",
        lambda s, ms: {"base": s, "fl": VBool(False), "poll": VBool(False)},
        recurring_methods=c.recurring_methods | {FAIL_POLL},
    )


def sim_ustore_via_first_bfs(c: ContractDef) -> TransformedContract:
    """Unbounded hookup on BFS + first: evaluate the hookup preventively after
    every method against a shadow copy of the storage, flushing the shadow into
    the live storage at the start of the next transaction. A failing hookup is
    simulated by a recurring poll that exhausts gas unless a later method makes
    the hookup pass. The hookup sees the pending-transfer-adjusted balance,
    which is the balance it would see at the real end of the transaction."""
    _require_uses(c, frozenset({Mechanism.USTORE}), "sim_ustore_via_first_bfs")
    if c.ustore_hook is None:
        raise TransformRefused("sim_ustore_via_first_bfs needs an unbounded hookup")
    hook = c.ustore_hook

    def evaluate(live: Value, adjusted: int):
        # A negative adjusted balance means emitted transfers overdraw the
        # contract: the overdrawing transfer aborts the transaction, or a
        # later receipt lets a later evaluation pass. This one does not.
        if adjusted < 0:
            return None, False
        try:
            return hook(live, adjusted), True
        except ContractError:
            return None, False

    def step(view, method, param, money, storage, balance) -> StepResult:
        s = as_rec(storage)
        if method == USTORE_POLL:
            bal0, recv, sent = _ledger(False, s, balance, 0)
            parked, ok = evaluate(s.get("live"), bal0 + recv - sent)
            if ok:
                return StepOk(s.set("shadow", parked).set("poll", VBool(False)))
            return StepOk(s, (call(view.self_addr, USTORE_POLL, recurring=True),))
        first = view.first
        bal0, recv, sent = _ledger(first, s, balance, money)
        live = s.get("shadow") if first else s.get("live")
        poll = not first and as_bool(s.get("poll"))
        res = c.step(view, method, param, money, live, balance)
        if not isinstance(res, StepOk):
            return res
        emitted = res.emitted
        sent += sum(e.money for e in emitted)
        parked, ok = evaluate(res.new_storage, bal0 + recv - sent)
        shadow = s.get("shadow")
        if ok:
            shadow = parked
        elif not poll:
            emitted = emitted + (call(view.self_addr, USTORE_POLL, recurring=True),)
            poll = True
        fields = {"live": res.new_storage, "shadow": shadow, "poll": VBool(poll)}
        return StepOk(VRec({**fields, **_ledger_fields(bal0, recv, sent)}), emitted)

    return _transformed(
        c, step, {Mechanism.FIRST}, "shadow",
        lambda s, ms: {"live": s, "shadow": s, "poll": VBool(False), **_ledger_fields(0, 0, 0)},
        ustore_hook=None,
        recurring_methods=c.recurring_methods | {USTORE_POLL},
    )


def sim_ustore_via_queue_bfs(c: ContractDef) -> TransformedContract:
    """Unbounded hookup on BFS + queue info: one recurring self-check polls
    the pending queue and, once only recurring operations remain, runs the
    hookup against the live storage and real balance — failing explicitly
    instead of burning gas."""
    _require_uses(c, frozenset({Mechanism.USTORE}), "sim_ustore_via_queue_bfs")
    if c.ustore_hook is None:
        raise TransformRefused("sim_ustore_via_queue_bfs needs an unbounded hookup")
    hook = c.ustore_hook

    def step(view, method, param, money, storage, balance) -> StepResult:
        s = as_rec(storage)
        if method == USTORE_CHECK:
            if not view.queue:
                return StepOk(s, (call(view.self_addr, USTORE_CHECK, recurring=True),))
            new_base = hook(s.get("base"), balance)
            return StepOk(s.set("base", new_base).set("check", VBool(False)))
        res = c.step(view, method, param, money, s.get("base"), balance)
        if not isinstance(res, StepOk):
            return res
        emitted = res.emitted
        check = as_bool(s.get("check"))
        if not check:
            emitted = emitted + (call(view.self_addr, USTORE_CHECK, recurring=True),)
            check = True
        return StepOk(VRec({"base": res.new_storage, "check": VBool(check)}), emitted)

    return _transformed(
        c, step, {Mechanism.QUEUE}, "base", lambda s, ms: {"base": s, "check": VBool(False)},
        ustore_hook=None,
        recurring_methods=c.recurring_methods | {USTORE_CHECK},
    )
