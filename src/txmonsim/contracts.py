"""Built-in contract library.

Lender variants implement the same flash-loan promise (no transaction may
lower the lender's balance, loans granted whenever that holds) with different
enforcement strategies: a defensive same-call check, transaction monitor
hooks, an unbounded storage hookup, first+fail bits, and BFS recurring
self-checks with and without queue inspection. Clients, forwarders and
probes provide the call patterns the counter-example suites need.

Plain money transfers are modelled as `receive` invocations carrying the
amount. Call/return is modelled with explicit continuation operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

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
    VAddr,
    VAmt,
    VInt,
    VRec,
    VText,
    Value,
    as_addr,
    as_amt,
    as_int,
    as_rec,
    as_seq,
    as_text,
    checked_int,
)


def call(
    dest: Address,
    method: str,
    param: Value = UNIT,
    money: int = 0,
    recurring: bool = False,
) -> Operation:
    """Build an emitted operation; the engine stamps the source address."""
    return Operation(
        dest=dest, src="", method=method, param=param, money=money, recurring=recurring
    )


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise ContractError(msg)


def methods(**table: Callable) -> Callable:
    """Dispatch a step function over a method table. Unknown methods fail the
    contract, matching partial-map lookup."""

    def step(view, method: str, param: Value, money: int, storage: Value, balance: int) -> StepResult:
        impl = table.get(method)
        if impl is None:
            raise ContractError(f"no method {method!r}")
        return impl(view, param, money, storage, balance)

    return step


def callspec(dest: Address, method: str = "ping", param: Value = UNIT, money: int = 0) -> VRec:
    """One entry of a forwarder plan."""
    return VRec(
        {
            "dest": VAddr(dest),
            "method": VText(method),
            "param": param,
            "money": VAmt(money),
        }
    )


@dataclass(frozen=True)
class Builtin:
    contract: ContractDef
    storage: Value = UNIT
    monitor_storage: Value = UNIT


Params = Mapping[str, object]


def _addr(params: Params, key: str) -> Address:
    try:
        value = params[key]
    except KeyError:
        raise ScenarioError(f"builtin needs address parameter {key!r}") from None
    if not isinstance(value, str):
        raise ScenarioError(f"builtin address parameter {key!r} is not a string: {value!r}")
    return value


def _amt(params: Params, key: str) -> int:
    try:
        value = params[key]
    except KeyError:
        raise ScenarioError(f"builtin needs amount parameter {key!r}") from None
    if type(value) is not int:
        raise ScenarioError(f"builtin amount parameter {key!r} is not an integer: {value!r}")
    return value


def _passive(view, param, money, storage, balance) -> StepResult:
    return StepOk(storage)


# ---------------------------------------------------------------------------
# Lenders


def _grant(param: Value, balance: int) -> tuple[Operation, int]:
    """The transfer and amount answering a loan request rec{dest, amount};
    a request above the lender's balance fails the contract."""
    r = as_rec(param)
    dest, amount = as_addr(r.get("dest")), as_amt(r.get("amount"))
    require(amount <= balance, "insufficient funds for loan")
    return call(dest, "receive", money=amount), amount


def _lend(view, param, money, storage, balance) -> StepResult:
    """Grant the loan; hooks outside the method enforce repayment."""
    return StepOk(storage, (_grant(param, balance)[0],))


def _baselined(view, storage: Value, balance: int) -> VRec:
    """The storage with its balance baseline reset on a transaction's first call."""
    s = as_rec(storage)
    return s.set("initial_balance", VAmt(balance)) if view.first else s


def _recheck(addr: Address) -> Operation:
    return call(addr, "check_balance", recurring=True)


def _receive_recheck(view, param, money, storage, balance) -> StepResult:
    return StepOk(storage, (_recheck(view.self_addr),))


def lender_naive(params: Params, balance: int) -> Builtin:
    """Defensive lender: demands the loan back before its own call frame ends.

    The return point of `lend` is modelled as an explicit self-continuation
    carrying the saved starting balance; under DFS it runs after the
    borrower's entire call tree, i.e. exactly at Solidity's post-transfer
    assert.
    """

    def lend(view, param, money, storage, balance):
        transfer, _ = _grant(param, balance)
        return StepOk(
            storage, (transfer, call(view.self_addr, "after_lend", param=VAmt(balance)))
        )

    def after_lend(view, param, money, storage, balance):
        require(balance >= as_amt(param), "loan not repaid within lend")
        return StepOk(storage)

    return Builtin(
        ContractDef(step=methods(lend=lend, after_lend=after_lend, receive=_passive))
    )


def lender_trmon(params: Params, balance: int) -> Builtin:
    """Lender guarded by transaction-monitor hooks: the starting balance is
    captured before its first operation and re-checked after the drain."""

    def init(storage, balance, ms):
        return VAmt(balance)

    def term(storage, balance, ms):
        require(balance >= as_amt(ms), "balance fell over the transaction")

    return Builtin(
        ContractDef(step=methods(lend=_lend, receive=_passive), init=init, term=term),
        monitor_storage=VAmt(0),
    )


def lender_ustore(params: Params, balance: int) -> Builtin:
    """Lender guarded by an unbounded storage hookup that asserts the balance
    did not drop and then re-baselines it."""

    def hookup(storage, balance):
        s = as_rec(storage)
        require(balance >= as_amt(s.get("initial_balance")), "loan not repaid")
        return s.set("initial_balance", VAmt(balance))

    return Builtin(
        ContractDef(
            step=methods(lend=_lend, receive=_passive),
            ustore_hook=hookup,
            mechanism_uses=frozenset({Mechanism.USTORE}),
        ),
        storage=VRec({"initial_balance": VAmt(balance)}),
    )


def lender_first_fail(params: Params, balance: int) -> Builtin:
    """Lender on first + fail bits: baseline on the first call, then keep the
    fail bit equal to "balance (net of the transfer being issued) is below the
    baseline". Repayments clear the bit; an unpaid loan leaves it set."""

    def _check(view, s: VRec, effective_balance: int) -> None:
        view.set_fail(effective_balance < as_amt(s.get("initial_balance")))

    def lend(view, param, money, storage, balance):
        s = _baselined(view, storage, balance)
        transfer, amount = _grant(param, balance)
        _check(view, s, balance - amount)
        return StepOk(s, (transfer,))

    def receive(view, param, money, storage, balance):
        s = as_rec(storage)
        _check(view, s, balance)
        return StepOk(s)

    return Builtin(
        ContractDef(
            step=methods(lend=lend, receive=receive),
            mechanism_uses=frozenset({Mechanism.FIRST, Mechanism.FAIL}),
        ),
        storage=VRec({"initial_balance": VAmt(balance)}),
    )


def lender_bfs_first(params: Params, balance: int) -> Builtin:
    """BFS lender on first: every method schedules a recurring self-check that
    re-injects itself while the balance is below the baseline, so an unpaid
    loan burns the rest of the gas."""

    def lend(view, param, money, storage, balance):
        s = _baselined(view, storage, balance)
        return StepOk(s, (_grant(param, balance)[0], _recheck(view.self_addr)))

    def check_balance(view, param, money, storage, balance):
        s = as_rec(storage)
        if balance < as_amt(s.get("initial_balance")):
            return StepOk(s, (_recheck(view.self_addr),))
        return StepOk(s)

    return Builtin(
        ContractDef(
            step=methods(lend=lend, receive=_receive_recheck, check_balance=check_balance),
            recurring_methods=frozenset({"check_balance"}),
            mechanism_uses=frozenset({Mechanism.FIRST}),
        ),
        storage=VRec({"initial_balance": VAmt(balance)}),
    )


def lender_bfs_queue(params: Params, balance: int) -> Builtin:
    """BFS lender on queue info: the recurring self-check polls until only
    recurring operations remain, then asserts the balance and re-baselines;
    the failing case aborts explicitly rather than by gas exhaustion."""

    def lend(view, param, money, storage, balance):
        return StepOk(storage, (_grant(param, balance)[0], _recheck(view.self_addr)))

    def check_balance(view, param, money, storage, balance):
        s = as_rec(storage)
        if view.queue:
            require(balance >= as_amt(s.get("initial_balance")), "loan not repaid")
            return StepOk(s.set("initial_balance", VAmt(balance)))
        return StepOk(s, (_recheck(view.self_addr),))

    return Builtin(
        ContractDef(
            step=methods(lend=lend, receive=_receive_recheck, check_balance=check_balance),
            recurring_methods=frozenset({"check_balance"}),
            mechanism_uses=frozenset({Mechanism.QUEUE}),
        ),
        storage=VRec({"initial_balance": VAmt(balance)}),
    )


# ---------------------------------------------------------------------------
# Clients and plumbing


def _loan_request(lender: Address, me: VAddr, amount: int) -> Operation:
    return call(lender, "lend", param=VRec({"dest": me, "amount": VAmt(amount)}))


Stage = Callable[[VAddr], tuple[Operation, ...]]


def _staged(lender: Address, amount: int, stages: tuple[Stage, ...]) -> Builtin:
    """Reactive client: `borrow_and_invest` requests `amount` from `lender`;
    the k-th payment it receives issues `stages[k](own address)`, and once
    the stages run out a payment issues nothing."""

    def borrow_and_invest(view, param, money, storage, balance):
        return StepOk(storage, (_loan_request(lender, VAddr(view.self_addr), amount),))

    def receive(view, param, money, storage, balance):
        s = as_rec(storage)
        stage = as_int(s.get("stage"))
        ops = stages[stage](VAddr(view.self_addr)) if stage < len(stages) else ()
        return StepOk(s.set("stage", VInt(stage + 1)), ops)

    return Builtin(
        ContractDef(step=methods(borrow_and_invest=borrow_and_invest, receive=receive)),
        storage=VRec({"stage": VInt(0)}),
    )


def client_two_loans(params: Params, balance: int) -> Builtin:
    """Straight-line client: borrow from both lenders, invest the sum, repay
    both — all five operations issued up front, repayments last."""
    l1, l2 = _addr(params, "l1"), _addr(params, "l2")
    sink = _addr(params, "sink")
    a1, a2 = _amt(params, "amount1"), _amt(params, "amount2")

    def borrow_and_invest(view, param, money, storage, balance):
        me = VAddr(view.self_addr)
        return StepOk(
            storage,
            (
                _loan_request(l1, me, a1),
                _loan_request(l2, me, a2),
                call(sink, "invest", param=me, money=a1 + a2),
                call(l1, "receive", money=a1),
                call(l2, "receive", money=a2),
            ),
        )

    return Builtin(
        ContractDef(step=methods(borrow_and_invest=borrow_and_invest, receive=_passive))
    )


def client_two_loans_staged(params: Params, balance: int) -> Builtin:
    """Reactive client: each arriving payment triggers the next move
    (second loan, then the investment, then both repayments), so the same
    behaviour plays out under either scheduler."""
    l1, l2 = _addr(params, "l1"), _addr(params, "l2")
    sink = _addr(params, "sink")
    a1, a2 = _amt(params, "amount1"), _amt(params, "amount2")
    return _staged(l1, a1, (
        lambda me: (_loan_request(l2, me, a2),),
        lambda me: (call(sink, "invest", param=me, money=a1 + a2),),
        lambda me: (call(l1, "receive", money=a1), call(l2, "receive", money=a2)),
    ))


def client_malicious(params: Params, balance: int) -> Builtin:
    """Borrows, invests, and never repays."""
    lender, sink = _addr(params, "l"), _addr(params, "sink")
    amount = _amt(params, "amount")
    return _staged(lender, amount, (lambda me: (call(sink, "invest", param=me, money=amount),),))


def client_partial(params: Params, balance: int) -> Builtin:
    """Borrows and repays less than it took; every sound lender must veto."""
    lender, sink = _addr(params, "l"), _addr(params, "sink")
    amount = _amt(params, "amount")
    repay = _amt(params, "repay_amount")
    if repay > amount:
        raise ScenarioError("partial client repays at most the loan")
    return _staged(lender, amount, (
        lambda me: (call(sink, "invest", param=me, money=amount),),
        lambda me: (call(lender, "receive", money=repay),),
    ))


def invest_sink(params: Params, balance: int) -> Builtin:
    """Takes an investment and pays the principal straight back (zero profit,
    so token supply stays conserved)."""

    def invest(view, param, money, storage, balance):
        return StepOk(storage, (call(as_addr(param), "receive", money=money),))

    return Builtin(ContractDef(step=methods(invest=invest, receive=_passive)))


# A plan entry's defaults, built once rather than per entry.
_PING, _NO_MONEY = VText("ping"), VAmt(0)


def forwarder_B(params: Params, balance: int) -> Builtin:
    """Replays whatever call plan its parameter carries; the building block
    for scripted external-operation shapes."""

    def run(view, param, money, storage, balance):
        ops = []
        for spec in as_seq(param):
            fields = dict(as_rec(spec).entries)
            ops.append(Operation(
                as_addr(fields.get("dest")), "", as_text(fields.get("method", _PING)),
                fields.get("param", UNIT), as_amt(fields.get("money", _NO_MONEY)),
            ))
        return StepOk(storage, tuple(ops))

    return Builtin(ContractDef(step=methods(run=run, ping=_passive)))


def sink_C(params: Params, balance: int) -> Builtin:
    """Accepts any call, emits nothing."""

    def step(view, method, param, money, storage, balance):
        return StepOk(storage)

    return Builtin(ContractDef(step=step))


def recursive_f(params: Params, balance: int) -> Builtin:
    """Self-recursing caller: `f(k)` re-invokes itself k times, then pings the
    target; `start` issues the recursion alongside one direct ping."""

    def _f(addr: Address, k: int, target: Address) -> Operation:
        return call(addr, "f", param=VRec({"k": VInt(k), "a": VAddr(target)}))

    def start(view, param, money, storage, balance):
        r = as_rec(param)
        k, a = as_int(r.get("k")), as_addr(r.get("a"))
        return StepOk(storage, (_f(view.self_addr, k, a), call(a, "ping")))

    def start3(view, param, money, storage, balance):
        a = as_addr(as_rec(param).get("a"))
        me = view.self_addr
        return StepOk(storage, (_f(me, 0, a), call(a, "ping"), _f(me, 0, a)))

    def call_a(view, param, money, storage, balance):
        return StepOk(storage, (call(as_addr(as_rec(param).get("a")), "ping"),))

    def f(view, param, money, storage, balance):
        r = as_rec(param)
        k, a = as_int(r.get("k")), as_addr(r.get("a"))
        if k > 0:
            return StepOk(storage, (_f(view.self_addr, k - 1, a),))
        return StepOk(storage, (call(a, "ping"),))

    return Builtin(
        ContractDef(step=methods(start=start, start3=start3, call_a=call_a, f=f))
    )


# ---------------------------------------------------------------------------
# Probes and policy contracts


def once_monitored_A(params: Params, balance: int) -> Builtin:
    """Contract monitored for being called exactly once: the monitor counts
    invocations and the final check rejects a count of one. Optional probes
    read mechanisms so traces carry what the contract could observe."""
    probe = tuple(params.get("probe", ()))  # type: ignore[arg-type]

    def ping(view, param, money, storage, balance):
        if "first" in probe:
            view.first
        if "count" in probe:
            view.count
        if "queue" in probe:
            view.queue
        return StepOk(storage)

    uses = frozenset(Mechanism(p) for p in probe)
    return Builtin(
        ContractDef(
            step=methods(ping=ping),
            init=lambda storage, balance, ms: VInt(0),
            begin=lambda method, param, money, ms: VInt(as_int(ms) + 1),
            end=lambda emitted, new_storage, ms: ms,
            term=lambda storage, balance, ms: require(
                as_int(ms) != 1, "called exactly once"
            ),
            mechanism_uses=uses,
        ),
        monitor_storage=VInt(0),
    )


def once_recurring_A(params: Params, balance: int) -> Builtin:
    """Recurring-operation attempt at the only-once check on plain BFS.

    Each ping bumps a persistent counter and, when the lifetime parity turns
    odd, launches a recurring watcher that re-injects itself until the parity
    moves — burning all gas when no further call arrives. Accepts one- vs
    two-call transactions correctly from a fresh state, but cannot tell a
    third call from a fresh first call, which is exactly the trap the
    counter-example suite exercises.
    """

    def ping(view, param, money, storage, balance):
        s = as_rec(storage)
        seq = as_int(s.get("seq", VInt(0))) + 1
        s = s.set("seq", checked_int(seq))
        ops = ()
        if seq % 2 == 1:
            ops = (call(view.self_addr, "watch", param=VInt(seq), recurring=True),)
        return StepOk(s, ops)

    def watch(view, param, money, storage, balance):
        s = as_rec(storage)
        if as_int(s.get("seq")) == as_int(param):
            return StepOk(s, (call(view.self_addr, "watch", param=param, recurring=True),))
        return StepOk(s)

    return Builtin(
        ContractDef(
            step=methods(ping=ping, watch=watch),
            recurring_methods=frozenset({"watch"}),
        ),
        storage=VRec({"seq": VInt(0)}),
    )


def parity_fail_A(params: Params, balance: int) -> Builtin:
    """Fail-bit attempt at the only-once check: sets its bit while its
    lifetime call count is odd. Right on one- and two-call transactions and on
    back-to-back sequences, wrong on any three-call transaction."""
    probe = tuple(params.get("probe", ()))  # type: ignore[arg-type]

    def ping(view, param, money, storage, balance):
        if "queue" in probe:
            view.queue
        s = as_rec(storage)
        seq = as_int(s.get("seq", VInt(0))) + 1
        s = s.set("seq", checked_int(seq))
        view.set_fail(seq % 2 == 1)
        return StepOk(s)

    uses = frozenset({Mechanism.FAIL} | {Mechanism(p) for p in probe})
    return Builtin(
        ContractDef(step=methods(ping=ping), mechanism_uses=uses),
        storage=VRec({"seq": VInt(0)}),
    )


def queue_prober_A(params: Params, balance: int) -> Builtin:
    """Fails precisely when the pending queue still holds non-recurring work."""

    def ping(view, param, money, storage, balance):
        require(view.queue, "pending queue busy")
        return StepOk(storage)

    return Builtin(
        ContractDef(step=methods(ping=ping), mechanism_uses=frozenset({Mechanism.QUEUE}))
    )


def ustore_echo_A(params: Params, balance: int) -> Builtin:
    """Inert contract with an identity storage hookup; shows what inputs the
    hookup runs on."""

    return Builtin(
        ContractDef(
            step=methods(ping=_passive),
            ustore_hook=lambda storage, balance: storage,
            mechanism_uses=frozenset({Mechanism.USTORE}),
        )
    )


BUILTINS: dict[str, Callable[[Params, int], Builtin]] = {
    "lender_naive": lender_naive,
    "lender_trmon": lender_trmon,
    "lender_ustore": lender_ustore,
    "lender_first_fail": lender_first_fail,
    "lender_bfs_first": lender_bfs_first,
    "lender_bfs_queue": lender_bfs_queue,
    "client_two_loans": client_two_loans,
    "client_two_loans_staged": client_two_loans_staged,
    "client_malicious": client_malicious,
    "client_partial": client_partial,
    "invest_sink": invest_sink,
    "forwarder_B": forwarder_B,
    "sink_C": sink_C,
    "recursive_f": recursive_f,
    "once_monitored_A": once_monitored_A,
    "once_recurring_A": once_recurring_A,
    "parity_fail_A": parity_fail_A,
    "queue_prober_A": queue_prober_A,
    "ustore_echo_A": ustore_echo_A,
}


def build(name: str, params: Params, balance: int) -> Builtin:
    factory = BUILTINS.get(name)
    if factory is None:
        raise ScenarioError(f"unknown builtin contract {name!r}")
    try:
        return factory(params, balance)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ScenarioError(f"builtin contract {name!r}: bad params: {exc}") from exc
