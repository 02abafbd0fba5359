"""Shared domain types: values, operations, accounts, chain state, transaction
context, contract definitions, outcomes, and trace records.

Every type here is immutable after construction. The execution engine threads
fresh snapshots through a transaction instead of mutating in place, which is
what makes abort-time rollback and trace digests trivial to get right.

The immutable types are frozen dataclasses. Every one with `__slots__`
(values, operations, accounts, contexts, step results, outcomes and trace
records) gets its `__init__` from `_slot_init` at import: the parameters and
defaults are the dataclass's, but each field is stored by calling its slot
descriptor's `__set__`, not `object.__setattr__`, which costs a second name
lookup per field. Frozen behaviour, equality, hashing, `fields()` and
`replace()` are the dataclass's own.

A `ChainState` digest is a SHA-256 over one segment per account in address
order. A digested state keeps those segments, and a state made from it by an
update that keeps the address set rebuilds only the segments of the accounts
it changed, so a trace record costs O(changed accounts) in Python rather than
O(accounts). A changed account whose storage is the ancestor's object keeps
its storage segment, and when no storage changed the state also keeps the
ancestor's storage list and storage digest, so a balance or monitor-storage
update hashes no storage payload. States built from a mapping, or by an
update that adds an address, build every segment. The digest bytes are the
same either way.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, ClassVar, Iterable, Iterator, Mapping, Optional, Union

Address = str

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1
U64_MAX = 2**64 - 1


class ContractError(Exception):
    """Failure signalled by contract code or a hook; aborts the transaction."""


class ScenarioError(Exception):
    """Authoring or harness misuse; never a transaction outcome."""


# ---------------------------------------------------------------------------
# Values


class Value:
    """Base class of the tagged storage/parameter variants."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class VUnit(Value):
    pass


@dataclass(frozen=True, slots=True)
class VBool(Value):
    b: bool


@dataclass(frozen=True, slots=True)
class VInt(Value):
    n: int

    def __post_init__(self) -> None:
        if not (I64_MIN <= self.n <= I64_MAX):
            raise ValueError(f"signed value out of 64-bit range: {self.n}")


@dataclass(frozen=True, slots=True)
class VAmt(Value):
    """Non-negative token amount (unsigned 64-bit)."""

    n: int

    def __post_init__(self) -> None:
        if not (0 <= self.n <= U64_MAX):
            raise ValueError(f"amount out of unsigned 64-bit range: {self.n}")


@dataclass(frozen=True, slots=True)
class VAddr(Value):
    addr: Address


@dataclass(frozen=True, slots=True)
class VText(Value):
    s: str


@dataclass(frozen=True, slots=True)
class VSeq(Value):
    items: tuple[Value, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True, slots=True)
class VRec(Value):
    """Finite text->value mapping, stored key-sorted so equality is structural."""

    entries: tuple[tuple[str, Value], ...] = ()

    def __post_init__(self) -> None:
        # dict and tuple first: an isinstance test against typing.Mapping
        # costs about a fifth of a construction.
        entries = self.entries
        if isinstance(entries, dict):
            mapping = entries
        elif not isinstance(entries, tuple) and isinstance(entries, Mapping):
            mapping = dict(entries)
        else:
            entries = tuple(entries)
            mapping = dict(entries)
            if len(mapping) != len(entries):
                raise ValueError(f"duplicate record keys: {sorted(k for k, _ in entries)}")
        object.__setattr__(self, "entries", tuple(sorted(mapping.items(), key=itemgetter(0))))

    def get(self, key: str, default: Optional[Value] = None) -> Optional[Value]:
        for k, v in self.entries:
            if k == key:
                return v
        return default

    def __contains__(self, key: str) -> bool:
        return any(k == key for k, _ in self.entries)

    def set(self, key: str, value: Value) -> "VRec":
        out = dict(self.entries)
        out[key] = value
        return VRec(out)


UNIT = VUnit()


def checked_int(n: int) -> VInt:
    """Range-checked construction for contract arithmetic; overflow fails the
    contract rather than wrapping or crashing the harness."""
    if not (I64_MIN <= n <= I64_MAX):
        raise ContractError(f"integer overflow: {n}")
    return VInt(n)


def as_bool(v: Value) -> bool:
    if not isinstance(v, VBool):
        raise ContractError(f"expected bool value, got {v!r}")
    return v.b


def as_int(v: Value) -> int:
    if not isinstance(v, VInt):
        raise ContractError(f"expected int value, got {v!r}")
    return v.n


def as_amt(v: Value) -> int:
    if not isinstance(v, VAmt):
        raise ContractError(f"expected amount value, got {v!r}")
    return v.n


def as_addr(v: Value) -> Address:
    if not isinstance(v, VAddr):
        raise ContractError(f"expected address value, got {v!r}")
    return v.addr


def as_text(v: Value) -> str:
    if not isinstance(v, VText):
        raise ContractError(f"expected text value, got {v!r}")
    return v.s


def as_seq(v: Value) -> tuple[Value, ...]:
    if not isinstance(v, VSeq):
        raise ContractError(f"expected sequence value, got {v!r}")
    return v.items


def as_rec(v: Value) -> VRec:
    if not isinstance(v, VRec):
        raise ContractError(f"expected record value, got {v!r}")
    return v


def canon(v: Value) -> Any:
    """Canonical JSON-able form; tags keep distinct variants distinct."""
    if isinstance(v, VUnit):
        return ["u"]
    if isinstance(v, VBool):
        return ["b", v.b]
    if isinstance(v, VInt):
        return ["i", v.n]
    if isinstance(v, VAmt):
        return ["m", v.n]
    if isinstance(v, VAddr):
        return ["a", v.addr]
    if isinstance(v, VText):
        return ["t", v.s]
    if isinstance(v, VSeq):
        return ["q", [canon(x) for x in v.items]]
    if isinstance(v, VRec):
        return ["r", [[k, canon(x)] for k, x in v.entries]]
    raise TypeError(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# Mechanisms, schedulers, monitor modes


class Mechanism(str, Enum):
    FIRST = "first"
    COUNT = "count"
    FAIL = "fail"
    QUEUE = "queue"
    TXMEM = "txmem"
    BSTORE = "bstore"
    USTORE = "ustore"


class SchedulerKind(str, Enum):
    DFS = "dfs"
    BFS = "bfs"


class MonitorMode(str, Enum):
    NONE = "none"
    OPERATION = "operation"
    TRANSACTION = "transaction"


# ---------------------------------------------------------------------------
# Operations and accounts


@dataclass(frozen=True, slots=True)
class Operation:
    """One pending invocation; the unit the schedulers reorder."""

    dest: Address
    src: Address
    method: str
    param: Value = UNIT
    money: int = 0
    recurring: bool = False

    def __post_init__(self) -> None:
        if self.money < 0:
            raise ValueError("operation money must be non-negative")


def stamp(emitted: Iterable[Operation], src: Address) -> tuple[Operation, ...]:
    """`emitted` as sent by `src`: the engine stamps every emission so. From
    a list, not a generator: tuple() then allocates once instead of growing
    and shrinking, which measured about 6% slower on wide_state."""
    return tuple([Operation(e.dest, src, e.method, e.param, e.money, e.recurring) for e in emitted])


@dataclass(frozen=True, slots=True)
class Account:
    storage: Value = UNIT
    balance: int = 0
    monitor_storage: Value = UNIT

    def __post_init__(self) -> None:
        if not (0 <= self.balance <= U64_MAX):
            raise ValueError(f"account balance out of range: {self.balance}")


class ChainState:
    """Immutable finite map address -> account.

    Functional updates return new snapshots; a held reference never changes,
    so pre-transaction states survive aborts untouched.

    A digested state keeps its digest payload: its sorted address order, as
    an address -> position map shared by every state with the same address
    set, and in that order one storage segment and one full segment per
    account. An update that keeps the address set remembers the nearest
    digested ancestor and the addresses changed since; the child's first
    digest copies that ancestor's segments, rebuilds only the changed ones
    and drops the ancestor. A state built from a mapping, or by an update
    that adds an address, builds every segment. Either way the digest bytes
    are the same.
    """

    __slots__ = ("_accounts", "_digest", "_storage_digest", "_payload", "_base", "_changed")

    def __init__(self, accounts: Mapping[Address, Account] = ()):
        self._accounts: dict[Address, Account] = dict(accounts)
        self._digest: Optional[str] = None
        self._storage_digest: Optional[str] = None
        # (address -> position, storage segments, full segments), once digested
        self._payload: Optional[tuple[dict[Address, int], list[str], list[str]]] = None
        self._base: Optional[ChainState] = None
        self._changed: frozenset[Address] = frozenset()

    def get(self, addr: Address) -> Account:
        try:
            return self._accounts[addr]
        except KeyError:
            raise ScenarioError(f"no account at address {addr!r}") from None

    def has(self, addr: Address) -> bool:
        return addr in self._accounts

    def balance(self, addr: Address) -> int:
        return self.get(addr).balance

    def storage(self, addr: Address) -> Value:
        return self.get(addr).storage

    def monitor_storage(self, addr: Address) -> Value:
        return self.get(addr).monitor_storage

    def total_supply(self) -> int:
        return sum([a.balance for a in self._accounts.values()])

    def _update(self, changes: dict[Address, Account]) -> "ChainState":
        """The one account-dict copy of every update; the child carries the
        digest payload when the address set stays the same."""
        out = ChainState()
        accounts = out._accounts = dict(self._accounts)
        accounts.update(changes)
        if len(accounts) == len(self._accounts):
            if self._payload is not None:
                out._base, out._changed = self, frozenset(changes)
            elif self._base is not None:
                out._base, out._changed = self._base, self._changed.union(changes)
        return out

    def with_account(self, addr: Address, account: Account) -> "ChainState":
        return self._update({addr: account})

    def with_storage(self, addr: Address, storage: Value) -> "ChainState":
        acct = self.get(addr)
        return self._update({addr: Account(storage, acct.balance, acct.monitor_storage)})

    def with_monitor_storage(self, addr: Address, ms: Value) -> "ChainState":
        acct = self.get(addr)
        return self._update({addr: Account(acct.storage, acct.balance, ms)})

    def move(self, src: Address, dest: Address, money: int) -> "ChainState":
        """Transfer `money` from src to dest; caller checks src affordability."""
        if money == 0:
            return self
        a_src, a_dest = self.get(src), self.get(dest)
        if a_src.balance < money:
            raise ScenarioError("transfer exceeds source balance")
        if src == dest:
            return self  # a self-transfer moves nothing
        if a_dest.balance + money > U64_MAX:
            raise ContractError(f"balance overflow at {dest}")
        return self._update(
            {
                src: Account(a_src.storage, a_src.balance - money, a_src.monitor_storage),
                dest: Account(a_dest.storage, a_dest.balance + money, a_dest.monitor_storage),
            }
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ChainState) and self._accounts == other._accounts

    def __repr__(self) -> str:
        return f"ChainState({self._accounts!r})"

    def items(self) -> Iterable[tuple[Address, Account]]:
        return self._accounts.items()


# Bounded so a long-lived process does not keep every value it ever hashed;
# the bound is well above the distinct values one suite run hashes.
@lru_cache(maxsize=2**14)
def _value_blob(v: Value) -> str:
    return json.dumps(canon(v), separators=(",", ":"))


def _segments(state: ChainState) -> tuple[dict[Address, int], list[str], list[str]]:
    """The state's sorted address order and its `addr=storage` and
    `addr=storage:balance:monitor` segments in that order, rebuilt only for
    the accounts changed since the digested ancestor, if there is one. A
    changed account that holds the ancestor's storage object keeps its
    storage segment; if every one does, the state shares the ancestor's
    storage list and takes its storage digest."""
    if state._payload is None:
        accounts, base = state._accounts, state._base
        if base is None:
            order = {addr: i for i, addr in enumerate(sorted(accounts))}
            storage, full = [""] * len(order), [""] * len(order)
            changed: Iterable[Address] = order
        else:
            order, storage, full = base._payload
            full, changed, kept = list(full), state._changed, base._accounts
            for addr in changed:
                if accounts[addr].storage is not kept[addr].storage:
                    storage = list(storage)
                    break
            else:
                state._storage_digest = base._storage_digest
        for addr in changed:
            acct, i = accounts[addr], order[addr]
            if base is None or acct.storage is not kept[addr].storage:
                storage[i] = f"{addr}={_value_blob(acct.storage)}"
            full[i] = f"{storage[i]}:{acct.balance}:{_value_blob(acct.monitor_storage)}"
        state._payload = (order, storage, full)
        state._base, state._changed = None, frozenset()
    return state._payload


def digest(state: ChainState) -> str:
    """Stable digest of a chain state, independent of mapping iteration order:
    SHA-256 over the full segments of every account in address order."""
    if state._digest is None:
        payload = "|".join(_segments(state)[2])
        state._digest = hashlib.sha256(payload.encode()).hexdigest()
    return state._digest


def storage_digest(state: ChainState) -> str:
    """Digest over contract storages only (no balances, no monitor storage);
    hook-isolation checks rely on this staying constant across hook steps."""
    if state._storage_digest is None:
        storage = _segments(state)[1]
        # Building the segments takes the ancestor's digest when no storage changed.
        if state._storage_digest is None:
            state._storage_digest = hashlib.sha256("|".join(storage).encode()).hexdigest()
    return state._storage_digest


# ---------------------------------------------------------------------------
# The pending-operation queue

# A chain is None or a (chunk, start, next) node: the operations chunk[start:],
# with start < len(chunk), and then, in a front chain, those of `next`; in a
# back chain, those of `next` come first.
_Chain = Optional[tuple[tuple[Operation, ...], int, Any]]


class Pending:
    """The pending-operation queue: an immutable sequence of operations that
    shares structure with the queue it was made from.

    This is Okasaki's batched queue (*Purely Functional Data Structures*,
    1998) over chunks: `push` adds the pushed tuple whole as one node, to
    `front`, a chain in queue order, or to `back`, one in reverse order, and
    `front` is empty only when the whole queue is. `drop` and `push` return a
    new queue that shares every node it keeps with the old one and adds at
    most one, so a trace whose records each hold their queues holds
    O(records) nodes over the emitted tuples, not a copy of the queue per
    record. No snapshot ever changes, so engines on separate threads stay
    independent. `head` and `push` are O(1), and `drop` too except when it
    empties the front, which then takes the back's chunks joined in order:
    O(1) amortized when each queue is dropped from once, as the engine's are.

    It reads as a sequence: `len`, iteration from front to back, an int index
    gives an operation and a slice a tuple. It is equal to, and hashes like,
    the tuple of its operations. Reading it copies whole chunks, so its cost
    in Python is per chunk, not per operation.
    """

    __slots__ = ("_front", "_back", "_len")

    def __init__(self, ops: Iterable[Operation] = ()):
        ops = tuple(ops)
        self._front, self._back, self._len = (ops, 0, None) if ops else None, None, len(ops)

    def head(self) -> Operation:
        if self._front is None:
            raise IndexError("head of an empty queue")
        chunk, start, _ = self._front
        return chunk[start]

    def drop(self) -> "Pending":
        """The queue without its head."""
        if self._front is None:
            raise IndexError("drop from an empty queue")
        chunk, start, rest = self._front
        start += 1
        front = (chunk, start, rest) if start < len(chunk) else rest
        return _pending(front, self._back, self._len - 1)

    def push(self, ops: tuple[Operation, ...], front: bool) -> "Pending":
        """The queue with `ops`, in their order, ahead of it or behind it."""
        if not ops:
            return self
        if front:
            return _pending((ops, 0, self._front), self._back, self._len + len(ops))
        return _pending(self._front, (ops, 0, self._back), self._len + len(ops))

    def _tuple(self) -> tuple[Operation, ...]:
        return _joined(_chunks(self._front) + _chunks(self._back)[::-1])

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._tuple())

    def __getitem__(self, key: Union[int, slice]) -> Any:
        """The head is read in place; any other index or slice reads the
        tuple of the queue."""
        if key == 0 and self._front is not None:
            return self.head()
        return self._tuple()[key]

    def __eq__(self, other: object) -> bool:
        """Equal to a queue or tuple with the same operations in the same
        order. Two queues are walked node by node, front from the head and
        back from the tail, until their chains meet in a shared node; two
        nodes of one length over the same chunk are equal unread, and chains
        of different shapes are compared as tuples."""
        if isinstance(other, tuple):
            return self._len == len(other) and self._tuple() == other
        if not isinstance(other, Pending):
            return NotImplemented
        if self._len != other._len:
            return False
        for a, b in ((self._front, other._front), (self._back, other._back)):
            while a is not b:
                if a is None or b is None or len(a[0]) - a[1] != len(b[0]) - b[1]:
                    return self._tuple() == other._tuple()
                (ca, sa, a), (cb, sb, b) = a, b
                if ca is not cb and ca[sa:] != cb[sb:]:
                    return False
        return True

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return f"Pending({self._tuple()!r})"


def _chunks(node: _Chain) -> list[tuple[Operation, ...]]:
    """The operations of each node of a chain, in chain order."""
    out = []
    while node is not None:
        chunk, start, node = node
        out.append(chunk[start:])
    return out


def _joined(chunks: list[tuple[Operation, ...]]) -> tuple[Operation, ...]:
    return chunks[0] if len(chunks) == 1 else tuple(chain.from_iterable(chunks))


def _pending(front: _Chain, back: _Chain, size: int) -> Pending:
    """A queue of the given chains; an empty front takes the back's chunks,
    oldest first, as one chunk."""
    if front is None and back is not None:
        front, back = (_joined(_chunks(back)[::-1]), 0, None), None
    q = object.__new__(Pending)
    q._front, q._back, q._len = front, back, size
    return q


# ---------------------------------------------------------------------------
# Transaction context


@dataclass(frozen=True, slots=True)
class Context:
    """Transaction-scoped bookkeeping.

    counts/fail_bits/txmem start empty in every transaction;
    gas_remaining only ever decreases within one.
    """

    gas_remaining: int = 0
    counts: Mapping[Address, int] = field(default_factory=dict)
    fail_bits: Mapping[Address, bool] = field(default_factory=dict)
    txmem: Mapping[Address, Value] = field(default_factory=dict)

    @property
    def visited(self) -> tuple[Address, ...]:
        """Visited addresses in first-visit order (dicts keep insertion order)."""
        return tuple(self.counts)

    def visit(self, addr: Address) -> "Context":
        counts = dict(self.counts)
        counts[addr] = counts.get(addr, 0) + 1
        return Context(self.gas_remaining, counts, self.fail_bits, self.txmem)

    def count_of(self, addr: Address) -> int:
        return self.counts.get(addr, 0)

    def with_gas(self, gas: int) -> "Context":
        return Context(gas, self.counts, self.fail_bits, self.txmem)

    def with_fail_bit(self, addr: Address, value: bool) -> "Context":
        bits = dict(self.fail_bits)
        bits[addr] = value
        return Context(self.gas_remaining, self.counts, bits, self.txmem)

    def with_txmem(self, addr: Address, value: Value) -> "Context":
        mem = dict(self.txmem)
        mem[addr] = value
        return Context(self.gas_remaining, self.counts, self.fail_bits, mem)


# ---------------------------------------------------------------------------
# Contract definitions and step results


class StepResult:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class StepOk(StepResult):
    new_storage: Value
    emitted: tuple[Operation, ...] = ()


@dataclass(frozen=True, slots=True)
class StepFail(StepResult):
    reason: str


# step(view, method, param, money, storage, balance) -> StepResult
StepFn = Callable[[Any, str, Value, int, Value, int], StepResult]


@dataclass(frozen=True)
class ContractDef:
    """A contract: one pure step function plus optional hooks.

    Hooks never emit operations. init/begin/end may rewrite monitor storage,
    term is read-only; txmem_init builds the volatile segment from storage;
    bstore_hook must be total, ustore_hook may raise ContractError.
    """

    step: StepFn
    init: Optional[Callable[[Value, int, Value], Value]] = None
    begin: Optional[Callable[[str, Value, int, Value], Value]] = None
    end: Optional[Callable[[tuple[Operation, ...], Value, Value], Value]] = None
    term: Optional[Callable[[Value, int, Value], None]] = None
    txmem_init: Optional[Callable[[Value], Value]] = None
    bstore_hook: Optional[Callable[[Value, int], Value]] = None
    ustore_hook: Optional[Callable[[Value, int], Value]] = None
    recurring_methods: frozenset[str] = frozenset()
    mechanism_uses: frozenset[Mechanism] = frozenset()

    @property
    def monitored(self) -> bool:
        """True when the contract has at least one monitor hook."""
        return any(h is not None for h in (self.init, self.begin, self.end, self.term))


Registry = Mapping[Address, ContractDef]


# ---------------------------------------------------------------------------
# Outcomes


class AbortReason:
    """Why a transaction aborted. `kind` is the stable label that claims,
    verdict tables and serialized outcomes use."""

    __slots__ = ()
    kind: ClassVar[str]


@dataclass(frozen=True, slots=True)
class ContractFail(AbortReason):
    kind = "contract_fail"
    addr: Address
    text: str


@dataclass(frozen=True, slots=True)
class InsufficientBalance(AbortReason):
    kind = "insufficient_balance"
    op: Operation


@dataclass(frozen=True, slots=True)
class GasExhausted(AbortReason):
    kind = "gas_exhausted"


@dataclass(frozen=True, slots=True)
class MonitorInitFail(AbortReason):
    kind = "monitor_init_fail"
    addr: Address


@dataclass(frozen=True, slots=True)
class MonitorBeginFail(AbortReason):
    kind = "monitor_begin_fail"
    addr: Address


@dataclass(frozen=True, slots=True)
class MonitorEndFail(AbortReason):
    kind = "monitor_end_fail"
    addr: Address


@dataclass(frozen=True, slots=True)
class MonitorTermFail(AbortReason):
    kind = "monitor_term_fail"
    addr: Address


@dataclass(frozen=True, slots=True)
class HookupFail(AbortReason):
    kind = "hookup_fail"
    addr: Address


@dataclass(frozen=True, slots=True)
class FailBitSet(AbortReason):
    kind = "fail_bit_set"
    addrs: frozenset[Address]

    def __post_init__(self) -> None:
        object.__setattr__(self, "addrs", frozenset(self.addrs))


@dataclass(frozen=True, slots=True)
class RecurringEscape(AbortReason):
    kind = "recurring_escape"
    op: Operation


class Outcome:
    """A transaction's verdict; `kind` is "committed" or the abort reason's
    kind."""

    __slots__ = ()
    kind: str

    @property
    def committed(self) -> bool:
        return isinstance(self, Committed)


@dataclass(frozen=True, slots=True)
class Committed(Outcome):
    kind = "committed"
    final: ChainState


@dataclass(frozen=True, slots=True)
class Aborted(Outcome):
    reason: AbortReason

    @property
    def kind(self) -> str:
        return self.reason.kind


# ---------------------------------------------------------------------------
# Traces


class RecordKind(str, Enum):
    OP = "op"
    INIT = "init"
    BEGIN = "begin"
    END = "end"
    TERM = "term"
    HOOKUP = "hookup"
    FAIL_BIT_CHECK = "fail_bit_check"


@dataclass(frozen=True, slots=True)
class StepRecord:
    """One trace step. Op records carry enough of the step's inputs
    (storage/balance as seen, mechanism readings) to replay the step function
    and to rebuild per-contract observations. The queues are `Pending`."""

    index: int
    kind: RecordKind
    subject: Address
    executed: Optional[Operation]
    queue_before: Pending
    queue_after: Pending
    emitted: tuple[Operation, ...]
    gas_before: int
    gas_after: int
    state_digest: str
    storage_digest: str
    storage_before: Optional[Value] = None
    storage_after: Optional[Value] = None
    balance_seen: Optional[int] = None
    readings: Mapping[str, Value] = field(default_factory=dict)


@dataclass(frozen=True)
class TraceMeta:
    scheduler: SchedulerKind
    monitor_mode: MonitorMode
    mechanisms: frozenset[Mechanism]
    gas_limit: int
    external: Operation
    block_level: int = 0
    timestamp: int = 0


@dataclass(frozen=True)
class Trace:
    meta: TraceMeta
    records: tuple[StepRecord, ...] = ()

    def ops(self, subject: Optional[Address] = None) -> tuple[StepRecord, ...]:
        return tuple(
            r
            for r in self.records
            if r.kind is RecordKind.OP and (subject is None or r.subject == subject)
        )


@dataclass(frozen=True)
class Observation:
    """Everything one contract invocation can see; equal observations force
    equal step behaviour because step functions are pure."""

    seq_no: int
    method: str
    param: Value
    money: int
    storage_before: Value
    balance_seen: int
    readings: Mapping[str, Value] = field(default_factory=dict)

    _VIEW_FIELDS = ("method", "param", "money", "storage_before", "balance_seen", "readings")

    def same_view(self, other: "Observation") -> bool:
        """Positional metadata (seq_no) excluded; used for cross-run alignment."""
        return all(getattr(self, f) == getattr(other, f) for f in self._VIEW_FIELDS)


# ---------------------------------------------------------------------------
# Constructors


def _slot_init(cls: type) -> Callable[..., None]:
    """An `__init__` for the slotted frozen dataclass `cls` with the
    parameters and defaults of the one `dataclass` writes: each default
    factory is called once per instance, each field is stored through its
    slot descriptor's `__set__`, and `__post_init__` runs last."""
    names: dict[str, Any] = {"_MISSING": MISSING}
    params, body = ["self"], []
    for f in fields(cls):
        if not f.init or f.kw_only:
            raise TypeError(f"{cls.__name__}.{f.name}: only positional init fields are supported")
        names[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is not MISSING:
            names[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        elif f.default_factory is not MISSING:
            names[f"_factory_{f.name}"] = f.default_factory
            params.append(f"{f.name}=_MISSING")
            body.append(f"if {f.name} is _MISSING: {f.name} = _factory_{f.name}()")
        else:
            params.append(f.name)
        body.append(f"_set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        names["_post_init"] = cls.__post_init__
        body.append("_post_init(self)")
    source = f"def make({', '.join(names)}):\n def __init__({', '.join(params)}):\n"
    source += "".join(f"  {line}\n" for line in body or ["pass"]) + " return __init__\n"
    made: dict[str, Any] = {}
    exec(compile(source, "<slot init>", "exec"), {}, made)
    init = made["make"](**names)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


def _frozen_setattr(self, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# The dataclass's own __setattr__/__delattr__ name the class that slots=True
# replaced, so for a name that is not a field they raise TypeError from
# super(); these raise FrozenInstanceError for every name.
for _cls in list(globals().values()):
    if isinstance(_cls, type) and is_dataclass(_cls) and "__slots__" in vars(_cls):
        _cls.__init__ = _slot_init(_cls)
        _cls.__setattr__, _cls.__delattr__ = _frozen_setattr, _frozen_delattr
