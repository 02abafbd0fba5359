"""Domain-type behaviour: value equality, digests, snapshot immutability."""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import basic_state, value_strategy
from txmonsim import core
from txmonsim.core import (
    Account,
    ChainState,
    ContractError,
    Operation,
    Pending,
    ScenarioError,
    UNIT,
    VAmt,
    VBool,
    VInt,
    VRec,
    VSeq,
    VText,
    canon,
    checked_amt,
    checked_int,
    digest,
    storage_digest,
)

# sha256 of the empty canonical payload; frozen after the first verified run
EMPTY_STATE_DIGEST = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def test_empty_state_digest_is_fixed_constant():
    assert digest(ChainState({})) == EMPTY_STATE_DIGEST
    assert digest(ChainState({})) == digest(ChainState(dict()))


def test_digest_equal_for_deep_copied_state():
    s = ChainState(
        {
            "A": Account(storage=VRec({"x": VInt(1), "y": VSeq((VText("a"),))}), balance=7),
            "B": Account(balance=3),
        }
    )
    copy = ChainState({addr: Account(a.storage, a.balance, a.monitor_storage) for addr, a in s.items()})
    assert digest(s) == digest(copy)


def test_value_blob_cache_stays_bounded():
    # Digests memoize each value's serialized form; a process that hashes
    # ever new values must not keep every one of them.
    bound = core._value_blob.cache_info().maxsize
    assert bound is not None
    for i in range(bound + 100):
        digest(ChainState({"A": Account(storage=VInt(i))}))
    assert core._value_blob.cache_info().currsize == bound
    core._value_blob.cache_clear()


def _reference_digests(state: ChainState) -> tuple[str, str]:
    """The digest definition written out: SHA-256 over the sorted accounts."""

    def blob(v):
        return json.dumps(canon(v), separators=(",", ":"))

    full = "|".join(
        f"{addr}={blob(acct.storage)}:{acct.balance}:{blob(acct.monitor_storage)}"
        for addr, acct in sorted(state.items())
    )
    storage = "|".join(f"{addr}={blob(acct.storage)}" for addr, acct in sorted(state.items()))
    return hashlib.sha256(full.encode()).hexdigest(), hashlib.sha256(storage.encode()).hexdigest()


_ADDRS = ("A", "B", "C", "D", "E")
_SMALL_VALUES = st.one_of(
    st.just(UNIT), st.integers(-3, 3).map(VInt), st.text("xy", max_size=2).map(VText)
)
_UPDATES = st.one_of(
    st.tuples(
        st.just("account"), st.sampled_from(_ADDRS), _SMALL_VALUES, st.integers(0, 30), _SMALL_VALUES
    ),
    st.tuples(st.just("storage"), st.sampled_from(_ADDRS), _SMALL_VALUES),
    st.tuples(st.just("monitor"), st.sampled_from(_ADDRS), _SMALL_VALUES),
    st.tuples(st.just("move"), st.sampled_from(_ADDRS), st.sampled_from(_ADDRS), st.integers(0, 12)),
)
# (which earlier state to extend, the update, which digests to read right after)
_STEPS = st.lists(
    st.tuples(
        st.integers(0, 40), _UPDATES, st.sampled_from(("none", "digest", "storage", "both"))
    ),
    max_size=30,
)


def _apply(state: ChainState, update: tuple) -> ChainState:
    kind, addr, *args = update
    if kind == "account":
        storage, balance, monitor = args
        return state.with_account(addr, Account(storage, balance, monitor))
    if not state.has(addr):
        raise ScenarioError("no such account")
    if kind == "storage":
        return state.with_storage(addr, args[0])
    if kind == "monitor":
        return state.with_monitor_storage(addr, args[0])
    dest, money = args
    if not state.has(dest):
        raise ScenarioError("no such account")
    return state.move(addr, dest, money)


@given(_STEPS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_digests_of_updated_states_match_the_definition(steps):
    # Updates branch from earlier states, digested or not, and add accounts;
    # every digest must equal the definition and a from-scratch rebuild, and
    # a digest once read never changes.
    states = [ChainState({"A": Account(balance=10), "B": Account(storage=VInt(1), balance=5), "C": Account()})]
    seen: dict[int, dict[str, str]] = {}
    for pick, update, read in steps:
        try:
            child = _apply(states[pick % len(states)], update)
        except ScenarioError:
            continue
        states.append(child)
        if read in ("digest", "both"):
            seen.setdefault(len(states) - 1, {})["digest"] = digest(child)
        if read in ("storage", "both"):
            seen.setdefault(len(states) - 1, {})["storage"] = storage_digest(child)
    for i in reversed(range(len(states))):
        state = states[i]
        want = _reference_digests(state)
        assert (digest(state), storage_digest(state)) == want
        fresh = ChainState(dict(state.items()))
        assert (digest(fresh), storage_digest(fresh)) == want
        assert seen.get(i, {}).get("digest", want[0]) == want[0]
        assert seen.get(i, {}).get("storage", want[1]) == want[1]


def test_an_update_rebuilds_only_the_segments_it_changed():
    # Counted in value serializations, not timed: a child of a digested
    # state re-serializes its changed account, a rebuilt state every account.
    parent = ChainState({f"acct{i:04d}": Account(storage=VInt(i), balance=i) for i in range(1000)})
    digest(parent), storage_digest(parent)
    child = parent.with_storage("acct0500", VInt(-1))

    def blob_calls(state):
        before = core._value_blob.cache_info()
        digest(state), storage_digest(state)
        after = core._value_blob.cache_info()
        return after.hits + after.misses - before.hits - before.misses

    assert blob_calls(child) <= 4
    rebuilt = ChainState(dict(child.items()))
    assert blob_calls(rebuilt) >= 1000
    assert (digest(child), storage_digest(child)) == (digest(rebuilt), storage_digest(rebuilt))


def test_digest_is_order_independent_over_addresses():
    a = Account(balance=1)
    b = Account(balance=2)
    assert digest(ChainState({"A": a, "B": b})) == digest(ChainState({"B": b, "A": a}))


def test_digest_differs_on_one_balance_unit():
    # Oracle: the two states are structurally unequal, so digests must differ.
    s1 = basic_state(A=100, B=50)
    s2 = basic_state(A=101, B=50)
    assert s1 != s2
    assert digest(s1) != digest(s2)


def test_storage_digest_ignores_balances_and_monitor_storage():
    s1 = ChainState({"A": Account(storage=VInt(1), balance=5, monitor_storage=VInt(9))})
    s2 = ChainState({"A": Account(storage=VInt(1), balance=8, monitor_storage=VInt(2))})
    assert storage_digest(s1) == storage_digest(s2)
    assert digest(s1) != digest(s2)


@given(value_strategy())
@settings(max_examples=150, deadline=None)
def test_value_equality_reflexive_and_canonical(v):
    assert v == v
    assert canon(v) == canon(v)


@given(value_strategy())
@settings(max_examples=150, deadline=None)
def test_record_equality_ignores_insertion_order(v):
    wrapped_ab = VRec({"a": v, "b": VInt(1)})
    wrapped_ba = VRec([("b", VInt(1)), ("a", v)])
    third = VRec({"b": VInt(1)}).set("a", v)
    assert wrapped_ab == wrapped_ba
    assert wrapped_ba == third
    assert wrapped_ab == third  # transitivity across construction orders
    assert canon(wrapped_ab) == canon(third)


def test_distinct_variants_never_compare_equal():
    assert VInt(1) != VAmt(1)
    assert VBool(True) != VInt(1)
    assert VText("1") != VInt(1)
    assert canon(VInt(1)) != canon(VAmt(1))


def test_amounts_are_never_negative():
    with pytest.raises(ValueError):
        VAmt(-1)
    with pytest.raises(ContractError):
        checked_amt(-5)
    with pytest.raises(ContractError):
        checked_int(2**63)


def test_operation_money_non_negative():
    with pytest.raises(ValueError):
        Operation(dest="A", src="B", method="m", money=-1)


def test_chain_state_functional_updates_leave_snapshot_intact():
    s0 = basic_state(A=10, B=0)
    before = digest(s0)
    s1 = s0.move("A", "B", 4)
    assert s0.balance("A") == 10 and s1.balance("A") == 6
    assert s1.balance("B") == 4
    assert digest(s0) == before
    s2 = s1.with_storage("A", VRec({"k": UNIT}))
    assert s1.storage("A") == UNIT
    assert s2.storage("A") != UNIT


def test_self_transfer_moves_nothing():
    s = basic_state(A=10, B=0)
    assert s.move("A", "A", 5) == s
    assert s.move("A", "A", 5).total_supply() == 10
    with pytest.raises(ScenarioError):
        s.move("A", "A", 11)


def test_total_supply_counts_every_account():
    assert basic_state(A=5, B=7, ext=1).total_supply() == 13


def test_rec_accessors():
    r = VRec({"x": VInt(3)})
    assert r.get("x") == VInt(3)
    assert r.get("missing") is None
    assert "x" in r and "y" not in r
    assert r.set("y", VBool(True)).get("y") == VBool(True)
    with pytest.raises(ValueError):
        VRec([("dup", UNIT), ("dup", UNIT)])
    with pytest.raises(ValueError):
        VRec([("dup", VInt(1)), ("dup", VInt(2))])


def test_rec_from_any_mapping_or_pair_sequence_is_the_same_record():
    entries = {"b": VInt(1), "a": VText("x")}
    expected = VRec(entries)
    assert expected.entries == (("a", VText("x")), ("b", VInt(1)))
    for given_entries in (
        MappingProxyType(entries), tuple(entries.items()), list(entries.items()), iter(entries.items()),
    ):
        built = VRec(given_entries)
        assert built == expected and built.entries == expected.entries


# ---------------------------------------------------------------------------
# The pending queue against a plain-tuple model

_OPS = tuple(Operation(dest=f"C{i % 3}", src="B", method=f"m{i}") for i in range(5))
_EDITS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=999),  # which earlier snapshot
        st.sampled_from(("drop", "front", "back")),
        st.lists(st.sampled_from(_OPS), max_size=3).map(tuple),
    ),
    max_size=30,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_OPS), max_size=4).map(tuple), _EDITS)
def test_pending_matches_a_tuple_model_across_branching_history(start, edits):
    # Each edit applies to a randomly chosen earlier snapshot, so the history
    # branches and later queues share pairs with several earlier ones.
    history = [(Pending(start), start)]
    for pick, edit, ops in edits:
        q, model = history[pick % len(history)]
        if edit == "drop":
            if not model:
                with pytest.raises(IndexError):
                    q.drop()
                with pytest.raises(IndexError):
                    q.head()
                continue
            history.append((q.drop(), model[1:]))
        else:
            front = edit == "front"
            history.append((q.push(ops, front=front), ops + model if front else model + ops))
    for q, model in history:  # checked after all edits: no snapshot changed
        assert tuple(q) == model and len(q) == len(model)
        assert q == model and model == q and not q != model and q != list(model)
        assert hash(q) == hash(model)
        assert q == Pending(model) and Pending(model) == q
        assert q[1:] == model[1:] and q[::-1] == model[::-1]
        if model:
            assert q.head() == model[0] == q[0] and q[-1] == model[-1]
            assert q[len(model) // 2] == model[len(model) // 2]
        with pytest.raises(IndexError):
            q[len(model)]
    for (q, model), (p, other) in combinations(history, 2):
        assert (q == p) == (model == other) == (p == q)
