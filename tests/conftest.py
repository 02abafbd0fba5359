"""Shared helpers for the test suite."""

from __future__ import annotations

import hashlib

from hypothesis import strategies as st

from txmonsim.core import (
    Account,
    ChainState,
    ContractDef,
    I64_MAX,
    I64_MIN,
    Operation,
    StepOk,
    U64_MAX,
    UNIT,
    VAddr,
    VAmt,
    VBool,
    VInt,
    VRec,
    VSeq,
    VText,
)


def value_strategy(max_leaves: int = 8):
    base = st.one_of(
        st.just(UNIT),
        st.booleans().map(VBool),
        st.integers(min_value=I64_MIN, max_value=I64_MAX).map(VInt),
        st.integers(min_value=0, max_value=U64_MAX).map(VAmt),
        st.text(max_size=6).map(VText),
        st.text(min_size=1, max_size=4).map(VAddr),
    )
    keys = st.text(
        alphabet="abcdefghij_", min_size=1, max_size=4
    )
    return st.recursive(
        base,
        lambda children: st.one_of(
            st.lists(children, max_size=3).map(lambda xs: VSeq(tuple(xs))),
            st.dictionaries(keys, children, max_size=3).map(VRec),
        ),
        max_leaves=max_leaves,
    )


def inert_contract() -> ContractDef:
    """Accepts any method, changes nothing, emits nothing."""
    return ContractDef(step=lambda view, method, param, money, storage, balance: StepOk(storage))


def emitting_contract(*emissions: Operation) -> ContractDef:
    return ContractDef(
        step=lambda view, method, param, money, storage, balance: StepOk(storage, emissions)
    )


def basic_state(**balances: int) -> ChainState:
    return ChainState({addr: Account(balance=b) for addr, b in balances.items()})


def external(dest: str, method: str = "ping", param=UNIT, money: int = 0, src: str = "ext") -> Operation:
    return Operation(dest=dest, src=src, method=method, param=param, money=money)


class CountingSha256:
    """Stands in for the `hashlib` module in `core` and counts the bytes
    digested."""

    def __init__(self) -> None:
        self.bytes = 0

    def sha256(self, data: bytes):
        self.bytes += len(data)
        return hashlib.sha256(data)
