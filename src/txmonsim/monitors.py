"""Monitor hooks around operations and transactions.

Operation monitors bracket each operation of a contract with begin/end hooks.
Transaction monitors add init (before a contract's first operation of the
transaction) and term (after the queue drains, once per visited contract, in
first-visit order). Hooks read contract storage and balance but may only
rewrite the private monitor storage; term rewrites nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from .core import (
    ChainState,
    ContractDef,
    MonitorMode,
    Operation,
    Registry,
    ScenarioError,
    Value,
)


@dataclass(frozen=True)
class MonitorHookSet:
    """Bundle of the four monitor hooks; attach to a contract definition.

    Signatures:
      init(storage, balance, monitor_storage) -> monitor_storage'
      begin(method, param, money, monitor_storage) -> monitor_storage'
      end(emitted, new_storage, monitor_storage) -> monitor_storage'
      term(storage, balance, monitor_storage) -> None
    Each may raise ContractError to fail the transaction.
    """

    init: Optional[Callable[[Value, int, Value], Value]] = None
    begin: Optional[Callable[[str, Value, int, Value], Value]] = None
    end: Optional[Callable[[tuple, Value, Value], Value]] = None
    term: Optional[Callable[[Value, int, Value], None]] = None

    def attach(self, contract: ContractDef) -> ContractDef:
        return replace(
            contract, init=self.init, begin=self.begin, end=self.end, term=self.term
        )


def identity_hooks() -> MonitorHookSet:
    """Begin/end that pass monitor storage through unchanged; useful for
    showing that inert operation monitors do not perturb execution."""
    return MonitorHookSet(
        begin=lambda method, param, money, ms: ms,
        end=lambda emitted, new_storage, ms: ms,
    )


def run_monitored_transaction(
    registry: Registry,
    state: ChainState,
    config,
    external: Operation,
    **kwargs,
):
    """Run one transaction under full transaction monitoring: init strictly
    before each monitored contract's first operation, begin/end around every
    operation, term for every visited monitored contract after the drain."""
    from .engine import Engine

    if config.monitor_mode is not MonitorMode.TRANSACTION:
        raise ScenarioError("monitored transactions need transaction monitor mode")
    return Engine(registry, config).run_transaction(state, external, **kwargs)
