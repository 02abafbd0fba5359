"""Deterministic simulator of smart-contract transaction execution with
DFS/BFS schedulers, gas metering, operation and transaction monitors, the
first/count/fail/queue/txmem/bstore/ustore execution mechanisms, mechanism
transformers, and the counter-example and flash-loan scenario suites."""

from .core import (
    Account,
    Aborted,
    Address,
    ChainState,
    Committed,
    ContractDef,
    ContractError,
    ContractFail,
    Context,
    FailBitSet,
    GasExhausted,
    HookupFail,
    InsufficientBalance,
    Mechanism,
    MonitorBeginFail,
    MonitorEndFail,
    MonitorInitFail,
    MonitorMode,
    MonitorTermFail,
    Observation,
    Operation,
    Outcome,
    RecordKind,
    RecurringEscape,
    ScenarioError,
    SchedulerKind,
    StepFail,
    StepOk,
    StepRecord,
    Trace,
    UNIT,
    VAddr,
    VAmt,
    VBool,
    VInt,
    VRec,
    VSeq,
    VText,
    VUnit,
    Value,
    digest,
)
from .engine import Engine, EngineConfig, TxResult, charge_gas
from .scenarios import (
    CounterexampleReport,
    ScenarioSpec,
    check_obs_equivalence,
    counterexample_suite,
    run_flashloan_suite,
    run_scenario,
    verify_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
