"""JSON encodings for the command-line front end: values, operations, traces,
outcomes and report bundles, and the decoding of scenario files.

Value shorthand: null/bool/int/str/list map to the unit/bool/int/text/seq
variants; objects are records. Amounts and addresses use the tagged escapes
{"$amt": n} and {"$addr": "a"}; "$"-prefixed record keys are reserved.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import MISSING, fields
from typing import Any, Iterator, Mapping

from .core import (
    Committed,
    Mechanism,
    MonitorMode,
    Operation,
    Outcome,
    RecordKind,
    ScenarioError,
    SchedulerKind,
    StepRecord,
    Trace,
    TraceMeta,
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
from .engine import EngineConfig
from .scenarios import (
    ContractSpec,
    CounterexampleReport,
    CrossObsClaim,
    ExternalSpec,
    HookupInputClaim,
    ObsClaim,
    QueueClaim,
    ScenarioSpec,
    TxSpec,
    VerdictClaim,
)


@contextmanager
def _decoding(where: str) -> Iterator[None]:
    """Report a malformed input as a ScenarioError that names where it is."""
    try:
        yield
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing field {exc}") from exc
    except (ScenarioError, AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# Values


def value_to_json(v: Value) -> Any:
    if isinstance(v, VUnit):
        return None
    if isinstance(v, VBool):
        return v.b
    if isinstance(v, VInt):
        return v.n
    if isinstance(v, VAmt):
        return {"$amt": v.n}
    if isinstance(v, VAddr):
        return {"$addr": v.addr}
    if isinstance(v, VText):
        return v.s
    if isinstance(v, VSeq):
        return [value_to_json(x) for x in v.items]
    if isinstance(v, VRec):
        return {k: value_to_json(x) for k, x in v.entries}
    raise ScenarioError(f"cannot serialize value {v!r}")


def value_from_json(obj: Any) -> Value:
    if obj is None:
        return UNIT
    if isinstance(obj, bool):
        return VBool(obj)
    if isinstance(obj, int):
        return VInt(obj)
    if isinstance(obj, str):
        return VText(obj)
    if isinstance(obj, list):
        return VSeq(tuple(value_from_json(x) for x in obj))
    if isinstance(obj, dict):
        if set(obj) == {"$amt"}:
            return VAmt(int(obj["$amt"]))
        if set(obj) == {"$addr"}:
            return VAddr(str(obj["$addr"]))
        bad = [k for k in obj if k.startswith("$")]
        if bad:
            raise ScenarioError(f"reserved record keys: {bad}")
        return VRec({k: value_from_json(x) for k, x in obj.items()})
    raise ScenarioError(f"cannot parse value from {obj!r}")


# ---------------------------------------------------------------------------
# Operations, records, traces


def op_to_json(op: Operation) -> dict:
    return {
        "dest": op.dest,
        "src": op.src,
        "method": op.method,
        "param": value_to_json(op.param),
        "money": op.money,
        "recurring": op.recurring,
    }


def op_from_json(obj: Mapping) -> Operation:
    return Operation(
        dest=obj["dest"],
        src=obj["src"],
        method=obj["method"],
        param=value_from_json(obj.get("param")),
        money=int(obj.get("money", 0)),
        recurring=bool(obj.get("recurring", False)),
    )


def record_to_json(r: StepRecord) -> dict:
    out = {
        "index": r.index,
        "kind": r.kind.value,
        "subject": r.subject,
        "executed": op_to_json(r.executed) if r.executed is not None else None,
        "queue_before": [op_to_json(o) for o in r.queue_before],
        "queue_after": [op_to_json(o) for o in r.queue_after],
        "emitted": [op_to_json(o) for o in r.emitted],
        "gas_before": r.gas_before,
        "gas_after": r.gas_after,
        "state_digest": r.state_digest,
        "storage_digest": r.storage_digest,
        "balance_seen": r.balance_seen,
        "readings": {k: value_to_json(v) for k, v in r.readings.items()},
    }
    if r.storage_before is not None:
        out["storage_before"] = value_to_json(r.storage_before)
    if r.storage_after is not None:
        out["storage_after"] = value_to_json(r.storage_after)
    return out


def record_from_json(obj: Mapping) -> StepRecord:
    return StepRecord(
        index=obj["index"],
        kind=RecordKind(obj["kind"]),
        subject=obj["subject"],
        executed=op_from_json(obj["executed"]) if obj.get("executed") else None,
        queue_before=tuple(op_from_json(o) for o in obj["queue_before"]),
        queue_after=tuple(op_from_json(o) for o in obj["queue_after"]),
        emitted=tuple(op_from_json(o) for o in obj["emitted"]),
        gas_before=obj["gas_before"],
        gas_after=obj["gas_after"],
        state_digest=obj["state_digest"],
        storage_digest=obj["storage_digest"],
        storage_before=value_from_json(obj["storage_before"]) if "storage_before" in obj else None,
        storage_after=value_from_json(obj["storage_after"]) if "storage_after" in obj else None,
        balance_seen=obj.get("balance_seen"),
        readings={k: value_from_json(v) for k, v in obj.get("readings", {}).items()},
    )


def meta_to_json(m: TraceMeta) -> dict:
    return {
        "scheduler": m.scheduler.value,
        "monitor_mode": m.monitor_mode.value,
        "mechanisms": sorted(x.value for x in m.mechanisms),
        "gas_limit": m.gas_limit,
        "external": op_to_json(m.external),
        "block_level": m.block_level,
        "timestamp": m.timestamp,
    }


def meta_from_json(obj: Mapping) -> TraceMeta:
    return TraceMeta(
        scheduler=SchedulerKind(obj["scheduler"]),
        monitor_mode=MonitorMode(obj["monitor_mode"]),
        mechanisms=frozenset(Mechanism(x) for x in obj["mechanisms"]),
        gas_limit=obj["gas_limit"],
        external=op_from_json(obj["external"]),
        block_level=obj.get("block_level", 0),
        timestamp=obj.get("timestamp", 0),
    )


def trace_to_json(t: Trace) -> dict:
    return {"meta": meta_to_json(t.meta), "records": [record_to_json(r) for r in t.records]}


def trace_from_json(obj: Mapping) -> Trace:
    return Trace(
        meta=meta_from_json(obj["meta"]),
        records=tuple(record_from_json(r) for r in obj["records"]),
    )


def dump_traces(traces: list[Trace]) -> str:
    """One line per record, with a meta line opening each transaction."""
    lines = []
    for i, t in enumerate(traces):
        lines.append(json.dumps({"tx": i, "meta": meta_to_json(t.meta)}, sort_keys=True))
        for r in t.records:
            lines.append(json.dumps({"tx": i, "record": record_to_json(r)}, sort_keys=True))
    return "\n".join(lines) + "\n"


def load_traces(text: str) -> list[Trace]:
    metas: list[TraceMeta] = []
    records: list[list[StepRecord]] = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        with _decoding(f"trace line {number}"):
            obj = json.loads(line)
            if "meta" in obj:
                if obj["tx"] != len(metas):
                    raise ScenarioError("trace file transactions out of order")
                metas.append(meta_from_json(obj["meta"]))
                records.append([])
            elif "record" in obj:
                tx = obj["tx"]
                if not (isinstance(tx, int) and 0 <= tx < len(records)):
                    raise ScenarioError(f"record of transaction {tx!r}, which has no meta line")
                records[tx].append(record_from_json(obj["record"]))
            else:
                raise ScenarioError(f"unrecognized trace line: {line[:80]}")
    return [Trace(meta=m, records=tuple(rs)) for m, rs in zip(metas, records)]


# ---------------------------------------------------------------------------
# Outcomes


def outcome_to_json(o: Outcome) -> dict:
    """The outcome's kind plus the abort reason's fields, or the final state
    digest of a commit."""
    if isinstance(o, Committed):
        return {"kind": o.kind, "state_digest": digest(o.final)}
    out: dict = {"kind": o.kind}
    for f in fields(o.reason):  # type: ignore[union-attr]
        v = getattr(o.reason, f.name)  # type: ignore[union-attr]
        if isinstance(v, Operation):
            v = op_to_json(v)
        elif isinstance(v, frozenset):
            v = sorted(v)
        out[f.name] = v
    return out


# ---------------------------------------------------------------------------
# Scenario files


def _known(obj: Mapping, spec: type) -> None:
    """Reject any key of `obj` that names no field of the dataclass `spec`,
    so that a misspelt or retired field fails instead of being ignored."""
    names = {f.name for f in fields(spec)}
    for key in obj:
        if key not in names:
            raise ScenarioError(f"unknown field {key!r}")


def _entries(obj: Mapping, name: str, spec: type) -> list:
    """The objects listed under `name`, each checked against `spec`."""
    entries = obj.get(name, [])
    for entry in entries:
        _known(entry, spec)
    return entries


def engine_config_from_json(obj: Mapping) -> EngineConfig:
    _known(obj, EngineConfig)
    return EngineConfig(
        scheduler=SchedulerKind(obj.get("scheduler", "dfs")),
        gas_limit=int(obj.get("gas_limit", 1000)),
        mechanisms=frozenset(Mechanism(x) for x in obj.get("mechanisms", [])),
        monitor_mode=MonitorMode(obj.get("monitor_mode", "none")),
    )


def scenario_from_json(obj: Mapping) -> ScenarioSpec:
    with _decoding("malformed scenario"):
        _known(obj, ScenarioSpec)
        engine = engine_config_from_json(obj.get("engine", {}))
        contracts = tuple(
            ContractSpec(
                addr=c["addr"],
                builtin=c["builtin"],
                params=c.get("params", {}),
                balance=int(c.get("balance", 0)),
                storage=value_from_json(c["storage"]) if "storage" in c else None,
                monitor_storage=(
                    value_from_json(c["monitor_storage"]) if "monitor_storage" in c else None
                ),
            )
            for c in _entries(obj, "contracts", ContractSpec)
        )
        externals = tuple(
            ExternalSpec(addr=e["addr"], balance=int(e.get("balance", 0)))
            for e in _entries(obj, "externals", ExternalSpec)
        )
        transactions = tuple(
            TxSpec(
                dest=t["dest"],
                method=t["method"],
                param=value_from_json(t.get("param")),
                money=int(t.get("money", 0)),
            )
            for t in _entries(obj, "transactions", TxSpec)
        )
        return ScenarioSpec(
            engine=engine, contracts=contracts, externals=externals, transactions=transactions
        )


# ---------------------------------------------------------------------------
# Counter-example report bundles


_CLAIM_LISTS = {
    "obs_claims": ObsClaim,
    "cross_obs_claims": CrossObsClaim,
    "queue_claims": QueueClaim,
    "verdict_claims": VerdictClaim,
    "hookup_claims": HookupInputClaim,
}


def _lists(v: Any) -> Any:
    return [_lists(x) for x in v] if isinstance(v, tuple) else v


def _tuples(v: Any) -> Any:
    return tuple(_tuples(x) for x in v) if isinstance(v, list) else v


def _claim_from_json(cls, obj: Mapping):
    """Rebuild a claim from its dataclass fields; arrays come back as tuples."""
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]
    if missing:
        raise ScenarioError(f"{cls.__name__} lacks {', '.join(missing)}")
    return cls(**{f.name: _tuples(obj[f.name]) for f in fields(cls) if f.name in obj})


def report_to_json(r: CounterexampleReport) -> dict:
    out = {
        "name": r.name,
        "conclusion": r.conclusion,
        "traces": {k: trace_to_json(t) for k, t in r.traces.items()},
        "verdicts": {k: outcome_to_json(o) for k, o in r.verdicts.items()},
    }
    for key in _CLAIM_LISTS:
        claims = getattr(r, key)
        out[key] = [{f.name: _lists(getattr(c, f.name)) for f in fields(c)} for c in claims]
    return out


def report_from_json(obj: Mapping) -> CounterexampleReport:
    """Rebuild a report bundle. Verdicts come back as their serialized kinds
    only, which is all the claims compare."""
    with _decoding("malformed report"):
        traces = {}
        for k, t in obj["traces"].items():
            with _decoding(f"trace {k!r}"):
                traces[k] = trace_from_json(t)
        claims = {
            key: tuple(_claim_from_json(cls, c) for c in obj.get(key, []))
            for key, cls in _CLAIM_LISTS.items()
        }
        for claim in (c for group in claims.values() for c in group):
            for attr in ("trace", "trace_a", "trace_b"):
                name = getattr(claim, attr, None)
                if name is not None and name not in traces:
                    raise ScenarioError(f"{type(claim).__name__}.{attr} names no trace: {name!r}")
        verdicts = obj["verdicts"]
        if verdicts.keys() != traces.keys():
            raise ScenarioError(
                f"verdicts for {sorted(verdicts)} do not match traces {sorted(traces)}"
            )
        return CounterexampleReport(
            name=obj["name"],
            traces=traces,
            verdicts={k: _ReadVerdict(v["kind"]) for k, v in verdicts.items()},
            conclusion=obj.get("conclusion", ""),
            **claims,
        )


class _ReadVerdict(Outcome):
    """A verdict read back from a report bundle: its kind and nothing else."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind
