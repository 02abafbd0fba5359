"""JSON encodings of every file txmonsim reads and writes: scenario files,
trace files and counter-example report bundles.

One encoder, `to_json`, and one decoder, `from_json`, walk a dataclass's
fields by their resolved type hints. `_codec` says, per annotation, how a
value is written and read, and builds each class's codec once, on first use:
int, str and bool are themselves; `Value` uses the shorthand below; enums
their `.value`; `tuple[X, ...]` an array; a `Pending` queue the array of its
operations, front first; `frozenset[X]` a sorted array;
`Mapping[str, X]` an object; `object` passes through unchanged; `Optional[X]`
allows null, except that an unset `Optional[Value]` field is left out (null
there reads as the unit value); a nested dataclass is an object of its fields.

Decoding is strict. An integer, string or boolean must be that exact JSON
type (`true` is not an integer, `1.5` is not an integer); a key that names no
field fails as `unknown field 'KEY' in CLASS`; a missing field without a
default fails as `CLASS lacks 'FIELD'`; a mistyped value fails as
`CLASS.FIELD: expected an integer, got 1.5`, naming the innermost field.

Value shorthand: null/bool/int/str/list map to the unit/bool/int/text/seq
variants; objects are records. Amounts and addresses use the tagged escapes
{"$amt": n} and {"$addr": "a"}, with n an integer and a a string;
"$"-prefixed record keys are reserved.
"""

from __future__ import annotations

import json
import reprlib
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, Iterator, Optional, Union, get_args, get_origin, get_type_hints

from .core import (
    Committed,
    Operation,
    Outcome,
    Pending,
    RecordKind,
    ScenarioError,
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
from .scenarios import CounterexampleReport, ScenarioSpec


@contextmanager
def _decoding(where: str) -> Iterator[None]:
    """Report a malformed input as a ScenarioError that names where it is."""
    try:
        yield
    except KeyError as exc:
        raise ScenarioError(f"{where}: missing field {exc}") from exc
    except (ScenarioError, AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


class _Mistyped(ScenarioError):
    """A JSON value of the wrong shape; the dataclass field that holds it
    prefixes its `CLASS.FIELD` name."""


def _mistyped(expected: str, obj: Any) -> _Mistyped:
    return _Mistyped(f"expected {expected}, got {reprlib.repr(obj)}")


def _exact(t: type, expected: str) -> Callable[[Any], Any]:
    """A decoder that accepts values of JSON type `t` only."""

    def decode(obj: Any) -> Any:
        if type(obj) is not t:
            raise _mistyped(expected, obj)
        return obj

    return decode


_array, _object = _exact(list, "an array"), _exact(dict, "an object")


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
            if type(obj["$amt"]) is not int:
                raise _mistyped("an integer in $amt", obj["$amt"])
            return VAmt(obj["$amt"])
        if set(obj) == {"$addr"}:
            if type(obj["$addr"]) is not str:
                raise _mistyped("a string in $addr", obj["$addr"])
            return VAddr(obj["$addr"])
        bad = [k for k in obj if k.startswith("$")]
        if bad:
            raise _Mistyped(f"reserved record keys: {bad}")
        return VRec({k: value_from_json(x) for k, x in obj.items()})
    raise _Mistyped(f"cannot parse value from {obj!r}")


# ---------------------------------------------------------------------------
# Outcomes


def outcome_to_json(o: Outcome) -> dict:
    """The outcome's kind plus the abort reason's fields, or the final state
    digest of a commit."""
    if isinstance(o, Committed):
        return {"kind": o.kind, "state_digest": digest(o.final)}
    return {"kind": o.kind, **to_json(o.reason)}  # type: ignore[attr-defined]


class _ReadVerdict(Outcome):
    """A verdict read back from a report bundle: its kind and nothing else."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        self.kind = kind


def _verdict_from_json(obj: Any) -> _ReadVerdict:
    kind = _object(obj).get("kind")
    if type(kind) is not str:
        raise _mistyped("an outcome with a string kind", obj)
    return _ReadVerdict(kind)


# ---------------------------------------------------------------------------
# The codec: per annotation, an encoder (None where a value is written as it
# is) and a decoder.


Codec = tuple[Optional[Callable[[Any], Any]], Callable[[Any], Any]]


_CODECS: dict[Any, Codec] = {
    int: (None, _exact(int, "an integer")),
    str: (None, _exact(str, "a string")),
    bool: (None, _exact(bool, "a boolean")),
    object: (None, lambda obj: obj),
    Value: (value_to_json, value_from_json),
    Outcome: (outcome_to_json, _verdict_from_json),
}


def _codec(hint: Any) -> Codec:
    """How a value annotated `hint` is written and read, built on first use."""
    codec = _CODECS.get(hint)
    if codec is None:
        codec = _CODECS[hint] = _build_codec(hint)
    return codec


def _build_codec(hint: Any) -> Codec:
    origin, args = get_origin(hint), get_args(hint)
    if hint is Pending:
        enc, dec = _codec(tuple[Operation, ...])
        return enc, lambda obj: Pending(dec(obj))
    if origin is Union:
        (inner,) = [a for a in args if a is not type(None)]
        enc, dec = _codec(inner)
        write = None if enc is None else lambda v: None if v is None else enc(v)
        return write, lambda obj: None if obj is None else dec(obj)
    if origin is tuple:
        enc, dec = _codec(args[0])
        write = list if enc is None else lambda v: [enc(x) for x in v]
        return write, lambda obj: tuple([dec(x) for x in _array(obj)])
    if origin is frozenset:
        enc, dec = _codec(args[0])
        write = sorted if enc is None else lambda v: sorted([enc(x) for x in v])
        return write, lambda obj: frozenset([dec(x) for x in _array(obj)])
    if origin is Mapping:
        enc, dec = _codec(args[1])
        write = dict if enc is None else lambda v: {k: enc(x) for k, x in v.items()}
        return write, lambda obj: {k: dec(x) for k, x in _object(obj).items()}
    if isinstance(hint, type) and issubclass(hint, Enum):
        expected = "one of " + ", ".join(repr(m.value) for m in hint)

        def read_enum(obj: Any) -> Enum:
            try:
                return hint(obj)
            except (TypeError, ValueError):
                raise _mistyped(expected, obj) from None

        return attrgetter("value"), read_enum
    if is_dataclass(hint):
        return _dataclass_codec(hint)
    raise TypeError(f"no JSON codec for {hint!r}")


def _dataclass_codec(cls: type) -> Codec:
    hints, name = get_type_hints(cls), cls.__name__
    known = {f.name for f in fields(cls)}
    written, unset_omitted, read = [], [], []
    for f in fields(cls):
        if hints[f.name] == Optional[Value]:
            unset_omitted.append(f.name)
            enc, dec = _codec(Value)
        else:
            enc, dec = _codec(hints[f.name])
            written.append((f.name, enc))
        read.append((f.name, dec, f.default is MISSING and f.default_factory is MISSING))

    def encode(o: Any) -> dict:
        out = {k: getattr(o, k) if enc is None else enc(getattr(o, k)) for k, enc in written}
        for key in unset_omitted:
            if (v := getattr(o, key)) is not None:
                out[key] = value_to_json(v)
        return out

    def decode(obj: Any) -> Any:
        if not known.issuperset(_object(obj)):
            unknown = next(key for key in obj if key not in known)
            raise ScenarioError(f"unknown field {unknown!r} in {name}")
        kwargs = {}
        for key, dec, required in read:
            if key in obj:
                try:
                    kwargs[key] = dec(obj[key])
                except _Mistyped as exc:
                    raise ScenarioError(f"{name}.{key}: {exc}") from None
            elif required:
                raise ScenarioError(f"{name} lacks {key!r}")
        return cls(**kwargs)

    return encode, decode


def to_json(obj: Any) -> Any:
    """The JSON form of a dataclass instance, field by field."""
    return _codec(type(obj))[0](obj)


def from_json(cls: type, obj: Any) -> Any:
    """Rebuild a `cls` from its JSON form; a malformed one raises
    ScenarioError naming the class and field."""
    try:
        return _codec(cls)[1](obj)
    except _Mistyped as exc:
        raise ScenarioError(f"{cls.__name__}: {exc}") from None


# ---------------------------------------------------------------------------
# Trace files, scenario files, report bundles


def dump_traces(traces: list[Trace]) -> str:
    """One line per record, with a meta line opening each transaction."""
    lines = []
    for i, t in enumerate(traces):
        lines.append(json.dumps({"tx": i, "meta": to_json(t.meta)}, sort_keys=True))
        for r in t.records:
            lines.append(json.dumps({"tx": i, "record": to_json(r)}, sort_keys=True))
    return "\n".join(lines) + "\n"


def _check_record(record: StepRecord, position: int, where: str) -> StepRecord:
    """The relations the types leave open: a record's index is its position
    in its trace, and an op record names the operation it executed."""
    if record.index != position:
        raise ScenarioError(f"{where}: record {position} has index {record.index}")
    if record.kind is RecordKind.OP and record.executed is None:
        raise ScenarioError(f"{where}: op record {record.index} has no executed operation")
    return record


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
                metas.append(from_json(TraceMeta, obj["meta"]))
                records.append([])
            elif "record" in obj:
                tx = obj["tx"]
                if not (type(tx) is int and 0 <= tx < len(records)):
                    raise ScenarioError(f"record of transaction {tx!r}, which has no meta line")
                record = from_json(StepRecord, obj["record"])
                records[tx].append(_check_record(record, len(records[tx]), f"transaction {tx}"))
            else:
                raise ScenarioError(f"unrecognized trace line: {line[:80]}")
    return [Trace(meta=m, records=tuple(rs)) for m, rs in zip(metas, records)]


def scenario_from_json(obj: Mapping) -> ScenarioSpec:
    with _decoding("malformed scenario"):
        return from_json(ScenarioSpec, obj)


def report_to_json(r: CounterexampleReport) -> dict:
    return to_json(r)


def report_from_json(obj: Mapping) -> CounterexampleReport:
    """Rebuild a report bundle. Verdicts come back as their serialized kinds
    only, which is all the claims compare."""
    with _decoding("malformed report"):
        report = from_json(CounterexampleReport, obj)
        groups = [getattr(report, f.name) for f in fields(report) if f.name.endswith("_claims")]
        for claim in (c for group in groups for c in group):
            for attr in ("trace", "trace_a", "trace_b"):
                name = getattr(claim, attr, None)
                if name is not None and name not in report.traces:
                    raise ScenarioError(f"{type(claim).__name__}.{attr} names no trace: {name!r}")
        for name, trace in report.traces.items():
            for position, record in enumerate(trace.records):
                _check_record(record, position, f"trace {name!r}")
        if report.verdicts.keys() != report.traces.keys():
            raise ScenarioError(
                f"verdicts for {sorted(report.verdicts)} do not match traces "
                f"{sorted(report.traces)}"
            )
        return report
