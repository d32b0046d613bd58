"""One field-driven JSON codec for everything the sweep harness persists.

The parallel sweep runner (:mod:`repro.experiments.runner`) persists every
completed run as one JSON file under its cache directory, keyed by a
stable content hash of the spec.  That requires every spec and result
type -- including the polymorphic manager configs, fault plans, the full
:class:`MetricsRecorder` event log, audits and network stats -- to
round-trip losslessly through JSON.

:func:`encode` and :func:`decode` do that for any dataclass, driven by
``dataclasses.fields()`` and the fields' type hints (resolved once per
class):

* tuples and lists become lists, ``Dict[int, ...]`` keys become strings,
  ``None`` passes through, ``np.ndarray`` becomes a list of floats and
  nested dataclasses recurse;
* manager configs and wire messages are polymorphic, so they travel in a
  ``{"type": <class name>, "fields": {...}}`` envelope resolved through
  :data:`CONFIG_TYPES` / :data:`MESSAGE_TYPES`;
* a key absent from the input decodes to the field's default.

Every departure from that plain shape -- flat rows, fields added after
caches were written, legacy keys, ``NaN`` as ``null`` -- is declared in
the one :data:`COMPAT` table, because each one is pinned by existing
cache files, fixtures and sha256 cache keys.

Python floats survive a JSON round-trip exactly (``json`` emits the
shortest repr that parses back to the same float), so a decoded result
re-serializes to byte-identical canonical JSON -- the property the
determinism tests pin down.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import operator
import typing
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Type, TypeVar, Union

import numpy as np

from repro.core.config import PenelopeConfig
from repro.instrumentation import (
    CapSample,
    LedgerSample,
    MetricsRecorder,
    TransactionEvent,
    TurnaroundSample,
)
from repro.managers.base import ManagerConfig
from repro.managers.slurm import SlurmConfig
from repro.managers.slurm_ha import HaSlurmConfig
from repro.membership.messages import (
    MembershipAck,
    MembershipGossip,
    MembershipPing,
    MembershipPingReq,
)
from repro.net.messages import (
    ExcessReport,
    GrantAck,
    Message,
    PowerGrant,
    PowerRequest,
    ReleaseDirective,
)

T = TypeVar("T")

#: Decodes one JSON value into one typed value.
Decoder = Callable[[Any], Any]

#: Every concrete manager-config class the harness can carry.  Order is
#: irrelevant; lookups go through the class name stored in the JSON.
CONFIG_TYPES: Dict[str, Type[ManagerConfig]] = {
    cls.__name__: cls
    for cls in (ManagerConfig, PenelopeConfig, SlurmConfig, HaSlurmConfig)
}

#: Every wire message type, keyed by class name (= ``Message.kind``).
#: The whole-program lint rule R9 checks this table against the message
#: classes declared in ``net/messages.py`` / ``membership/messages.py``:
#: a type missing here cannot cross a process boundary in the ROADMAP's
#: real-substrate and federated modes.
MESSAGE_TYPES: Dict[str, Type[Message]] = {
    cls.__name__: cls
    for cls in (
        PowerRequest,
        PowerGrant,
        GrantAck,
        ExcessReport,
        ReleaseDirective,
        MembershipPing,
        MembershipPingReq,
        MembershipAck,
        MembershipGossip,
    )
}


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace.

    Used both for cache files and for the spec fingerprint, so two equal
    objects always produce identical bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_of(obj: Any) -> str:
    """Hex digest of an object's canonical JSON."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# -- the compatibility table -------------------------------------------------


@dataclass(frozen=True)
class Compat:
    """How one class's encoding departs from a plain field-name object."""

    #: Encoded as a flat row of its (scalar) field values, decoded with
    #: ``cls(*row)``.  A run records tens of thousands of events, and
    #: field names would dominate the file.
    row: bool = False
    #: Fields added after caches and fixtures were pinned: omitted while
    #: they hold their default, so older canonical JSON is unchanged.
    late: Tuple[str, ...] = ()
    #: Float fields whose ``NaN`` is written as ``null`` (strict JSON has
    #: no ``NaN``).  Other floats keep their historical bytes.
    nan_as_null: Tuple[str, ...] = ()
    #: Rewrites a legacy encoding into today's shape before decoding.
    upgrade: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None


def _split_dropped_dead(data: Dict[str, Any]) -> Dict[str, Any]:
    """Legacy network stats predate the send-time/arrival-time split of
    dead-node drops and carry only the merged counter.  The breakdown is
    unrecoverable, so it is attributed to the send side: the
    ``dropped`` and ``dropped_dead`` aggregates stay exact either way."""
    if "dropped_dead" not in data:
        return data
    upgraded = dict(data)
    upgraded["dropped_dead_src"] = upgraded.pop("dropped_dead")
    return upgraded


#: Every byte-compatibility rule of the codec, keyed by class name (the
#: classes live in layers that import this module).  A class inherits
#: the entry of its nearest listed base.
COMPAT: Dict[str, Compat] = {
    "TransactionEvent": Compat(row=True),
    "TurnaroundSample": Compat(row=True),
    "CapSample": Compat(row=True),
    "LedgerSample": Compat(row=True),
    "Addr": Compat(row=True),
    "MembershipUpdate": Compat(row=True),
    # The unstamped-send sentinel.
    "Message": Compat(nan_as_null=("send_time",)),
    "FaultPlan": Compat(
        late=("duplicate_bursts", "reorder_bursts", "clock_drifts", "slow_nodes")
    ),
    "NetworkStats": Compat(
        late=("duplicated", "reordered", "duplicated_by_kind", "reordered_by_kind"),
        upgrade=_split_dropped_dead,
    ),
    "ChaosSpec": Compat(
        late=(
            "duplicate_bursts",
            "reorder_bursts",
            "clock_drifts",
            "slow_nodes",
            "duplicate_prob",
            "reorder_window_s",
            "max_drift_rate",
            "slow_factor",
        )
    ),
    "ChaosResult": Compat(late=("violations",)),
}


def _compat(cls: type) -> Compat:
    for base in cls.__mro__:
        if base.__name__ in COMPAT:
            return COMPAT[base.__name__]
    return Compat()


def _registry(cls: type) -> Optional[Dict[str, Any]]:
    """The polymorphic registry ``cls`` travels through, if any."""
    if issubclass(cls, ManagerConfig):
        return CONFIG_TYPES
    if issubclass(cls, Message):
        return MESSAGE_TYPES
    return None


# -- encoding ----------------------------------------------------------------


def encode(obj: Any) -> Any:
    """The JSON-safe form of ``obj`` (a dataclass, a recorder or a value)."""
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [encode(item) for item in obj]
    if isinstance(obj, dict):
        # JSON objects only take string keys; node ids go back to int on
        # decode through the field's Dict[int, ...] hint.
        return {
            key if isinstance(key, str) else str(key): encode(value)
            for key, value in obj.items()
        }
    if isinstance(obj, np.ndarray):
        return [float(x) for x in obj]
    if isinstance(obj, MetricsRecorder):
        return _encode_recorder(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _encoder(type(obj))(obj)
    raise TypeError(f"cannot encode {type(obj).__name__!r}")


_ENCODERS: Dict[type, Callable[[Any], Any]] = {}


def _encoder(cls: Any) -> Callable[[Any], Any]:
    """Encoder for one dataclass type, built on first use."""
    encoder = _ENCODERS.get(cls)
    if encoder is None:
        encoder = _ENCODERS[cls] = (
            _row_encoder(cls) if _compat(cls).row else _fields_encoder(cls)
        )
    return encoder


def _row_getter(cls: Any) -> Callable[[Any], Tuple[Any, ...]]:
    return operator.attrgetter(*(f.name for f in dataclasses.fields(cls)))


def _row_encoder(cls: Any) -> Callable[[Any], Any]:
    row = _row_getter(cls)
    return lambda obj: list(row(obj))


def _fields_encoder(cls: Any) -> Callable[[Any], Any]:
    compat = _compat(cls)
    fields = dataclasses.fields(cls)
    names = [f.name for f in fields]
    late = {f.name: _default(f) for f in fields if f.name in compat.late}
    nan_as_null = compat.nan_as_null
    registry = _registry(cls)
    if registry is not None and registry.get(cls.__name__) is not cls:
        raise TypeError(f"unregistered codec type {cls.__name__!r}")

    def encoder(obj: Any) -> Any:
        data: Dict[str, Any] = {}
        for name in names:
            value = getattr(obj, name)
            if name in late and value == late[name]:
                continue
            data[name] = encode(value)
        for name in nan_as_null:
            if math.isnan(data[name]):
                data[name] = None
        if registry is None:
            return data
        return {"type": cls.__name__, "fields": data}

    return encoder


def _default(field: dataclasses.Field[Any]) -> Any:
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default


# -- decoding ----------------------------------------------------------------


def decode(cls: Type[T], data: Any) -> T:
    """Rebuild a ``cls`` from its :func:`encode` output.

    A message keeps its original ``msg_id`` (request/reply correlation
    must survive the process boundary), so decoding never draws from the
    local message-id counter.
    """
    return typing.cast(T, _decoder(cls)(data))


def _same(value: Any) -> Any:
    return value


_DECODERS: Dict[Any, Decoder] = {}


def _decoder(hint: Any) -> Decoder:
    """Decoder for one type hint, compiled on first use."""
    decoder = _DECODERS.get(hint)
    if decoder is None:
        decoder = _DECODERS[hint] = _compile(hint)
    return decoder


def _compile(hint: Any) -> Decoder:
    if hint is Any or hint in (str, int, float, bool):
        return _same
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is Union:
        inner = [arg for arg in args if arg is not type(None)]
        if len(inner) != 1:
            raise TypeError(f"cannot decode union {hint!r}")
        value = _decoder(inner[0])
        if value is _same:
            return _same
        return lambda data: None if data is None else value(data)
    if origin is tuple and not (len(args) == 2 and args[1] is Ellipsis):
        # Fixed-shape tuple: one decoder per position.
        slots = [_decoder(arg) for arg in args]
        return lambda data: tuple([slot(value) for slot, value in zip(slots, data)])
    if origin is tuple:
        item = _decoder(args[0])
        return lambda data: tuple([item(value) for value in data])
    if origin is list:
        item = _decoder(args[0])
        return lambda data: [item(value) for value in data]
    if origin is dict:
        key: Decoder = int if args[0] is int else _same
        value = _decoder(args[1])
        return lambda data: {key(k): value(v) for k, v in data.items()}
    if hint is np.ndarray:
        return np.array
    if hint is MetricsRecorder:
        return _decode_recorder
    if isinstance(hint, type):
        return _class_decoder(hint)
    raise TypeError(f"cannot decode {hint!r}")


def _class_decoder(cls: Any) -> Decoder:
    if _compat(cls).row:
        return lambda row: cls(*row)
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"cannot decode {cls.__name__!r}")
    registry = _registry(cls)
    if registry is None:
        return _fields_decoder(cls)
    # The envelope names the concrete class, which may be a subclass of
    # the declared type.
    by_name = {name: _fields_decoder(member) for name, member in registry.items()}
    return lambda data: by_name[data["type"]](data["fields"])


def _fields_decoder(cls: Any) -> Decoder:
    hints = typing.get_type_hints(cls)
    compat = _compat(cls)
    fields = {
        f.name: _null_to_nan if f.name in compat.nan_as_null else _decoder(hints[f.name])
        for f in dataclasses.fields(cls)
    }
    upgrade = compat.upgrade

    def decoder(data: Any) -> Any:
        if upgrade is not None:
            data = upgrade(data)
        # Absent keys fall to the field default; an unknown key reaches
        # the constructor, which rejects it with a TypeError.
        return cls(**{key: fields.get(key, _same)(value) for key, value in data.items()})

    return decoder


def _null_to_nan(value: Optional[float]) -> float:
    return math.nan if value is None else value


# -- metrics recorder (the one non-dataclass) --------------------------------

#: Recorder attribute, event type and row getter: each event list is
#: stored as a list of flat rows.
_RECORDER_ROWS: List[Tuple[str, Any, Callable[[Any], Tuple[Any, ...]]]] = [
    (key, cls, _row_getter(cls))
    for key, cls in (
        ("transactions", TransactionEvent),
        ("turnarounds", TurnaroundSample),
        ("caps", CapSample),
        ("samples", LedgerSample),
    )
]


def _encode_recorder(recorder: MetricsRecorder) -> Dict[str, Any]:
    data: Dict[str, Any] = {
        "record_caps": recorder._record_caps,
        "counters": dict(recorder.counters),
    }
    for key, _, row in _RECORDER_ROWS:
        data[key] = [list(row(event)) for event in getattr(recorder, key)]
    return data


def _decode_recorder(data: Dict[str, Any]) -> MetricsRecorder:
    recorder = MetricsRecorder(record_caps=data["record_caps"])
    for key, cls, _ in _RECORDER_ROWS:
        # Ledger samples postdate the original codec; absent means none.
        setattr(recorder, key, [cls(*row) for row in data.get(key, ())])
    recorder.counters = dict(data["counters"])
    return recorder
