"""Execution events and their newline-delimited JSON trace format.

The interpreter emits these in execution order; the slicer consumes them
directly or replays them from a serialized trace. Round-trip is exact:
``parse_trace(serialize_trace(events)) == events``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class RuntimeVar:
    """A concrete storage location during one run.

    Locals are keyed by the owning frame's invocation serial, members by the
    object's identity, so same-named variables in different activations or
    objects stay distinct. ``display`` is the human-readable name used in
    criteria ("p", "T1.a", "x").
    """

    kind: str  # "local" | "member"
    owner: int  # frame serial | object identity
    name: str
    display: str

    def sort_key(self):
        return (self.kind, self.owner, self.name)


@dataclass(frozen=True)
class ExecEvent:
    pass


@dataclass(frozen=True)
class StmtExecuted(ExecEvent):
    id: int
    defs: tuple[RuntimeVar, ...] = ()
    uses: tuple[RuntimeVar, ...] = ()


@dataclass(frozen=True)
class Callee:
    cls: str
    name: str
    param_types: tuple[str, ...]


@dataclass(frozen=True)
class Binding:
    """One formal's slice-transfer plan: pairs of (formal var, source vars).

    Scalars give one pair; object formals give one pair per member; literal
    actuals give an empty source tuple.
    """

    formal: str
    by_ref: bool
    kind: str  # "var" | "object" | "literal"
    transfers: tuple[tuple[RuntimeVar, tuple[RuntimeVar, ...]], ...] = ()


@dataclass(frozen=True)
class CallEntered(ExecEvent):
    call_site: int
    callee: Callee
    bindings: tuple[Binding, ...] = ()


@dataclass(frozen=True)
class AboutToReturn(ExecEvent):
    id: int | None
    uses: tuple[RuntimeVar, ...] = ()


@dataclass(frozen=True)
class Returned(ExecEvent):
    call_site: int
    copy_backs: tuple[tuple[RuntimeVar, RuntimeVar], ...] = ()  # (formal, actual)
    resets: tuple[RuntimeVar, ...] = ()
    returned_into: RuntimeVar | None = None
    receiver_members: tuple[RuntimeVar, ...] = ()


@dataclass(frozen=True)
class LoopExited(ExecEvent):
    id: int


@dataclass(frozen=True)
class InputConsumed(ExecEvent):
    id: int
    value: int


@dataclass(frozen=True)
class OutputProduced(ExecEvent):
    id: int
    value: int | str


@dataclass(frozen=True)
class Warning(ExecEvent):
    id: int
    message: str


# ---------------------------------------------------------------------------
# JSON trace round-trip
# ---------------------------------------------------------------------------

def _rv(v: RuntimeVar) -> dict:
    return {"kind": v.kind, "owner": v.owner, "name": v.name, "display": v.display}


def _rv_from(d: dict) -> RuntimeVar:
    return RuntimeVar(d["kind"], d["owner"], d["name"], d["display"])


def _rvs(vs) -> list[dict]:
    return [_rv(v) for v in sorted(vs, key=RuntimeVar.sort_key)]


def _rvs_from(items) -> tuple[RuntimeVar, ...]:
    return tuple(_rv_from(d) for d in items)


def to_json(ev: ExecEvent) -> dict:
    if isinstance(ev, StmtExecuted):
        return {"event": "StmtExecuted", "id": ev.id,
                "defs": _rvs(ev.defs), "uses": _rvs(ev.uses)}
    if isinstance(ev, CallEntered):
        return {
            "event": "CallEntered",
            "call_site": ev.call_site,
            "callee": {"cls": ev.callee.cls, "name": ev.callee.name,
                       "param_types": list(ev.callee.param_types)},
            "bindings": [
                {"formal": b.formal, "by_ref": b.by_ref, "kind": b.kind,
                 "transfers": [[_rv(f), [_rv(s) for s in srcs]] for f, srcs in b.transfers]}
                for b in ev.bindings
            ],
        }
    if isinstance(ev, AboutToReturn):
        return {"event": "AboutToReturn", "id": ev.id, "uses": _rvs(ev.uses)}
    if isinstance(ev, Returned):
        return {
            "event": "Returned",
            "call_site": ev.call_site,
            "copy_backs": [[_rv(f), _rv(a)] for f, a in ev.copy_backs],
            "resets": _rvs(ev.resets),
            "returned_into": _rv(ev.returned_into) if ev.returned_into else None,
            "receiver_members": _rvs(ev.receiver_members),
        }
    if isinstance(ev, LoopExited):
        return {"event": "LoopExited", "id": ev.id}
    if isinstance(ev, InputConsumed):
        return {"event": "InputConsumed", "id": ev.id, "value": ev.value}
    if isinstance(ev, OutputProduced):
        return {"event": "OutputProduced", "id": ev.id, "value": ev.value}
    if isinstance(ev, Warning):
        return {"event": "Warning", "id": ev.id, "message": ev.message}
    raise TypeError(f"unknown event {ev!r}")


def from_json(d: dict) -> ExecEvent:
    kind = d.get("event")
    if kind == "StmtExecuted":
        return StmtExecuted(d["id"], _rvs_from(d["defs"]), _rvs_from(d["uses"]))
    if kind == "CallEntered":
        callee = Callee(d["callee"]["cls"], d["callee"]["name"],
                        tuple(d["callee"]["param_types"]))
        bindings = tuple(
            Binding(b["formal"], b["by_ref"], b["kind"],
                    tuple((_rv_from(f), tuple(_rv_from(s) for s in srcs))
                          for f, srcs in b["transfers"]))
            for b in d["bindings"]
        )
        return CallEntered(d["call_site"], callee, bindings)
    if kind == "AboutToReturn":
        return AboutToReturn(d["id"], _rvs_from(d["uses"]))
    if kind == "Returned":
        return Returned(
            d["call_site"],
            tuple((_rv_from(f), _rv_from(a)) for f, a in d["copy_backs"]),
            _rvs_from(d["resets"]),
            _rv_from(d["returned_into"]) if d["returned_into"] else None,
            _rvs_from(d["receiver_members"]),
        )
    if kind == "LoopExited":
        return LoopExited(d["id"])
    if kind == "InputConsumed":
        return InputConsumed(d["id"], d["value"])
    if kind == "OutputProduced":
        return OutputProduced(d["id"], d["value"])
    if kind == "Warning":
        return Warning(d["id"], d["message"])
    raise ValueError(f"malformed trace record: {d!r}")


def to_line(ev: ExecEvent) -> str:
    """One event as its NDJSON trace line, newline included."""
    return json.dumps(to_json(ev), sort_keys=True) + "\n"


def serialize_trace(events) -> str:
    return "".join(map(to_line, events))


def parse_trace(text: str) -> list[ExecEvent]:
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            events.append(from_json(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed trace at line {lineno}: {exc}") from exc
    return events
