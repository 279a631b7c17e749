"""Execution events and their newline-delimited JSON trace format.

The interpreter emits these in execution order; the slicer consumes them
directly or replays them from a serialized trace. Round-trip is exact:
``parse_trace(serialize_trace(events)) == events``.

Each event says a fact the program text cannot give, and says it once:
StmtExecuted (a statement ran: its defs and uses), CallEntered (callee entry
key and parameter transfers), Returned (copy-backs, resets, the assigned
var, the receiver's members), LoopExited, InputConsumed, OutputProduced and
Warning. A return's slice is read from the Return statement's StmtExecuted.

An event written in full is one JSON object on its line: ``"event"`` holds
the class name and every other key is a dataclass field of that event, with
keys sorted. A RuntimeVar is spelled out as an object of its fields the first
time the trace names it, and after that is a bare int: its index among the
trace's distinct vars, counted from 0 in order of first appearance, each line
read left to right.
``to_line`` builds a line from the event class's fields, encoding each value
by its type, and writes exactly the bytes of ``json.dumps(...,
sort_keys=True)`` of that record: strings ASCII-escaped, ``", "`` and
``": "`` as separators. Tuples keep the order they were emitted in.
``from_json`` is the schema that checks a line read back in. It reads the
fields in the order ``to_line`` writes them, each decoded by its name from
one table, so a var is always spelled out before its index. A spelled-out
var it has met before is the same object and takes no new index, so a trace
that spells out every var, the format before indices, reads the same.
``validate_trace`` checks a parsed trace against the program it is replayed
on, so that neither engine meets an event it cannot place.

Events repeat as vars do, one level up. ``line_writer`` makes the lines of one
trace: an event is written in full through ``to_line`` the first time the trace
meets it, and a payload-free event (one without a ``_PAYLOADS`` value) that it
has written before is the bare int line ``N``, its index among the payload-free
events written so far, counted from 0. InputConsumed, OutputProduced and
Warning carry run values and are always written in full. ``parse_trace``
numbers each new payload-free line it reads the same way, so an index is a
line already decoded. A trace that writes every event in full, the format
before back-references, reads the same.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cache
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from .cdg import Cdg


class RuntimeVar(NamedTuple):
    """A concrete storage location during one run.

    A local is keyed by its frame's call depth, a member by its object's id,
    so same-named variables in live frames or objects stay distinct. A frame
    that returned has had its vars reset, so a later frame at that depth, or
    an object that takes a freed id, reuses the name. ``display`` is the
    human-readable name used in criteria ("p", "T1.a", "x"). A named tuple,
    so that the slicer's and the oracle's dicts keyed by vars hash and compare
    them in C.
    """

    kind: str  # "local" | "member"
    owner: int  # opaque: call depth | object id as the interpreter numbers them
    name: str
    display: str


@dataclass(frozen=True)
class ExecEvent:
    pass


@dataclass(frozen=True)
class StmtExecuted(ExecEvent):
    id: int
    defs: tuple[RuntimeVar, ...] = ()
    uses: tuple[RuntimeVar, ...] = ()


@dataclass(frozen=True)
class CallEntered(ExecEvent):
    """A call's callee, by its CDG entry key ("test.add(test,test)"), and its
    slice-transfer plan: (formal var, source vars) pairs in formal, then
    member, order. A scalar formal gives one pair, an object formal one per
    member, a literal actual an empty source tuple."""

    call_site: int
    callee: str
    transfers: tuple[tuple[RuntimeVar, tuple[RuntimeVar, ...]], ...] = ()


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

def _rv_from(d, interned: dict, seen: list) -> RuntimeVar:
    """The var a record names: an int is its index in `seen`, the trace's vars
    in order of first appearance. A spelled-out var is checked first, since
    its fields become a key, then is the one RuntimeVar `interned` holds for
    those fields; only a var new to the trace takes the next index."""
    if type(d) is int:
        if 0 <= d < len(seen):
            return seen[d]
        raise ValueError(f"no variable {d}: {len(seen)} seen so far")
    if type(d) is not dict:
        raise ValueError(f"malformed variable: {d!r}")
    key = (d["kind"], d["owner"], d["name"], d["display"])
    if (key[0] not in ("local", "member") or type(key[1]) is not int
            or type(key[2]) is not str or type(key[3]) is not str):
        raise ValueError(f"malformed variable: {d!r}")
    rv = interned.get(key)
    if rv is None:
        rv = interned[key] = RuntimeVar(*key)
        seen.append(rv)
    return rv


def _rvs_from(items, interned: dict, seen: list) -> tuple[RuntimeVar, ...]:
    return tuple([_rv_from(d, interned, seen) for d in items])


def from_json(d: dict, interned: dict, seen: list) -> ExecEvent:
    """The event a decoded line holds. Vars are shared through `interned`,
    (kind, owner, name, display) -> RuntimeVar, as the interpreter shares them,
    and `seen` lists them by index. Fields are read in `_line_parts`' order,
    the sorted-key order `to_line` writes them, so a var is spelled out before
    its index; each is decoded by its name, in `_DECODE`."""
    kind = d.get("event") if isinstance(d, dict) else None
    cls = _EVENTS.get(kind) if type(kind) is str else None
    if cls is None:
        raise ValueError(f"malformed trace record: {d!r}")
    return cls(**{n: _DECODE.get(n, _plain)(d[n], interned, seen)
                  for n in _line_parts(cls)[1]})


_EVENTS = {cls.__name__: cls for cls in ExecEvent.__subclasses__()}


def _plain(x, interned: dict, seen: list):
    return x


# how each field that holds vars is read; any other field is its JSON value
_DECODE = {
    "defs": _rvs_from, "uses": _rvs_from, "resets": _rvs_from,
    "receiver_members": _rvs_from,
    "transfers": lambda x, interned, seen: tuple([
        (_rv_from(f, interned, seen), _rvs_from(srcs, interned, seen)) for f, srcs in x]),
    "copy_backs": lambda x, interned, seen: tuple([
        (_rv_from(f, interned, seen), _rv_from(a, interned, seen)) for f, a in x]),
    "returned_into": lambda x, interned, seen:
        None if x is None else _rv_from(x, interned, seen),
}


def _encode(x, seen: dict) -> str:
    """`x` as JSON, by its exact type: the bytes ``json.dumps(x, sort_keys=True)``
    gives for the plain dicts and lists that stand for it. A var already in
    `seen` is its index there; a new one is spelled out and takes the next."""
    t = type(x)
    if t is RuntimeVar:
        i = seen.get(x)
        if i is not None:
            return int.__repr__(i)
        seen[x] = len(seen)
        return '{"display": %s, "kind": %s, "name": %s, "owner": %s}' % (
            encode_basestring_ascii(x.display), encode_basestring_ascii(x.kind),
            encode_basestring_ascii(x.name), int.__repr__(x.owner))
    if t is tuple:
        return "[" + ", ".join([_encode(v, seen) for v in x]) + "]"
    if t is int:
        return int.__repr__(x)
    if t is str:
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    return json.dumps(x, default=vars, sort_keys=True)


@cache
def _line_parts(cls: type) -> tuple[list[str], tuple[str, ...]]:
    """The pieces of `cls`'s lines, literal text at even places and None for
    each value, and the fields whose values fill them, in key order: the
    dataclass fields plus "event", sorted."""
    keys = sorted([f.name for f in fields(cls)] + ["event"])
    parts = ["{"]
    for i, k in enumerate(keys):
        parts[-1] += (", " if i else "") + encode_basestring_ascii(k) + ": "
        if k == "event":
            parts[-1] += encode_basestring_ascii(cls.__name__)
        else:
            parts += [None, ""]
    parts[-1] += "}\n"
    return parts, tuple(k for k in keys if k != "event")


def to_line(ev: ExecEvent, seen: dict) -> str:
    """One event as its NDJSON trace line, newline included. `seen` maps each
    var the trace has written so far to its index, one table per trace. One
    join makes the line at its exact length: a %-format result may keep up
    to a quarter more, and `trace` holds every line until the run ends."""
    parts, names = _line_parts(type(ev))
    parts = parts.copy()
    parts[1::2] = [_encode(getattr(ev, n), seen) for n in names]
    return "".join(parts)


# the payload field of each event that carries a value, and the types it may hold
_PAYLOADS = {InputConsumed: ("value", (int,)), OutputProduced: ("value", (int, str)),
             Warning: ("message", (str,))}


def line_writer() -> Callable[[ExecEvent], str]:
    """The line maker of one trace: each call gives the next event's line.
    A payload-free event it has written before is its index among the
    payload-free events written so far, ``"N\\n"``; any other event is written
    in full by `to_line`, with one var table for the trace. Events are frozen,
    so equal events hash alike: the event table maps each payload-free event
    written so far to its back-reference line."""
    seen: dict = {}
    written: dict[ExecEvent, str] = {}

    def line(ev: ExecEvent) -> str:
        if type(ev) in _PAYLOADS:
            return to_line(ev, seen)
        ref = written.get(ev)
        if ref is not None:
            return ref
        text = to_line(ev, seen)
        written[ev] = f"{len(written)}\n"
        return text

    return line


def serialize_trace(events) -> str:
    return "".join(map(line_writer(), events))


def parse_trace(text: str) -> list[ExecEvent]:
    """The events of a trace, with one RuntimeVar per location as in a run.

    A line read before is the same event again: the var table only grows,
    and a var spelled out again takes no new index, so the line's indices and
    vars name what they named the first time. Vars name what is live, a local
    by call depth, so calls at one depth repeat their lines as loops do, and
    those are decoded once. Only lines without a `_PAYLOADS` value are kept
    for that, so the cache is bounded by the program, not by the run's values.
    The i-th new such line is also kept under the text ``str(i)``, so a
    back-reference `line_writer` wrote is a hit too; any other int line is
    malformed."""
    events = []
    interned: dict = {}
    seen: list = []
    read: dict[str, ExecEvent] = {}
    kept = 0  # new payload-free lines so far
    for lineno, line in enumerate(text.splitlines(), start=1):
        ev = read.get(line)
        if ev is None:
            if not line.strip():
                continue
            try:
                d = json.loads(line)
                if type(d) is int:
                    raise ValueError(f"no line {d}: {kept} read so far")
                ev = from_json(d, interned, seen)
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"malformed trace at line {lineno}: {exc}") from exc
            if type(ev) not in _PAYLOADS:  # names only nodes and vars
                read[line] = read[str(kept)] = ev
                kept += 1
        events.append(ev)
    return events


def validate_trace(events: list[ExecEvent], graph: Cdg) -> None:
    """Reject (ValueError) a parsed trace that this program's runs cannot
    produce: a node id it does not have, a node outside the procedure that is
    running (the innermost open call's callee, or main), a node before its
    governing test, a LoopExited off a loop, a CallEntered off a call
    statement or into no method of the program, a Returned without its
    CallEntered, or an input, output or warning payload of the wrong type."""
    methods = set(graph.entry_order) - {"main"}
    entry: dict[int, str] = {}  # node -> the procedure it belongs to
    for sid, p in graph.parent.items():
        while isinstance(p, int):
            p = graph.parent[p]
        entry[sid] = p
    executed: set[int] = set()
    open_calls: list[tuple[int, str]] = []  # (call site, callee)
    for i, ev in enumerate(events, start=1):
        if isinstance(ev, CallEntered):
            if type(ev.callee) is not str or ev.callee not in methods:
                raise ValueError(f"trace event {i}: no method {ev.callee!r} "
                                 "in this program")
            node = ev.call_site
        elif isinstance(ev, Returned):
            node = ev.call_site
            if not open_calls or open_calls.pop()[0] != node:
                raise ValueError(f"trace event {i}: Returned from {node!r} "
                                 "without its CallEntered")
        else:
            node = ev.id
            if type(ev) in _PAYLOADS:
                name, types = _PAYLOADS[type(ev)]
                value = getattr(ev, name)
                if type(value) not in types:
                    raise ValueError(f"trace event {i}: {type(ev).__name__} {name} "
                                     f"{value!r} is not {' or '.join(t.__name__ for t in types)}")
        if type(node) is not int or node not in graph.nodes:
            raise ValueError(f"trace event {i}: no node {node!r} in this program")
        running = open_calls[-1][1] if open_calls else "main"
        # a call that assigns a missing result warns at its own site after the
        # callee's last event and before Returned
        returning = isinstance(ev, Warning) and open_calls and open_calls[-1][0] == node
        if entry[node] != running and not returning:
            raise ValueError(f"trace event {i}: {type(ev).__name__} at node {node} "
                             f"of {entry[node]} while {running} runs")
        test = graph.parent_test(node)
        if test is not None and test not in executed:
            raise ValueError(f"trace event {i}: node {node} before its test {test}")
        if isinstance(ev, LoopExited) and graph.kind(node) != "TestLoop":
            raise ValueError(f"trace event {i}: LoopExited on non-loop node {node}")
        if isinstance(ev, CallEntered):
            if graph.kind(node) != "Call":
                raise ValueError(f"trace event {i}: CallEntered at non-call node {node}")
            open_calls.append((node, ev.callee))
        if isinstance(ev, StmtExecuted):
            executed.add(node)
