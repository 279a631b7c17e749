"""Overload resolution: exact name, arity, and ordered parameter types.

The checker resolves every call site statically (no conversions, no
promotion), so the trace names no callee: the statements that run after each
CallEntered show which body actually ran. A call shape that
matches no declared signature is rejected before anything executes.
"""

from __future__ import annotations

from dynslice import load, resolve_overload, run
from dynslice.events import CallEntered
from dynslice.fixtures import SAMPLE_INPUTS, SAMPLE_SOURCE
from dynslice.frontend import NoMatchError
from dynslice.syntax import walk

program = load(SAMPLE_SOURCE)
cls = program.class_named("test")
print("declared methods:")
for m in cls.methods:
    print(f"  {m.signature}")
print()

for shape in [("test", "test"), ("test", "int")]:
    m = resolve_overload(cls, "add", shape)
    print(f"add({', '.join(shape)}) -> {m.signature}")

try:
    resolve_overload(cls, "add", ("int", "int"))
except NoMatchError as exc:
    print(f"add(int, int) -> {exc}")
print()

events = run(program, SAMPLE_INPUTS).events
body_of = {s.id: f"{c}.{m.signature}" for c, m, body in program.procedures()
           if m is not None for s in walk(body)}
print("dispatch evidence from the trace, the body node that ran first:")
for ev, nxt in zip(events, events[1:]):
    if isinstance(ev, CallEntered):
        node = nxt.call_site if isinstance(nxt, CallEntered) else nxt.id
        print(f"  node {ev.call_site:2} ran node {node} of {body_of[node]}")
