"""Overload resolution: exact name, arity, and ordered parameter types.

The checker resolves every call site statically (no conversions, no
promotion); the trace then records which body actually ran. A call shape that
matches no declared signature is rejected before anything executes.
"""

from __future__ import annotations

from dynslice import load, resolve_overload, run
from dynslice.events import CallEntered
from dynslice.fixtures import SAMPLE_INPUTS, SAMPLE_SOURCE
from dynslice.frontend import NoMatchError

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
print("dispatch evidence from the trace:")
for ev in events:
    if isinstance(ev, CallEntered):
        print(f"  node {ev.call_site:2} entered {ev.callee}")
