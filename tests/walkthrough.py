"""Golden walkthrough of the two-member-class fixture, step by step.

TABLE pins the slicer's visible state at each point of the reference run:
after a statement executes, right after a call is entered (formals bound),
or right after it returns. The slicer must reproduce every set exactly;
the acceptance suite and the slicer tests both replay this table.
"""

from __future__ import annotations

from dynslice import init, load, run
from dynslice.cdg import build_cdg
from dynslice.events import CallEntered, Returned, StmtExecuted
from dynslice.fixtures import SAMPLE_INPUTS, SAMPLE_SOURCE
from dynslice.slicer import ids_of

# ("stmt"|"call"|"ret", node, checks); "call" stops after CallEntered,
# "ret" after Returned. Checks: ("ads", display, ids) is the current
# ActiveDataSlice, ("dyn", node, display, ids) a recorded DyanSlice entry.
TABLE = [
    ("stmt", 2, [("ads", "p", {2}), ("dyn", 2, "p", {2})]),
    ("stmt", 4, [("ads", "q", {4})]),
    ("call", 5, [("ads", "x", {2, 5}), ("ads", "y", {4, 5})]),
    ("stmt", 17, [("ads", "T1.a", {2, 5, 17}), ("dyn", 17, "T1.a", {2, 5, 17})]),
    ("stmt", 18, [("ads", "T1.b", {4, 5, 18})]),
    ("stmt", 19, [("dyn", 19, "T1.a", {2, 5, 17})]),
    ("stmt", 20, [("dyn", 20, "T1.b", {4, 5, 18})]),
    ("stmt", 8, [("ads", "p", {8})]),
    ("stmt", 10, [("ads", "q", {10})]),
    ("call", 11, [("ads", "x", {8, 11}), ("ads", "y", {10, 11})]),
    ("stmt", 17, [("ads", "T2.a", {8, 11, 17})]),
    ("stmt", 18, [("ads", "T2.b", {10, 11, 18})]),
    ("stmt", 19, [("dyn", 19, "T2.a", {8, 11, 17})]),
    ("stmt", 20, [("dyn", 20, "T2.b", {10, 11, 18})]),
    ("call", 13, [
        ("ads", "tp1.a", {2, 5, 13, 17}), ("ads", "tp1.b", {4, 5, 13, 18}),
        ("ads", "tp2.a", {8, 11, 13, 17}), ("ads", "tp2.b", {10, 11, 13, 18}),
    ]),
    ("stmt", 21, [("ads", "T3.a", {2, 5, 8, 11, 13, 17, 21})]),
    ("stmt", 22, [("ads", "T3.b", {4, 5, 10, 11, 13, 18, 22})]),
    ("ret", 13, [
        ("dyn", 13, "T3.a", {2, 5, 8, 11, 13, 17, 21}),
        ("dyn", 13, "T3.b", {4, 5, 10, 11, 13, 18, 22}),
    ]),
    ("call", 15, [
        ("ads", "tp3.a", {2, 5, 8, 11, 13, 15, 17, 21}),
        ("ads", "tp3.b", {4, 5, 10, 11, 13, 15, 18, 22}),
        ("ads", "s", {15}),
    ]),
    ("stmt", 23, [("ads", "T4.a", {2, 5, 8, 11, 13, 15, 17, 21, 23})]),
    ("stmt", 24, [("ads", "T4.b", {4, 5, 10, 11, 13, 15, 18, 22, 24})]),
    ("end", 0, [
        ("dyn", 16, "T4.a", {2, 5, 8, 11, 13, 15, 17, 21, 23}),
        ("dyn", 16, "T4.b", {4, 5, 10, 11, 13, 15, 18, 22, 24}),
        ("dyn", 19, "T4.a", {2, 5, 8, 11, 13, 15, 17, 21, 23}),
    ]),
]

OBJECT_SLICES = {
    "T1": {2, 4, 5, 17, 18},
    "T2": {8, 10, 11, 17, 18},
    "T3": {2, 4, 5, 8, 10, 11, 13, 17, 18, 21, 22},
    "T4": {2, 4, 5, 8, 10, 11, 13, 15, 17, 18, 21, 22, 23, 24},
}


def _stopped(kind, node, ev):
    if kind == "stmt":
        return isinstance(ev, StmtExecuted) and ev.id == node
    if kind == "call":
        return isinstance(ev, CallEntered) and ev.call_site == node
    return isinstance(ev, Returned) and ev.call_site == node


def _ads(state, display):
    found = [s for rv, s in state.active_data.items() if rv.display == display]
    assert len(found) == 1, f"expected one live variable named {display}"
    return set(ids_of(found[0]))


def replay(events=None):
    """Assert every TABLE row against a fresh slicer; return the final state
    and the number of sets checked."""
    program = load(SAMPLE_SOURCE)
    if events is None:
        events = run(program, SAMPLE_INPUTS).events
    state = init(build_cdg(program))
    pos = 0
    checked = 0
    for kind, node, checks in TABLE:
        if kind == "end":
            state.consume(events[pos:])
            pos = len(events)
        else:
            while True:
                assert pos < len(events), f"never reached {kind} {node}"
                ev = events[pos]
                pos += 1
                state.feed(ev)
                if _stopped(kind, node, ev):
                    break
        for check in checks:
            if check[0] == "ads":
                _, display, want = check
                got = _ads(state, display)
                where = f"ADS({display}) at {kind} {node}"
            else:
                _, cnode, display, want = check
                got = set(state.slice_of(cnode, display))
                where = f"DyanSlice({cnode}, {display}) at {kind} {node}"
            assert got == want, f"{where}: {sorted(got)} != {sorted(want)}"
            checked += 1
    for name, want in OBJECT_SLICES.items():
        got = set(state.slice_of_object(name))
        assert got == want, f"DyanSlice({name}): {sorted(got)} != {sorted(want)}"
        checked += 1
    return state, checked
