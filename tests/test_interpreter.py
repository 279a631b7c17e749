from __future__ import annotations

import hashlib

import pytest

from dynslice import (
    DEFAULT_BUDGET,
    build_cdg,
    generate,
    load,
    parse_trace,
    run,
    serialize_trace,
)
from dynslice.events import (
    CallEntered,
    InputConsumed,
    OutputProduced,
    Returned,
    StmtExecuted,
    Warning,
    validate_trace,
)
from dynslice.fixtures import (
    BYREF_SOURCE,
    CALLS_SOURCE,
    LOOP_SOURCE,
    SAMPLE_INPUTS,
    SAMPLE_SOURCE,
)


def stmt_ids(events):
    return [e.id for e in events if isinstance(e, StmtExecuted)]


def test_sample_outputs(sample_run):
    assert sample_run.ok
    assert [v for v in sample_run.outputs if isinstance(v, int)] \
        == [1, 2, 3, 4, 4, 6, 9, 11]
    assert sample_run.outputs[0] == "Enter the value of p"


def test_sample_statement_order(sample_run):
    assert stmt_ids(sample_run.events) == [
        1, 2, 3, 4, 17, 18, 5, 19, 20, 6,
        7, 8, 9, 10, 17, 18, 11, 19, 20, 12,
        21, 22, 13, 19, 20, 14, 23, 24, 15, 19, 20, 16,
    ]


def test_call_event_protocol(sample_program, sample_run, dispatched):
    # per call: CallEntered, callee statements, Returned, and the call-site
    # StmtExecuted strictly last (no return statement in this method)
    events = sample_run.events
    first_call = next(i for i, e in enumerate(events)
                      if isinstance(e, CallEntered))
    window = events[first_call:first_call + 5]
    assert isinstance(window[0], CallEntered) and window[0].call_site == 5
    assert dispatched(sample_program, events)[0] == (5, "test.get(int,int)")
    assert [e.id for e in window[1:3] if isinstance(e, StmtExecuted)] == [17, 18]
    assert isinstance(window[3], Returned) and window[3].call_site == 5
    assert isinstance(window[4], StmtExecuted) and window[4].id == 5


def test_return_event_protocol(dispatched):
    program = load("""\
class c {
    int m;
public:
    int f(int x) {
        #3: m = x;
        #4: return m;
    }
};

void main() {
    c o;
    int b;
    #1: b = o.f(2);
    #2: cout << b;
}
""")
    result = run(program, ())
    assert result.ok and result.outputs == [2]
    kinds = [type(e).__name__ for e in result.events]
    assert kinds == ["CallEntered", "StmtExecuted", "StmtExecuted",
                     "Returned", "StmtExecuted", "OutputProduced",
                     "StmtExecuted"]
    assert dispatched(program, result.events) == [(1, "c.f(int)")]
    ret = result.events[2]
    assert ret.id == 4
    assert [v.display for v in ret.uses] == ["o.m"]
    returned = next(e for e in result.events if isinstance(e, Returned))
    assert returned.returned_into.display == "b"


def test_overload_dispatch_in_trace(sample_program, sample_run, dispatched):
    # the body that runs after each CallEntered is the resolved overload's
    by_site = dict(dispatched(sample_program, sample_run.events))
    assert by_site[13] == "test.add(test,test)"
    assert by_site[15] == "test.add(test,int)"
    assert by_site[5] == "test.get(int,int)"


def test_io_event_precedes_statement(sample_run):
    events = sample_run.events
    for i, ev in enumerate(events):
        if isinstance(ev, (InputConsumed, OutputProduced)):
            nxt = events[i + 1]
            assert isinstance(nxt, StmtExecuted) and nxt.id == ev.id


def test_loop_iterations(loop_program):
    result = run(loop_program, (2,))
    assert result.ok
    assert result.outputs == [3, 9]
    # test node 3 appears once per evaluation, n + 1 times, and the false one
    # is followed by the loop's exit successor, node 6: no event marks the exit
    assert stmt_ids(result.events) == [1, 2, 3, 4, 5, 3, 4, 5, 3, 6, 7, 8]
    last = max(i for i, e in enumerate(result.events)
               if isinstance(e, StmtExecuted) and e.id == 3)
    assert [type(e).__name__ for e in result.events[last + 1:last + 3]] \
        == ["OutputProduced", "StmtExecuted"]
    assert result.events[last + 1].id == result.events[last + 2].id == 6


def test_zero_iteration_loop(loop_program):
    result = run(loop_program, (0,))
    assert result.ok
    assert result.outputs == [0, 9]
    # the test runs once, and its exit successor right after it
    ids = stmt_ids(result.events)
    assert ids == [1, 2, 3, 6, 7, 8]
    assert ids.count(3) == 1 and ids[ids.index(3) + 1] == 6


def test_by_ref_copy_restore():
    result = run(load(BYREF_SOURCE), (7,))
    assert result.ok
    assert result.outputs == [10]
    returned = next(e for e in result.events if isinstance(e, Returned))
    assert [(f.display, a.display) for f, a in returned.copy_backs] == [("r", "x")]


def test_uninitialized_reads_warn_and_zero():
    result = run(load("void main() { int x, y; #1: y = x + 1; #2: cout << y; }"), ())
    assert result.ok
    assert result.outputs == [1]
    warning = next(e for e in result.events if isinstance(e, Warning))
    assert warning.id == 1 and "x" in warning.message


def test_division_truncates_toward_zero():
    result = run(load(
        "void main() { int x, y; #1: x = 0 - 7; #2: y = x / 2; #3: cout << y; }"), ())
    assert result.outputs == [-3]


def test_relational_results_are_zero_one():
    result = run(load(
        "void main() { int a, b; #1: a = 2 < 3; #2: b = 2 < 1; "
        "#3: cout << a; #4: cout << b; }"), ())
    assert result.outputs == [1, 0]


def test_input_exhausted(loop_program):
    result = run(loop_program, ())
    assert not result.ok
    assert result.status == "input-exhausted"
    assert "node 1" in result.message
    assert stmt_ids(result.events) == []  # nothing completed


def test_div_by_zero():
    result = run(load("void main() { int x; #1: x = 1 / 0; }"), ())
    assert result.status == "div-by-zero"
    assert "node 1" in result.message


def test_budget_exceeded():
    src = "void main() { int n; #1: n = 1; #2: while (n > 0) { #3: n = n + 1; } }"
    result = run(load(src), (), budget=50)
    assert result.status == "budget-exceeded"
    assert 0 < len(stmt_ids(result.events)) <= 50


def test_budget_counts_loop_evaluations(loop_program):
    # 12 statement executions for two iterations: exactly at budget is fine
    assert run(loop_program, (2,), budget=12).ok
    assert run(loop_program, (2,), budget=11).status == "budget-exceeded"


def test_run_requires_checked_program():
    from dynslice import parse
    with pytest.raises(ValueError):
        run(parse(LOOP_SOURCE), (2,))


# members declared out of alphabetical order: the Returned event after
# b.set(3) must list (b.a, b.z) both in memory and after a round trip
UNSORTED_MEMBERS_SOURCE = """\
class box {
    int z;
    int a;
public:
    void set(int v) {
        #3: z = v;
        #4: a = v + 1;
    }
};

void main() {
    box b;
    #1: b.set(3);
    #2: cout << b.z;
}
"""


def test_trace_round_trip():
    for source, inputs in ((SAMPLE_SOURCE, SAMPLE_INPUTS), (UNSORTED_MEMBERS_SOURCE, ())):
        events = run(load(source), inputs).events
        text = serialize_trace(events)
        assert parse_trace(text) == events
        assert len(text.splitlines()) == len(events)


def test_parse_trace_rejects_garbage():
    with pytest.raises(ValueError, match="line 1"):
        parse_trace("not json\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_trace('{"event": "OutputProduced", "id": 3, "value": 1}\n{"event": "StmtExecuted"}\n')
    with pytest.raises(ValueError, match="line 2"):
        parse_trace('{"event": "OutputProduced", "id": 3, "value": 1}\n0\n')
    with pytest.raises(ValueError, match="line 1"):
        parse_trace("[1,2]\n")
    # a variable's fields must have their types: an unhashable owner, a
    # non-string name
    var = '{"kind": "local", "owner": 1, "name": "n", "display": "n"}'
    stmt = '{"event": "StmtExecuted", "id": 1, "defs": [%s], "uses": []}\n'
    with pytest.raises(ValueError, match="line 2"):
        parse_trace(stmt % var + stmt % var.replace('"owner": 1', '"owner": [1]'))
    with pytest.raises(ValueError, match="line 1"):
        parse_trace(stmt % var.replace('"name": "n"', '"name": 5'))


# a call whose result is assigned though the callee returned nothing: its
# Warning names the call site while the call is still open
NO_RESULT_SOURCE = """\
class box {
    int v;
public:
    int get(int x) {
        #3: if (x > 0) {
            #4: return x;
        }
    }
};

void main() {
    box b;
    int r;
    #1: r = b.get(0);
    #2: cout << r;
}
"""


def test_validate_trace_accepts_every_real_run():
    cases = [(SAMPLE_SOURCE, SAMPLE_INPUTS, DEFAULT_BUDGET),
             (NO_RESULT_SOURCE, (), DEFAULT_BUDGET),
             (LOOP_SOURCE, (3,), DEFAULT_BUDGET),
             (BYREF_SOURCE, (7,), DEFAULT_BUDGET),
             (CALLS_SOURCE, (5,), DEFAULT_BUDGET),
             (CALLS_SOURCE, (5,), 20)]  # cut by the budget inside a call
    cases += [(g.source, g.inputs, DEFAULT_BUDGET) for g in map(generate, range(200))]
    for source, inputs, budget in cases:
        program = load(source)
        events = run(program, inputs, budget).events
        validate_trace(events, build_cdg(program))


def _named_vars(ev):
    """(field, var) for every RuntimeVar an event names."""
    if isinstance(ev, StmtExecuted):
        yield from (("defs", v) for v in ev.defs)
        yield from (("uses", v) for v in ev.uses)
    elif isinstance(ev, CallEntered):
        for f_var, sources in ev.transfers:
            yield "transfers", f_var
            yield from (("transfers", v) for v in sources)
    elif isinstance(ev, Returned):
        for f_var, a_var in ev.copy_backs:
            yield "copy_backs", f_var
            yield "copy_backs", a_var
        yield from (("resets", v) for v in ev.resets)
        if ev.returned_into is not None:
            yield "returned_into", ev.returned_into
        yield from (("receiver_members", v) for v in ev.receiver_members)


def test_equal_vars_are_one_object():
    """Within one run, and within one parsed trace, any two equal RuntimeVars
    anywhere in the stream are the same object: the slicer's and the oracle's
    dicts keyed by them then match on identity."""
    cases = [(SAMPLE_SOURCE, SAMPLE_INPUTS), (CALLS_SOURCE, (5,)), (BYREF_SOURCE, (7,))]
    cases += [(g.source, g.inputs) for g in map(generate, range(50))]
    fields = set()
    for source, inputs in cases:
        events = run(load(source), inputs).events
        for stream in (events, parse_trace(serialize_trace(events))):
            first = {}
            for name, v in (nv for ev in stream for nv in _named_vars(ev)):
                assert first.setdefault(v, v) is v, f"{v} in {name} is a second object"
                fields.add(name)
    assert fields == {"defs", "uses", "transfers", "copy_backs", "resets",
                      "returned_into", "receiver_members"}


def test_equal_events_are_one_object():
    """Within one run, any two equal payload-free events are the same object:
    a statement's events are made at its first execution in a binding and
    emitted again on every later one."""
    cases = [(SAMPLE_SOURCE, SAMPLE_INPUTS), (CALLS_SOURCE, (5,)), (BYREF_SOURCE, (7,)),
             (REPEATED_WARNINGS_SOURCE, (3,))]
    cases += [(g.source, g.inputs) for g in map(generate, range(50))]
    repeats = 0
    for source, inputs in cases:
        events = [ev for ev in run(load(source), inputs).events
                  if isinstance(ev, (StmtExecuted, CallEntered, Returned))]
        first = {}
        for ev in events:
            assert first.setdefault(ev, ev) is ev, f"{ev} is a second object"
        repeats += len(events) - len(first)
    assert repeats > 0


def test_statement_reads_and_writes_are_the_static_sets():
    """The language has no short-circuit operators and no pointers, so a
    statement reads exactly the names its expression spells and writes its
    target: each StmtExecuted's uses and defs, named by (kind, name), equal the
    CDG's static use and def sets (Weiser's REF and DEF) of its node."""
    cases = [(SAMPLE_SOURCE, SAMPLE_INPUTS), (CALLS_SOURCE, (5,)), (BYREF_SOURCE, (7,)),
             (LOOP_SOURCE, (3,))]
    cases += [(g.source, g.inputs) for g in map(generate, range(200))]
    static = {"local": lambda r: ("local", r.base), "obj_member": lambda r: ("member", r.member),
              "recv_member": lambda r: ("member", r.base)}
    checked = 0
    for source, inputs in cases:
        program = load(source)
        cdg = build_cdg(program)
        for ev in {ev for ev in run(program, inputs).events if isinstance(ev, StmtExecuted)}:
            node = cdg.nodes[ev.id]
            if node.kind == "Call":
                continue
            for runtime, refs in ((ev.uses, node.use_set), (ev.defs, node.def_set)):
                assert {(v.kind, v.name) for v in runtime} \
                    == {static[r.hint](r) for r in refs}, f"node {ev.id} of {source}"
            checked += 1
    assert checked > 3000


# each iteration repeats three warnings: an uninitialized read in a statement
# (#6), an uninitialized int actual (#7) and, as in NO_RESULT_SOURCE, a
# call-assignment whose callee returns no value (#8)
REPEATED_WARNINGS_SOURCE = """\
class box {
    int v;
public:
    int get(int x) {
        #3: if (x > 0) {
            #4: return x;
        }
    }
    void put(int x) {
        #5: v = x;
    }
};

void main() {
    box b;
    int r, u, w, n;
    #1: cin >> n;
    #2: while (n > 0) {
        #6: w = u + 1;
        #7: b.put(u);
        #8: r = b.get(0);
        #9: n = n - 1;
    }
    #10: cout << r;
}
"""

# sha256 of its trace at input 3
REPEATED_WARNINGS_TRACE = "5f1560b8513c2ab2918580079e3c63c4fd4f7cf78e78b3f8511223688bcbfa4d"


def test_value_events_stay_per_execution():
    """A statement's plan holds only its payload-free events: every iteration
    still warns, each time just before the StmtExecuted, CallEntered or
    Returned the warning belongs to."""
    events = run(load(REPEATED_WARNINGS_SOURCE), (3,)).events
    placed = [(ev.id, type(nxt).__name__, getattr(nxt, "call_site", getattr(nxt, "id", None)))
              for ev, nxt in zip(events, events[1:]) if isinstance(ev, Warning)]
    assert placed == [(6, "StmtExecuted", 6), (7, "CallEntered", 7), (8, "Returned", 8)] * 3
    assert hashlib.sha256(serialize_trace(events).encode()).hexdigest() \
        == REPEATED_WARNINGS_TRACE
