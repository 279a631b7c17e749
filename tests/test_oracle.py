from __future__ import annotations

import pytest

from dynslice import backward_slice, build_cdg, build_ddg, init, load, run
from dynslice.events import StmtExecuted
from dynslice.fixtures import BYREF_SOURCE, LOOP_SOURCE
from dynslice.slicer import CriterionError


def test_straight_line_chain():
    program = load(
        "void main() { int x, y; #1: cin >> x; #2: y = x + 1; #3: cout << y; }")
    result = run(program, (5,))
    ddg = build_ddg(result.events, build_cdg(program))
    assert ddg.occurrences == 3
    assert backward_slice(ddg, 3, "y") == {1, 2}
    assert backward_slice(ddg, 2, "y") == {1, 2}
    assert backward_slice(ddg, 2, "x") == {1}


def test_one_occurrence_per_statement_execution(sample_run, sample_cdg):
    ddg = build_ddg(sample_run.events, sample_cdg)
    executed = [e for e in sample_run.events if isinstance(e, StmtExecuted)]
    assert ddg.occurrences == len(executed) == 32


def test_sample_slices_from_graph(sample_run, sample_cdg):
    ddg = build_ddg(sample_run.events, sample_cdg)
    assert backward_slice(ddg, 2, "p") == {2}
    assert backward_slice(ddg, 16, "T4.a") == {2, 5, 8, 11, 13, 15, 17, 21, 23}
    assert backward_slice(ddg, 16, "T4.b") == {4, 5, 10, 11, 13, 15, 18, 22, 24}
    assert backward_slice(ddg, 19, "T2.a") == {8, 11, 17}
    assert backward_slice(ddg, 13, "T3.b") == {4, 5, 10, 11, 13, 18, 22}


def test_loop_slices_from_graph(loop_program, loop_cdg):
    events = run(loop_program, (2,)).events
    ddg = build_ddg(events, loop_cdg)
    assert backward_slice(ddg, 6, "s") == {1, 2, 3, 4, 5}
    assert backward_slice(ddg, 8, "t") == {7}


def test_criteria_anchor_at_execution_time(loop_program, loop_cdg):
    # (4, s) after one iteration must not absorb the later iterations
    events = run(loop_program, (3,)).events
    state = init(loop_cdg).consume(events)
    trunc = events[:next(i for i, e in enumerate(events)
                         if isinstance(e, StmtExecuted) and e.id == 4) + 1]
    early = build_ddg(trunc, loop_cdg)
    late = build_ddg(events, loop_cdg)
    assert backward_slice(early, 4, "s") == {1, 2, 3, 4}
    assert backward_slice(late, 4, "s") == state.slice_of(4, "s") == {1, 2, 3, 4, 5}


def test_by_ref_from_graph():
    program = load(BYREF_SOURCE)
    events = run(program, (7,)).events
    ddg = build_ddg(events, build_cdg(program))
    assert backward_slice(ddg, 5, "x") == {1, 2, 3, 4}


def test_unknown_criterion():
    program = load(LOOP_SOURCE)
    ddg = build_ddg(run(program, (1,)).events, build_cdg(program))
    with pytest.raises(CriterionError):
        backward_slice(ddg, 99, "s")


def test_executed_criteria_match_streaming(sample_run, sample_cdg):
    ddg = build_ddg(sample_run.events, sample_cdg)
    state = init(sample_cdg).consume(sample_run.events)
    assert ddg.executed_criteria() == state.criteria()


def test_graph_grows_with_trace_length(loop_program, loop_cdg):
    sizes = [len(build_ddg(run(loop_program, (n,)).events, loop_cdg).payloads)
             for n in (1, 2, 4, 8)]
    deltas = [b - a for a, b in zip(sizes, sizes[1:])]
    # one extra iteration adds a fixed number of occurrence nodes
    assert deltas[1] == 2 * deltas[0] and deltas[2] == 2 * deltas[1]


# Recursion: a test's control slice belongs to the activation that ran it, so
# a callee's `if` test or loop exit must not reach its caller's slices. Both
# programs are unlabeled, so ids are numbered in textual order. In the first,
# the callee's loop exit once dropped the caller's loop test; in the second,
# the recursive call 2 on the copy `p` once leaked into `q.m`.
RECURSIVE_LOOP = (
    "class c { int m; public: void f(c p, int n) { int k; k = n; while (k > 0) "
    "{ k = k - 1; if (k > 1) { p.f(p, 1); } m = m + k; } } }; void main() "
    "{ c o, q; int n; cin >> n; o.m = 0; q.f(o, n); cout << q.m; }")
RECURSIVE_IF = (
    "class c { int m; public: void f(c p, int n) { if (n > 0) { p.f(p, n - 1); "
    "m = m + 1; } } }; void main() { c o, q; int n; cin >> n; q.m = 0; "
    "q.f(o, n); cout << q.m; }")


@pytest.mark.parametrize("source,inputs,criterion,expected", [
    (RECURSIVE_LOOP, (4,), (6, "q.m"), {1, 2, 3, 6, 7, 9}),
    (RECURSIVE_IF, (2,), (3, "q.m"), {1, 3, 4, 5, 6}),
], ids=["loop-exit", "if-test"])
def test_control_slice_belongs_to_its_activation(source, inputs, criterion, expected):
    program = load(source)
    graph = build_cdg(program)
    events = run(program, inputs).events
    state = init(graph).consume(events)
    ddg = build_ddg(events, graph)
    assert state.slice_of(*criterion) == backward_slice(ddg, *criterion) == expected
    assert ddg.executed_criteria() == state.criteria()
    for c in state.criteria():
        assert state.slice_of(*c) == backward_slice(ddg, *c), c
    assert state.recount() == state.cardinality()
    assert not state.control_stack
