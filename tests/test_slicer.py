from __future__ import annotations

import copy

import pytest

from dynslice import build_cdg, generate, init, load, run
from dynslice.cli import run_check
from dynslice.events import CallEntered, StmtExecuted
from dynslice.fixtures import (
    BYREF_SOURCE,
    CALLS_SOURCE,
    LOOP_SOURCE,
    SAMPLE_INPUTS,
    SAMPLE_SOURCE,
    STREAM_SOURCE,
)
from dynslice.slicer import CriterionError

from test_cdg import EXITS_SOURCE
from test_trace_format import RECURSIVE_SOURCE
from walkthrough import OBJECT_SLICES, replay


def test_walkthrough_table():
    state, checked = replay()
    assert checked == 38  # pins the table size against silent shrinkage
    assert state.events == 64  # the replay fed the whole run


def test_final_dyn_entries(sample_state):
    assert sample_state.slice_of(2, "p") == {2}
    assert sample_state.slice_of(16, "T4.a") == {2, 5, 8, 11, 13, 15, 17, 21, 23}
    assert sample_state.slice_of(19, "T2.a") == {8, 11, 17}
    # per-display entries survive later executions with other receivers
    assert sample_state.slice_of(19, "T1.a") == {2, 5, 17}
    assert sample_state.slice_of(19, "T4.a") == {2, 5, 8, 11, 13, 15, 17, 21, 23}


def test_object_slices(sample_state):
    for name, want in OBJECT_SLICES.items():
        assert sample_state.slice_of_object(name) == want


def test_state_is_quiescent_after_run(sample_state):
    assert sample_state.call_stack == []
    assert sample_state.active_call == 0  # the empty bitset
    assert sample_state.active_return == 0
    assert sample_state.active_control == {}
    assert sample_state.recount() == sample_state.cardinality()
    assert sample_state.events == 64
    assert sample_state.updates > 0


def test_unknown_criteria(sample_state):
    with pytest.raises(CriterionError):
        sample_state.slice_of(99, "p")
    with pytest.raises(CriterionError):
        sample_state.slice_of(2, "nosuch")
    with pytest.raises(CriterionError):
        sample_state.slice_of_object("T9")


def test_criteria_enumeration(sample_state):
    crit = sample_state.criteria()
    assert crit == sorted(crit)
    assert (2, "p") in crit
    assert (16, "T4.a") in crit
    assert len(crit) == 56


def test_fresh_state_replays_identically(sample_cdg, sample_run):
    a = init(sample_cdg).consume(sample_run.events)
    b = init(sample_cdg).consume(sample_run.events)
    assert a.dyn_table == b.dyn_table
    assert a.active_data == b.active_data
    assert a.peak_cardinality == b.peak_cardinality


def test_loop_control_slice_reset(loop_program, loop_cdg):
    events = run(loop_program, (2,)).events
    state = init(loop_cdg).consume(events)
    # inside the loop, 6 sees the loop through data; 8 must not see it at all
    assert state.slice_of(6, "s") == {1, 2, 3, 4, 5}
    assert state.slice_of(8, "t") == {7}
    assert state.slice_of(7, "t") == {7}
    assert state.active_control == {}


def test_exit_successor_drops_the_loops_control_slices():
    """Each loop's ActiveControlSlice is gone once the node it exits to has
    run; at call 16, before the caller's table moves to `call_stack`."""
    graph = build_cdg(load(EXITS_SOURCE))
    result = run(load(EXITS_SOURCE), (2,))
    assert result.ok
    state = init(graph)
    ran = set()
    for ev in result.events:
        state.feed(ev)
        node = (ev.id if type(ev) is StmtExecuted
                else ev.call_site if type(ev) is CallEntered else None)
        if node in graph.exits:
            ran.add(node)
            assert not set(graph.exits[node]) & set(state.active_control), node
            for _, saved in state.call_stack:
                assert not set(graph.exits[node]) & set(saved), node
    assert ran == set(graph.exits)
    # every loop test's slice is gone; no event drops an `if` test's
    assert set(state.active_control) == {10}
    assert run_check(graph, result.events) is None


def test_loop_zero_iterations(loop_program, loop_cdg):
    state = init(loop_cdg).consume(run(loop_program, (0,)).events)
    assert state.slice_of(3, "n") == {1}
    assert state.slice_of(6, "s") == {2}
    assert state.slice_of(8, "t") == {7}


def test_loop_body_slices_grow_then_saturate(loop_program, loop_cdg):
    state = init(loop_cdg).consume(run(loop_program, (3,)).events)
    assert state.slice_of(4, "s") == {1, 2, 3, 4, 5}
    assert state.slice_of(5, "n") == {1, 3, 5}
    assert state.slice_of(6, "s") == {1, 2, 3, 4, 5}


def test_by_ref_actual_inherits_formal_slice():
    program = load(BYREF_SOURCE)
    state = init(build_cdg(program)).consume(run(program, (7,)).events)
    assert state.slice_of(5, "x") == {1, 2, 3, 4}
    assert state.slice_of(4, "r") == {1, 2, 3, 4}


def test_streaming_state_is_bounded():
    # the step table, too, follows the program: one step per event object
    program = load(STREAM_SOURCE)
    graph = build_cdg(program)
    sizes = []
    for n in (10, 100, 1000):
        result = run(program, (n,), budget=10 * n + 100)
        assert result.ok
        state = init(graph).consume(result.events)
        assert state.recount() == state.cardinality()
        sizes.append((state.peak_cardinality, len(state._steps)))
    assert sizes[0] == sizes[1] == sizes[2]

    # a call per iteration: no DyanSlice entry or live set per activation
    program = load(CALLS_SOURCE)
    graph = build_cdg(program)
    sizes = []
    for n in (10, 100, 1000):
        state = init(graph)
        assert run(program, (n,), budget=10 * n + 100, sink=state.feed).ok
        assert state.recount() == state.cardinality()
        sizes.append((state.peak_cardinality, len(state.dyn_table), len(state._steps)))
    assert sizes[0] == sizes[1] == sizes[2]


def _answers(state, graph) -> tuple:
    return ([(c, state.slice_of(*c)) for c in state.criteria()],
            [state.slice_of_object(o) for o in sorted(graph.main_objects)],
            state.dyn_table, state.events, state.updates, state.peak_cardinality)


def test_steps_never_outlive_or_confuse_their_events():
    """A step is keyed by its event object's id and holds that object, so a
    sink that hands over a fresh copy of each event and drops it after the
    feed, freeing its id for a later copy, gets the interned stream's answers
    and counters."""
    def copies(events):
        for ev in events:
            yield copy.copy(ev)

    cases = [(SAMPLE_SOURCE, SAMPLE_INPUTS), (CALLS_SOURCE, (5,)), (RECURSIVE_SOURCE, (2, 3))]
    cases += [(g.source, g.inputs) for g in map(generate, range(50))]
    for source, inputs in cases:
        program = load(source)
        graph = build_cdg(program)
        events = run(program, inputs).events
        assert (_answers(init(graph).consume(copies(events)), graph)
                == _answers(init(graph).consume(events), graph)), source


def _cardinality_cases():
    yield "sample", SAMPLE_SOURCE, SAMPLE_INPUTS
    yield "loop", LOOP_SOURCE, (3,)  # the loop-exit drop
    yield "byref", BYREF_SOURCE, (7,)  # copy-back
    yield "calls", CALLS_SOURCE, (3,)  # calls in a loop
    yield "exits", EXITS_SOURCE, (2,)  # drops at every kind of exit successor
    yield "recursive", RECURSIVE_SOURCE, (2, 2)  # the generator never recurses
    for seed in range(50):  # returned_into, object formals, resets
        g = generate(seed)
        yield f"seed {seed}", g.source, g.inputs


def test_cardinality_counter_matches_recount():
    for name, source, inputs in _cardinality_cases():
        program = load(source)
        state = init(build_cdg(program))
        result = run(program, inputs)
        assert result.ok, name
        for ev in result.events:
            state.feed(ev)
            assert state.recount() == state.cardinality(), name
        assert state.peak_cardinality >= state.cardinality(), name
