"""Acceptance gate: one test per shipped guarantee, one PASS line each.

Run with `pytest tests/test_acceptance.py -v` (or `-s` for the PASS lines).
Every check here is exact set or count equality; the only tolerances are the
stated wall-clock budgets.
"""

from __future__ import annotations

import time

import pytest

from dynslice import build_cdg, build_ddg, generate, init, load, run
from dynslice.cli import run_check
from dynslice.events import StmtExecuted
from dynslice.fixtures import (
    CALLS_SOURCE,
    LOOP_SOURCE,
    SAMPLE_INPUTS,
    SAMPLE_SOURCE,
    STREAM_SOURCE,
)
from dynslice.frontend import NoMatchError
from dynslice.oracle import backward_slice

from walkthrough import OBJECT_SLICES, replay


def test_criterion_1_golden_trace_reproduction():
    start = time.perf_counter()
    state, checked = replay()  # every walkthrough set, in execution order
    for name, want in OBJECT_SLICES.items():
        assert state.slice_of_object(name) == want
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: golden trace reproduced, "
          f"{checked} sets exact in {elapsed * 1000:.0f} ms")


def test_criterion_2_overload_dispatch(dispatched):
    start = time.perf_counter()
    program = load(SAMPLE_SOURCE)
    calls = dict(dispatched(program, run(program, SAMPLE_INPUTS).events))
    assert calls[13] == "test.add(test,test)"
    assert calls[15] == "test.add(test,int)"
    with pytest.raises(NoMatchError):
        load(SAMPLE_SOURCE.replace("#15: T4.add(T3, 5);", "#15: T4.add(5, 5);"))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 2: overload dispatch exact, no-match raises, "
          f"in {elapsed * 1000:.0f} ms")


def test_criterion_3_differential_200_programs():
    start = time.perf_counter()
    mismatches = []
    criteria = 0
    for seed in range(200):
        g = generate(seed)
        program = load(g.source)
        graph = build_cdg(program)
        result = run(program, g.inputs)
        assert result.ok, f"seed {seed}: {result.status}"
        verdict = run_check(graph, result.events)
        if verdict is not None:
            mismatches.append((seed, verdict[0]))
        criteria += len(init(graph).consume(result.events).criteria())
    elapsed = time.perf_counter() - start
    assert mismatches == []
    assert elapsed < 60.0
    print(f"PASS criterion 3: 200 generated programs, {criteria} criteria, "
          f"0 mismatches in {elapsed:.1f} s")


def test_criterion_4_loop_control_slice_reset():
    program = load(LOOP_SOURCE)
    graph = build_cdg(program)
    events = run(program, (2,)).events
    state = init(graph).consume(events)
    ddg = build_ddg(events, graph)
    # post-loop statement 8 sees nothing of the loop; 6 sees it via data only
    assert state.slice_of(8, "t") == backward_slice(ddg, 8, "t") == {7}
    assert state.slice_of(6, "s") == backward_slice(ddg, 6, "s") == {1, 2, 3, 4, 5}
    assert state.active_control == {}
    print("PASS criterion 4: control slice cleared on loop exit, "
          "post-loop slice is data-only, oracle agrees")


def test_criterion_5_streaming_space_bound():
    program = load(STREAM_SOURCE)
    graph = build_cdg(program)
    peaks, nodes = [], []
    for n in (10 ** 3, 10 ** 4, 10 ** 5):
        result = run(program, (n,), budget=10 * n + 100)
        assert result.ok
        state = init(graph).consume(result.events)
        assert state.recount() == state.cardinality()
        peaks.append(state.peak_cardinality)
        nodes.append(build_ddg(result.events, graph).occurrences)
    assert peaks[0] == peaks[1] == peaks[2]
    # occurrence count is affine in the iteration count
    assert nodes[2] - nodes[1] == 10 * (nodes[1] - nodes[0])

    # a method call per iteration, streamed straight from the run
    program = load(CALLS_SOURCE)
    graph = build_cdg(program)
    sizes = []
    for n in (10 ** 3, 10 ** 4):
        state = init(graph)
        assert run(program, (n,), budget=10 * n + 100, sink=state.feed).ok
        assert state.recount() == state.cardinality()
        sizes.append((state.peak_cardinality, len(state.dyn_table)))
    assert sizes[0] == sizes[1]
    print(f"PASS criterion 5: peak slicer state {peaks[0]} at 10^3..10^5 "
          f"iterations; oracle nodes grow {nodes[0]} -> {nodes[2]}; with a call "
          f"per iteration {sizes[0][0]} and {sizes[0][1]} DyanSlice entries "
          f"at 10^3..10^4")


def test_criterion_6_worked_example_reproduced_at_desk_scale():
    result = run(load(SAMPLE_SOURCE), SAMPLE_INPUTS)
    assert result.ok
    assert [v for v in result.outputs if isinstance(v, int)] \
        == [1, 2, 3, 4, 4, 6, 9, 11]
    assert [e.id for e in result.events if isinstance(e, StmtExecuted)] == [
        1, 2, 3, 4, 17, 18, 5, 19, 20, 6,
        7, 8, 9, 10, 17, 18, 11, 19, 20, 12,
        21, 22, 13, 19, 20, 14, 23, 24, 15, 19, 20, 16,
    ]
    state, checked = replay(result.events)
    assert checked == 38
    assert len(state.criteria()) == 56
    print("PASS criterion 6: worked example fully reproduced "
          "(outputs, execution order, all 38 walkthrough sets)")
