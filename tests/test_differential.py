from __future__ import annotations

import pytest

from dynslice import build_cdg, build_ddg, generate, init, load, run
from dynslice.cli import run_check
from dynslice.events import StmtExecuted
from dynslice.fixtures import BYREF_SOURCE, LOOP_SOURCE, SAMPLE_INPUTS, SAMPLE_SOURCE

SEEDS = range(200)


@pytest.mark.parametrize("source,inputs", [
    (SAMPLE_SOURCE, SAMPLE_INPUTS),
    (LOOP_SOURCE, (0,)),
    (LOOP_SOURCE, (1,)),
    (LOOP_SOURCE, (5,)),
    (BYREF_SOURCE, (7,)),
])
def test_fixtures_agree(source, inputs):
    program = load(source)
    graph = build_cdg(program)
    result = run(program, inputs)
    assert result.ok
    assert run_check(graph, result.events) is None


def test_generated_programs_agree():
    failures = []
    for seed in SEEDS:
        g = generate(seed)
        program = load(g.source)
        graph = build_cdg(program)
        result = run(program, g.inputs)
        assert result.ok, f"seed {seed}: {result.status}"
        verdict = run_check(graph, result.events)
        if verdict is not None:
            failures.append((seed, verdict[0]))
    assert failures == []


def test_every_criterion_compared():
    # the agreement above quantifies over all executed (node, var) pairs
    g = generate(3)
    program = load(g.source)
    graph = build_cdg(program)
    events = run(program, g.inputs).events
    state = init(graph).consume(events)
    ddg = build_ddg(events, graph)
    assert state.criteria() == ddg.executed_criteria()
    executed = {e.id for e in events if isinstance(e, StmtExecuted)}
    assert {node for node, _ in state.criteria()} <= executed


def test_truncated_trace_still_agrees():
    # prefix of a real trace: the streaming state mid-run matches the oracle
    program = load(SAMPLE_SOURCE)
    graph = build_cdg(program)
    events = run(program, SAMPLE_INPUTS).events
    for cut in (10, 25, 40, 55):
        assert run_check(graph, events[:cut]) is None
