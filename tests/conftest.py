from __future__ import annotations

import pytest

from dynslice import build_cdg, init, load, run
from dynslice.events import CallEntered, Returned
from dynslice.fixtures import LOOP_SOURCE, SAMPLE_INPUTS, SAMPLE_SOURCE
from dynslice.syntax import walk


def _dispatched(program, events) -> list[tuple[int, str | None]]:
    """(call site, method) per CallEntered, in order, as the run shows it: the
    method, "cls.name(types)", whose body holds the node of the next event, or
    None when that node is no method's."""
    body_of = {s.id: f"{cls}.{m.signature}" for cls, m, body in program.procedures()
               if m is not None for s in walk(body)}
    pairs = []
    for ev, nxt in zip(events, events[1:]):
        if type(ev) is CallEntered:
            node = nxt.call_site if type(nxt) in (CallEntered, Returned) else nxt.id
            pairs.append((ev.call_site, body_of.get(node)))
    return pairs


@pytest.fixture(scope="session")
def dispatched():
    """`_dispatched`: the method each call of a run entered, from the nodes
    that ran, not from the CDG."""
    return _dispatched


@pytest.fixture(scope="session")
def sample_program():
    return load(SAMPLE_SOURCE)


@pytest.fixture(scope="session")
def sample_cdg(sample_program):
    return build_cdg(sample_program)


@pytest.fixture(scope="session")
def sample_run(sample_program):
    return run(sample_program, SAMPLE_INPUTS)


@pytest.fixture(scope="session")
def sample_state(sample_cdg, sample_run):
    # read-only in tests; anything that feeds events builds its own state
    return init(sample_cdg).consume(sample_run.events)


@pytest.fixture(scope="session")
def loop_program():
    return load(LOOP_SOURCE)


@pytest.fixture(scope="session")
def loop_cdg(loop_program):
    return build_cdg(loop_program)
