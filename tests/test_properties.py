"""Properties of generated programs, checked with hypothesis.

Seeds are drawn from 200..10^6, beyond the 0..199 that the differential and
digest tests pin. `derandomize=True` and a fixed `max_examples` keep the
suite deterministic and its cost fixed.

Streaming-equals-oracle is not among these properties yet: generator seed
1242 gives a caller's formal copy and a callee's object formal the same
receiver-member display name, so the DyanSlice table keeps one snapshot for
both and the two engines disagree there (ROADMAP item 1, ambiguous names).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from dynslice import build_cdg, generate, load, parse_trace, run, serialize_trace
from dynslice.events import validate_trace

from test_streaming import assert_streamed_equals_buffered

SEEDS = st.integers(min_value=200, max_value=10**6)
SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@SETTINGS
@given(SEEDS)
def test_streamed_state_equals_buffered(seed):
    g = generate(seed)
    streamed = assert_streamed_equals_buffered(g.source, g.inputs)
    assert streamed.recount() == streamed.cardinality()


@SETTINGS
@given(SEEDS)
def test_trace_round_trips_and_validates(seed):
    g = generate(seed)
    program = load(g.source)
    events = run(program, g.inputs).events
    parsed = parse_trace(serialize_trace(events))
    assert parsed == events
    validate_trace(parsed, build_cdg(program))
