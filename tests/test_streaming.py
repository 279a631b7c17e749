"""The streamed path (events fed to a sink as they are emitted) must give
exactly what the buffered path (collect `RunResult.events`, then replay) gives,
for the slicer and for the `trace` command's output."""

from __future__ import annotations

from dynslice import build_cdg, generate, init, load, run, serialize_trace
from dynslice.cli import main
from dynslice.fixtures import LOOP_SOURCE, SAMPLE_INPUTS, SAMPLE_SOURCE

# squares a each iteration: after 14 iterations a = 2^16384, which has more
# decimal digits than CPython's default int-to-str limit of 4300
SQUARING_SOURCE = """\
void main() {
    int n, a;
    #1: cin >> n;
    #2: a = 2;
    #3: while (n > 0) {
        #4: a = a * a;
        #5: n = n - 1;
    }
    #6: cout << a;
}
"""


def assert_streamed_equals_buffered(source, inputs):
    program = load(source)
    graph = build_cdg(program)
    buffered_run = run(program, inputs)
    buffered = init(graph).consume(buffered_run.events)
    streamed = init(graph)
    streamed_run = run(program, inputs, sink=streamed.feed)
    assert streamed_run.events == []
    assert (streamed_run.status, streamed_run.outputs) \
        == (buffered_run.status, buffered_run.outputs)
    assert streamed.criteria() == buffered.criteria()
    for key in buffered.criteria():
        assert streamed.slice_of(*key) == buffered.slice_of(*key)
    for obj in graph.main_objects:
        assert streamed.slice_of_object(obj) == buffered.slice_of_object(obj)
    assert (streamed.events, streamed.updates, streamed.peak_cardinality) \
        == (buffered.events, buffered.updates, buffered.peak_cardinality)
    return streamed


def test_sink_receives_every_event_and_result_events_is_empty(sample_program, sample_run):
    seen = []
    result = run(sample_program, SAMPLE_INPUTS, sink=seen.append)
    assert seen == sample_run.events
    assert result.events == []
    assert result.outputs == sample_run.outputs


def test_streamed_sample_equals_buffered():
    assert_streamed_equals_buffered(SAMPLE_SOURCE, SAMPLE_INPUTS)


def test_streamed_generated_programs_equal_buffered():
    for seed in range(200):
        g = generate(seed)
        assert_streamed_equals_buffered(g.source, g.inputs)


def test_trace_stdout_equals_serialized_run(tmp_path, capsys):
    path = tmp_path / "sample.mini"
    path.write_text(SAMPLE_SOURCE)
    assert main(["trace", str(path), "--inputs", "1,2,3,4"]) == 0
    want = serialize_trace(run(load(SAMPLE_SOURCE), SAMPLE_INPUTS).events)
    assert capsys.readouterr().out == want


def test_budget_cut_trace_equals_serialized_run(tmp_path, capsys):
    path = tmp_path / "loop.mini"
    path.write_text(LOOP_SOURCE)
    assert main(["trace", str(path), "--inputs", "9999", "--budget", "100"]) == 3
    captured = capsys.readouterr()
    result = run(load(LOOP_SOURCE), (9999,), budget=100)
    assert result.status == "budget-exceeded"
    assert captured.out == serialize_trace(result.events)
    assert "budget" in captured.err


def test_unserializable_trace_leaves_stdout_empty(tmp_path, capsys):
    path = tmp_path / "square.mini"
    path.write_text(SQUARING_SOURCE)
    assert main(["trace", str(path), "--inputs", "14"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # one line, with the message int.__repr__ gives for the output value
    (line,) = captured.err.splitlines()
    assert line.startswith("error: Exceeds the limit (4300 digits) for integer "
                           "string conversion")
