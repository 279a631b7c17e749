from __future__ import annotations

import hashlib
import json

import pytest

from dynslice import (build_cdg, generate, init, load, oracle, parse_trace, run,
                      serialize_trace)
from dynslice.cli import main, run_check
from dynslice.events import StmtExecuted, Warning, validate_trace
from dynslice.fixtures import (
    CALLS_SOURCE,
    CONST_LOOP_SOURCE,
    LOOP_SOURCE,
    SAMPLE_INPUTS,
    SAMPLE_SOURCE,
)

from test_interpreter import REPEATED_WARNINGS_SOURCE


@pytest.fixture()
def sample_path(tmp_path):
    path = tmp_path / "sample.mini"
    path.write_text(SAMPLE_SOURCE)
    return str(path)


@pytest.fixture()
def loop_path(tmp_path):
    path = tmp_path / "loop.mini"
    path.write_text(LOOP_SOURCE)
    return str(path)


def test_slice_text_report(sample_path, capsys):
    rc = main(["slice", sample_path, "--inputs", "1,2,3,4",
               "--criterion", "16:T4.a"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "slice (16, T4.a) = {2, 5, 8, 11, 13, 15, 17, 21, 23}" in out
    lines = out.splitlines()
    assert any(l.startswith(">") and "#2:" in l for l in lines)
    assert not any(l.startswith(">") and "#1:" in l for l in lines)


def test_slice_json_report(sample_path, capsys):
    argv = ["slice", sample_path, "--inputs", "1 2 3 4",
            "--criterion", "4:q", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first  # byte-stable
    report = json.loads(first)
    assert report == {
        "criterion": {"node": 4, "var": "q"},
        "slice": [4],
        "executed": True,
        "stats": {"events": 64, "updates": 81,
                  "peak_cardinality": 294, "dyn_entries": 56},
    }


def test_slice_object(sample_path, capsys):
    rc = main(["slice", sample_path, "--inputs", "1,2,3,4", "--object", "T1"])
    assert rc == 0
    assert "slice T1 = {2, 4, 5, 17, 18}" in capsys.readouterr().out


def test_slice_object_json(sample_path, capsys):
    rc = main(["slice", sample_path, "--inputs", "1,2,3,4",
               "--object", "T2", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["criterion"] == {"object": "T2"}
    assert report["slice"] == [8, 10, 11, 17, 18]


def test_slice_needs_exactly_one_criterion(sample_path, capsys):
    assert main(["slice", sample_path]) == 2
    assert main(["slice", sample_path, "--criterion", "2:p",
                 "--object", "T1"]) == 2
    err = capsys.readouterr().err
    assert "exactly one" in err


def test_inputs_file_and_flag_priority(sample_path, tmp_path, capsys):
    inputs = tmp_path / "inputs.txt"
    inputs.write_text("9 9\n9 9\n")
    rc = main(["slice", sample_path, "--inputs-file", str(inputs),
               "--criterion", "2:p", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["slice"] == [2]
    # the flag wins over the file
    rc = main(["slice", sample_path, "--inputs-file", str(inputs),
               "--inputs", "1,2,3,4", "--criterion", "16:T4.a", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["slice"] \
        == [2, 5, 8, 11, 13, 15, 17, 21, 23]


def test_missing_criterion_exits_4(sample_path, capsys):
    rc = main(["slice", sample_path, "--inputs", "1,2,3,4",
               "--criterion", "99:zz"])
    assert rc == 4
    assert "never executed" in capsys.readouterr().err


def test_missing_criterion_json_report(sample_path, capsys):
    rc = main(["slice", sample_path, "--inputs", "1,2,3,4",
               "--criterion", "3:p", "--json"])
    assert rc == 4
    report = json.loads(capsys.readouterr().out)
    assert report["executed"] is False
    assert report["slice"] == []


def test_bad_criterion_syntax(sample_path, capsys):
    assert main(["slice", sample_path, "--criterion", "16"]) == 2
    assert "N:VAR" in capsys.readouterr().err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.mini"
    bad.write_text("void main() { int x; x = 1 }")
    assert main(["slice", str(bad), "--criterion", "1:x"]) == 2
    assert "expected ';'" in capsys.readouterr().err


@pytest.mark.parametrize("text,message", [
    ("void main() { int x; x = a.", "expected 'IDENT', found ''"),
    ("void main() { int x; x = a.b", "expected ';', found ''"),
], ids=["dot", "member"])
def test_parse_error_at_end_of_file_exits_2(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.mini"
    bad.write_text(text)
    assert main(["cdg", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("text,where", [
    ("void main() { int x;\n    x = %s; }", "line 2, col 9"),
    ("void main() { int x;\n    #%s: x = 1; }", "line 2, col 6"),
], ids=["literal", "label"])
def test_oversized_integer_literal_exits_2(tmp_path, capsys, text, where):
    # past Python's 4300-digit limit for int(); used to be a bare ValueError
    bad = tmp_path / "big.mini"
    bad.write_text(text % ("9" * 5000))
    assert main(["cdg", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"integer literal too long: 5000 digits at {where}" in captured.err


@pytest.mark.parametrize("value,message", [
    ("9" * 5000, "input 2 is too long: 5000 digits"),
    ("-" + "9" * 5000, "input 2 is too long: 5000 digits"),
    ("0x1f", "input 2 is not an integer: '0x1f'"),
], ids=["too-long", "too-long-negative", "not-integer"])
@pytest.mark.parametrize("via", ["flag", "file"])
def test_bad_input_value_exits_2(loop_path, tmp_path, capsys, value, message, via):
    inputs = f"3, {value}"
    if via == "flag":
        argv = ["--inputs", inputs]
    else:
        (tmp_path / "in.txt").write_text(inputs + "\n")
        argv = ["--inputs-file", str(tmp_path / "in.txt")]
    assert main(["slice", loop_path, "--criterion", "6:s", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_long_integer_literal_runs(tmp_path, capsys):
    path = tmp_path / "long.mini"
    path.write_text("void main() { int x;\n    #1: x = %s;\n    #2: cout << x; }" % ("9" * 40))
    assert main(["slice", str(path), "--criterion", "2:x"]) == 0
    assert "slice (2, x) = {1}" in capsys.readouterr().out


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["slice", str(tmp_path / "nope.mini"),
                 "--criterion", "1:x"]) == 2


def test_runtime_error_exits_3(loop_path, capsys):
    rc = main(["slice", loop_path, "--criterion", "6:s"])
    assert rc == 3
    assert "no input left" in capsys.readouterr().err


def test_budget_flag(loop_path, capsys):
    rc = main(["slice", loop_path, "--inputs", "9999", "--budget", "100",
               "--criterion", "6:s"])
    assert rc == 3
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("flag,env", [
    (["--budget", "0"], None),
    (["--budget", "-1"], None),
    ([], "0"),
], ids=["flag-zero", "flag-negative", "env-zero"])
def test_budget_must_be_positive(loop_path, capsys, monkeypatch, flag, env):
    if env is None:
        monkeypatch.delenv("DYNSLICE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("DYNSLICE_BUDGET", env)
    rc = main(["slice", loop_path, "--inputs", "3", "--criterion", "6:s", *flag])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "step budget must be at least 1" in captured.err


def test_budget_env(loop_path, capsys, monkeypatch):
    monkeypatch.setenv("DYNSLICE_BUDGET", "100")
    rc = main(["slice", loop_path, "--inputs", "9999", "--criterion", "6:s"])
    assert rc == 3
    monkeypatch.setenv("DYNSLICE_BUDGET", "100000")
    rc = main(["slice", loop_path, "--inputs", "9999", "--criterion", "8:t"])
    assert rc == 0
    capsys.readouterr()


def test_cdg_dot_stdout(sample_path, capsys):
    assert main(["cdg", sample_path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert out.count("->") == 24


def test_cdg_json(loop_path, capsys):
    assert main(["cdg", loop_path, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    by_id = {r["id"]: r for r in rows}
    assert by_id[4]["parent"] == 3
    assert by_id[3]["kind"] == "TestLoop"


def test_cdg_dot_file(sample_path, tmp_path, capsys):
    dot = tmp_path / "out.dot"
    assert main(["cdg", sample_path, "--dot", str(dot)]) == 0
    assert capsys.readouterr().out == ""
    assert dot.read_text().startswith("digraph")


def test_trace_emits_one_event_per_line(sample_path, capsys):
    assert main(["trace", sample_path, "--inputs", "1,2,3,4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 64
    assert all(json.loads(l)["event"] for l in lines)


def test_trace_partial_on_runtime_error(loop_path, capsys):
    rc = main(["trace", loop_path])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""  # nothing executed before the failed read
    assert "no input left" in captured.err


def test_check_agrees_on_fixture(sample_path, capsys):
    assert main(["check", sample_path, "--inputs", "1,2,3,4"]) == 0
    assert capsys.readouterr().out.strip() == "OK: 56 criteria agree"


# An object by-reference formal: copy-restore writes every member back, and
# one the callee left uninitialized stays so. The trace is pinned by its sha256.
BYREF_OBJECT_SOURCE = (
    "class c { int a, b; public: void set(c &p, int v) { #6: p.a = v + a; } }; "
    "void main() { c o, r; int x; #1: cin >> x; #2: r.a = 2; #3: r.set(o, x); "
    "#4: cout << o.a; #5: cout << o.b; }")
BYREF_OBJECT_TRACE = "06c3271f76a12f78e80a0b27dce587dbc22b30e5d9eb019e0c50de4e207060a3"


def test_object_by_reference_formal(tmp_path, capsys):
    program = load(BYREF_OBJECT_SOURCE)
    result = run(program, (5,))
    assert result.ok and result.outputs == [7, 0]
    warnings = [e for e in result.events if isinstance(e, Warning)]
    assert warnings == [Warning(5, "read of uninitialized o.b")]
    trace = serialize_trace(result.events).encode()
    assert hashlib.sha256(trace).hexdigest() == BYREF_OBJECT_TRACE
    state = init(build_cdg(program)).consume(result.events)
    assert state.slice_of_object("o") == {1, 2, 3, 6}
    path = tmp_path / "byref_object.mini"
    path.write_text(BYREF_OBJECT_SOURCE)
    assert main(["check", str(path), "--inputs", "5"]) == 0
    assert capsys.readouterr().out == "OK: 12 criteria agree\n"


def test_check_builds_dependence_graph_once(sample_path, capsys, monkeypatch):
    calls = []
    build_ddg = oracle.build_ddg

    def counting(*args):
        calls.append(1)
        return build_ddg(*args)

    monkeypatch.setattr(oracle, "build_ddg", counting)
    assert main(["check", sample_path, "--inputs", "1,2,3,4"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == "OK: 56 criteria agree\n"


def test_check_generated_seed(capsys):
    assert main(["check", "--seed", "42"]) == 0
    assert "criteria agree" in capsys.readouterr().out


def test_check_replays_serialized_trace(sample_path, tmp_path, capsys):
    assert main(["trace", sample_path, "--inputs", "1,2,3,4"]) == 0
    trace = tmp_path / "run.ndjson"
    trace.write_text(capsys.readouterr().out)
    assert main(["check", sample_path, "--trace", str(trace)]) == 0
    assert "OK: 56" in capsys.readouterr().out


def test_check_rejects_non_object_trace_line(sample_path, tmp_path, capsys):
    for record in ("3", "[1,2]"):
        trace = tmp_path / "bad.ndjson"
        trace.write_text('{"event": "StmtExecuted", "id": 1, "defs": [], "uses": []}\n'
                         + record + "\n")
        assert main(["check", sample_path, "--trace", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "line 2" in captured.err


# records that no run of CALLS_SOURCE can produce; replaying any of them
# must end in exit 2 with an empty stdout, not in a traceback
_STMT = '{"event": "StmtExecuted", "id": %s, "defs": [%s], "uses": []}'
_VAR_N = '{"kind": "local", "owner": %s, "name": "n", "display": "n"}'
_RETURNED = ('{"event": "Returned", "call_site": 4, "copy_backs": [], "resets": [],'
             ' "returned_into": null, "receiver_members": []}')


@pytest.mark.parametrize("record,message", [
    (_STMT % (1, _VAR_N % "[1]"), "malformed trace at line 1"),
    (_STMT % ('"1"', _VAR_N % 1), "no node '1'"),
    (_STMT % (99, ""), "no node 99"),
    (_RETURNED, "without its CallEntered"),
    (_STMT % (4, ""), "node 4 before its test 3"),
    # the CDG, not the trace, says where a loop exits to and what a call runs
    ('{"event": "LoopExited", "id": 3}', "malformed trace at line 1"),
    ('{"event": "CallEntered", "call_site": 4, "callee": "acc.f(int)", '
     '"transfers": []}', "malformed trace at line 1: CallEntered has no key 'callee'"),
    ('{"event": "AboutToReturn", "id": 9, "uses": []}', "malformed trace at line 1"),
    ('{"bindings": [{"by_ref": false, "formal": "x", "kind": "literal", '
     '"transfers": []}], "call_site": 4, "callee": {"cls": "acc", "name": "f", '
     '"param_types": ["int"]}, "event": "CallEntered"}', "malformed trace at line 1"),
    ('{"event": "CallEntered", "call_site": 1, "transfers": []}\n' + _RETURNED.replace('"call_site": 4', '"call_site": 1'),
     "trace event 1: CallEntered at non-call node 1"),
    (_STMT % (8, ""), "trace event 1: StmtExecuted at node 8 of acc.f(int) while main runs"),
    ('{"event": "InputConsumed", "id": 99, "value": [1]}', "InputConsumed value [1] is not int"),
    ('{"event": "InputConsumed", "id": 99, "value": 1}', "no node 99"),
    ('{"event": "InputConsumed", "id": 1, "value": true}', "InputConsumed value True is not int"),
    ('{"event": "OutputProduced", "id": 6, "value": 1.5}',
     "OutputProduced value 1.5 is not int or str"),
    ('{"event": "OutputProduced", "id": 8, "value": 1}',
     "OutputProduced at node 8 of acc.f(int) while main runs"),
    ('{"event": "Warning", "id": "x", "message": 5}', "Warning message 5 is not str"),
    ('{"event": "Warning", "id": "x", "message": "m"}', "no node 'x'"),
    (_STMT % (2, "") + '\n{"event": "Warning", "id": 4, "message": "m"}',
     "trace event 2: node 4 before its test 3"),
    # a var index must name a var the trace has already spelled out
    (_STMT % (1, _VAR_N % 1) + "\n" + _STMT % (1, "1"), "malformed trace at line 2"),
    (_STMT % (1, "0"), "malformed trace at line 1"),
    (_STMT % (1, "-1"), "malformed trace at line 1"),
    (_STMT % (1, "true"), "malformed trace at line 1"),
    (_STMT % (1, "1.0"), "malformed trace at line 1"),
    (_STMT % (1, '"0"'), "malformed trace at line 1"),
    # a back-reference must be the index of a payload-free line already read
    (_STMT % (1, "") + "\n-1", "malformed trace at line 2: no line -1: 1 read so far"),
    (_STMT % (1, "") + "\n01", "malformed trace at line 2"),
    (_STMT % (1, "") + "\n1.0", "malformed trace at line 2"),
    (_STMT % (1, "") + "\ntrue", "malformed trace at line 2"),
    (_STMT % (1, "") + "\n1", "malformed trace at line 2: no line 1: 1 read so far"),
    ("0", "malformed trace at line 1: no line 0: 0 read so far"),
], ids=["owner-list", "id-string", "unknown-id", "lone-returned",
        "before-test", "old-loop-exited", "old-callee",
        "old-about-to-return", "old-call-bindings", "call-at-cin",
        "method-stmt-in-main", "input-list", "input-unknown-id", "input-bool",
        "output-float", "output-method-node-in-main", "warning-int-message",
        "warning-id-string", "warning-before-test", "index-past-seen",
        "index-none-seen", "index-negative", "index-bool", "index-float",
        "index-string", "backref-negative", "backref-leading-zero",
        "backref-float", "backref-bool", "backref-past-read", "backref-none-read"])
def test_check_rejects_trace_of_another_program(tmp_path, capsys, record, message):
    src = tmp_path / "calls.mini"
    src.write_text(CALLS_SOURCE)
    trace = tmp_path / "bad.ndjson"
    trace.write_text(record + "\n")
    assert main(["check", str(src), "--trace", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


# call site 3 runs c.f(int); only c.g(int) holds node 2
TWO_METHODS_SOURCE = """\
class c {
    int m;
public:
    void f(int x) {
        #1: m = x;
    }
    void g(int x) {
        #2: m = x + 1;
    }
};

void main() {
    c o;
    #3: o.f(1);
    #4: cout << o.m;
}
"""


def test_check_rejects_a_body_its_call_does_not_run(tmp_path, capsys):
    """The CDG names the method a call site runs: a trace that enters call
    site 3 and then runs c.g's node 2 is no run of this program. A trace that
    names c.g(int) as the callee is in the old format and read as malformed."""
    src = tmp_path / "p.mini"
    src.write_text(TWO_METHODS_SOURCE)
    body = '{"event": "StmtExecuted", "id": 2, "defs": [], "uses": []}\n'
    for entered, message in [
            ('{"event": "CallEntered", "call_site": 3, "transfers": []}',
             "trace event 2: StmtExecuted at node 2 of c.g(int) while c.f(int) runs"),
            ('{"event": "CallEntered", "call_site": 3, "callee": "c.g(int)", "transfers": []}',
             "malformed trace at line 1: CallEntered has no key 'callee'")]:
        trace = tmp_path / "t.ndjson"
        trace.write_text(entered + "\n" + body)
        assert main(["check", str(src), "--trace", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


# f's `if` runs once per call: cut the second call's run of it, and the
# first call's is the only one before the second call's node 2
TWO_CALLS_SOURCE = """\
class c {
    int m;
public:
    void f(int n) {
        #1: if (n > 0) {
            #2: m = n;
        }
    }
};

void main() {
    c o;
    #3: o.f(1);
    #4: o.f(2);
}
"""


def test_check_rejects_a_test_run_only_in_an_earlier_call(tmp_path, capsys):
    """A node's test must have run in the node's own activation: with the
    second call's run of test 1 cut out, its node 2 has no test occurrence
    for the oracle to point at, and `check` exits 2."""
    src = tmp_path / "p.mini"
    src.write_text(TWO_CALLS_SOURCE)
    assert main(["trace", str(src)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[6] == "1"  # the second call's StmtExecuted of test 1
    trace = tmp_path / "cut.ndjson"
    trace.write_text("\n".join(lines[:6] + lines[7:]) + "\n")
    assert main(["check", str(src), "--trace", str(trace)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trace event 7: node 2 before its test 1" in captured.err


def test_check_replays_a_missing_result_warning(tmp_path, capsys):
    """The warning of a call-assignment whose callee returned no value comes
    while the callee is still open; its test is the caller's."""
    src = tmp_path / "p.mini"
    src.write_text(REPEATED_WARNINGS_SOURCE)
    assert main(["trace", str(src), "--inputs", "3"]) == 0
    trace = tmp_path / "t.ndjson"
    trace.write_text(capsys.readouterr().out)
    assert main(["check", str(src), "--trace", str(trace)]) == 0
    assert "criteria agree" in capsys.readouterr().out


def test_a_trace_without_a_test_run_is_rejected_or_replayed():
    """Dropping any one StmtExecuted of a test either makes `validate_trace`
    reject the trace or leaves one that both engines replay to the end."""
    cases = [(SAMPLE_SOURCE, SAMPLE_INPUTS)]
    cases += [(g.source, g.inputs) for g in map(generate, range(30))]
    cuts = 0
    for source, inputs in cases:
        program = load(source)
        graph = build_cdg(program)
        events = run(program, inputs).events
        for i, ev in enumerate(events):
            if type(ev) is not StmtExecuted or graph.kind(ev.id) not in ("Test", "TestLoop"):
                continue
            cut = events[:i] + events[i + 1:]
            cuts += 1
            try:
                validate_trace(cut, graph)
            except ValueError:
                continue
            run_check(graph, cut)
    assert cuts > 300


def test_check_flags_corrupted_trace(tmp_path, capsys):
    # move the loop-body record past #5, the loop's exit successor: the
    # streaming slicer has already cleared the loop's control slice, the graph
    # oracle still sees the test occurrence, so the engines must disagree
    src = tmp_path / "cl.mini"
    src.write_text(CONST_LOOP_SOURCE)
    assert main(["trace", str(src), "--inputs", "1"]) == 0
    events = parse_trace(capsys.readouterr().out)
    body = events.pop(next(i for i, ev in enumerate(events)
                           if type(ev) is StmtExecuted and ev.id == 3))
    after = next(i for i, ev in enumerate(events) if type(ev) is StmtExecuted and ev.id == 5)
    events.insert(after + 1, body)
    corrupt = tmp_path / "corrupt.ndjson"
    corrupt.write_text(serialize_trace(events))

    rc = main(["check", str(src), "--trace", str(corrupt)])
    captured = capsys.readouterr()
    assert rc == 5
    assert "MISMATCH at (3, t)" in captured.err
    assert "streaming: [3]" in captured.err
    assert "oracle:    [1, 2, 3, 4]" in captured.err


def test_check_clean_trace_of_same_program(tmp_path, capsys):
    src = tmp_path / "cl.mini"
    src.write_text(CONST_LOOP_SOURCE)
    assert main(["check", str(src), "--inputs", "1"]) == 0
    assert "OK: 5 criteria agree" in capsys.readouterr().out
