"""The NDJSON trace is the external format: its bytes are pinned here, so a
change to the encoder that alters a single character fails this file."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from functools import cache
from pathlib import Path

import pytest

from dynslice import RuntimeVar, build_cdg, generate, load, parse_trace, run, serialize_trace
from dynslice.cdg import entry_key
from dynslice.cli import main
from dynslice.events import (CallEntered, InputConsumed, LoopExited, OutputProduced,
                             Returned, StmtExecuted, Warning, to_line)
from dynslice.fixtures import CALLS_SOURCE, SAMPLE_INPUTS, SAMPLE_SOURCE, STREAM_SOURCE

from test_interpreter import _named_vars

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "upgrade_trace.py"

# sha256 of the SAMPLE_SOURCE trace followed by the traces of generator seeds
# 0..199, each with its own var and event tables; together they hold all 7
# event kinds, copy-backs, returned_into and back-references
CORPUS_DIGEST = "e6882cf20df3f15fc11d1657c68d599bea7ee9d81d0d2e9cb46a7f517b72ff52"

# the same corpus in the format before it, every event written in full
VAR_INDEX_DIGEST = "328066ed0408f5aadc17bac0afb084e73cc80c25393544e9908b78ae3ac8f84d"

# and in the format before that, every var spelled out
SPELLED_DIGEST = "ebc70c054133b5ba0adaba6ff700850c03d04981306b8377f0183ef42803d710"

# and in the format before CallEntered was flattened
UNFLATTENED_DIGEST = "90a02960efb28315dd7ee341943dde9e3a5602530ee1e70fc3feb2010399b8f2"

# the first CallEntered of SAMPLE_SOURCE with object formals (T3.add(T1, T2)):
# the formals' members are new, their sources T1.a, T1.b, T2.a, T2.b are not;
# T1.get and T2.get both ran at depth 1, so share vars 2 and 3 for x and y
CALL_ENTERED_LINE = (
    '{"call_site": 13, "callee": "test.add(test,test)", "event": "CallEntered", '
    '"transfers": '
    '[[{"display": "tp1.a", "kind": "member", "name": "a", "owner": 5}, [4]], '
    '[{"display": "tp1.b", "kind": "member", "name": "b", "owner": 5}, [5]], '
    '[{"display": "tp2.a", "kind": "member", "name": "a", "owner": 6}, [6]], '
    '[{"display": "tp2.b", "kind": "member", "name": "b", "owner": 6}, [7]]]}'
)

# the same call as written before CallEntered was flattened
OLD_CALL_ENTERED_LINE = (
    '{"bindings": [{"by_ref": false, "formal": "tp1", "kind": "object", "transfers": '
    '[[{"display": "tp1.a", "kind": "member", "name": "a", "owner": 5}, '
    '[{"display": "T1.a", "kind": "member", "name": "a", "owner": 1}]], '
    '[{"display": "tp1.b", "kind": "member", "name": "b", "owner": 5}, '
    '[{"display": "T1.b", "kind": "member", "name": "b", "owner": 1}]]]}, '
    '{"by_ref": false, "formal": "tp2", "kind": "object", "transfers": '
    '[[{"display": "tp2.a", "kind": "member", "name": "a", "owner": 6}, '
    '[{"display": "T2.a", "kind": "member", "name": "a", "owner": 2}]], '
    '[{"display": "tp2.b", "kind": "member", "name": "b", "owner": 6}, '
    '[{"display": "T2.b", "kind": "member", "name": "b", "owner": 2}]]]}], '
    '"call_site": 13, "callee": {"cls": "test", "name": "add", '
    '"param_types": ["test", "test"]}, "event": "CallEntered"}'
)

# CALLS_SOURCE on input 3 as written when a local was owned by its frame's
# serial (main 1, each call the next), so every call spelled out new vars
SERIAL_OWNERS_CALLS_TRACE = (
    '{"event": "InputConsumed", "id": 1, "value": 3}\n'
    '{"defs": [{"display": "n", "kind": "local", "name": "n", "owner": 1}], "event": "StmtExecuted", "id": 1, "uses": []}\n'
    '{"defs": [{"display": "i", "kind": "local", "name": "i", "owner": 1}], "event": "StmtExecuted", "id": 2, "uses": []}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 3, "uses": [1, 0]}\n'
    '{"call_site": 4, "callee": "acc.f(int)", "event": "CallEntered", "transfers": [[{"display": "x", "kind": "local", "name": "x", "owner": 2}, [1]]]}\n'
    '{"defs": [{"display": "t", "kind": "local", "name": "t", "owner": 2}], "event": "StmtExecuted", "id": 8, "uses": [2]}\n'
    '{"event": "Warning", "id": 9, "message": "read of uninitialized o.s"}\n'
    '{"defs": [{"display": "o.s", "kind": "member", "name": "s", "owner": 1}], "event": "StmtExecuted", "id": 9, "uses": [3, 4]}\n'
    '{"call_site": 4, "copy_backs": [], "event": "Returned", "receiver_members": [4], "resets": [3, 2], "returned_into": null}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 4, "uses": [1]}\n'
    '{"defs": [1], "event": "StmtExecuted", "id": 5, "uses": [1]}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 3, "uses": [1, 0]}\n'
    '{"call_site": 4, "callee": "acc.f(int)", "event": "CallEntered", "transfers": [[{"display": "x", "kind": "local", "name": "x", "owner": 3}, [1]]]}\n'
    '{"defs": [{"display": "t", "kind": "local", "name": "t", "owner": 3}], "event": "StmtExecuted", "id": 8, "uses": [5]}\n'
    '{"defs": [4], "event": "StmtExecuted", "id": 9, "uses": [6, 4]}\n'
    '{"call_site": 4, "copy_backs": [], "event": "Returned", "receiver_members": [4], "resets": [6, 5], "returned_into": null}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 4, "uses": [1]}\n'
    '{"defs": [1], "event": "StmtExecuted", "id": 5, "uses": [1]}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 3, "uses": [1, 0]}\n'
    '{"call_site": 4, "callee": "acc.f(int)", "event": "CallEntered", "transfers": [[{"display": "x", "kind": "local", "name": "x", "owner": 4}, [1]]]}\n'
    '{"defs": [{"display": "t", "kind": "local", "name": "t", "owner": 4}], "event": "StmtExecuted", "id": 8, "uses": [7]}\n'
    '{"defs": [4], "event": "StmtExecuted", "id": 9, "uses": [8, 4]}\n'
    '{"call_site": 4, "copy_backs": [], "event": "Returned", "receiver_members": [4], "resets": [8, 7], "returned_into": null}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 4, "uses": [1]}\n'
    '{"defs": [1], "event": "StmtExecuted", "id": 5, "uses": [1]}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 3, "uses": [1, 0]}\n'
    '{"event": "LoopExited", "id": 3}\n'
    '{"event": "OutputProduced", "id": 6, "value": 6}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 6, "uses": [4]}\n'
    '{"event": "OutputProduced", "id": 7, "value": 3}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 7, "uses": [1]}\n'
)

# recursion with an object local (w) and, under it, sibling calls whose object
# formals have other names (p in f, q in g): g's q takes the id the deeper f's
# w had. Input: the recursion depth, then how often main starts it.
RECURSIVE_SOURCE = """\
class c {
    int m;
public:
    int f(c p, int n) {
        c w;
        int r, s;
        #1: w.m = p.m + n;
        #2: r = 0;
        #3: if (n > 0) {
            #4: r = w.f(w, n - 1);
            #5: s = w.g(w, n);
            #6: r = r + s;
        }
        #7: return r + w.m;
    }
    int g(c q, int n) {
        #8: m = q.m + n;
        #9: return m;
    }
};

void main() {
    c o;
    int k, n, t;
    #10: cin >> n;
    #11: cin >> t;
    #12: while (t > 0) {
        #13: k = o.f(o, n);
        #14: t = t - 1;
    }
    #15: cout << k;
}
"""

# the first Returned of SAMPLE_SOURCE (T1.get(p, q)): T1's members and the
# callee's x and y have all been written before
RETURNED_LINE = (
    '{"call_site": 5, "copy_backs": [], "event": "Returned", '
    '"receiver_members": [4, 5], "resets": [2, 3], "returned_into": null}'
)


@cache
def corpus_runs() -> tuple[tuple, ...]:
    """(program, events) of SAMPLE_SOURCE, then of generator seeds 0..199."""
    cases = [(SAMPLE_SOURCE, SAMPLE_INPUTS)]
    cases += [(g.source, g.inputs) for g in map(generate, range(200))]
    return tuple((p, run(p, inputs).events) for p, inputs in
                 ((load(source), inputs) for source, inputs in cases))


def sample_trace() -> str:
    return serialize_trace(corpus_runs()[0][1])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _plain(x, seen: dict | None):
    """An event field as the plain dicts and lists json.dumps takes, a var
    already in `seen` as its index there; with `seen` None every var is
    spelled out."""
    if type(x) is RuntimeVar:
        if seen is not None:
            if x in seen:
                return seen[x]
            seen[x] = len(seen)
        return {"kind": x.kind, "owner": x.owner, "name": x.name, "display": x.display}
    if type(x) is tuple:
        return [_plain(v, seen) for v in x]
    return x


def reference_record(ev, seen: dict | None = None) -> dict:
    """The event as plain data, its fields taken in sorted-key order, the
    order in which a line is written and read."""
    record = {k: _plain(v, seen) for k, v in sorted(vars(ev).items())}
    record["event"] = type(ev).__name__
    return record


def reference_line(ev, seen: dict | None = None) -> str:
    return json.dumps(reference_record(ev, seen), sort_keys=True) + "\n"


def var_index_trace(events) -> str:
    """The trace in the format before back-references: every event in full."""
    seen: dict = {}
    return "".join(to_line(ev, seen) for ev in events)


def spelled_trace(events) -> str:
    """The trace in the format before var indices: every var spelled out."""
    return "".join(reference_line(ev) for ev in events)


@cache
def spelled_corpus() -> tuple[str, ...]:
    return tuple(spelled_trace(events) for _, events in corpus_runs())


def unflattened_trace(program, events) -> str:
    """The trace in the format before CallEntered was flattened: every var
    spelled out, an AboutToReturn record before each Return's StmtExecuted,
    and each CallEntered with a callee object and per-formal bindings."""
    graph = build_cdg(program)
    methods = {entry_key(c.name, m): (c.name, m) for c in program.classes for m in c.methods}
    records = []
    for ev in events:
        record = reference_record(ev)
        if type(ev) is StmtExecuted and graph.kind(ev.id) == "Return":
            records.append({"event": "AboutToReturn", "id": ev.id, "uses": record["uses"]})
        if type(ev) is CallEntered:
            cls, method = methods[record["callee"]]
            record["callee"] = {"cls": cls, "name": method.name,
                                "param_types": list(method.signature.param_types)}
            transfers = iter(record.pop("transfers"))
            record["bindings"] = []
            for f in method.formals:
                n = 1 if f.type == "int" else len(graph.members[f.type])
                pairs = [next(transfers) for _ in range(n)]
                kind = "object" if f.type != "int" else "var" if pairs[0][1] else "literal"
                record["bindings"].append({"by_ref": f.by_ref, "formal": f.name,
                                           "kind": kind, "transfers": pairs})
        records.append(record)
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def upgrade_tool():
    spec = importlib.util.spec_from_file_location("upgrade_trace", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_sample_trace_lines_are_exact():
    lines = sample_trace().splitlines()
    assert CALL_ENTERED_LINE in lines
    assert RETURNED_LINE in lines
    assert lines.index(RETURNED_LINE) < lines.index(CALL_ENTERED_LINE)


def test_trace_corpus_digest():
    text = "".join(serialize_trace(events) for _, events in corpus_runs())
    assert sha256(text) == CORPUS_DIGEST


def test_writer_matches_json_dumps():
    """to_line writes each value by its type and each var once; json.dumps of
    the event as plain dicts and lists, each var already written replaced by
    its index, is the reference it must equal byte for byte."""
    for _, events in corpus_runs():
        written, referenced = {}, {}
        for ev in events:
            assert to_line(ev, written) == reference_line(ev, referenced)
    var = RuntimeVar("local", -3, "é", 'q"\\ü')
    made = [
        OutputProduced(1, 'say "hi" \\ back\nnaïve — ✓ 😀\t\x00'),
        Warning(2, "méthode ✗ returned no value"),
        InputConsumed(3, -42),
        OutputProduced(4, -12345678901234567890123456789),
        StmtExecuted(5, (var,), (var, RuntimeVar("member", 7, "m", "o.m"))),
        Returned(6, ((var, var),), (), None, ()),
    ]
    # values only a parsed trace can hold: a float id, a bool, a list, a dict
    made += parse_trace('{"event": "LoopExited", "id": 3.5}\n'
                        '{"event": "InputConsumed", "id": 1, "value": true}\n'
                        '{"event": "OutputProduced", "id": 1, '
                        '"value": [1.0, "ä", {"b": null, "a": false}]}\n')
    assert type(made[-3].id) is float and made[-2].value is True
    written, referenced = {}, {}
    for ev in made:
        assert to_line(ev, written) == reference_line(ev, referenced)


def test_returned_into_the_first_var_round_trips():
    """Index 0 is a var, not a missing one."""
    r = RuntimeVar("local", 1, "r", "r")
    events = [Returned(1, (), (), r, ()), Returned(2, (), (), r, ())]
    text = serialize_trace(events)
    assert text.splitlines()[1].endswith('"returned_into": 0}')
    assert parse_trace(text) == events


def test_a_repeated_event_is_its_index():
    """A payload-free event written before is the bare int of its place among
    the payload-free events written so far, and reads back as the same
    object; an event with a payload is written in full every time."""
    n = RuntimeVar("local", 0, "n", "n")
    once = [StmtExecuted(1, (n,), ()), InputConsumed(2, 5), LoopExited(3)]
    events = once + [StmtExecuted(1, (n,), ()), InputConsumed(2, 5), LoopExited(3)]
    text = serialize_trace(events)
    lines = text.splitlines()
    assert lines[3:] == ["0", lines[1], "1"]
    parsed = parse_trace(text)
    assert parsed == events
    assert parsed[3] is parsed[0] and parsed[5] is parsed[2]


def calls_trace(n: int) -> tuple[list, str]:
    events = run(load(CALLS_SOURCE), (n,)).events
    return events, serialize_trace(events)


def test_calls_payloads_are_written_in_full():
    events, text = calls_trace(100)
    kinds = set()
    for ev, line in zip(events, text.splitlines(), strict=True):
        if type(ev) in (InputConsumed, OutputProduced, Warning):
            assert parse_trace(line) == [ev]
            kinds.add(type(ev))
    assert kinds == {InputConsumed, OutputProduced, Warning}


def test_calls_trace_grows_by_back_references():
    """Past the first iterations the `calls` trace writes only indices: its
    lines without a payload that are written in full are the same at n = 10^2
    and 10^4, and each added event costs under 4 bytes."""
    sizes, full = [], []
    for n in (100, 10000):
        events, text = calls_trace(n)
        sizes.append((len(events), len(text)))
        full.append({line for ev, line in zip(events, text.splitlines())
                     if line.startswith("{") and type(ev) not in
                     (InputConsumed, OutputProduced, Warning)})
    assert full[0] == full[1] and len(full[0]) == 12
    (events_small, bytes_small), (events_large, bytes_large) = sizes
    assert bytes_large - bytes_small < 4 * (events_large - events_small)


def test_a_var_spelled_out_again_takes_no_new_index():
    n, t = RuntimeVar("local", 1, "n", "n"), RuntimeVar("local", 1, "t", "t")
    text = "".join(reference_line(StmtExecuted(i, (v,), ())) for i, v in enumerate((n, n, t)))
    text += '{"defs": [1], "event": "StmtExecuted", "id": 3, "uses": [0]}\n'
    assert parse_trace(text)[-1] == StmtExecuted(3, (t,), (n,))


def test_upgrade_trace_rewrites_old_records():
    """An old call is flattened and its vars spelled out once, and an
    AboutToReturn record is dropped."""
    call = next(ev for ev in corpus_runs()[0][1]
                if type(ev) is CallEntered and ev.callee == "test.add(test,test)")
    old = "\n".join([OLD_CALL_ENTERED_LINE,
                     '{"event": "AboutToReturn", "id": 4, "uses": []}', ""])
    assert upgrade_tool().upgrade(old) == serialize_trace([call])


def test_upgrade_trace_rewrites_old_corpora():
    """The three earlier formats of the digest corpus, each trace upgraded on
    its own, become today's corpus byte for byte; today's passes unchanged."""
    tool = upgrade_tool()
    var_index = [var_index_trace(events) for _, events in corpus_runs()]
    spelled = spelled_corpus()
    unflattened = [unflattened_trace(p, events) for p, events in corpus_runs()]
    assert sha256("".join(var_index)) == VAR_INDEX_DIGEST
    assert sha256("".join(spelled)) == SPELLED_DIGEST
    assert sha256("".join(unflattened)) == UNFLATTENED_DIGEST
    for old in (var_index, spelled, unflattened):
        assert sha256("".join(map(tool.upgrade, old))) == CORPUS_DIGEST
    for _, events in corpus_runs():
        today = serialize_trace(events)
        assert tool.upgrade(today) == today
    calls = serialize_trace(run(load(CALLS_SOURCE), (100,)).events)
    assert tool.upgrade(calls) == calls


def test_upgrade_trace_script():
    old = unflattened_trace(*corpus_runs()[0])
    assert OLD_CALL_ENTERED_LINE in old.splitlines()
    done = subprocess.run([sys.executable, str(TOOL)], input=old,
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert done.stdout == sample_trace()


@pytest.mark.parametrize("source,inputs", [(SAMPLE_SOURCE, SAMPLE_INPUTS),
                                           (STREAM_SOURCE, (50,)),
                                           (CALLS_SOURCE, (50,))],
                         ids=["sample", "loop", "calls"])
def test_check_replays_both_formats_alike(tmp_path, capsys, source, inputs):
    """`check --trace` prints the same for a trace in today's format and in
    the previous one."""
    src = tmp_path / "p.mini"
    src.write_text(source)
    trace = tmp_path / "t.ndjson"
    events = run(load(source), inputs).events
    outputs = []
    for text in (serialize_trace(events), spelled_trace(events)):
        trace.write_text(text)
        outputs.append((main(["check", str(src), "--trace", str(trace)]),
                        *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and "criteria agree" in outputs[0][1]


def test_previous_format_reads_alike():
    """A trace with every var spelled out reads to the same events, one object
    per location. `check --trace` reads nothing else from a trace, so its
    output is the same too; the test above shows it on three programs."""
    for (_, events), old in zip(corpus_runs(), spelled_corpus()):
        parsed = parse_trace(old)
        assert parsed == parse_trace(serialize_trace(events)) == events
        first = {}
        for name, v in (nv for ev in parsed for nv in _named_vars(ev)):
            assert first.setdefault(v, v) is v, f"{v} in {name} is a second object"


def test_trace_with_serial_owners_replays_alike(tmp_path, capsys):
    """`owner` is an opaque int: a trace whose locals are owned by frame
    serials, not call depths, replays to the same `check` output."""
    src = tmp_path / "p.mini"
    src.write_text(CALLS_SOURCE)
    trace = tmp_path / "t.ndjson"
    outputs = []
    today = serialize_trace(run(load(CALLS_SOURCE), (3,)).events)
    assert today != SERIAL_OWNERS_CALLS_TRACE
    for text in (SERIAL_OWNERS_CALLS_TRACE, today):
        trace.write_text(text)
        outputs.append((main(["check", str(src), "--trace", str(trace)]),
                        *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and "criteria agree" in outputs[0][1]


def vocabulary(source: str, inputs) -> tuple[set, set, str]:
    """The distinct vars and distinct lines of a run's trace, and the trace."""
    seen: dict = {}
    lines = [to_line(ev, seen) for ev in run(load(source), inputs).events]
    return set(seen), set(lines), "".join(lines)


def test_calls_vocabulary_is_flat():
    """Every call at one depth names the same locals, so the `calls` trace
    has as many distinct vars and lines at n = 10^4 as at n = 10^2."""
    for n in (100, 10000):
        names, lines, _ = vocabulary(CALLS_SOURCE, (n,))
        assert (len(names), len(lines)) == (5, 19), n


def test_recursive_vocabulary_depends_on_depth_only(tmp_path, capsys):
    """Object ids come back, under a new display too, and both engines still
    agree; the vars a run names depend on the recursion depth, not on how
    often main starts the recursion."""
    src = tmp_path / "p.mini"
    src.write_text(RECURSIVE_SOURCE)
    counts = {}
    for depth in (2, 4):
        for starts in (1, 3):
            assert main(["check", str(src), "--inputs", f"{depth},{starts}"]) == 0
            assert "criteria agree" in capsys.readouterr().out
            names, _, _ = vocabulary(RECURSIVE_SOURCE, (depth, starts))
            counts[depth, starts] = len(names)
            displays: dict[int, set[str]] = {}
            for v in names:
                if v.kind == "member":
                    displays.setdefault(v.owner, set()).add(v.display)
            assert any(len(d) > 1 for d in displays.values())
    assert counts[2, 1] == counts[2, 3] < counts[4, 1] == counts[4, 3]


PRINT_LOOP_SOURCE = """\
void main() {
    int n, i;
    #1: cin >> n;
    #2: i = 0;
    #3: while (i < n) {
        #4: cout << i;
        #5: i = i + 1;
    }
}
"""


def parse_overhead(n: int) -> int:
    """Peak bytes `parse_trace` allocates for PRINT_LOOP_SOURCE's trace at
    input n beyond the events it returns and the trace's split lines."""
    text = vocabulary(PRINT_LOOP_SOURCE, (n,))[2]
    tracemalloc.start()
    try:
        lines = text.splitlines()
        split = tracemalloc.get_traced_memory()[0]
        del lines
        tracemalloc.reset_peak()
        events = parse_trace(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(events) == 4 * n + 5
    return peak - kept - split


def test_parse_cache_is_bounded_by_the_program():
    """Each OutputProduced line holds a new value; caching it would cost a
    dict entry per line, over 20 bytes. The decode-once cache keeps only
    lines that name statements and vars, so its size does not follow n."""
    small, large = parse_overhead(1000), parse_overhead(4000)
    assert large - small < 4000 - 1000  # under a byte per added line
