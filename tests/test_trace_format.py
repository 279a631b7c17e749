"""The NDJSON trace is the external format: its bytes are pinned here, so a
change to the encoder that alters a single character fails this file."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from functools import cache

import pytest

from dynslice import (RuntimeVar, generate, interpreter, load, parse_trace, run,
                      serialize_trace)
from dynslice.cli import main
from dynslice.events import (CallEntered, InputConsumed, OutputProduced, Returned,
                             StmtExecuted, Warning, to_line)
from dynslice.fixtures import CALLS_SOURCE, SAMPLE_INPUTS, SAMPLE_SOURCE, STREAM_SOURCE

# sha256 of the SAMPLE_SOURCE trace followed by the traces of generator seeds
# 0..199, each with its own var and event tables; together they hold all 6
# event kinds, copy-backs, returned_into and back-references
CORPUS_DIGEST = "83c84c26f95d867e8aff2c625bfb3e546a3562f1eb644415bc55a8d367f27323"

# the first CallEntered of SAMPLE_SOURCE with object formals (T3.add(T1, T2)):
# the formals' members are new, their sources T1.a, T1.b, T2.a, T2.b are not;
# T1.get and T2.get both ran at depth 1, so share vars 2 and 3 for x and y
CALL_ENTERED_LINE = (
    '{"call_site": 13, "event": "CallEntered", '
    '"transfers": '
    '[[{"display": "tp1.a", "kind": "member", "name": "a", "owner": 5}, [4]], '
    '[{"display": "tp1.b", "kind": "member", "name": "b", "owner": 5}, [5]], '
    '[{"display": "tp2.a", "kind": "member", "name": "a", "owner": 6}, [6]], '
    '[{"display": "tp2.b", "kind": "member", "name": "b", "owner": 6}, [7]]]}'
)

# CALLS_SOURCE on input 3 as written when a local was owned by its frame's
# serial (main 1, each call the next), so every call spelled out new vars
SERIAL_OWNERS_CALLS_TRACE = (
    '{"event": "InputConsumed", "id": 1, "value": 3}\n'
    '{"defs": [{"display": "n", "kind": "local", "name": "n", "owner": 1}], "event": "StmtExecuted", "id": 1, "uses": []}\n'
    '{"defs": [{"display": "i", "kind": "local", "name": "i", "owner": 1}], "event": "StmtExecuted", "id": 2, "uses": []}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 3, "uses": [1, 0]}\n'
    '{"call_site": 4, "event": "CallEntered", "transfers": [[{"display": "x", "kind": "local", "name": "x", "owner": 2}, [1]]]}\n'
    '{"defs": [{"display": "t", "kind": "local", "name": "t", "owner": 2}], "event": "StmtExecuted", "id": 8, "uses": [2]}\n'
    '{"event": "Warning", "id": 9, "message": "read of uninitialized o.s"}\n'
    '{"defs": [{"display": "o.s", "kind": "member", "name": "s", "owner": 1}], "event": "StmtExecuted", "id": 9, "uses": [3, 4]}\n'
    '{"call_site": 4, "copy_backs": [], "event": "Returned", "receiver_members": [4], "resets": [3, 2], "returned_into": null}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 4, "uses": [1]}\n'
    '{"defs": [1], "event": "StmtExecuted", "id": 5, "uses": [1]}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 3, "uses": [1, 0]}\n'
    '{"call_site": 4, "event": "CallEntered", "transfers": [[{"display": "x", "kind": "local", "name": "x", "owner": 3}, [1]]]}\n'
    '{"defs": [{"display": "t", "kind": "local", "name": "t", "owner": 3}], "event": "StmtExecuted", "id": 8, "uses": [5]}\n'
    '{"defs": [4], "event": "StmtExecuted", "id": 9, "uses": [6, 4]}\n'
    '{"call_site": 4, "copy_backs": [], "event": "Returned", "receiver_members": [4], "resets": [6, 5], "returned_into": null}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 4, "uses": [1]}\n'
    '{"defs": [1], "event": "StmtExecuted", "id": 5, "uses": [1]}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 3, "uses": [1, 0]}\n'
    '{"call_site": 4, "event": "CallEntered", "transfers": [[{"display": "x", "kind": "local", "name": "x", "owner": 4}, [1]]]}\n'
    '{"defs": [{"display": "t", "kind": "local", "name": "t", "owner": 4}], "event": "StmtExecuted", "id": 8, "uses": [7]}\n'
    '{"defs": [4], "event": "StmtExecuted", "id": 9, "uses": [8, 4]}\n'
    '{"call_site": 4, "copy_backs": [], "event": "Returned", "receiver_members": [4], "resets": [8, 7], "returned_into": null}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 4, "uses": [1]}\n'
    '{"defs": [1], "event": "StmtExecuted", "id": 5, "uses": [1]}\n'
    '{"defs": [], "event": "StmtExecuted", "id": 3, "uses": [1, 0]}\n'
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

# g runs at depth 2 under f, which made two objects, and under h, which made
# one, so its frames at one depth start at two different free object ids
SHARED_DEPTH_SOURCE = """\
class c {
    int m;
public:
    int g(c q, int n) {
        #1: m = q.m + n;
        #2: return m;
    }
    int f(c p, int n) {
        c w;
        #3: w.m = n;
        #4: n = w.g(p, n);
        #5: return n;
    }
    int h(c p, int n) {
        #6: n = p.g(p, n);
        #7: return n;
    }
};

void main() {
    c o;
    int k, t;
    #8: cin >> t;
    #9: while (t > 0) {
        #10: k = o.f(o, t);
        #11: k = o.h(o, k);
        #12: t = t - 1;
    }
    #13: cout << k;
}
"""

# one method, at one depth and from one free id, writes the member of two
# receivers: the statements in its frame name a's m on a and b's m on b
TWO_RECEIVERS_SOURCE = """\
class c {
    int m;
public:
    void inc() {
        #5: m = m + 1;
    }
};

void main() {
    c a, b;
    int n;
    #1: cin >> n;
    #2: while (n > 0) {
        #3: a.inc();
        #4: b.inc();
        #6: n = n - 1;
    }
    #7: cout << a.m;
    #8: cout << b.m;
}
"""

# sha256 of `trace`'s stdout, with its exit code, on call shapes the digest
# corpus lacks: RECURSIVE_SOURCE runs one method at several depths and reuses
# object ids (at 300,1 the prefix written before the stack overflow),
# SHARED_DEPTH_SOURCE runs one method at one depth from two free ids, and
# TWO_RECEIVERS_SOURCE on two receivers
CALL_FRAME_DIGESTS = {
    ("recursive", "2,1"): (0, "2bd42c666b9ad9177352aad27a86a64eb36dc02dcd86870cd21bc9c206864889"),
    ("recursive", "4,3"): (0, "83b301e86b33a641267b334949c2f28b1f63debb08bb21c079e76c8d32dfaeeb"),
    ("recursive", "300,1"): (3, "d1a9587f05b60173a0f2f96ab42c584add019ee61bbe7f7d6352a9b05dec435a"),
    ("shared_depth", "3"): (0, "d7d017590c451657ff852186e528c6bfe481cd0751d8d35364327d0025a61dac"),
    ("two_receivers", "3"): (0, "05b938121889fbc5394d788b678e3b80d78c843099dd660363ad0f886b5672b1"),
}

# the first Returned of SAMPLE_SOURCE (T1.get(p, q)): T1's members and the
# callee's x and y have all been written before
RETURNED_LINE = (
    '{"call_site": 5, "copy_backs": [], "event": "Returned", '
    '"receiver_members": [4, 5], "resets": [2, 3], "returned_into": null}'
)


@cache
def corpus_runs() -> tuple[list, ...]:
    """The events of SAMPLE_SOURCE, then of generator seeds 0..199."""
    cases = [(SAMPLE_SOURCE, SAMPLE_INPUTS)]
    cases += [(g.source, g.inputs) for g in map(generate, range(200))]
    return tuple(run(load(source), inputs).events for source, inputs in cases)


def sample_trace() -> str:
    return serialize_trace(corpus_runs()[0])


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


def reference_line(ev, seen: dict | None = None) -> str:
    """The event's line from its fields as plain data, taken in sorted-key
    order, the order in which a line is written and read."""
    record = {k: _plain(v, seen) for k, v in sorted(vars(ev).items())}
    record["event"] = type(ev).__name__
    return json.dumps(record, sort_keys=True) + "\n"


def test_sample_trace_lines_are_exact():
    lines = sample_trace().splitlines()
    assert CALL_ENTERED_LINE in lines
    assert RETURNED_LINE in lines
    assert lines.index(RETURNED_LINE) < lines.index(CALL_ENTERED_LINE)


def test_trace_corpus_digest():
    text = "".join(serialize_trace(events) for events in corpus_runs())
    assert sha256(text) == CORPUS_DIGEST


def test_writer_matches_json_dumps():
    """to_line writes each value by its type and each var once; json.dumps of
    the event as plain dicts and lists, each var already written replaced by
    its index, is the reference it must equal byte for byte."""
    for events in corpus_runs():
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
    made += parse_trace('{"defs": [], "event": "StmtExecuted", "id": 3.5, "uses": []}\n'
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
    once = [StmtExecuted(1, (n,), ()), InputConsumed(2, 5), Returned(3)]
    events = once + [StmtExecuted(1, (n,), ()), InputConsumed(2, 5), Returned(3)]
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
    assert full[0] == full[1] and len(full[0]) == 11
    (events_small, bytes_small), (events_large, bytes_large) = sizes
    assert bytes_large - bytes_small < 4 * (events_large - events_small)


def test_a_var_spelled_out_again_takes_the_next_index():
    """A spelled-out var is new to the trace, as `to_line` writes it: one
    spelled out again takes the next index, whatever it equals."""
    n, t = RuntimeVar("local", 1, "n", "n"), RuntimeVar("local", 1, "t", "t")
    text = "".join(reference_line(StmtExecuted(i, (v,), ())) for i, v in enumerate((n, n, t)))
    text += '{"defs": [2], "event": "StmtExecuted", "id": 3, "uses": [1, 0]}\n'
    assert parse_trace(text)[-1] == StmtExecuted(3, (t,), (n, n))


@pytest.mark.parametrize("source,inputs", [(SAMPLE_SOURCE, SAMPLE_INPUTS),
                                           (STREAM_SOURCE, (50,)),
                                           (CALLS_SOURCE, (50,))],
                         ids=["sample", "loop", "calls"])
def test_check_replays_both_formats_alike(tmp_path, capsys, source, inputs):
    """`check --trace` prints the same for a run's trace as `check` prints
    for the run itself."""
    src = tmp_path / "p.mini"
    src.write_text(source)
    trace = tmp_path / "t.ndjson"
    trace.write_text(serialize_trace(run(load(source), inputs).events))
    outputs = []
    for how in (["--inputs", ",".join(map(str, inputs))], ["--trace", str(trace)]):
        outputs.append((main(["check", str(src), *how]), *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and "criteria agree" in outputs[0][1]


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
        assert (len(names), len(lines)) == (5, 18), n


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


def test_frame_plans_follow_the_program_not_the_run(monkeypatch):
    """A call's frame plan is built once per method, call depth and first free
    object id: a call-free run builds none, more iterations or more starts of
    the same recursion build no more, and a deeper recursion builds more."""
    built = []
    plan = interpreter._Interp.plan

    def counting(self, *args):
        built.append(args[0])
        return plan(self, *args)

    monkeypatch.setattr(interpreter._Interp, "plan", counting)

    def builds(source, inputs) -> int:
        built.clear()
        assert run(load(source), inputs).ok
        assert len(set(built)) == len(built)
        return len(built)

    assert builds(STREAM_SOURCE, (100,)) == 0
    assert builds(CALLS_SOURCE, (10,)) == builds(CALLS_SOURCE, (1000,)) == 1
    assert builds(RECURSIVE_SOURCE, (2, 1)) == builds(RECURSIVE_SOURCE, (2, 3))
    assert builds(RECURSIVE_SOURCE, (2, 1)) < builds(RECURSIVE_SOURCE, (4, 1))
    # f and h at depth 1, g at depth 2 under each
    assert builds(SHARED_DEPTH_SOURCE, (3,)) == 4


def test_event_objects_follow_the_program_not_the_run():
    """A statement's payload-free events are made once per binding, so the
    distinct event objects a run emits do not grow with its length."""
    def made(source, inputs) -> int:
        result = run(load(source), inputs)
        assert result.ok
        return len({id(ev) for ev in result.events
                    if isinstance(ev, (StmtExecuted, CallEntered, Returned))})

    assert made(CALLS_SOURCE, (10,)) == made(CALLS_SOURCE, (1000,))
    assert made(STREAM_SOURCE, (10,)) == made(STREAM_SOURCE, (1000,))
    assert made(RECURSIVE_SOURCE, (2, 1)) == made(RECURSIVE_SOURCE, (2, 3))


@pytest.mark.parametrize("program,inputs", sorted(CALL_FRAME_DIGESTS))
def test_call_frame_trace_digest(tmp_path, capsys, program, inputs):
    src = tmp_path / "p.mini"
    src.write_text({"recursive": RECURSIVE_SOURCE,
                    "shared_depth": SHARED_DEPTH_SOURCE,
                    "two_receivers": TWO_RECEIVERS_SOURCE}[program])
    code, digest = CALL_FRAME_DIGESTS[program, inputs]
    assert main(["trace", str(src), "--inputs", inputs]) == code
    assert sha256(capsys.readouterr().out) == digest


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
    assert len(events) == 4 * n + 4
    return peak - kept - split


def test_parse_cache_is_bounded_by_the_program():
    """Each OutputProduced line holds a new value; caching it would cost a
    dict entry per line, over 20 bytes. The decode-once cache keeps only
    lines that name statements and vars, so its size does not follow n."""
    small, large = parse_overhead(1000), parse_overhead(4000)
    assert large - small < 4000 - 1000  # under a byte per added line
