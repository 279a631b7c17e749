"""The NDJSON trace is the external format: its bytes are pinned here, so a
change to the encoder that alters a single character fails this file."""

from __future__ import annotations

import hashlib
import importlib.util
import json
from functools import cache
from pathlib import Path

from dynslice import RuntimeVar, generate, load, parse_trace, run, serialize_trace
from dynslice.events import (InputConsumed, OutputProduced, Returned, StmtExecuted,
                             Warning, to_line)
from dynslice.fixtures import SAMPLE_INPUTS, SAMPLE_SOURCE

# sha256 of the SAMPLE_SOURCE trace followed by the traces of generator seeds
# 0..199; together they hold all 7 event kinds, copy-backs and returned_into
CORPUS_DIGEST = "c5a4adb0d927778913ad4a0bd50b1be4a0824d90832bcd7e838f8c6fdc603ee8"

# the first CallEntered of SAMPLE_SOURCE with object formals (T3.add(T1, T2))
CALL_ENTERED_LINE = (
    '{"call_site": 13, "callee": "test.add(test,test)", "event": "CallEntered", '
    '"transfers": '
    '[[{"display": "tp1.a", "kind": "member", "name": "a", "owner": 5}, '
    '[{"display": "T1.a", "kind": "member", "name": "a", "owner": 1}]], '
    '[{"display": "tp1.b", "kind": "member", "name": "b", "owner": 5}, '
    '[{"display": "T1.b", "kind": "member", "name": "b", "owner": 1}]], '
    '[{"display": "tp2.a", "kind": "member", "name": "a", "owner": 6}, '
    '[{"display": "T2.a", "kind": "member", "name": "a", "owner": 2}]], '
    '[{"display": "tp2.b", "kind": "member", "name": "b", "owner": 6}, '
    '[{"display": "T2.b", "kind": "member", "name": "b", "owner": 2}]]]}'
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

# the first Returned of SAMPLE_SOURCE (T1.get(p, q))
RETURNED_LINE = (
    '{"call_site": 5, "copy_backs": [], "event": "Returned", "receiver_members": '
    '[{"display": "T1.a", "kind": "member", "name": "a", "owner": 1}, '
    '{"display": "T1.b", "kind": "member", "name": "b", "owner": 1}], '
    '"resets": [{"display": "x", "kind": "local", "name": "x", "owner": 2}, '
    '{"display": "y", "kind": "local", "name": "y", "owner": 2}], '
    '"returned_into": null}'
)


def sample_trace() -> str:
    return serialize_trace(run(load(SAMPLE_SOURCE), SAMPLE_INPUTS).events)


@cache
def seed_runs() -> tuple[list, ...]:
    """The events of generator seeds 0..199, one list per seed."""
    return tuple(run(load(g.source), g.inputs).events for g in map(generate, range(200)))


def _plain(x):
    """An event field as the plain dicts and lists json.dumps takes."""
    if type(x) is RuntimeVar:
        return {"kind": x.kind, "owner": x.owner, "name": x.name, "display": x.display}
    if type(x) is tuple:
        return [_plain(v) for v in x]
    return x


def reference_line(ev) -> str:
    record = {k: _plain(v) for k, v in vars(ev).items()}
    record["event"] = type(ev).__name__
    return json.dumps(record, sort_keys=True) + "\n"


def test_sample_trace_lines_are_exact():
    lines = sample_trace().splitlines()
    assert CALL_ENTERED_LINE in lines
    assert RETURNED_LINE in lines
    assert lines.index(RETURNED_LINE) < lines.index(CALL_ENTERED_LINE)


def test_trace_corpus_digest():
    text = sample_trace() + "".join(map(serialize_trace, seed_runs()))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CORPUS_DIGEST


def test_writer_matches_json_dumps():
    """to_line writes each value by its type; json.dumps of the event as plain
    dicts and lists is the reference it must equal byte for byte."""
    for events in seed_runs():
        for ev in events:
            assert to_line(ev) == reference_line(ev)
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
    for ev in made:
        assert to_line(ev) == reference_line(ev)


def test_upgrade_trace_rewrites_old_records():
    path = Path(__file__).resolve().parent.parent / "tools" / "upgrade_trace.py"
    spec = importlib.util.spec_from_file_location("upgrade_trace", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    old = "\n".join([OLD_CALL_ENTERED_LINE,
                     '{"event": "AboutToReturn", "id": 4, "uses": []}',
                     RETURNED_LINE, ""])
    assert tool.upgrade(old) == CALL_ENTERED_LINE + "\n" + RETURNED_LINE + "\n"
