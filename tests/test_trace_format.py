"""The NDJSON trace is the external format: its bytes are pinned here, so a
change to the encoder that alters a single character fails this file."""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

from dynslice import generate, load, run, serialize_trace
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


def test_sample_trace_lines_are_exact():
    lines = sample_trace().splitlines()
    assert CALL_ENTERED_LINE in lines
    assert RETURNED_LINE in lines
    assert lines.index(RETURNED_LINE) < lines.index(CALL_ENTERED_LINE)


def test_trace_corpus_digest():
    parts = [sample_trace()]
    for seed in range(200):
        g = generate(seed)
        parts.append(serialize_trace(run(load(g.source), g.inputs).events))
    text = "".join(parts)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CORPUS_DIGEST


def test_upgrade_trace_rewrites_old_records():
    path = Path(__file__).resolve().parent.parent / "tools" / "upgrade_trace.py"
    spec = importlib.util.spec_from_file_location("upgrade_trace", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    old = "\n".join([OLD_CALL_ENTERED_LINE,
                     '{"event": "AboutToReturn", "id": 4, "uses": []}',
                     RETURNED_LINE, ""])
    assert tool.upgrade(old) == CALL_ENTERED_LINE + "\n" + RETURNED_LINE + "\n"
