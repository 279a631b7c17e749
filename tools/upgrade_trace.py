"""Rewrite an older trace into today's format.

    PYTHONPATH=src python tools/upgrade_trace.py < old.ndjson > new.ndjson

Traces written before CallEntered was flattened carry an AboutToReturn record
before each executed return, a CallEntered ``callee`` object
``{"cls", "name", "param_types"}`` and per-formal ``bindings``;
`dynslice check --trace` rejects them with exit 2. This drops the
AboutToReturn lines (the Return statement's own StmtExecuted says the same),
turns ``callee`` into its CDG entry key (``"test.add(test,test)"``) and
flattens ``bindings`` into their ``transfers`` in order. Every record is then
read with the trace reader and re-encoded with the trace writer, one var table
each for the whole file, so each var is spelled out once and an index after
that, and a record today's reader rejects is an error here too. A trace
already in today's format comes out unchanged.

How the interpreter numbers ``owner`` is not part of the format: the reader
takes it as an opaque int. A trace written when locals were owned by frame
serials and objects never reused an id replays as it is and needs no rewrite
here; it only names more distinct vars.
"""

from __future__ import annotations

import json
import sys

from dynslice.events import from_json, to_line


def upgrade(text: str) -> str:
    interned: dict = {}
    read: list = []  # the reader's vars by index
    written: dict = {}  # the writer's var -> index
    lines = []
    for line in text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record["event"] == "AboutToReturn":
            continue
        if record["event"] == "CallEntered" and "bindings" in record:
            callee = record["callee"]
            types = ",".join(callee["param_types"])
            record["callee"] = f"{callee['cls']}.{callee['name']}({types})"
            record["transfers"] = [t for b in record.pop("bindings")
                                   for t in b["transfers"]]
        lines.append(to_line(from_json(record, interned, read), written))
    return "".join(lines)


if __name__ == "__main__":
    sys.stdout.write(upgrade(sys.stdin.read()))
