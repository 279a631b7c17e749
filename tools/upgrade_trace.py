"""Rewrite an older trace into today's format.

    PYTHONPATH=src python tools/upgrade_trace.py < old.ndjson > new.ndjson

Traces written before CallEntered was flattened carry an AboutToReturn record
before each executed return, a CallEntered ``callee`` object
``{"cls", "name", "param_types"}`` and per-formal ``bindings``;
`dynslice check --trace` rejects them with exit 2. This drops the
AboutToReturn lines (the Return statement's own StmtExecuted says the same),
turns ``callee`` into its CDG entry key (``"test.add(test,test)"``) and
flattens ``bindings`` into their ``transfers`` in order. The whole file is then
read with the trace reader, ``parse_trace``, and written again with
``serialize_trace``, one ``line_writer`` for the file: each var is spelled out
once and an index after that, and each repeated payload-free event is its
index. A record today's reader rejects is an error here too. A trace already
in today's format comes out unchanged; one in an earlier format that spells
out vars, or writes every event in full, comes out in today's.

How the interpreter numbers ``owner`` is not part of the format: the reader
takes it as an opaque int. A trace written when locals were owned by frame
serials and objects never reused an id replays as it is and needs no rewrite
here; it only names more distinct vars.
"""

from __future__ import annotations

import json
import sys

from dynslice.events import parse_trace, serialize_trace


def upgrade(text: str) -> str:
    lines = text.splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line) if line.strip() else None
        if type(record) is not dict:  # a blank line or a back-reference
            continue
        if record.get("event") == "AboutToReturn":
            lines[i] = ""  # blank, so the reader's line numbers still hold
        elif record.get("event") == "CallEntered" and "bindings" in record:
            callee = record["callee"]
            types = ",".join(callee["param_types"])
            record["callee"] = f"{callee['cls']}.{callee['name']}({types})"
            record["transfers"] = [t for b in record.pop("bindings")
                                   for t in b["transfers"]]
            lines[i] = json.dumps(record, sort_keys=True)
    return serialize_trace(parse_trace("\n".join(lines)))


if __name__ == "__main__":
    sys.stdout.write(upgrade(sys.stdin.read()))
