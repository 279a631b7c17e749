"""Rewrite a trace written before CallEntered was flattened into today's format.

    PYTHONPATH=src python tools/upgrade_trace.py < old.ndjson > new.ndjson

Older traces carry an AboutToReturn record before each executed return, a
CallEntered ``callee`` object ``{"cls", "name", "param_types"}`` and per-formal
``bindings``; `dynslice check --trace` rejects them with exit 2. This drops the
AboutToReturn lines (the Return statement's own StmtExecuted says the same),
turns ``callee`` into its CDG entry key (``"test.add(test,test)"``), flattens
``bindings`` into their ``transfers`` in order, and re-encodes each record
with the trace writer, so a record today's reader rejects is an error here
too. Lines already in today's format pass through unchanged.
"""

from __future__ import annotations

import json
import sys

from dynslice.events import from_json, to_line


def upgrade_line(line: str) -> str:
    """The line in today's format, or "" for a record that is dropped."""
    record = json.loads(line)
    if record["event"] == "AboutToReturn":
        return ""
    if record["event"] == "CallEntered" and "bindings" in record:
        callee = record["callee"]
        types = ",".join(callee["param_types"])
        record["callee"] = f"{callee['cls']}.{callee['name']}({types})"
        record["transfers"] = [t for b in record.pop("bindings") for t in b["transfers"]]
    return to_line(from_json(record, {}))


def upgrade(text: str) -> str:
    return "".join(upgrade_line(line) for line in text.splitlines() if line.strip())


if __name__ == "__main__":
    sys.stdout.write(upgrade(sys.stdin.read()))
