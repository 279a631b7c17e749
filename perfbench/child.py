"""Runs one batch of dynslice work in this fresh process and writes what it saw.

    python3 perfbench/child.py SPEC.json RESULT.json

The parent (`run.py`) starts a fresh child for each batch of one command
kind, so that the child's peak RSS belongs to that command alone. Commands
are called in-process through `dynslice.cli.main(argv)`, so interpreter
start-up and import are paid once per batch, not per command.

Modes (SPEC["mode"]):
- "setup":  time `load` + `build_cdg` over every source, repeatedly; a sample
            is the mean pass of a batch of passes lasting SPEC["batch"] s.
- "time":   run the commands in passes, timing each call; no tracing.
- "traced": run each command once untraced and once with a span around every
            call into the layers' public functions (see LAYERS). With
            SPEC["memory"], spans also record counts read from the returned
            objects and, for MEMORY_SPANS, the peak bytes tracemalloc saw
            inside the span; such passes are not used for timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
import tracemalloc
from collections import Counter

from dynslice import cli
from dynslice.cdg import build_cdg
from dynslice.frontend import load

# span name -> (module, attribute) of the public function it wraps
LAYERS = {
    "frontend.tokenize": ("dynslice.frontend", "tokenize"),
    "frontend.parse": ("dynslice.frontend", "parse"),
    "frontend.check": ("dynslice.frontend", "check"),
    "cdg.build_cdg": ("dynslice.cdg", "build_cdg"),
    "interpreter.run": ("dynslice.interpreter", "run"),
    "slicer.consume": ("dynslice.slicer", "SliceState.consume"),
    "slicer.slice_of": ("dynslice.slicer", "SliceState.slice_of"),
    "oracle.build_ddg": ("dynslice.oracle", "build_ddg"),
    "oracle.backward_slice": ("dynslice.oracle", "backward_slice"),
    "events.serialize_trace": ("dynslice.events", "serialize_trace"),
    "events.parse_trace": ("dynslice.events", "parse_trace"),
}

# counts read from a span's arguments and returned object once the command is
# over, so that reading them costs no span time (memory passes only)
COUNTS = {
    "frontend.tokenize": lambda args, r: {"tokens": len(r)},
    "cdg.build_cdg": lambda args, r: {"nodes": len(r.nodes)},
    "interpreter.run": lambda args, r: {
        "events": len(r.events),
        **{f"events.{k}": v for k, v in Counter(type(e).__name__ for e in r.events).items()}},
    "slicer.consume": lambda args, r: {
        "events": r.events, "updates": r.updates,
        "peak_cardinality": r.peak_cardinality,
        "dyn_entries": len(r.dyn_table), "live_data": len(r.active_data)},
    "oracle.build_ddg": lambda args, r: {
        "nodes": len(r.payloads), "edges": sum(map(len, r.preds))},
}

# spans whose peak traced memory is recorded. tracemalloc runs only inside
# them, so none may nest in another.
MEMORY_SPANS = ("interpreter.run", "slicer.consume", "oracle.build_ddg")


def invoke(argv: list[str], stdout_path: str | None) -> dict:
    """One CLI command: its timed interval, exit code, stdout, last stderr line.

    With `stdout_path` the command writes to that file (flushed inside the
    timed region) and the record holds the file's sha256 instead of its text.
    """
    out, err = io.StringIO(), io.StringIO()
    fh = open(stdout_path, "w", encoding="utf-8") if stdout_path else None
    try:
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(fh or out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - any crash is a counted failure
            rc = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        if fh:
            fh.flush()
        end = time.perf_counter()
    finally:
        if fh:
            fh.close()
    lines = [ln for ln in err.getvalue().splitlines() if ln.strip()]
    return {"t": end - start, "start": start, "end": end, "rc": rc,
            "out": _sha256(stdout_path) if stdout_path else out.getvalue(),
            "err": lines[-1][:300] if lines else ""}


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Tracer:
    """Spans around calls into the layers, kept in memory until the end.

    A span is [name, start, end, parent span index, command id, counts,
    error]. While `active()` is entered, every binding of a LAYERS function
    in a dynslice module is replaced by a wrapper that records a span.
    """

    def __init__(self, memory: bool):
        """memory: also record counts and the peak bytes of MEMORY_SPANS."""
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.pending: list[tuple[list, tuple, object]] = []
        self.memory = memory

    def command(self, command_id: int, kind: str, argv: list[str],
                stdout_path: str | None) -> dict:
        """Run one command as the root span 'cli.<kind>' with layers traced."""
        root = [f"cli.{kind}", 0.0, 0.0, None, command_id, None, None]
        self.stack.append(len(self.spans))
        self.spans.append(root)
        with self.active():
            record = invoke(argv, stdout_path)
        root[1], root[2] = record["start"], record["end"]
        self.stack.pop()
        for span, args, result in self.pending:
            counts = COUNTS[span[0]](args, result)
            span[5] = counts if span[5] is None else {**span[5], **counts}
        self.pending.clear()
        return record

    @contextlib.contextmanager
    def active(self):
        restore = []
        for name, (module, attr) in LAYERS.items():
            owner = sys.modules[module]
            if "." in attr:  # a method: patch it on its class
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                restore.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "dynslice" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        try:
            yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counted = self.memory and name in COUNTS
        memory = self.memory and name in MEMORY_SPANS

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], spans[stack[-1]][4], None, None]
            stack.append(len(spans))
            spans.append(span)
            if memory:
                tracemalloc.start()
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[2] = clock()
                span[6] = f"{type(exc).__name__}: {exc}"[:300]
                raise
            finally:
                stack.pop()
                if memory:
                    span[5] = {"peak_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            span[2] = clock()
            if counted:
                self.pending.append((span, args, result))
            return result

        return traced


def run_setup(spec: dict) -> dict:
    sources = []
    for path in spec["sources"]:
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
    samples = []
    begin = time.perf_counter()
    while not samples or time.perf_counter() - begin < spec["share"]:
        passes, start = 0, time.perf_counter()
        while not passes or time.perf_counter() - start < spec["batch"]:
            for text in sources:
                build_cdg(load(text))
            passes += 1
        samples.append((time.perf_counter() - start) / passes)
    return {"samples": samples}


def run_time(spec: dict) -> dict:
    passes = []
    begin = time.perf_counter()
    while not passes or time.perf_counter() - begin < spec["share"]:
        passes.append([invoke(c["argv"], c["stdout"]) for c in spec["commands"]])
    return {"passes": passes}


def run_traced(spec: dict) -> dict:
    """Each pass runs every command untraced and traced, alternating the order.

    One untimed call of the first command comes first, so that neither side
    pays alone for the fresh process's first allocations.
    """
    tracer = Tracer(memory=spec["memory"])
    commands, untraced = [], []
    if spec["untraced"]:
        invoke(spec["commands"][0]["argv"], spec["commands"][0]["stdout"])
    begin = time.perf_counter()
    p = 0
    while p == 0 or time.perf_counter() - begin < spec["share"]:
        for i, c in enumerate(spec["commands"]):
            first_untraced = spec["untraced"] and p % 2 == 0
            if first_untraced:
                untraced.append({"pass": p, "cmd": i, **invoke(c["argv"], c["stdout"])})
            record = tracer.command(len(commands), c["kind"], c["argv"], c["stdout"])
            commands.append({"pass": p, "cmd": i, **record})
            if spec["untraced"] and not first_untraced:
                untraced.append({"pass": p, "cmd": i, **invoke(c["argv"], c["stdout"])})
        p += 1
    return {"commands": commands, "untraced": untraced, "spans": tracer.spans}


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    run = {"setup": run_setup, "time": run_time, "traced": run_traced}[spec["mode"]]
    result = run(spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
