#!/usr/bin/env python3
"""dynslice benchmark: CLI latency and memory on three workloads, plus a traced run.

    python3 perfbench/run.py [--workload loop|calls|corpus|all] [--seed N]
                             [--seconds 38] [--trace 0|1]

Run it from the repository root; it imports dynslice from `src/` of the tree
it sits in. The load is a closed loop from one process: one command at a
time, each batch of one command kind in a fresh child process, every command
called in-process through `dynslice.cli.main(argv)`. The commands are
`slice --json`, `check`, `trace` (NDJSON to a file) and `check --trace` on
that file ("replay"). Every answer is checked; see README.md for the
workloads, the metrics and what each layer is predicted to move.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of a
traced run. The exit code is 0 unless an answer was wrong (1) or the
benchmark could not run (2). Failed commands are listed, counted in
`failed`, and do not change the exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT = 150.0

KINDS = ("slice", "check", "trace", "replay")
LAYERS = ("frontend", "cdg", "interpreter", "slicer", "oracle", "events")
EVENT_TYPES = ("StmtExecuted", "CallEntered", "AboutToReturn", "Returned",
               "LoopExited", "InputConsumed", "OutputProduced", "Warning")

# a run of one workload measures for RUN_SECONDS (the `run_seconds` of
# BENCHMARK.json; `--seconds` accepts only this value, so every run has the
# same length). An untraced run makes the number of cycles whose length comes
# closest to it, and at least MIN_CYCLES. In a cycle, every timing child
# repeats whole passes over the programs until CHILD_SHARE seconds are spent,
# and a set-up child before each of them until SETUP_SHARE seconds are. A
# set-up sample times a batch of passes lasting at least SETUP_BATCH seconds.
RUN_SECONDS = 38
MIN_CYCLES = 3
CHILD_SHARE = 0.5
SETUP_SHARE = 0.25
SETUP_BATCH = 0.01

END_TO_END = {
    "setup_s": "s", "slice_s": "s", "slice_p95_s": "s", "check_s": "s",
    "check_p95_s": "s", "trace_s": "s", "replay_s": "s",
    "slice_rss_mb": "MB", "trace_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a failed command)."""


# -- provenance -----------------------------------------------------------------

def provenance(args, programs_by_workload) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "dynslice")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    import workloads as wl
    sizes = {"loop": {"n": wl.LOOP_N}, "calls": {"n": wl.CALLS_N},
             "corpus": {"generator_seeds": [args.seed, args.seed + wl.CORPUS_SIZE - 1]}}
    return {
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "seed": args.seed,
        "seconds": RUN_SECONDS,
        "trace": args.trace,
        "workloads": {w: {**sizes[w], "programs": len(p)}
                      for w, p in programs_by_workload.items()},
    }


def _commit() -> str | None:
    """HEAD of the repository this tree is the root of, if it is one."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    return lines[1] if os.path.samefile(lines[0], ROOT) else None


# -- children -------------------------------------------------------------------

def child(spec: dict, work: str, tag: str) -> tuple[dict, float]:
    """Run child.py on `spec` in a fresh process; its result and peak RSS in MB."""
    spec_path = os.path.join(work, f"{tag}.spec.json")
    result_path = os.path.join(work, f"{tag}.result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = {k: v for k, v in os.environ.items() if k != "DYNSLICE_BUDGET"}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen([sys.executable, CHILD, spec_path, result_path],
                            cwd=ROOT, env=env)
    deadline = time.monotonic() + CHILD_TIMEOUT
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError(f"child {tag} ran longer than {CHILD_TIMEOUT:.0f} s")
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"child {tag} exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return result, usage.ru_maxrss / 1024  # Linux reports KiB


# -- commands and answer checks -------------------------------------------------

def write_programs(programs, work: str) -> list[dict]:
    """Per program: its source and trace paths and each kind's command."""
    out = []
    for i, p in enumerate(programs):
        src = os.path.join(work, f"p{i}.mini")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(p.source)
        trace = os.path.join(work, f"p{i}.ndjson")
        inputs = [f"--inputs={','.join(map(str, p.inputs))}"] if p.inputs else []
        target = ["--criterion", p.criterion] if ":" in p.criterion else ["--object", p.criterion]
        argvs = {
            "slice": (["slice", src, *inputs, *target, "--json"], None),
            "check": (["check", src, *inputs], None),
            "trace": (["trace", src, *inputs], trace),
            "replay": (["check", src, "--trace", trace], None),
        }
        out.append({"source": src, "trace": trace,
                    "commands": {kind: {"kind": kind, "argv": argv, "stdout": stdout}
                                 for kind, (argv, stdout) in argvs.items()}})
    return out


class Ledger:
    """Operations attempted, failed and answered wrongly, with messages.

    An operation is one (program, command kind) pair; all its repetitions
    must exit and answer the same way. A failure is a wrong exit code, an
    exception or an engine mismatch; a wrong answer (exit 0 with the wrong
    output, or an engine mismatch) also makes the run incorrect.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []
        self.wrong = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, program: str, kind: str, message: str | None, wrong: bool = False) -> bool:
        self.attempted += 1
        if message is not None:
            self.failures.append((program, kind, message))
            self.wrong += wrong
        return message is None


OK_LINE = re.compile(r"^OK: (\d+) criteria agree$", re.M)


def judge(ledger: Ledger, program, kind: str, records: list[dict],
          trace_path: str | None = None, trace_ok: bool = True) -> bool:
    """Check every repetition of one operation; record and return its verdict."""
    first = records[0]
    if any((r["rc"], r["out"]) != (first["rc"], first["out"]) for r in records):
        return ledger.record(program.name, kind, "output differs between repetitions", True)
    rc, out = first["rc"], first["out"]
    if kind == "replay" and not trace_ok:
        return ledger.record(program.name, kind, f"replays a failed trace (exit {rc})")
    if rc == 5:
        return ledger.record(program.name, kind, f"engine mismatch: {first['err']}", True)
    if rc != 0:
        why = "exception" if rc is None else f"exit {rc}"
        return ledger.record(program.name, kind, f"{why}: {first['err']}")
    if kind in ("slice", "probe"):
        got = tuple(json.loads(out)["slice"])
        if got != program.slice:
            return ledger.record(program.name, kind, f"slice {got} != {program.slice}", True)
    elif kind in ("check", "replay"):
        m = OK_LINE.search(out)
        if m is None or int(m.group(1)) != program.criteria:
            return ledger.record(program.name, kind,
                                 f"{out.strip()!r}, expected {program.criteria} criteria", True)
    elif kind == "trace":
        got = trace_outputs(trace_path)
        want = program.outputs
        if len(got) != len(want) or any(w is not None and g != str(w) for g, w in zip(got, want)):
            shown = [g if len(g) < 30 else f"<{len(g)} digits>" for g in got]
            return ledger.record(program.name, kind, f"outputs {shown} != {list(want)}", True)
    return ledger.record(program.name, kind, None)


def judge_all(ledger: Ledger, programs, files, records: dict) -> None:
    """Judge each (program, kind) operation; a replay depends on its trace."""
    for i, p in enumerate(programs):
        trace_ok = True
        for kind in KINDS:
            ok = judge(ledger, p, kind, records[kind][i], files[i]["trace"], trace_ok)
            trace_ok = trace_ok and (ok or kind != "trace")


def trace_outputs(path: str) -> list[str]:
    """OutputProduced values of an NDJSON trace, as text (no int-size limit)."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if '"OutputProduced"' in line:
                ev = json.loads(line, parse_int=str)
                if ev.get("event") == "OutputProduced":
                    values.append(str(ev["value"]))
    return values


# -- statistics -----------------------------------------------------------------

def p95(samples: list[float]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=20, method="inclusive")[18]


# -- end-to-end run -------------------------------------------------------------

def run_untraced(name: str, programs, work: str) -> tuple[dict, Ledger, dict]:
    """Cycles of fresh children (set-up before each kind) for RUN_SECONDS.

    On a shared virtual machine the CPU's speed can flip between modes about
    1.5x apart, over fractions of a second to minutes, so samples taken in
    one stretch of a run share its speed. Cycles spread each metric's samples
    over the whole run instead, and set-up is timed in four short children
    per cycle for the same reason. A command's time is the median of its
    repetitions; set-up is the median of all set-up samples of the run, each
    the mean pass of a batch lasting at least SETUP_BATCH seconds (one pass
    of `loop` takes well under a millisecond).
    """
    files = write_programs(programs, work)
    sources = [f["source"] for f in files]
    setup = []
    records = {kind: [[] for _ in programs] for kind in KINDS}
    rss = {kind: 0.0 for kind in KINDS}
    begin = time.monotonic()
    cycle = 0
    # stop at the number of cycles whose length comes closest to RUN_SECONDS
    while cycle < MIN_CYCLES or (time.monotonic() - begin) * (cycle + 0.5) / cycle <= RUN_SECONDS:
        for kind in KINDS:
            result, _ = child({"mode": "setup", "sources": sources, "share": SETUP_SHARE,
                               "batch": SETUP_BATCH}, work, "setup")
            setup.append(result["samples"])
            batch = [f["commands"][kind] for f in files]
            result, peak = child({"mode": "time", "commands": batch,
                                  "share": CHILD_SHARE}, work, kind)
            rss[kind] = max(rss[kind], peak)
            for ps in result["passes"]:
                for i, rec in enumerate(ps):
                    records[kind][i].append(rec)
        cycle += 1
    metrics = {"setup_s": statistics.median(t for samples in setup for t in samples)}
    typical = {}
    for kind in KINDS:
        typical[kind] = [statistics.median(r["t"] for r in recs) for recs in records[kind]]
        metrics[f"{kind}_s"] = statistics.median(typical[kind])
        if kind in ("slice", "check"):
            metrics[f"{kind}_p95_s"] = p95(typical[kind])
        if kind in ("slice", "trace"):
            metrics[f"{kind}_rss_mb"] = rss[kind]
    ledger = Ledger(name)
    judge_all(ledger, programs, files, records)
    samples = {kind: [[r["t"] for r in recs] for recs in records[kind]] for kind in KINDS}
    return metrics, ledger, {"cycles": cycle, "setup_samples": setup, "samples": samples}


# -- traced run -----------------------------------------------------------------

def probe_programs():
    import workloads as wl
    return [(w, n, p) for w, make in (("loop", wl.loop), ("calls", wl.calls))
            for n in wl.PROBE_NS for p in make(n)]


def run_traced(name: str, programs, work: str) -> tuple[dict, Ledger, dict]:
    files = write_programs(programs, work)
    share = RUN_SECONDS / 4 / len(KINDS)
    reps = {}  # kind -> per program: (spans of the representative command, untraced median)
    records = {kind: [[] for _ in programs] for kind in KINDS}
    for kind in KINDS:
        batch = [f["commands"][kind] for f in files]
        result, _ = child({"mode": "traced", "commands": batch,
                           "share": share, "untraced": True,
                           "memory": False}, work, f"traced-{kind}")
        by_cmd = spans_by_command(result["spans"])
        reps[kind] = []
        for i in range(len(programs)):
            mine = [(c_id, c) for c_id, c in enumerate(result["commands"]) if c["cmd"] == i]
            plain = [u for u in result["untraced"] if u["cmd"] == i]
            records[kind][i] += [c for _, c in mine] + plain
            median_t = statistics.median_low(c["t"] for _, c in mine)
            c_id = next(c_id for c_id, c in mine if c["t"] == median_t)
            reps[kind].append((by_cmd[c_id], statistics.median(u["t"] for u in plain)))

    # one untimed pass of `check`, which runs every layer but the trace
    # format, for counts and peak bytes; then the scaling probe
    probes = probe_programs()
    os.makedirs(os.path.join(work, "probe"))
    probe_files = write_programs([p for _, _, p in probes], os.path.join(work, "probe"))
    memory, _ = child({"mode": "traced", "share": 0,
                       "untraced": False, "memory": True,
                       "commands": [f["commands"]["check"] for f in files]
                       + [f["commands"]["slice"] for f in probe_files]},
                      work, "memory")
    by_cmd = spans_by_command(memory["spans"])
    counted = [by_cmd[i] for i in range(len(files))]
    for i, rec in enumerate(memory["commands"][:len(files)]):
        records["check"][i].append(rec)

    ledger = Ledger(name)
    judge_all(ledger, programs, files, records)
    probe_spans = []
    for j, (_, _, p) in enumerate(probes):
        judge(ledger, p, "probe", [memory["commands"][len(files) + j]])
        probe_spans.append(by_cmd[len(files) + j])
    trace_bytes = sum(os.path.getsize(f["trace"]) for f in files)
    metrics = layer_metrics(reps, counted, trace_bytes, len(programs))
    metrics.update(probe_metrics(probes, probe_spans))
    return metrics, ledger, {}


def spans_by_command(spans: list[list]) -> dict[int, list[tuple]]:
    """Per command id: (name, self time, duration, counts, error) of each span."""
    dur = [s[2] - s[1] for s in spans]
    own = list(dur)
    for i, s in enumerate(spans):
        if s[3] is not None:
            own[s[3]] -= dur[i]
    out = defaultdict(list)
    for i, s in enumerate(spans):
        out[s[4]].append((s[0], own[i], dur[i], s[5], s[6]))
    return out


def layer_metrics(reps: dict, counted: list, trace_bytes: int, n_programs: int) -> dict:
    """Per-layer metrics from the representative traced command of each program.

    A layer function's time is its mean self time per call, summed over the
    workload's programs; query times are totals over one pass of all four
    commands. Counts and peak bytes come from the untimed `check` pass
    (`counted`), summed (peaks: maximum) over the programs. A command may
    call a function more than once (`check` builds the oracle's graph twice),
    so a count is read from the first such call of each command.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    errors = 0
    m = {}
    for kind, per_program in reps.items():
        layer_self = defaultdict(float)
        traced = untraced = 0.0
        for spans, plain in per_program:
            for name, own, dur, _, err in spans:
                total[name] += own
                calls[name] += 1
                errors += err is not None and name.startswith("events.")
                layer_self[name.split(".")[0]] += own
                if name.startswith("cli."):
                    traced += dur
            untraced += plain
        m[f"cli.self_s.{kind}"] = layer_self["cli"]
        for layer in LAYERS:
            m[f"self.{kind}.{layer}"] = layer_self[layer]
        m[f"traced.{kind}_s"] = traced
        m[f"overhead.{kind}_s"] = traced - untraced

    def per_call(name):
        return total[name] / calls[name] * n_programs if calls[name] else 0.0

    def count(name, key):
        firsts = (next((c for n, _, _, c, _ in spans if n == name), None) for spans in counted)
        return sum((c or {}).get(key, 0) for c in firsts)

    m["frontend.tokenize_s"] = per_call("frontend.tokenize")
    m["frontend.parse_s"] = per_call("frontend.parse")
    m["frontend.check_s"] = per_call("frontend.check")
    m["frontend.tokens"] = count("frontend.tokenize", "tokens")
    m["frontend.tokens_per_s"] = _rate(m["frontend.tokens"], m["frontend.tokenize_s"])
    m["cdg.build_s"] = per_call("cdg.build_cdg")
    m["cdg.nodes"] = count("cdg.build_cdg", "nodes")
    m["interpreter.run_s"] = per_call("interpreter.run")
    m["interpreter.events"] = count("interpreter.run", "events")
    m["interpreter.events_per_s"] = _rate(m["interpreter.events"], m["interpreter.run_s"])
    for t in EVENT_TYPES:
        m[f"interpreter.events.{t}"] = count("interpreter.run", f"events.{t}")
    m["interpreter.peak_bytes"] = peak(counted, "interpreter.run")
    m["slicer.feed_s"] = per_call("slicer.consume")
    m["slicer.events_per_s"] = _rate(count("slicer.consume", "events"), m["slicer.feed_s"])
    for key in ("updates", "peak_cardinality", "dyn_entries", "live_data"):
        m[f"slicer.{key}"] = count("slicer.consume", key)
    m["slicer.query_s"] = total["slicer.slice_of"]
    m["slicer.queries"] = calls["slicer.slice_of"]
    m["slicer.peak_bytes"] = peak(counted, "slicer.consume")
    m["oracle.build_s"] = per_call("oracle.build_ddg")
    m["oracle.nodes"] = count("oracle.build_ddg", "nodes")
    m["oracle.edges"] = count("oracle.build_ddg", "edges")
    m["oracle.query_s"] = total["oracle.backward_slice"]
    m["oracle.queries"] = calls["oracle.backward_slice"]
    m["oracle.peak_bytes"] = peak(counted, "oracle.build_ddg")
    m["events.serialize_s"] = per_call("events.serialize_trace")
    m["events.parse_s"] = per_call("events.parse_trace")
    m["events.trace_bytes"] = trace_bytes
    m["events.bytes_per_event"] = _rate(trace_bytes, m["interpreter.events"])
    m["events.failures"] = errors
    return m


def peak(commands: list, name: str, key: str = "peak_bytes") -> int:
    """Largest value of one count of a span name over the given commands."""
    return max([(counts or {}).get(key, 0) for spans in commands
                for n, _, _, counts, _ in spans if n == name] or [0])


def probe_metrics(probes, probe_spans) -> dict:
    """The scaling probe: slicer state and run memory against n."""
    m = {}
    for (w, n, _), spans in zip(probes, probe_spans):
        m[f"probe.{w}.n{n}.peak_cardinality"] = peak([spans], "slicer.consume", "peak_cardinality")
        m[f"probe.{w}.n{n}.dyn_entries"] = peak([spans], "slicer.consume", "dyn_entries")
        m[f"probe.{w}.n{n}.peak_bytes"] = peak([spans], "interpreter.run")
    return m


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.startswith(("self.", "cli.self_s.")):
        return "s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_bytes", "bytes_per_event")):
        return "B"
    return "count"


# -- reporting ------------------------------------------------------------------

def print_failures(ledgers: list[Ledger]) -> None:
    for ledger in ledgers:
        grouped = defaultdict(list)
        for program, kind, message in ledger.failures:
            grouped[(kind, message)].append(program)
        for (kind, message), names in grouped.items():
            more = f" (+{len(names) - 1} more)" if len(names) > 1 else ""
            print(f"FAILED {ledger.workload} {kind} {names[0]}{more}: {message}")


def print_table(rows: dict[str, dict], ledgers: dict[str, Ledger]) -> None:
    cols = list(END_TO_END)
    head = ["workload"] + [f"{c} [{END_TO_END[c]}]" for c in cols] + ["failed/attempted"]
    body = []
    for w, m in rows.items():
        led = ledgers[w]
        body.append([w] + [f"{m[c]:.4g}" for c in cols]
                    + [f"{led.failed}/{led.attempted} = {led.failed / led.attempted:.3g}"])
    widths = [max(len(r[i]) for r in [head] + body) for i in range(len(head))]
    for r in [head] + body:
        print("  ".join(cell.rjust(wd) for cell, wd in zip(r, widths)))


def print_layers(w: str, m: dict) -> None:
    print(f"-- {w}: traced run (self seconds per command kind; layers + cli = traced)")
    head = ["kind"] + list(LAYERS) + ["cli", "traced", "overhead"]
    print("  ".join(f"{h:>11}" for h in head))
    for kind in KINDS:
        vals = [m[f"self.{kind}.{layer}"] for layer in LAYERS]
        vals += [m[f"cli.self_s.{kind}"], m[f"traced.{kind}_s"], m[f"overhead.{kind}_s"]]
        print(f"{kind:>11}  " + "  ".join(f"{v:>11.4g}" for v in vals))
    for name, value in m.items():
        if not name.startswith(("self.", "cli.", "traced.", "overhead.")):
            print(f"   {name} = {value:.6g} {unit(name)}")


def measure(workload: str, programs, args) -> tuple[dict, Ledger, dict]:
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        run = run_traced if args.trace else run_untraced
        return run(workload, programs, work)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["loop", "calls", "corpus", "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="corpus generator seeds SEED..SEED+199 (loop and calls are fixed)")
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS, choices=[RUN_SECONDS],
                        help="measuring time per workload; fixed, so that runs compare")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1],
                        help="1: traced run with per-layer metrics")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dynslice", "cli.py")):
        print(f"error: no dynslice sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads as wl

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    programs = {w: wl.WORKLOADS[w](args.seed) for w in names}
    meta = provenance(args, programs)
    rows, ledgers, notes = {}, {}, {}
    try:
        for w in names:
            rows[w], ledgers[w], notes[w] = measure(w, programs[w], args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print_failures(list(ledgers.values()))
    if args.trace:
        for w in names:
            print_layers(w, rows[w])
    else:
        print_table(rows, ledgers)
    correct = all(led.wrong == 0 for led in ledgers.values())
    attempted = sum(led.attempted for led in ledgers.values())
    failed = sum(led.failed for led in ledgers.values())
    metrics = {}
    for w in names:
        for name, value in rows[w].items():
            key = name if len(names) == 1 else f"{w}.{name}"
            metrics[key] = {"value": value, "unit": unit(name)}
    report = {"meta": meta, "notes": notes,
              "failures": {w: led.failures for w, led in ledgers.items()}}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**report, "metrics": metrics}, fh, indent=1)
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
