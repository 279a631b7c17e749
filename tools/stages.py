"""Print as JSON the in-process cost of each slicing stage on the benchmark's
programs: `loop` (perfbench/programs/loop.mini, n = 20000), `calls`
(calls.mini, n = 10000) and `corpus` (the 200 frozen programs of
perfbench/corpus.json, generator seeds 0..199, only read).

    python tools/stages.py SRC_DIR

SRC_DIR is the `src` directory whose `dynslice` is imported, as for
`tools/seeds.py`. Each stage is the best of REPEATS passes over a workload.
`load` (lex, parse and check) and `build_cdg` give seconds per pass. `run`
with a sink that drops each event, `run` with `SliceState.feed` as its sink,
`consume` of the buffered events, and the oracle (`build_ddg` and
`backward_slice` of each of its criteria) give events/s. The corpus also gives
`cli_s`: `cli.main(["check", "--seed", S])` for S in 0..199, stdout captured.
A workload also gives its events, its payload-free events and the distinct
objects among them, one slicer step each.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import time

REPEATS = 5
PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")


def workloads() -> dict[str, list[tuple[str, tuple[int, ...]]]]:
    def read(name):
        with open(os.path.join(PERFBENCH, "programs", name), encoding="utf-8") as fh:
            return fh.read()
    with open(os.path.join(PERFBENCH, "corpus.json"), encoding="utf-8") as fh:
        corpus = [(p["source"], tuple(p["inputs"])) for p in json.load(fh)["programs"]]
    return {"loop": [(read("loop.mini"), (20000,))],
            "calls": [(read("calls.mini"), (10000,))], "corpus": corpus}


def best(work) -> float:
    """Seconds of the fastest of REPEATS calls of `work`."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return round(min(times), 6)


def cli_check() -> None:
    from dynslice import cli

    with contextlib.redirect_stdout(io.StringIO()):
        for seed in range(200):
            if cli.main(["check", "--seed", str(seed)]) != 0:
                raise SystemExit(f"check --seed {seed} failed")


def measure(programs) -> dict:
    from dynslice import backward_slice, build_cdg, build_ddg, init, load, run
    from dynslice.events import CallEntered, Returned, StmtExecuted

    loaded = [(p, build_cdg(p), inputs) for p, inputs in ((load(s), i) for s, i in programs)]
    runs = [run(p, inputs).events for p, _, inputs in loaded]
    free = [[ev for ev in evs if isinstance(ev, (StmtExecuted, CallEntered, Returned))]
            for evs in runs]
    record = {"events": sum(map(len, runs)), "payload_free": sum(map(len, free)),
              "distinct": sum(len(set(map(id, evs))) for evs in free),
              "load_s": best(lambda: [load(s) for s, _ in programs]),
              "build_cdg_s": best(lambda: [build_cdg(p) for p, _, _ in loaded])}
    stages = {
        "run": lambda p, g, i, evs: run(p, i, sink=lambda ev: None),
        "run+feed": lambda p, g, i, evs: run(p, i, sink=init(g).feed),
        "consume": lambda p, g, i, evs: init(g).consume(evs),
        "oracle": lambda p, g, i, evs: [backward_slice(d, *c) for d in [build_ddg(evs, g)]
                                        for c in d.criteria],
    }
    for name, stage in stages.items():
        seconds = best(lambda: [stage(p, g, inputs, evs)
                                for (p, g, inputs), evs in zip(loaded, runs)])
        record[f"{name}_events_per_s"] = round(record["events"] / seconds)
    return record


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.path.insert(0, sys.argv[1])
    commit = subprocess.run(["git", "-C", sys.argv[1], "describe", "--always", "--dirty",
                             "--abbrev=40"], capture_output=True, text=True).stdout.strip()
    record = {name: measure(programs) for name, programs in workloads().items()}
    record["corpus"]["cli_s"] = best(cli_check)
    print(json.dumps({"python": platform.python_version(), "commit": commit, **record},
                     indent=1))
