"""Print as JSON the in-process events/s of each slicing stage on the
benchmark's programs: `loop` (perfbench/programs/loop.mini, n = 20000),
`calls` (calls.mini, n = 10000) and `corpus` (the 200 frozen programs of
perfbench/corpus.json, only read).

    python tools/stages.py SRC_DIR

SRC_DIR is the `src` directory whose `dynslice` is imported, as for
`tools/seeds.py`. Each stage is the best of REPEATS passes over a workload:
`run` with a sink that drops each event, `run` with `SliceState.feed` as its
sink, `consume` of the buffered events, and the oracle (`build_ddg` and
`backward_slice` of each of its criteria). A workload also gives its events,
its payload-free events and the distinct objects among them, one slicer step
each.
"""

from __future__ import annotations

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


def measure(programs) -> dict:
    from dynslice import backward_slice, build_cdg, build_ddg, init, load, run
    from dynslice.events import CallEntered, Returned, StmtExecuted

    loaded = [(p, build_cdg(p), inputs) for p, inputs in ((load(s), i) for s, i in programs)]
    runs = [run(p, inputs).events for p, _, inputs in loaded]
    free = [[ev for ev in evs if isinstance(ev, (StmtExecuted, CallEntered, Returned))]
            for evs in runs]
    record = {"events": sum(map(len, runs)), "payload_free": sum(map(len, free)),
              "distinct": sum(len(set(map(id, evs))) for evs in free)}
    stages = {
        "run": lambda p, g, i, evs: run(p, i, sink=lambda ev: None),
        "run+feed": lambda p, g, i, evs: run(p, i, sink=init(g).feed),
        "consume": lambda p, g, i, evs: init(g).consume(evs),
        "oracle": lambda p, g, i, evs: [backward_slice(d, *c) for d in [build_ddg(evs, g)]
                                        for c in d.criteria],
    }
    for name, stage in stages.items():
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            for (p, g, inputs), evs in zip(loaded, runs):
                stage(p, g, inputs, evs)
            best = min(best, time.perf_counter() - start)
        record[f"{name}_events_per_s"] = round(record["events"] / best)
    return record


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.path.insert(0, sys.argv[1])
    commit = subprocess.run(["git", "-C", sys.argv[1], "describe", "--always", "--dirty",
                             "--abbrev=40"], capture_output=True, text=True).stdout.strip()
    print(json.dumps({"python": platform.python_version(), "commit": commit,
                      **{name: measure(programs) for name, programs in workloads().items()}},
                     indent=1))
