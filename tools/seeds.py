"""Print digests of the traces and the slicer's answers on generated programs,
then each program on which `dynslice check` would not exit 0.

    python tools/seeds.py SRC_DIR FIRST LAST

For each generator seed FIRST..LAST, inclusive, the program runs once on its
inputs; each event is kept and fed to the streaming slicer. Three sha256
digests are printed, each taken seed by seed:

- traces: the run's status and its events written as one trace, with its own
  var and event tables, as `dynslice trace` writes it;
- answers: the run's status, every criterion with its `slice_of` and every
  object of main with its `slice_of_object`;
- counters: `peak_cardinality`, `updates` and `dyn_entries`.

Then `check --seed` runs in process on each seed: the slicer is compared with
the dependence-graph oracle on every criterion. Each seed whose exit code is
not 0 is printed as `seed N exit C: ...` with the first line `check` wrote to
stderr, the first mismatching criterion for exit 5; the last line counts them.

SRC_DIR is the `src` directory whose `dynslice` is imported, so two checkouts
can be compared: the same traces line means the same event stream on every
seed, byte for byte, the same answers and counters lines the same answers,
state sizes and update counts, and the same failure lines the same seeds
failing in the same way.
"""

from __future__ import annotations

import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout


def report(first: int, last: int) -> list[str]:
    from dynslice import build_cdg, generate, init, load, run, serialize_trace
    from dynslice.cli import main

    traces, answers, counters = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    failed = []
    for seed in range(first, last + 1):
        g = generate(seed)
        program = load(g.source)
        graph = build_cdg(program)
        state, events = init(graph), []
        status = run(program, g.inputs,
                     sink=lambda ev: (events.append(ev), state.feed(ev))).status
        traces.update(f"seed {seed} {status}\n{serialize_trace(events)}".encode())
        lines = [f"seed {seed} {status}"]
        lines += [f"{c} {sorted(state.slice_of(*c))}" for c in state.criteria()]
        lines += [f"{o} {sorted(state.slice_of_object(o))}" for o in sorted(graph.main_objects)]
        answers.update("\n".join(lines + [""]).encode())
        counters.update(f"seed {seed} {state.peak_cardinality} {state.updates} "
                        f"{len(state.dyn_table)}\n".encode())
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["check", "--seed", str(seed)])
        if code != 0:
            failed.append(f"seed {seed} exit {code}: {(err.getvalue().splitlines() or [''])[0]}")
    return [f"traces {traces.hexdigest()}", f"answers {answers.hexdigest()}",
            f"counters {counters.hexdigest()}", *failed,
            f"{len(failed)} of {last - first + 1} seeds fail"]


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.path.insert(0, sys.argv[1])
    print("\n".join(report(int(sys.argv[2]), int(sys.argv[3]))))
