"""Print one sha256 over the streaming slicer's answers on generated programs.

    python tools/answer_digest.py SRC_DIR FIRST LAST

For each generator seed FIRST..LAST, inclusive, the program runs on its
inputs with the slicer as its sink. The digest covers, seed by seed, the run's
status, every criterion with its `slice_of`, every object of main with its
`slice_of_object`, and the counters `peak_cardinality`, `updates` and
`dyn_entries`. SRC_DIR is the `src` directory whose `dynslice` is imported, so
two checkouts can be compared: the same digest means the same answers, state
sizes and update counts on every seed.
"""

from __future__ import annotations

import hashlib
import sys


def digest(first: int, last: int) -> str:
    from dynslice import build_cdg, generate, init, load, run

    h = hashlib.sha256()
    for seed in range(first, last + 1):
        g = generate(seed)
        program = load(g.source)
        graph = build_cdg(program)
        state = init(graph)
        status = run(program, g.inputs, sink=state.feed).status
        lines = [f"seed {seed} {status}"]
        lines += [f"{c} {sorted(state.slice_of(*c))}" for c in state.criteria()]
        lines += [f"{o} {sorted(state.slice_of_object(o))}" for o in sorted(graph.main_objects)]
        lines.append(f"{state.peak_cardinality} {state.updates} {len(state.dyn_table)}")
        h.update("\n".join(lines + [""]).encode())
    return h.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.path.insert(0, sys.argv[1])
    print(digest(int(sys.argv[2]), int(sys.argv[3])))
