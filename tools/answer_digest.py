"""Print two sha256 digests of the streaming slicer on generated programs.

    python tools/answer_digest.py SRC_DIR FIRST LAST

For each generator seed FIRST..LAST, inclusive, the program runs on its
inputs with the slicer as its sink. The first line is the answers digest: seed
by seed, the run's status, every criterion with its `slice_of` and every
object of main with its `slice_of_object`. The second is the counters digest:
seed by seed, `peak_cardinality`, `updates` and `dyn_entries`. SRC_DIR is the
`src` directory whose `dynslice` is imported, so two checkouts can be
compared: the same first line means the same answers on every seed, and the
same second line the same state sizes and update counts.
"""

from __future__ import annotations

import hashlib
import sys


def digests(first: int, last: int) -> tuple[str, str]:
    from dynslice import build_cdg, generate, init, load, run

    answers, counters = hashlib.sha256(), hashlib.sha256()
    for seed in range(first, last + 1):
        g = generate(seed)
        program = load(g.source)
        graph = build_cdg(program)
        state = init(graph)
        status = run(program, g.inputs, sink=state.feed).status
        lines = [f"seed {seed} {status}"]
        lines += [f"{c} {sorted(state.slice_of(*c))}" for c in state.criteria()]
        lines += [f"{o} {sorted(state.slice_of_object(o))}" for o in sorted(graph.main_objects)]
        answers.update("\n".join(lines + [""]).encode())
        counters.update(f"seed {seed} {state.peak_cardinality} {state.updates} "
                        f"{len(state.dyn_table)}\n".encode())
    return answers.hexdigest(), counters.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.path.insert(0, sys.argv[1])
    answers, counters = digests(int(sys.argv[2]), int(sys.argv[3]))
    print(f"answers {answers}")
    print(f"counters {counters}")
