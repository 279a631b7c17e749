"""Print the sha256 of the NDJSON traces of generated programs.

    python tools/trace_digest.py SRC_DIR FIRST LAST

For each generator seed FIRST..LAST, inclusive, the program runs on its
inputs and its events are written as one trace, with its own var and event
tables, as `dynslice trace` writes it; the digest covers, seed by seed, the
run's status and its trace. SRC_DIR is the `src` directory whose `dynslice` is
imported, so two checkouts can be compared: the same line means the same
event stream on every seed, byte for byte. `answer_digest.py` compares what
the slicer makes of the streams.
"""

from __future__ import annotations

import hashlib
import sys


def digest(first: int, last: int) -> str:
    from dynslice import generate, load, run, serialize_trace

    traces = hashlib.sha256()
    for seed in range(first, last + 1):
        g = generate(seed)
        result = run(load(g.source), g.inputs)
        traces.update(f"seed {seed} {result.status}\n".encode())
        traces.update(serialize_trace(result.events).encode())
    return traces.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.path.insert(0, sys.argv[1])
    print(f"traces {digest(int(sys.argv[2]), int(sys.argv[3]))}")
