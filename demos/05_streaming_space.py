"""Why streaming matters: slicer state stays flat while the trace grows.

The slicer keeps one set per live variable, test, and recorded answer; slice
sets saturate after a few loop iterations, so running the same loop a thousand
times more does not cost a byte more. That holds for a call in a loop too: the
callee's locals die with its frame and the DyanSlice table keeps one entry per
(node, name), not per activation. The dependence-graph oracle, which keeps
every statement occurrence, grows linearly with the trace.
"""

from __future__ import annotations

from dynslice import build_cdg, build_ddg, init, load, run
from dynslice.fixtures import CALLS_SOURCE, STREAM_SOURCE


def table(source: str, ns: tuple[int, ...]) -> None:
    program = load(source)
    graph = build_cdg(program)
    print(source)
    print(f"{'iterations':>10} {'events':>8} {'peak slicer state':>18} "
          f"{'DyanSlice entries':>18} {'oracle nodes':>13}")
    for n in ns:
        result = run(program, (n,), budget=10 * n + 100)
        state = init(graph).consume(result.events)
        ddg = build_ddg(result.events, graph)
        print(f"{n:>10} {len(result.events):>8} {state.peak_cardinality:>18} "
              f"{len(state.dyn_table):>18} {ddg.occurrences:>13}")
    print()


table(STREAM_SOURCE, (10, 100, 1000, 10000, 100000))
table(CALLS_SOURCE, (10, 100, 1000, 10000))
