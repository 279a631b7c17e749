"""Differential testing: the streaming slicer against a dependence-graph oracle.

The oracle builds the full dynamic dependence graph (one node per statement
occurrence) and answers by backward reachability; it is precise but grows with
the trace. Random programs exercise calls, overloads, by-ref parameters, and
nested control flow; every executed criterion must agree between the engines.
"""

from __future__ import annotations

from dynslice import build_cdg, generate, init, load, run
from dynslice.cli import run_check

seed = 42
g = generate(seed)
print(f"seed {seed}, inputs {g.inputs}:")
print(g.source)

program = load(g.source)
graph = build_cdg(program)
result = run(program, g.inputs)
state = init(graph).consume(result.events)
print(f"run: {result.status}, {len(result.events)} events, "
      f"{len(state.criteria())} criteria")

verdict = run_check(graph, result.events)
print(f"engines agree: {verdict is None}")
print()

checked = 0
mismatches = 0
for seed in range(200):
    g = generate(seed)
    program = load(g.source)
    graph = build_cdg(program)
    result = run(program, g.inputs)
    if run_check(graph, result.events) is not None:
        mismatches += 1
        print(f"  seed {seed}: MISMATCH")
    checked += 1
print(f"{checked} generated programs, {mismatches} mismatches")
