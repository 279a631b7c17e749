"""Parse a program, number its statements, and walk the control dependence graph.

Every executable statement gets a stable id: either the explicit `#n:` labels
in the source, or textual order when no labels are present. The CDG for this
structured language is a forest, one tree per procedure, where each statement
hangs off its nearest enclosing test (`Cdg.test`) or, where it has none, its
procedure's entry (`Cdg.proc`).
"""

from __future__ import annotations

from dynslice import build_cdg, export_dot, load, pretty

SOURCE = """\
void main() {
    int a, b;
    #1: cin >> a;
    #2: if (a > 0) {
        #3: b = a + 1;
        #4: while (a > 0) {
            #5: a = a - 1;
        }
    } else {
        #6: b = 2;
    }
    #7: cout << b;
}
"""

program = load(SOURCE)
print("canonical listing (ids are part of the language):")
print(pretty(program))

graph = build_cdg(program)
print("control parents (statement -> governing test or entry):")
for sid in sorted(graph.nodes):
    node, test = graph.nodes[sid], graph.test[sid]
    parent = test if test is not None else graph.proc[sid]  # `proc`: the entry key
    defs = ", ".join(sorted(v.display() for v in node.def_set)) or "-"
    uses = ", ".join(sorted(v.display() for v in node.use_set)) or "-"
    print(f"  {sid:2} {node.kind:8} parent={parent!r:8} "
          f"defs={defs}  uses={uses}")

print()
print("the same graph as DOT (pipe into `dot -Tpng`):")
print(export_dot(graph))
