from __future__ import annotations

import hashlib
import json

from dynslice import build_cdg, def_use, export_dot, export_json, generate, load
from dynslice.cdg import entry_key
from dynslice.fixtures import SAMPLE_SOURCE


def test_entry_keys(sample_cdg):
    assert sample_cdg.entry_order == [
        "main",
        "test.get(int,int)",
        "test.display()",
        "test.add(test,test)",
        "test.add(test,int)",
    ]
    assert entry_key("main", None) == "main"


def test_kinds(sample_cdg):
    kinds = {sid: sample_cdg.kind(sid) for sid in sample_cdg.nodes}
    assert kinds[2] == "Input"
    assert kinds[1] == "Output"
    assert kinds[5] == "Call"
    assert kinds[17] == "Assign"
    assert all(k != "Test" for k in kinds.values())  # fixture is straight-line


def test_straight_line_parents(sample_cdg):
    # no tests anywhere, so every statement hangs off its procedure entry
    for sid in range(1, 17):
        assert sample_cdg.proc[sid] == "main"
        assert sample_cdg.test[sid] is None
    assert (sample_cdg.test[17], sample_cdg.proc[17]) == (None, "test.get(int,int)")
    assert (sample_cdg.test[21], sample_cdg.proc[21]) == (None, "test.add(test,test)")


def test_nesting_parents():
    graph = build_cdg(load("""\
void main() {
    int a, b;
    #1: cin >> a;
    #2: if (a > 0) {
        #3: b = 1;
        #4: while (a > 0) {
            #5: a = a - 1;
        }
    } else {
        #6: b = 2;
    }
    #7: cout << b;
}
"""))
    assert graph.kind(2) == "Test"
    assert graph.kind(4) == "TestLoop"
    assert graph.test[3] == 2
    assert graph.test[4] == 2
    assert graph.test[5] == 4
    assert graph.test[6] == 2  # else branch has the same governing test
    assert graph.proc[7] == "main"
    assert graph.test[7] is None


# every place a loop can end: a loop body (8, nested in 5, exits to the outer
# test 5), before an `if` (5 exits to 10), an `if` branch (11 exits past the
# `if` to 14), before a call (14 exits to 16) and a method (2 exits to nothing)
EXITS_SOURCE = """\
class c {
    int m;
public:
    void f(int n) {
        #1: m = n;
        #2: while (n > 0) {
            #3: n = n - 1;
        }
    }
};

void main() {
    c o;
    int a, b;
    #4: cin >> a;
    #5: while (a > 0) {
        #6: a = a - 1;
        #7: b = a;
        #8: while (b > 0) {
            #9: b = b - 1;
        }
    }
    #10: if (a == 0) {
        #11: while (b < 2) {
            #12: b = b + 1;
        }
    } else {
        #13: b = 0;
    }
    #14: while (b > 1) {
        #15: b = b - 1;
    }
    #16: o.f(b);
    #17: cout << o.m;
}
"""


def test_loop_exit_successors():
    graph = build_cdg(load(EXITS_SOURCE))
    assert graph.exits == {5: (8,), 10: (5,), 14: (11,), 16: (14,)}
    # the method's loop is last in its body: the Returned ends its activation
    assert all(2 not in loops for loops in graph.exits.values())


def test_exits_of_an_if_that_ends_two_loops():
    graph = build_cdg(load("""\
void main() {
    int a;
    #1: cin >> a;
    #2: if (a > 0) {
        #3: while (a > 0) {
            #4: a = a - 1;
        }
    } else {
        #5: while (a < 0) {
            #6: a = a + 1;
        }
    }
    #7: cout << a;
}
"""))
    assert graph.exits == {7: (3, 5)}


def test_call_sites_name_their_method(sample_cdg):
    # one entry per call node, the overload the checker resolved
    assert sample_cdg.callee == {
        5: "test.get(int,int)", 11: "test.get(int,int)",
        13: "test.add(test,test)", 15: "test.add(test,int)",
        **dict.fromkeys((6, 12, 14, 16), "test.display()")}
    assert build_cdg(load(EXITS_SOURCE)).callee == {16: "c.f(int)"}


def test_def_use_member_expansion(sample_cdg):
    node13 = sample_cdg.nodes[13]
    assert sorted(v.display() for v in node13.use_set) \
        == ["T1.a", "T1.b", "T2.a", "T2.b"]
    assert node13.def_set == frozenset()  # no call-assignment target
    node15 = sample_cdg.nodes[15]
    assert sorted(v.display() for v in node15.use_set) == ["T3.a", "T3.b"]


def test_def_use_method_bodies(sample_cdg):
    assert [v.display() for v in sample_cdg.nodes[17].def_set] == ["a"]
    assert [v.display() for v in sample_cdg.nodes[17].use_set] == ["x"]
    assert sorted(v.display() for v in sample_cdg.nodes[23].use_set) \
        == ["s", "tp3.a"]


def test_call_assignment_defines_target():
    graph = build_cdg(load("""\
class c {
    int m;
public:
    int f(int x) {
        #4: m = x;
        #5: return m;
    }
};

void main() {
    c o;
    int a, b;
    #1: a = 2;
    #2: b = o.f(a);
    #3: cout << b;
}
"""))
    node2 = graph.nodes[2]
    assert [v.display() for v in node2.def_set] == ["b"]
    assert [v.display() for v in node2.use_set] == ["a"]
    assert graph.kind(5) == "Return"


def test_def_use_matches_node_sets(sample_program, sample_cdg):
    members = sample_cdg.members
    for stmt in sample_program.statements():
        defs, uses = def_use(stmt, members)
        assert frozenset(defs) == sample_cdg.nodes[stmt.id].def_set
        assert frozenset(uses) == sample_cdg.nodes[stmt.id].use_set


def test_main_variable_inventory(sample_cdg):
    assert sample_cdg.main_objects == {
        "T1": "test", "T2": "test", "T3": "test", "T4": "test"}
    assert sample_cdg.members == {"test": ("a", "b")}


def test_export_json_shape(sample_cdg):
    rows = json.loads(export_json(sample_cdg))
    stmt_rows = [r for r in rows if r["kind"] != "Entry"]
    entry_rows = [r for r in rows if r["kind"] == "Entry"]
    assert [r["id"] for r in stmt_rows] == list(range(1, 25))
    assert len(entry_rows) == 5
    assert all(r["parent"] is None for r in entry_rows)
    by_id = {r["id"]: r for r in stmt_rows}
    assert by_id[13]["uses"] == ["T1.a", "T1.b", "T2.a", "T2.b"]
    assert by_id[17]["defs"] == ["a"]
    # statement parents name entry rows by their id
    assert by_id[5]["parent"] == "Entry(main)"
    assert by_id[5]["parent"] in {r["id"] for r in entry_rows}
    assert set(by_id[1]) == {"id", "kind", "parent", "defs", "uses"}


def test_export_dot(sample_cdg):
    dot = export_dot(sample_cdg)
    assert dot.startswith("digraph")
    # one parent edge per statement
    assert dot.count("->") == 24
    for key in sample_cdg.entry_order:
        assert key in dot


def test_export_dot_loop(loop_cdg):
    dot = export_dot(loop_cdg)
    assert dot.count("->") == 8
    rows = json.loads(export_json(loop_cdg))
    by_id = {r["id"]: r for r in rows if r["kind"] != "Entry"}
    assert by_id[4]["parent"] == 3
    assert by_id[3]["kind"] == "TestLoop"


# sha256 of export_dot then export_json of SAMPLE_SOURCE and of generator seeds
# 0..199, in that order: the exports' bytes, Entry parents included
EXPORTS_SHA256 = "6c0542521e322476cf4b9bde318c4f6f423a83f3de80ef83b24eadda34b49f10"


def test_exports_are_pinned():
    digest = hashlib.sha256()
    for source in [SAMPLE_SOURCE] + [generate(seed).source for seed in range(200)]:
        graph = build_cdg(load(source))
        digest.update(export_dot(graph).encode())
        digest.update(export_json(graph).encode())
    assert digest.hexdigest() == EXPORTS_SHA256
