"""Control dependence graph and static def/use sets.

For this structured language the CDG restricted to one procedure is a tree:
every statement's control parent is the nearest enclosing test node (`test`),
or, where `test` is None, the synthetic Entry node of its procedure (`proc`,
the entry key). The exports derive the Entry parent from the two. Entry nodes
never appear in slices.

The same walk records what the program text fixes, so a trace need not: the
node each loop exits to (`exits`: the statement after it, else `after` in
`_attach`) and the method each call site runs, the resolved overload (`callee`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .syntax import (
    Assign,
    BinOp,
    Call,
    Expr,
    If,
    Input,
    IntLit,
    Name,
    Output,
    Program,
    Return,
    Stmt,
    StrLit,
    VarDecl,
    While,
)


@dataclass(frozen=True)
class VarRef:
    """A sliceable storage location as seen statically.

    hint is one of "local" (procedure-local scalar), "obj_member" (member of a
    named object variable), "recv_member" (bare member name inside a method,
    bound to the receiver only at runtime).
    """

    base: str
    member: str | None
    hint: str

    def display(self) -> str:
        return f"{self.base}.{self.member}" if self.member else self.base


@dataclass(frozen=True)
class NodeInfo:
    kind: str  # Assign, Input, Output, Test, TestLoop, Call, Return
    def_set: frozenset[VarRef]
    use_set: frozenset[VarRef]


@dataclass
class Cdg:
    nodes: dict[int, NodeInfo] = field(default_factory=dict)
    entry_order: list[str] = field(default_factory=list)  # Entry node keys
    test: dict[int, int | None] = field(default_factory=dict)  # node -> governing test
    proc: dict[int, str] = field(default_factory=dict)  # node -> its procedure's entry key
    members: dict[str, tuple[str, ...]] = field(default_factory=dict)  # class -> members
    main_objects: dict[str, str] = field(default_factory=dict)  # object -> class
    exits: dict[int, tuple[int, ...]] = field(default_factory=dict)  # node -> loops it ends
    callee: dict[int, str] = field(default_factory=dict)  # call site -> entry key

    def kind(self, sid: int) -> str:
        return self.nodes[sid].kind


def entry_key(cls: str, method) -> str:
    """Stable procedure key: "main" or "cls.name(type,...)" for methods."""
    if method is None:
        return "main"
    return f"{cls}.{method.signature}"


def _expr_vars(e: Expr, members: dict[str, tuple[str, ...]]) -> set[VarRef]:
    if isinstance(e, (IntLit, StrLit)):
        return set()
    if isinstance(e, Name):
        return set(_name_refs(e, members))
    if isinstance(e, BinOp):
        return _expr_vars(e.left, members) | _expr_vars(e.right, members)
    raise TypeError(f"unknown expression {e!r}")


def _name_refs(name: Name, members: dict[str, tuple[str, ...]]) -> list[VarRef]:
    """VarRefs of a bound Name; object names expand to all their members."""
    if name.binding == "recv_member":
        return [VarRef(name.base, None, "recv_member")]
    if name.binding == "obj_member":
        return [VarRef(name.base, name.member, "obj_member")]
    if name.binding == "obj_local":
        return [VarRef(name.base, m, "obj_member") for m in members[name.cls]]
    return [VarRef(name.base, None, "local")]


def def_use(node: Stmt, members: dict[str, tuple[str, ...]] | None = None):
    """Static (def_set, use_set) of one checked statement."""
    members = members or {}
    if isinstance(node, Assign):
        return (frozenset(_name_refs(node.target, members)),
                frozenset(_expr_vars(node.value, members)))
    if isinstance(node, Input):
        return frozenset(_name_refs(node.target, members)), frozenset()
    if isinstance(node, Output):
        return frozenset(), frozenset(_expr_vars(node.value, members))
    if isinstance(node, (If, While)):
        return frozenset(), frozenset(_expr_vars(node.cond, members))
    if isinstance(node, Call):
        uses: set[VarRef] = set()
        for a in node.args:
            uses |= _expr_vars(a, members)
        defs = frozenset(_name_refs(node.assign_to, members)) if node.assign_to else frozenset()
        return defs, frozenset(uses)
    if isinstance(node, Return):
        uses = _expr_vars(node.value, members) if node.value is not None else set()
        return frozenset(), frozenset(uses)
    raise TypeError(f"{node!r} is not an executable statement")


_KIND = {Assign: "Assign", Input: "Input", Output: "Output",
         If: "Test", While: "TestLoop", Call: "Call", Return: "Return"}


def build_cdg(program: Program) -> Cdg:
    if not program.checked:
        raise ValueError("build_cdg requires a checked Program")
    g = Cdg()
    g.members = {c.name: tuple(c.members) for c in program.classes}
    g.main_objects = {n: s.decl_type for s in program.main
                      if isinstance(s, VarDecl) and s.decl_type != "int"
                      for n in s.names}

    keys = {id(method): entry_key(cls_name, method)  # id(None) is main's
            for cls_name, method, _ in program.procedures()}
    for _, method, body in program.procedures():
        key = keys[id(method)]
        g.entry_order.append(key)
        _attach(g, keys, body, None, key, None)
    return g


def _attach(g: Cdg, keys: dict[int, str], body: list[Stmt], test: int | None,
            proc: str, after: Stmt | None) -> None:
    """Add `body`'s statements of `proc` under `test`; `after` runs once `body`
    is done (what follows an `if`, a loop's own test, None at a procedure's
    end). `keys` maps each method's id to its entry key."""
    stmts = [s for s in body if not isinstance(s, VarDecl)]
    for s, nxt in zip(stmts, stmts[1:] + [after]):
        defs, uses = def_use(s, g.members)
        g.nodes[s.id] = NodeInfo(_KIND[type(s)], defs, uses)
        g.test[s.id] = test
        g.proc[s.id] = proc
        if isinstance(s, If):
            _attach(g, keys, s.then_body, s.id, proc, nxt)
            _attach(g, keys, s.else_body, s.id, proc, nxt)
        elif isinstance(s, While):
            _attach(g, keys, s.body, s.id, proc, s)
            if nxt is not None:
                g.exits[nxt.id] = g.exits.get(nxt.id, ()) + (s.id,)
        elif isinstance(s, Call):
            g.callee[s.id] = keys[id(s.resolved)]


def _entry_label(key: str) -> str:
    return f"Entry({key})"


def export_dot(g: Cdg) -> str:
    """Deterministic DOT text: edges point from each node to its control parent."""
    lines = ["digraph cdg {"]
    for key in g.entry_order:
        lines.append(f'    "{_entry_label(key)}" [shape=box];')
    for sid in sorted(g.nodes):
        node = g.nodes[sid]
        lines.append(f'    {sid} [label="{sid}: {node.kind}"];')
    for sid in sorted(g.nodes):
        test = g.test[sid]
        target = test if test is not None else f'"{_entry_label(g.proc[sid])}"'
        lines.append(f"    {sid} -> {target};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(g: Cdg) -> str:
    """JSON export: array of {id, kind, parent, defs, uses}, statements first."""
    rows = []
    for sid in sorted(g.nodes):
        node, test = g.nodes[sid], g.test[sid]
        rows.append({
            "id": sid,
            "kind": node.kind,
            "parent": test if test is not None else _entry_label(g.proc[sid]),
            "defs": sorted(v.display() for v in node.def_set),
            "uses": sorted(v.display() for v in node.use_set),
        })
    for key in g.entry_order:
        rows.append({"id": _entry_label(key), "kind": "Entry", "parent": None,
                     "defs": [], "uses": []})
    return json.dumps(rows, indent=2, sort_keys=True) + "\n"
