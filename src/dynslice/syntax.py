"""AST for the mini object-oriented language.

A compilation unit is a list of class definitions followed by a parameterless
``void main()``. Classes hold ``int`` data members and (possibly overloaded)
methods; statements are numbered, and that numbering is what slices refer to.

Node equality ignores source positions and checker annotations, so a program
pretty-printed and re-parsed compares equal to the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class Pos(NamedTuple):
    line: int
    col: int


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass
class Expr:
    pass


@dataclass
class IntLit(Expr):
    value: int
    pos: Pos | None = field(default=None, repr=False, compare=False)


@dataclass
class StrLit(Expr):
    """String literal; only legal as the shipped value of an output statement."""

    value: str
    pos: Pos | None = field(default=None, repr=False, compare=False)


@dataclass
class Name(Expr):
    """A scalar or object reference: ``x``, ``T1.a``, or a bare member name.

    ``binding`` is filled in by the semantic checker: one of ``"int_local"``,
    ``"obj_local"``, ``"recv_member"``, ``"obj_member"``. ``cls`` carries the
    class name when the base resolves to an object.
    """

    base: str
    member: str | None = None
    pos: Pos | None = field(default=None, repr=False, compare=False)
    binding: str | None = field(default=None, repr=False, compare=False)
    cls: str | None = field(default=None, repr=False, compare=False)

    def display(self) -> str:
        return f"{self.base}.{self.member}" if self.member else self.base


@dataclass
class BinOp(Expr):
    op: str  # + - * / < > <= >= == !=
    left: Expr
    right: Expr
    pos: Pos | None = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class Stmt:
    pass


@dataclass
class Assign(Stmt):
    target: Name
    value: Expr
    id: int | None = None
    label: int | None = field(default=None, repr=False, compare=False)
    pos: Pos | None = field(default=None, repr=False, compare=False)


@dataclass
class Input(Stmt):
    target: Name
    id: int | None = None
    label: int | None = field(default=None, repr=False, compare=False)
    pos: Pos | None = field(default=None, repr=False, compare=False)


@dataclass
class Output(Stmt):
    value: Expr
    id: int | None = None
    label: int | None = field(default=None, repr=False, compare=False)
    pos: Pos | None = field(default=None, repr=False, compare=False)


@dataclass
class Call(Stmt):
    """``recv.method(args);`` or ``target = recv.method(args);``.

    ``resolved`` is set by the checker to the dispatched MethodDef.
    """

    receiver: Name | None
    method: str
    args: list[Expr] = field(default_factory=list)
    assign_to: Name | None = None
    id: int | None = None
    label: int | None = field(default=None, repr=False, compare=False)
    pos: Pos | None = field(default=None, repr=False, compare=False)
    resolved: "MethodDef | None" = field(default=None, repr=False, compare=False)
    receiver_cls: str | None = field(default=None, repr=False, compare=False)


@dataclass
class If(Stmt):
    cond: Expr
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] = field(default_factory=list)
    id: int | None = None
    label: int | None = field(default=None, repr=False, compare=False)
    pos: Pos | None = field(default=None, repr=False, compare=False)


@dataclass
class While(Stmt):
    cond: Expr
    body: list[Stmt] = field(default_factory=list)
    id: int | None = None
    label: int | None = field(default=None, repr=False, compare=False)
    pos: Pos | None = field(default=None, repr=False, compare=False)


@dataclass
class Return(Stmt):
    value: Expr | None = None
    id: int | None = None
    label: int | None = field(default=None, repr=False, compare=False)
    pos: Pos | None = field(default=None, repr=False, compare=False)


@dataclass
class VarDecl(Stmt):
    """Declaration: not executable, carries no statement id."""

    decl_type: str  # "int" or a class name
    names: list[str] = field(default_factory=list)
    pos: Pos | None = field(default=None, repr=False, compare=False)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass
class Formal:
    name: str
    type: str  # "int" or a class name
    by_ref: bool = False
    pos: Pos | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class Signature:
    """Overload identity: method name plus exact ordered parameter type tags."""

    name: str
    param_types: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.name}({','.join(self.param_types)})"


@dataclass
class MethodDef:
    name: str
    return_type: str  # "void", "int", or a class name
    formals: list[Formal] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)
    pos: Pos | None = field(default=None, repr=False, compare=False)
    cls: str | None = field(default=None, repr=False, compare=False)

    @property
    def signature(self) -> Signature:
        return Signature(self.name, tuple(f.type for f in self.formals))


@dataclass
class ClassDef:
    name: str
    members: list[str] = field(default_factory=list)  # all int-typed
    methods: list[MethodDef] = field(default_factory=list)
    pos: Pos | None = field(default=None, repr=False, compare=False)


@dataclass
class Program:
    classes: list[ClassDef] = field(default_factory=list)
    main: list[Stmt] = field(default_factory=list)
    stmt_count: int = 0
    checked: bool = field(default=False, repr=False, compare=False)

    def class_named(self, name: str) -> ClassDef | None:
        for c in self.classes:
            if c.name == name:
                return c
        return None

    def procedures(self):
        """Yield ("main", None, main body) then (class, method, body) pairs."""
        yield "main", None, self.main
        for c in self.classes:
            for m in c.methods:
                yield c.name, m, m.body

    def statements(self):
        """All executable statements in textual order (nested included)."""
        for _, _, body in self.procedures():
            yield from walk(body)


def walk(body: list[Stmt]):
    """Executable statements of a block, depth-first in textual order."""
    for s in body:
        if isinstance(s, VarDecl):
            continue
        yield s
        if isinstance(s, If):
            yield from walk(s.then_body)
            yield from walk(s.else_body)
        elif isinstance(s, While):
            yield from walk(s.body)


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------

# Precedence of the binary operators, read by the parser and the printer.
# All are left-associative, except that relational operators do not chain.
PRECEDENCE = {
    "==": 1, "!=": 1, "<": 1, ">": 1, "<=": 1, ">=": 1,
    "+": 2, "-": 2,
    "*": 3, "/": 3,
}


def expr_text(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, StrLit):
        return '"%s"' % e.value
    if isinstance(e, Name):
        return e.display()
    if isinstance(e, BinOp):
        prec = PRECEDENCE[e.op]
        left = expr_text(e.left, prec + 1 if prec == PRECEDENCE["<"] else prec)
        text = f"{left} {e.op} {expr_text(e.right, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    raise TypeError(f"unknown expression node {e!r}")


def pretty(program: Program) -> str:
    """Canonical source text; statement ids are emitted as explicit labels."""
    out: list[str] = []
    for c in program.classes:
        out.append(f"class {c.name} {{")
        for m in c.members:
            out.append(f"    int {m};")
        out.append("public:")
        for meth in c.methods:
            params = ", ".join(
                f"{f.type} {'&' if f.by_ref else ''}{f.name}" for f in meth.formals
            )
            out.append(f"    {meth.return_type} {meth.name}({params}) {{")
            _print_block(out, meth.body, 2)
            out.append("    }")
        out.append("};")
        out.append("")
    out.append("void main() {")
    _print_block(out, program.main, 1)
    out.append("}")
    return "\n".join(out) + "\n"


def _print_block(out: list[str], body: list[Stmt], depth: int) -> None:
    pad = "    " * depth
    for s in body:
        if isinstance(s, VarDecl):
            out.append(f"{pad}{s.decl_type} {', '.join(s.names)};")
            continue
        tag = f"#{s.id}: " if s.id is not None else ""
        if isinstance(s, Assign):
            out.append(f"{pad}{tag}{s.target.display()} = {expr_text(s.value)};")
        elif isinstance(s, Input):
            out.append(f"{pad}{tag}cin >> {s.target.display()};")
        elif isinstance(s, Output):
            out.append(f"{pad}{tag}cout << {expr_text(s.value)};")
        elif isinstance(s, Call):
            args = ", ".join(expr_text(a) for a in s.args)
            call = f"{s.receiver.display()}.{s.method}({args})"
            if s.assign_to is not None:
                call = f"{s.assign_to.display()} = {call}"
            out.append(f"{pad}{tag}{call};")
        elif isinstance(s, If):
            out.append(f"{pad}{tag}if ({expr_text(s.cond)}) {{")
            _print_block(out, s.then_body, depth + 1)
            if s.else_body:
                out.append(f"{pad}}} else {{")
                _print_block(out, s.else_body, depth + 1)
            out.append(f"{pad}}}")
        elif isinstance(s, While):
            out.append(f"{pad}{tag}while ({expr_text(s.cond)}) {{")
            _print_block(out, s.body, depth + 1)
            out.append(f"{pad}}}")
        elif isinstance(s, Return):
            if s.value is None:
                out.append(f"{pad}{tag}return;")
            else:
                out.append(f"{pad}{tag}return {expr_text(s.value)};")
        else:
            raise TypeError(f"unknown statement node {s!r}")
