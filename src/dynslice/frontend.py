"""Lexer, parser, and semantic checker for the mini-OO language.

`tokenize` runs one regular expression whose alternatives are the token
classes. Identifiers are a Unicode letter or ``_`` followed by letters, digits
or ``_``; integer literals are decimal digits. `parse` turns the tokens into a
numbered ``Program``, reading operators by precedence climbing over
`syntax.PRECEDENCE`, the table the printer uses too, and rejects a program
nested deeper than `MAX_NESTING` or with a literal or label longer than
Python converts to an int. `check` validates it, annotates name
bindings, and dispatches every call site through `resolve_overload`. `load`
chains both.

Statement numbering: when any executable statement carries a ``#n:`` label,
all of them must, and the labels must be exactly 1..stmt_count. Unlabeled
programs are auto-numbered in textual order.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from typing import NamedTuple

from .syntax import (
    Assign,
    BinOp,
    Call,
    ClassDef,
    Expr,
    Formal,
    If,
    Input,
    IntLit,
    MethodDef,
    Name,
    Output,
    Pos,
    PRECEDENCE,
    Program,
    Return,
    Stmt,
    StrLit,
    VarDecl,
    While,
    walk,
)


class SourceError(Exception):
    """Error tied to a source position."""

    def __init__(self, message: str, pos: Pos | None = None):
        self.message = message
        self.pos = pos
        where = f" at line {pos.line}, col {pos.col}" if pos else ""
        super().__init__(f"{message}{where}")


class LexError(SourceError):
    pass


class ParseError(SourceError):
    pass


class CheckError(SourceError):
    pass


class NoMatchError(CheckError):
    """No method signature matches the call's name, arity, and actual types."""


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

KEYWORDS = {"class", "public", "void", "int", "if", "else", "while", "return", "cin", "cout"}

# one alternative per token class; two-character symbols come first so
# maximal munch works, and the last alternative catches everything else
_TOKEN = re.compile(r"""
    (?P<SKIP>[ \t\r]+|//[^\n]*)
  | (?P<NEWLINE>\n)
  | (?P<INT>\d+)
  | (?P<IDENT>[^\W\d]\w*)
  | (?P<STRING>"[^"\n]*")
  | (?P<SYMBOL>>>|<<|<=|>=|==|!=|[{}();:,.#&=<>+\-*/])
  | (?P<ERROR>.)
""", re.VERBOSE)


class Token(NamedTuple):
    kind: str  # IDENT, INT, STRING, keyword text, or symbol text
    text: str
    pos: Pos


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        text = m.group()
        pos = Pos(line, m.start() - line_start + 1)
        if kind == "ERROR":
            raise LexError("unterminated string literal" if text == '"'
                           else f"unexpected character {text!r}", pos)
        if kind == "STRING":
            text = text[1:-1]
        elif kind == "SYMBOL" or text in KEYWORDS:
            kind = text
        tokens.append(Token(kind, text, pos))
    tokens.append(Token("EOF", "", Pos(line, len(source) - line_start + 1)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The deepest nesting a program may have: every enclosing block, every open
# parenthesis and every operator read so far in the same full expression
# counts one level. Past it, parse raises ParseError; up to it, no later pass
# (check, build_cdg, pretty, run) recurses deep enough to exhaust the stack.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def peek(self, k: int) -> Token:
        return self.tokens[min(self.i + k, len(self.tokens) - 1)]

    def nest(self, pos: Pos) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"program nested too deeply (limit {MAX_NESTING})", pos)

    def advance(self) -> Token:
        tok = self.cur
        self.i += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        return self.advance() if self.cur.kind == kind else None

    def expect(self, kind: str) -> Token:
        if self.cur.kind != kind:
            raise ParseError(f"expected {kind!r}, found {self.cur.text!r}", self.cur.pos)
        return self.advance()

    def integer(self) -> int:
        """Value of the INT token at the cursor. One longer than Python's limit
        for converting digits to an int is a ParseError, not a ValueError."""
        tok = self.expect("INT")
        try:
            return int(tok.text)
        except ValueError:
            raise ParseError(f"integer literal too long: {len(tok.text)} digits",
                             tok.pos) from None

    # program := classdef* "void" "main" "(" ")" block
    def program(self) -> Program:
        classes = []
        while self.cur.kind == "class":
            classes.append(self.classdef())
        self.expect("void")
        name = self.expect("IDENT")
        if name.text != "main":
            raise ParseError("entry procedure must be named 'main'", name.pos)
        self.expect("(")
        self.expect(")")
        main = self.block()
        self.expect("EOF")
        return Program(classes=classes, main=main)

    def classdef(self) -> ClassDef:
        pos = self.expect("class").pos
        name = self.expect("IDENT").text
        self.expect("{")
        members: list[str] = []
        while self.accept("int"):
            members += self.commas(self.ident)
            self.expect(";")
        self.expect("public")
        self.expect(":")
        methods = []
        while self.cur.kind != "}":
            methods.append(self.methoddef(name))
        self.expect("}")
        self.expect(";")
        return ClassDef(name=name, members=members, methods=methods, pos=pos)

    def methoddef(self, cls: str) -> MethodDef:
        rt = self.cur
        if rt.kind not in ("void", "int", "IDENT"):
            raise ParseError("expected a method return type", rt.pos)
        self.advance()
        name = self.expect("IDENT")
        self.expect("(")
        formals = self.commas(self.formal) if self.cur.kind != ")" else []
        self.expect(")")
        return MethodDef(name=name.text, return_type=rt.text, formals=formals,
                         body=self.block(), pos=rt.pos, cls=cls)

    def formal(self) -> Formal:
        t = self.cur
        if t.kind not in ("int", "IDENT"):
            raise ParseError("expected a parameter type", t.pos)
        self.advance()
        by_ref = self.accept("&") is not None
        pname = self.expect("IDENT")
        return Formal(pname.text, t.text, by_ref, pos=pname.pos)

    def commas(self, item: Callable[[], object]) -> list:
        """item (',' item)*"""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def ident(self) -> str:
        return self.expect("IDENT").text

    def block(self) -> list[Stmt]:
        self.nest(self.expect("{").pos)
        body: list[Stmt] = []
        while self.cur.kind != "}":
            body.append(self.stmt())
        self.expect("}")
        self.depth -= 1
        return body

    def stmt(self) -> Stmt:
        pos = self.cur.pos
        label = None
        if self.accept("#"):
            label = self.integer()
            self.expect(":")
        s = self._bare_stmt()
        if label is not None:
            if isinstance(s, VarDecl):
                raise ParseError("declarations are not executable and take no label", pos)
            s.label = label
        s.pos = pos
        return s

    def _bare_stmt(self) -> Stmt:
        kind = self.cur.kind
        if kind == "if":
            self.advance()
            self.expect("(")
            cond = self.full_expr()
            self.expect(")")
            then_body = self.block()
            else_body = self.block() if self.accept("else") else []
            return If(cond=cond, then_body=then_body, else_body=else_body)
        if kind == "while":
            self.advance()
            self.expect("(")
            cond = self.full_expr()
            self.expect(")")
            return While(cond=cond, body=self.block())
        # every other statement ends with ';'
        if kind in ("int", "IDENT") and self.peek(1).kind == "IDENT":
            s: Stmt = VarDecl(decl_type=self.advance().text, names=self.commas(self.ident))
        elif kind == "cin":
            self.advance()
            self.expect(">>")
            s = Input(target=self.lvalue())
        elif kind == "cout":
            self.advance()
            self.expect("<<")
            if self.cur.kind == "STRING":
                tok = self.advance()
                s = Output(value=StrLit(tok.text, pos=tok.pos))
            else:
                s = Output(value=self.full_expr())
        elif kind == "return":
            self.advance()
            s = Return(value=None if self.cur.kind == ";" else self.full_expr())
        elif kind == "IDENT":
            s = self.assign_or_call()
        else:
            raise ParseError(f"unexpected token {self.cur.text!r}", self.cur.pos)
        self.expect(";")
        return s

    def assign_or_call(self) -> Stmt:
        first = self.lvalue()
        if self.accept("="):
            # recv.method( after '=' makes a call-assignment
            if (self.cur.kind == "IDENT" and self.peek(1).kind == "."
                    and self.peek(3).kind == "("):
                return self.call(self.lvalue(), assign_to=first)
            return Assign(target=first, value=self.full_expr())
        if first.member is not None and self.cur.kind == "(":
            return self.call(first)
        raise ParseError("expected '=' or a method call", self.cur.pos)

    def call(self, callee: Name, assign_to: Name | None = None) -> Call:
        """A call of `callee`, read as ``recv.method``, and its argument list."""
        self.expect("(")
        args = self.commas(self.full_expr) if self.cur.kind != ")" else []
        self.expect(")")
        return Call(receiver=Name(callee.base, pos=callee.pos), method=callee.member,
                    args=args, assign_to=assign_to)

    def lvalue(self) -> Name:
        base = self.expect("IDENT")
        member = self.ident() if self.accept(".") else None
        return Name(base.text, member, pos=base.pos)

    def full_expr(self) -> Expr:
        """An expression whose parentheses and operators nest only within it."""
        depth = self.depth
        e = self.expr()
        self.depth = depth
        return e

    # expr := primary (op expr)*, by precedence climbing over PRECEDENCE
    def expr(self, min_prec: int = 1) -> Expr:
        left = self.primary()
        while (prec := PRECEDENCE.get(self.cur.kind, 0)) >= min_prec:
            op = self.advance()
            self.nest(op.pos)
            left = BinOp(op.kind, left, self.expr(prec + 1), pos=op.pos)
            if prec == PRECEDENCE["<"]:
                break  # relational operators do not chain
        return left

    def primary(self) -> Expr:
        if self.cur.kind == "INT":
            pos = self.cur.pos
            return IntLit(self.integer(), pos=pos)
        if self.cur.kind == "(":
            self.nest(self.advance().pos)
            e = self.expr()
            self.expect(")")
            self.depth -= 1
            return e
        if self.cur.kind == "IDENT":
            return self.lvalue()
        raise ParseError(f"expected an expression, found {self.cur.text!r}", self.cur.pos)


def parse(source: str) -> Program:
    """Parse source text into a numbered (but not yet checked) Program."""
    program = _Parser(tokenize(source)).program()
    _number(program)
    return program


def _source_order(program: Program):
    """Executable statements in textual order: class methods, then main."""
    for c in program.classes:
        for m in c.methods:
            yield from walk(m.body)
    yield from walk(program.main)


def _number(program: Program) -> None:
    stmts = list(_source_order(program))
    program.stmt_count = len(stmts)
    labeled = [s for s in stmts if s.label is not None]
    if not labeled:
        for i, s in enumerate(stmts, start=1):
            s.id = i
        return
    if len(labeled) != len(stmts):
        bare = next(s for s in stmts if s.label is None)
        raise ParseError("mixed labeling: every executable statement needs a label", bare.pos)
    seen: dict[int, Stmt] = {}
    for s in stmts:
        if s.label in seen:
            raise ParseError(f"label collision: #{s.label} used twice", s.pos)
        seen[s.label] = s
    if set(seen) != set(range(1, len(stmts) + 1)):
        raise ParseError(f"labels must be exactly 1..{len(stmts)} with no gaps",
                         labeled[0].pos)
    for s in stmts:
        s.id = s.label


# ---------------------------------------------------------------------------
# Overload resolution
# ---------------------------------------------------------------------------

def resolve_overload(cls: ClassDef, name: str, actual_types: tuple[str, ...],
                     pos: Pos | None = None) -> MethodDef:
    """Dispatch on name + exact arity + exact ordered type tags; no conversions."""
    for m in cls.methods:
        if m.name == name and tuple(f.type for f in m.formals) == actual_types:
            return m
    shape = f"{name}({', '.join(actual_types)})"
    raise NoMatchError(f"no method of class {cls.name} matches {shape}", pos)


# ---------------------------------------------------------------------------
# Semantic checker
# ---------------------------------------------------------------------------

class _Scope:
    """One procedure's declarations. Locals are procedure-wide but must be
    declared textually before first use; formals and receiver members come
    pre-declared."""

    def __init__(self, program: Program, cls: ClassDef | None):
        self.program = program
        self.cls = cls
        self.vars: dict[str, str] = {}  # name -> "int" | class name

    def declare(self, name: str, type_: str, pos: Pos | None) -> None:
        if name in self.vars:
            raise CheckError(f"duplicate declaration of {name!r}", pos)
        if self.cls and name in self.cls.members:
            raise CheckError(f"{name!r} shadows a member of class {self.cls.name}", pos)
        self.vars[name] = type_

    def bind(self, name: Name) -> str:
        """Annotate a Name with its binding; return its type tag."""
        t = self.vars.get(name.base)
        if t is None and self.cls and name.base in self.cls.members:
            if name.member is not None:
                raise CheckError(f"member {name.base!r} is not an object", name.pos)
            name.binding = "recv_member"
            name.cls = self.cls.name
            return "int"
        if t is None:
            raise CheckError(f"undeclared variable {name.base!r}", name.pos)
        if name.member is None:
            name.binding = "int_local" if t == "int" else "obj_local"
            name.cls = None if t == "int" else t
            return t
        if t == "int":
            raise CheckError(f"{name.base!r} is an int, not an object", name.pos)
        cdef = self.program.class_named(t)
        if name.member not in cdef.members:
            raise CheckError(f"class {t} has no member {name.member!r}", name.pos)
        name.binding = "obj_member"
        name.cls = t
        return "int"


def check(program: Program) -> Program:
    """Validate and annotate a parsed Program in place."""
    seen_classes: set[str] = set()
    for c in program.classes:
        if c.name in seen_classes:
            raise CheckError(f"duplicate class {c.name!r}", c.pos)
        seen_classes.add(c.name)
        if len(set(c.members)) != len(c.members):
            raise CheckError(f"duplicate member in class {c.name!r}", c.pos)
        sigs = set()
        for m in c.methods:
            if m.signature in sigs:
                raise CheckError(f"duplicate signature {m.signature} in class {c.name!r}", m.pos)
            sigs.add(m.signature)
            names = [f.name for f in m.formals]
            if len(set(names)) != len(names):
                raise CheckError(f"duplicate formal in {c.name}.{m.name}", m.pos)
            for f in m.formals:
                _check_type(program, f.type, f.pos)
            if m.return_type != "void":
                _check_type(program, m.return_type, m.pos)

    for cls_name, method, body in program.procedures():
        cls = program.class_named(cls_name) if method is not None else None
        scope = _Scope(program, cls)
        if method is not None:
            for f in method.formals:
                scope.declare(f.name, f.type, f.pos)
        _check_block(body, scope, method)
    program.checked = True
    return program


def load(source: str) -> Program:
    return check(parse(source))


def _check_type(program: Program, type_: str, pos: Pos | None) -> None:
    if type_ != "int" and program.class_named(type_) is None:
        raise CheckError(f"unknown type {type_!r}", pos)


def _check_block(body: list[Stmt], scope: _Scope, method: MethodDef | None) -> None:
    for s in body:
        if isinstance(s, VarDecl):
            _check_type(scope.program, s.decl_type, s.pos)
            for name in s.names:
                scope.declare(name, s.decl_type, s.pos)
        elif isinstance(s, Assign):
            _check_int_lvalue(s.target, scope, "assignment target")
            _check_int_expr(s.value, scope)
        elif isinstance(s, Input):
            _check_int_lvalue(s.target, scope, "input target")
        elif isinstance(s, Output):
            if not isinstance(s.value, StrLit):
                _check_int_expr(s.value, scope)
        elif isinstance(s, Call):
            _check_call(s, scope)
        elif isinstance(s, If):
            _check_int_expr(s.cond, scope)
            _check_block(s.then_body, scope, method)
            _check_block(s.else_body, scope, method)
        elif isinstance(s, While):
            _check_int_expr(s.cond, scope)
            _check_block(s.body, scope, method)
        elif isinstance(s, Return):
            if s.value is not None:
                if method is None:
                    raise CheckError("main cannot return a value", s.pos)
                if method.return_type != "int":
                    raise CheckError(
                        f"returning a value from a {method.return_type} method", s.pos)
                _check_int_expr(s.value, scope)


def _type_of(e: Expr, scope: _Scope) -> str:
    """Bind every name in an expression; return its type tag."""
    if isinstance(e, Name):
        return scope.bind(e)
    if isinstance(e, BinOp):
        _check_int_expr(e.left, scope)
        _check_int_expr(e.right, scope)
    elif isinstance(e, StrLit):
        raise CheckError("string literal outside cout", e.pos)
    return "int"


def _check_int_expr(e: Expr, scope: _Scope) -> None:
    if _type_of(e, scope) != "int":
        raise CheckError(f"object {e.base!r} used as an int value", e.pos)


def _check_int_lvalue(name: Name, scope: _Scope, what: str) -> None:
    if _type_of(name, scope) != "int":
        raise CheckError(f"{what} must be an int variable, not object {name.base!r}", name.pos)


def _check_call(s: Call, scope: _Scope) -> None:
    if s.receiver.member is not None:
        raise CheckError("call receiver must be a plain object variable", s.receiver.pos)
    recv_type = _type_of(s.receiver, scope)
    if recv_type == "int":
        raise CheckError(f"{s.receiver.base!r} is an int, not an object", s.receiver.pos)
    cls = scope.program.class_named(recv_type)
    actual_types = tuple(_type_of(a, scope) for a in s.args)
    m = resolve_overload(cls, s.method, actual_types, s.pos)
    s.resolved = m
    s.receiver_cls = cls.name
    for f, a in zip(m.formals, s.args):
        if f.by_ref:
            if not isinstance(a, Name):
                raise CheckError(
                    f"actual for by-reference parameter {f.name!r} must be a variable",
                    a.pos)
            if f.type != "int" and a.member is not None:
                raise CheckError(
                    f"actual for by-reference object parameter {f.name!r} must be an object",
                    a.pos)
    if s.assign_to is not None:
        if m.return_type != "int":
            raise CheckError(
                f"cannot assign from {m.return_type} method {cls.name}.{m.name}", s.pos)
        _check_int_lvalue(s.assign_to, scope, "call result target")
