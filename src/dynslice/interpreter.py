"""Tree-walking interpreter producing the execution event stream.

Semantics:
- Integers only; relational operators yield 1/0; conditions treat nonzero as
  true; division truncates toward zero and rejects a zero divisor.
- Objects are created by their declaration; members start uninitialized.
  Reading any uninitialized variable yields 0 plus a Warning event.
- By-value object actuals are copied member-wise into a fresh object owned by
  the callee frame. By-reference parameters use copy-restore: the formal gets
  a private copy and its value is written back to the actual on return, which
  matches the slice transfer rules exactly (aliasing the same location through
  two by-ref formals is therefore out of scope).
- The receiver is bound by reference, so member writes inside a method are
  writes to the caller's object.

There is one store, `values`, keyed by RuntimeVar; a var absent from it is
uninitialized. A frame maps each declared name to its var, or an object's
name to its member -> var table, and `locate` is the one place that maps a
bound name to its var. The language has no short-circuit operators, so every
execution of a statement reads exactly the names its expression spells, and
in one binding they resolve to the same vars: `reads` lists them once, as the
statement's plan is built, and `_EVAL` only computes values. If `&&` or `||`
ever come, reads become conditional and the plans must change. Statements
and expressions are dispatched by type through the module tables `_EXEC` and
`_EVAL` of plain functions; a table of bound methods on the interpreter would
be a reference cycle, which keeps a run's whole state alive until the cycle
collector runs.

A RuntimeVar names a location by what is live: an int local by its frame's
call depth (0 for main, +1 per open call), a member by its object's id. Main's
objects keep fresh ids; a method frame's objects take the lowest free ids and
free them once its Returned, where both engines reset them, is emitted. Frames
close in reverse order, so the free ids are those above a mark, and live ids
keep the order their objects were made in. Vars are interned as a frame or
object is made, so equal vars in one run are identical: the slicer's and the
oracle's dicts keyed by them match on identity, and no var is built per read.

So all that is static in a method frame depends only on its method, its call
depth and the first free object id: its name table, its formals' vars and
copies, its sorted resets and the id mark after its objects. That is a
`_Plan`, kept per run under that key and built at the key's first call. A
binding, a frame's name table plus its receiver's member table, is one
`Frame`: main's, or one per plan and receiver in `_Plan.frames`. Every var an
event names is fixed by its statement and binding, so `Frame.plans` keeps each
statement's plan, built from its reads at its first execution there: its
StmtExecuted, or a call site's `_Site` (the callee's plan and frame, its int
actuals, its object formals' copies and its three events). Each execution
evaluates values and emits the same event objects, interned like vars;
Warning, InputConsumed and OutputProduced carry values and are made per
execution. The depth is at most `MAX_DEPTH` and the free id at a depth is
main's objects plus those of the frames open below, and every table lives
until the run ends, so plans, bindings (plans x object tables) and stored
events (statements x bindings) depend on the program, not on the run's length.

Event order around a call: CallEntered (the parameter transfers), the callee's
events, a Return node's StmtExecuted if one runs, Returned (copy-backs,
resets), and only then the call site's own StmtExecuted. A loop test emits
StmtExecuted per evaluation; after the false one come the events of the node
the loop exits to (the CDG's `exits`).

`run` hands every event to one callable, `sink`, the moment it is emitted.
The default sink appends to `RunResult.events`; any other sink (a slicer's
`feed`, a trace writer) receives the stream instead, and `RunResult.events`
is then an empty list, so no trace-sized structure is kept.
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

from .events import (
    CallEntered,
    ExecEvent,
    InputConsumed,
    OutputProduced,
    Returned,
    RuntimeVar,
    StmtExecuted,
    Warning,
)
from .syntax import (
    Assign,
    BinOp,
    Call,
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

DEFAULT_BUDGET = 100000

# The most blocks a run may have open at once, method bodies included; a
# statement about to run deeper ends it with status "stack-overflow". Counted,
# so where a run stops does not depend on the caller's Python stack.
MAX_DEPTH = 250

_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
        "<": operator.lt, ">": operator.gt, "<=": operator.le,
        ">=": operator.ge, "==": operator.eq, "!=": operator.ne}


class RunInterrupt(Exception):
    """Internal: aborts execution with a terminal status."""

    def __init__(self, status: str, message: str):
        self.status = status
        self.message = message
        super().__init__(message)


class _ReturnSignal(Exception):
    def __init__(self, value: int | None):
        self.value = value
        super().__init__()


@dataclass
class Frame:
    depth: int
    receiver: dict[str, RuntimeVar] | None  # member -> var
    # int local -> its var, object -> its member -> var table
    names: dict[str, "RuntimeVar | dict[str, RuntimeVar]"]
    plans: dict  # statement id -> its StmtExecuted or _Site in this binding


@dataclass
class RunResult:
    events: list[ExecEvent]
    outputs: list[int | str]
    status: str  # "ok", "input-exhausted", "div-by-zero", "budget-exceeded", "stack-overflow"
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def run(program: Program, inputs: list[int] | tuple[int, ...] = (),
        budget: int = DEFAULT_BUDGET,
        sink: Callable[[ExecEvent], object] | None = None) -> RunResult:
    """Execute a checked program on the given input sequence.

    Events go to `sink` in execution order; without one they are collected
    in the result's `events`. An exception raised by the sink ends the run
    and propagates to the caller.
    """
    if not program.checked:
        raise ValueError("run requires a checked Program")
    events: list[ExecEvent] = []
    interp = _Interp(program, list(inputs), budget,
                     events.append if sink is None else sink)
    try:
        frame = Frame(0, None, interp.declare(0, _decls(program.main)), {})
        try:
            interp.exec_block(program.main, frame)
        except _ReturnSignal:
            pass
        return RunResult(events, interp.outputs, "ok")
    except RunInterrupt as stop:
        return RunResult(events, interp.outputs, stop.status, stop.message)


class _Plan(NamedTuple):
    """The part of a method frame fixed by its key (see the module docstring)."""
    names: dict[str, "RuntimeVar | dict[str, RuntimeVar]"]
    formals: tuple[tuple, ...]  # per formal: (what `names` binds it to, by_ref)
    resets: tuple[RuntimeVar, ...]
    mark: int  # next_oid once the frame's objects are made
    frames: dict[int, Frame]  # id of a receiver's member table -> its frame


class _Site(NamedTuple):
    """A call site's plan in one binding (see the module docstring)."""
    plan: _Plan
    frame: Frame  # the callee's
    ints: tuple[tuple[RuntimeVar, object], ...]  # (int formal, its actual)
    copies: tuple[tuple[RuntimeVar, RuntimeVar], ...]  # (object formal member, source)
    entered: CallEntered
    returned: Returned
    executed: StmtExecuted


class _Interp:
    def __init__(self, program: Program, inputs: list[int], budget: int,
                 emit: Callable[[ExecEvent], object]):
        self.inputs = inputs
        self.next_input = 0
        self.budget = budget
        self.steps = 0
        self.depth = 0  # blocks open
        self.emit = emit
        self.outputs: list[int | str] = []
        self.next_oid = 0  # the ids above it are free
        self.members = {c.name: c.members for c in program.classes}
        self.interned: dict = {}  # vars and payload-free events, each to itself
        self.values: dict[RuntimeVar, int] = {}  # absent = uninitialized
        self.plans: dict[tuple[int, int, int], _Plan] = {}

    def var(self, kind: str, owner: int, name: str, display: str) -> RuntimeVar:
        """The one RuntimeVar with these fields in this run."""
        return self.one(RuntimeVar(kind, owner, name, display))

    def one(self, x):
        """The one object equal to `x` in this run."""
        return self.interned.setdefault(x, x)

    def declare(self, depth: int, decls) -> dict:
        """The name table of a frame at `depth` with these (type, name)
        declarations; objects exist from frame entry."""
        return {name: self.var("local", depth, name, name) if type_ == "int"
                else self.new_object(type_, name) for type_, name in decls}

    def new_object(self, cls: str, var_name: str) -> dict[str, RuntimeVar]:
        """A fresh object's member -> var table, in declaration order."""
        self.next_oid += 1
        return {m: self.var("member", self.next_oid, m, f"{var_name}.{m}")
                for m in self.members[cls]}

    def plan(self, key: tuple[int, int, int], s: Call) -> _Plan:
        """Build and keep the plan of `s`'s method under `key`."""
        method = s.resolved
        names = self.declare(key[1], [*_decls(method.body),
                                      *((f.type, f.name) for f in method.formals)])
        resets = [var for bound in names.values()
                  for var in (bound.values() if type(bound) is dict else (bound,))]
        return self.plans.setdefault(key, _Plan(
            names, tuple((names[f.name], f.by_ref) for f in method.formals),
            _ordered(resets), self.next_oid, {}))

    def planned(self, s: Stmt, frame: Frame, defs: tuple, e) -> StmtExecuted:
        """Build and keep the StmtExecuted of `s`, which reads `e`, in `frame`'s binding."""
        uses = _ordered(self.reads(e, frame, []))
        return frame.plans.setdefault(s.id, self.one(StmtExecuted(s.id, defs, uses)))

    def site(self, s: Call, frame: Frame) -> _Site:
        """Build and keep call site `s`'s plan in `frame`'s binding."""
        key = (id(s.resolved), frame.depth + 1, self.next_oid)
        plan = self.plans.get(key) or self.plan(key, s)
        ints, copies, transfers, copy_backs = [], [], [], []
        for (formal, by_ref), a in zip(plan.formals, s.args):
            if type(formal) is not dict:
                ints.append((formal, a))
                pairs = [(formal, tuple(self.reads(a, frame, [])))]
            else:
                actual = frame.names[a.base]
                pairs = [(f_var, (actual[m],)) for m, f_var in formal.items()]
                copies.extend((f_var, src) for f_var, (src,) in pairs)
            transfers.extend(pairs)
            if by_ref:
                # a by-reference actual is a single variable
                copy_backs.extend((f_var, srcs[0]) for f_var, srcs in pairs)
        receiver = frame.names[s.receiver.base]
        into = s.assign_to and self.locate(s.assign_to, frame)
        events = (CallEntered(s.id, tuple(transfers)),
                  Returned(s.id, tuple(copy_backs), plan.resets, into,
                           tuple(sorted(receiver.values()))),
                  StmtExecuted(s.id, (into,) if into else (),
                               _ordered([src for _, srcs in transfers for src in srcs])))
        callee = plan.frames.setdefault(id(receiver), Frame(key[1], receiver, plan.names, {}))
        return frame.plans.setdefault(s.id, _Site(plan, callee, tuple(ints), tuple(copies),
                                                  *map(self.one, events)))

    # -- reads, writes and evaluation ----------------------------------------

    def locate(self, name: Name, frame: Frame) -> RuntimeVar:
        """The RuntimeVar of a bound int-valued Name."""
        if name.binding == "int_local":
            return frame.names[name.base]
        if name.binding == "recv_member":
            return frame.receiver[name.base]
        if name.binding == "obj_member":
            return frame.names[name.base][name.member]
        raise ValueError(f"object {name.base!r} read as a value")

    def reads(self, e, frame: Frame, out: list[RuntimeVar]) -> list[RuntimeVar]:
        """`out` with the vars `e` reads appended, in read order, repeats kept."""
        if type(e) is Name:
            out.append(self.locate(e, frame))
        elif type(e) is BinOp:
            self.reads(e.right, frame, self.reads(e.left, frame, out))
        return out

    # `_EVAL[type(e)](self, e, frame, at)` is the value of expression `e`

    def eval_name(self, e: Name, frame: Frame, at: int) -> int:
        var = self.locate(e, frame)
        value = self.values.get(var)  # absent = uninitialized
        if value is None:
            shown = repr(var.display) if var.kind == "local" else var.display
            self.emit(Warning(at, f"read of uninitialized {shown}"))
            return 0
        return value

    def eval_literal(self, e: IntLit | StrLit, frame: Frame, at: int) -> int | str:
        return e.value

    def eval_binop(self, e: BinOp, frame: Frame, at: int) -> int:
        left = _EVAL[type(e.left)](self, e.left, frame, at)
        right = _EVAL[type(e.right)](self, e.right, frame, at)
        return self.apply(e.op, left, right, at)

    def apply(self, op: str, a: int, b: int, at: int) -> int:
        if op == "/":
            if b == 0:
                raise RunInterrupt("div-by-zero", f"division by zero at node {at}")
            q = abs(a) // abs(b)
            return q if (a < 0) == (b < 0) else -q
        return int(_OPS[op](a, b))  # relational results become 1/0

    # -- statement execution --------------------------------------------------

    def charge(self, s: Stmt) -> None:
        self.steps += 1
        if self.steps > self.budget:
            raise RunInterrupt("budget-exceeded",
                               f"step budget {self.budget} exceeded at node {s.id}")
        if self.depth > MAX_DEPTH:
            raise RunInterrupt("stack-overflow", f"stack overflow: more than "
                               f"{MAX_DEPTH} nested blocks at node {s.id}")

    def exec_block(self, body: list[Stmt], frame: Frame) -> None:
        self.depth += 1
        try:
            for s in body:
                if type(s) is not VarDecl:
                    self.charge(s)
                    _EXEC[type(s)](self, s, frame)
        finally:
            self.depth -= 1

    def exec_assign(self, s: Assign, frame: Frame) -> None:
        value = _EVAL[type(s.value)](self, s.value, frame, s.id)
        ev = frame.plans.get(s.id) or self.planned(s, frame, (self.locate(s.target, frame),),
                                                   s.value)
        self.values[ev.defs[0]] = value
        self.emit(ev)

    def exec_input(self, s: Input, frame: Frame) -> None:
        if self.next_input >= len(self.inputs):
            raise RunInterrupt("input-exhausted", f"no input left for node {s.id}")
        value = self.inputs[self.next_input]
        self.next_input += 1
        self.emit(InputConsumed(s.id, value))
        ev = frame.plans.get(s.id) or self.planned(s, frame, (self.locate(s.target, frame),), None)
        self.values[ev.defs[0]] = value
        self.emit(ev)

    def exec_output(self, s: Output, frame: Frame) -> None:
        value = _EVAL[type(s.value)](self, s.value, frame, s.id)
        self.outputs.append(value)
        self.emit(OutputProduced(s.id, value))
        self.emit(frame.plans.get(s.id) or self.planned(s, frame, (), s.value))

    def exec_if(self, s: If, frame: Frame) -> None:
        taken = _EVAL[type(s.cond)](self, s.cond, frame, s.id) != 0
        self.emit(frame.plans.get(s.id) or self.planned(s, frame, (), s.cond))
        self.exec_block(s.then_body if taken else s.else_body, frame)

    def exec_while(self, s: While, frame: Frame) -> None:
        # entry charge covers the first condition evaluation
        while True:
            alive = _EVAL[type(s.cond)](self, s.cond, frame, s.id) != 0
            self.emit(frame.plans.get(s.id) or self.planned(s, frame, (), s.cond))
            if not alive:
                break
            self.exec_block(s.body, frame)
            self.charge(s)

    def exec_return(self, s: Return, frame: Frame) -> None:
        value = (None if s.value is None
                 else _EVAL[type(s.value)](self, s.value, frame, s.id))
        self.emit(frame.plans.get(s.id) or self.planned(s, frame, (), s.value))
        raise _ReturnSignal(value)

    # -- calls ---------------------------------------------------------------

    def exec_call(self, s: Call, frame: Frame) -> None:
        values = self.values
        free_from = self.next_oid
        site = frame.plans.get(s.id) or self.site(s, frame)
        for formal, a in site.ints:
            values[formal] = _EVAL[type(a)](self, a, frame, s.id)
        self.next_oid = site.plan.mark
        # an object formal starts as a member-wise copy of its actual
        for f_var, src in site.copies:
            if src in values:
                values[f_var] = values[src]
        self.emit(site.entered)
        returned: int | None = None
        try:
            self.exec_block(s.resolved.body, site.frame)
        except _ReturnSignal as sig:
            returned = sig.value
        ev = site.returned
        # by-ref copy-restore: the actual takes the formal's final value
        for f_var, a_var in ev.copy_backs:
            if f_var in values:
                values[a_var] = values[f_var]
            else:
                values.pop(a_var, None)
        if ev.returned_into is not None:
            if returned is None:
                self.emit(Warning(s.id, f"{s.receiver_cls}.{s.method} returned no value"))
                returned = 0
            values[ev.returned_into] = returned
        for var in ev.resets:
            values.pop(var, None)
        self.emit(ev)
        self.next_oid = free_from
        self.emit(site.executed)


_EXEC = {Assign: _Interp.exec_assign, Input: _Interp.exec_input,
         Output: _Interp.exec_output, If: _Interp.exec_if, While: _Interp.exec_while,
         Return: _Interp.exec_return, Call: _Interp.exec_call}
_EVAL = {Name: _Interp.eval_name, IntLit: _Interp.eval_literal, StrLit: _Interp.eval_literal,
         BinOp: _Interp.eval_binop}


def _ordered(vs: list[RuntimeVar]) -> tuple[RuntimeVar, ...]:
    """The distinct vars of `vs`, sorted. Vars are interned, so de-duplicating
    by equality keeps the run's one object of each. It runs once per binding,
    as a statement's plan is built; the sort stays only because, while two
    live vars can share a display, the order decides which snapshot a slice
    keeps."""
    return tuple(sorted(set(vs)))


def _decls(body: list[Stmt]):
    """The (type, name) of each declaration in `body`, nested ones included."""
    for s in body:
        if isinstance(s, VarDecl):
            yield from ((s.decl_type, name) for name in s.names)
        elif isinstance(s, If):
            yield from _decls(s.then_body)
            yield from _decls(s.else_body)
        elif isinstance(s, While):
            yield from _decls(s.body)
