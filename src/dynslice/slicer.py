"""Streaming dynamic slicer.

Consumes the execution event stream and maintains the live slice state:
ActiveDataSlice per runtime variable, ActiveControlSlice per test node of
the running activation (a caller's table is saved on CallEntered and
restored on Returned, so a recursive call's tests cannot change its
caller's control slices), ActiveCallSlice with its stack, ActiveReturnSlice
(set when a Return statement executes, cleared on Returned), and the
accumulated DyanSlice table with last-execution semantics. The table is keyed by
(node, display name), exactly what `slice_of` and `criteria()` look up, so a
node that runs in many frames keeps one entry per name rather than one per
activation. No event history is kept and callee locals die with their frame,
so state size is bounded by the program's variables and nodes regardless of
how long the run is, calls in loops included; `peak_cardinality` makes that
measurable. Feed events one at a time (`feed` as `interpreter.run`'s sink)
or replay a buffered list (`consume`).

Every slice is held as a Python-int bitset over statement ids (bit u set
when statement u is in it), so a union is one `|` and a size one
`int.bit_count()`; `slice_of` and `slice_of_object` hand out a frozenset of
ids (`ids_of`). Ints are immutable: a DyanSlice entry is a snapshot taken
when its node executed and later state changes cannot leak into it. Each
node's kind and governing test are looked up in tables built once per state.
State changes size only through `_put`/`_drop` (the keyed stores
active_data, active_control and dyn_table), `_set_call`/`_set_return`, the
call-stack push and pop and the swap of control tables at a call's ends;
each keeps the running `cardinality()` in step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cdg import Cdg
from .events import (
    CallEntered,
    ExecEvent,
    LoopExited,
    Returned,
    RuntimeVar,
    StmtExecuted,
)


def ids_of(bits: int) -> frozenset[int]:
    """The statement ids of a bitset slice."""
    # bin() reversed puts bit u at index u; its "0b" prefix lands past the top
    return frozenset(u for u, bit in enumerate(reversed(bin(bits))) if bit == "1")


class CriterionError(Exception):
    """The requested slicing criterion never executed (or names nothing)."""


@dataclass
class SliceState:
    cdg: Cdg
    active_data: dict[RuntimeVar, int] = field(default_factory=dict)
    active_control: dict[int, int] = field(default_factory=dict)
    call_stack: list[int] = field(default_factory=list)
    active_call: int = 0
    active_return: int = 0
    # (node, display name) -> DyanSlice of the node's last execution
    dyn_table: dict[tuple[int, str], int] = field(default_factory=dict)
    # each open call's caller's active_control, saved at CallEntered
    control_stack: list[dict[int, int]] = field(default_factory=list, init=False)
    events: int = 0
    updates: int = 0
    peak_cardinality: int = 0
    _card: int = 0

    def __post_init__(self):
        self._kind = {u: info.kind for u, info in self.cdg.nodes.items()}
        self._test = {u: self.cdg.parent_test(u) for u in self.cdg.nodes}

    # -- event consumption ----------------------------------------------------

    def feed(self, ev: ExecEvent) -> "SliceState":
        self.events += 1
        if isinstance(ev, StmtExecuted):
            self.on_stmt(ev)
        elif isinstance(ev, CallEntered):
            self.on_call(ev)
        elif isinstance(ev, Returned):
            self.on_return(ev)
        elif isinstance(ev, LoopExited):
            self.on_loop_exit(ev)
        # input/output/warning events carry no slice information
        if self._card > self.peak_cardinality:
            self.peak_cardinality = self._card
        return self

    def consume(self, events) -> "SliceState":
        for ev in events:
            self.feed(ev)
        return self

    def on_stmt(self, ev: StmtExecuted) -> None:
        u = ev.id
        ctrl = self._ctrl(u)
        active_data = self.active_data
        use_union = 0
        for v in ev.uses:
            use_union |= active_data.get(v, 0)
        kind = self._kind[u]

        # def update; at call nodes the defs were installed by on_return
        if kind != "Call":
            for d in ev.defs:
                self._put(active_data, d, 1 << u | use_union | ctrl | self.active_call)

        # DyanSlice snapshot for everything this node touched
        for v in ev.defs + ev.uses:
            self._put(self.dyn_table, (u, v.display), active_data.get(v, 0) | ctrl)

        if kind in ("Test", "TestLoop"):
            self._put(self.active_control, u,
                      1 << u | use_union | ctrl | self.active_call)
        elif kind == "Return":
            self._set_return(1 << u | use_union | ctrl | self.active_call)

    def on_call(self, ev: CallEntered) -> None:
        u = ev.call_site
        ctrl = self._ctrl(u)
        self.call_stack.append(self.active_call)
        self._card += self.active_call.bit_count()
        self._set_call(1 << u | self.active_call | ctrl)
        self.control_stack.append(self.active_control)
        self.active_control = {}
        for f_var, sources in ev.transfers:
            ads = 0
            for src in sources:
                ads |= self.active_data.get(src, 0)
            self._put(self.active_data, f_var, ads | self.active_call)

    def on_return(self, ev: Returned) -> None:
        u = ev.call_site
        # the callee's tests govern only its own activation
        for s in self.active_control.values():
            self._card -= s.bit_count()
        self.active_control = self.control_stack.pop()
        # by-ref copy-back: the actual inherits the formal's slice exactly
        for f_var, a_var in ev.copy_backs:
            self._put(self.active_data, a_var, self.active_data.get(f_var, 0))
        if ev.returned_into is not None:
            self._put(self.active_data, ev.returned_into, self.active_return)
        # snapshot the receiver's members so (call node, member) is a valid
        # criterion: the call is where those defs reached the caller
        ctrl = self._ctrl(u)
        for v in ev.receiver_members:
            self._put(self.dyn_table, (u, v.display), self.active_data.get(v, 0) | ctrl)
        # callee locals die with the frame
        for v in ev.resets:
            self._drop(self.active_data, v)
        restored = self.call_stack.pop()
        self._card -= restored.bit_count()
        self._set_call(restored)
        self._set_return(0)

    def on_loop_exit(self, ev: LoopExited) -> None:
        self._drop(self.active_control, ev.id)

    # -- queries ----------------------------------------------------------------

    def slice_of(self, node: int, var: str) -> frozenset[int]:
        """DyanSlice of (node, var) for the node's last execution."""
        entry = self.dyn_table.get((node, var))
        if entry is None:
            raise CriterionError(
                f"criterion ({node}, {var}) never executed with that variable")
        return ids_of(entry)

    def slice_of_object(self, obj: str) -> frozenset[int]:
        """Member-wise union of the object's final ActiveDataSlices."""
        cls = self.cdg.main_objects.get(obj)
        if cls is None:
            raise CriterionError(f"unknown object {obj!r}")
        result = 0
        for m in self.cdg.members[cls]:
            display = f"{obj}.{m}"
            for rv, ads in self.active_data.items():
                if rv.kind == "member" and rv.display == display:
                    result |= ads
        return ids_of(result)

    def criteria(self) -> list[tuple[int, str]]:
        """All (node, variable) pairs that are valid slicing criteria."""
        return sorted(self.dyn_table)

    def cardinality(self) -> int:
        """Total stored set elements: the live memory measure."""
        return self._card

    def recount(self) -> int:
        """cardinality() recomputed from scratch (consistency check)."""
        total = self.active_call.bit_count() + self.active_return.bit_count()
        for store in (self.active_data, self.active_control, self.dyn_table,
                      *self.control_stack):
            for s in store.values():
                total += s.bit_count()
        for s in self.call_stack:
            total += s.bit_count()
        return total

    # -- internals ---------------------------------------------------------------

    def _ctrl(self, sid: int) -> int:
        # an Entry-governed node's test is None, which no active_control key is
        return self.active_control.get(self._test[sid], 0)

    def _put(self, store: dict, key, value: int) -> None:
        self._card += value.bit_count() - store.get(key, 0).bit_count()
        store[key] = value
        self.updates += 1

    def _drop(self, store: dict, key) -> None:
        self._card -= store.pop(key, 0).bit_count()

    def _set_call(self, value: int) -> None:
        self._card += value.bit_count() - self.active_call.bit_count()
        self.active_call = value

    def _set_return(self, value: int) -> None:
        self._card += value.bit_count() - self.active_return.bit_count()
        self.active_return = value


def init(cdg: Cdg) -> SliceState:
    """Fresh all-empty slicer state for a run over this program's CDG."""
    return SliceState(cdg)
