"""Streaming dynamic slicer.

Consumes the execution event stream and keeps the live slice state:
ActiveDataSlice per runtime variable, ActiveControlSlice per test node of the
running activation, its ActiveCallSlice, ActiveReturnSlice (set by a Return
statement, cleared on Returned), and the DyanSlice table of each node's last
execution, keyed by (node, display name) as `slice_of` and `criteria()` look it
up. `call_stack` holds one record per open call: the caller's ActiveCallSlice
and its ActiveControlSlice table, pushed on CallEntered and restored on
Returned, so a recursive call's tests cannot change its caller's control
slices. No event history is kept and callee locals die with their frame, so the
state is bounded by the program's variables and nodes however long the run is,
calls in loops included; `peak_cardinality` measures it. Feed events one at a
time (`feed` as `interpreter.run`'s sink) or replay a list (`consume`).

Every slice is a Python-int bitset over statement ids (bit u set when statement
u is in it), so a union is one `|` and a size one `int.bit_count()`; `slice_of`
and `slice_of_object` hand out frozensets (`ids_of`). Ints are immutable, so a
DyanSlice entry is a snapshot that later state changes cannot leak into.

A payload-free event object (StmtExecuted, CallEntered, Returned) becomes a
step when first fed: its node's bit and test, the vars it reads and writes
and its DyanSlice keys. The interpreter emits one such object per
statement and binding, and `parse_trace` one per distinct line, so the step
table is bounded by the program. A runner keeps `cardinality()` exact, but a
store of an unchanged value skips the bit counts; it is still written, since an
absent key is a criterion that never ran.
A loop's exit is no event: the step of the node it exits to (the CDG's
`exits`) first drops the loop's ActiveControlSlice, at a call before the
caller's table is saved; a node that ends no loop pays nothing for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cdg import Cdg
from .events import CallEntered, ExecEvent, Returned, RuntimeVar, StmtExecuted


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
    active_call: int = 0
    active_return: int = 0
    # (node, display name) -> DyanSlice of the node's last execution
    dyn_table: dict[tuple[int, str], int] = field(default_factory=dict)
    # one (active_call, active_control) of the caller per open call
    call_stack: list[tuple[int, dict[int, int]]] = field(default_factory=list, init=False)
    events: int = 0
    updates: int = 0
    peak_cardinality: int = 0
    _card: int = 0
    # id(event) -> (runner, step, event); holding the event keeps its id unused
    _steps: dict[int, tuple] = field(default_factory=dict, init=False)

    # -- event consumption ----------------------------------------------------

    def feed(self, ev: ExecEvent) -> "SliceState":
        self.events += 1
        entry = self._steps.get(id(ev))
        if entry is None:
            if not isinstance(ev, (StmtExecuted, CallEntered, Returned)):
                return self  # input/output/warning carry no slice information
            entry = self._steps[id(ev)] = self._step(ev)
        entry[0](self, entry[1])
        if self._card > self.peak_cardinality:
            self.peak_cardinality = self._card
        return self

    def consume(self, events) -> "SliceState":
        for ev in events:
            self.feed(ev)
        return self

    def _step(self, ev: ExecEvent) -> tuple:
        """(runner, step, ev) of a payload-free event. At a node that ends
        loops the runner is `_exit`, which drops their control slices first."""
        cdg, kind = self.cdg, type(ev)
        if kind is StmtExecuted:
            u, node = ev.id, cdg.kind(ev.id)
            defs = () if node == "Call" else ev.defs  # at a call, the Returned wrote them
            tail = u if node in ("Test", "TestLoop") else "Return" if node == "Return" else None
            # a DyanSlice key met twice keeps the var whose snapshot is written last
            snaps = {}
            for v in ev.defs + ev.uses:
                snaps[u, v.display] = v
            snaps = tuple(snaps.items())
            plain = SliceState._stmt, (1 << u, cdg.test[u], ev.uses, defs, snaps, tail,
                                       len(defs) + len(ev.defs) + len(ev.uses) + (tail == u))
        elif kind is CallEntered:
            # an Entry-governed node's test is None, which no active_control key is
            u = ev.call_site
            plain = SliceState._call, (1 << u, cdg.test[u], ev.transfers)
        else:  # Returned
            u, into = ev.call_site, ev.returned_into
            copies = ev.copy_backs + ((None, into),) * (into is not None)
            snaps = tuple({(u, v.display): v for v in ev.receiver_members}.items())
            return SliceState._return, (cdg.test[u], copies, snaps, ev.resets,
                                        len(copies) + len(ev.receiver_members)), ev
        return (SliceState._exit, (cdg.exits[u], *plain), ev) if u in cdg.exits else (*plain, ev)

    def _stmt(self, step: tuple) -> None:
        bit, test, uses, defs, snaps, tail, updates = step
        data, control, card = self.active_data, self.active_control, self._card
        ctrl = control.get(test, 0)
        value = bit | ctrl | self.active_call
        for v in uses:
            value |= data.get(v, 0)
        for d in defs:
            if (old := data.get(d, 0)) != value:
                card += value.bit_count() - old.bit_count()
            data[d] = value
        dyn = self.dyn_table
        for key, v in snaps:
            if (old := dyn.get(key, 0)) != (new := data.get(v, 0) | ctrl):
                card += new.bit_count() - old.bit_count()
            dyn[key] = new
        if tail == "Return":  # a Return statement sets the ActiveReturnSlice
            card += value.bit_count() - self.active_return.bit_count()
            self.active_return = value
        elif tail is not None:  # a test: its ActiveControlSlice, keyed by its id
            if (old := control.get(tail, 0)) != value:
                card += value.bit_count() - old.bit_count()
            control[tail] = value
        self._card = card
        self.updates += updates

    def _call(self, step: tuple) -> None:
        bit, test, transfers = step
        caller, data = self.active_control, self.active_data
        self.call_stack.append((self.active_call, caller))
        call = self.active_call = bit | self.active_call | caller.get(test, 0)
        self.active_control = {}
        card = self._card + call.bit_count()  # the caller's moved to the stack
        for f_var, sources in transfers:
            new = call
            for src in sources:
                new |= data.get(src, 0)
            if (old := data.get(f_var, 0)) != new:
                card += new.bit_count() - old.bit_count()
            data[f_var] = new
        self._card = card
        self.updates += len(transfers)

    def _return(self, step: tuple) -> None:
        test, copies, snaps, resets, updates = step
        data = self.active_data
        # the callee's tests and call slice govern only its own activation
        card = self._card - self.active_call.bit_count() - self.active_return.bit_count()
        for s in self.active_control.values():
            card -= s.bit_count()
        self.active_call, self.active_control = self.call_stack.pop()
        # by-ref copy-backs (formal to actual), then the return slice to its var
        for f_var, a_var in copies:
            new = self.active_return if f_var is None else data.get(f_var, 0)
            if (old := data.get(a_var, 0)) != new:
                card += new.bit_count() - old.bit_count()
            data[a_var] = new
        # snapshot the receiver's members so (call node, member) is a valid
        # criterion: the call is where those defs reached the caller
        ctrl, dyn = self.active_control.get(test, 0), self.dyn_table
        for key, v in snaps:
            if (old := dyn.get(key, 0)) != (new := data.get(v, 0) | ctrl):
                card += new.bit_count() - old.bit_count()
            dyn[key] = new
        # callee locals die with the frame
        for v in resets:
            card -= data.pop(v, 0).bit_count()
        self._card, self.active_return = card, 0
        self.updates += updates

    def _exit(self, step: tuple) -> None:
        """Drop the control slices of the loops that exited here, then run the node."""
        exits, runner, inner = step
        for u in exits:
            self._card -= self.active_control.pop(u, 0).bit_count()
        runner(self, inner)

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
        for call, control in self.call_stack:
            total += call.bit_count() + sum(s.bit_count() for s in control.values())
        for store in (self.active_data, self.active_control, self.dyn_table):
            for s in store.values():
                total += s.bit_count()
        return total


def init(cdg: Cdg) -> SliceState:
    """Fresh all-empty slicer state for a run over this program's CDG."""
    return SliceState(cdg)
