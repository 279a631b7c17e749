"""Reference slicer over the full dynamic dependence graph.

Builds one node per statement occurrence plus bookkeeping nodes that mirror
the streaming slicer's slice relation, then answers criteria by backward
reachability. Deliberately unbounded in trace length; test-only.

Graph shape:
- Occurrence nodes carry the statement id as payload. Data edges point to the
  node currently explaining each used variable; the control edge points to
  the governing test's latest occurrence in the same activation, or inside a
  call to the frame context node.
- A frame context node per call (payload: the call site id) links to the call
  site's governing test occurrence and the caller's frame context; its
  backward closure is exactly the ActiveCallSlice.
- Parameter transfer adds one payload-free node per formal variable joining
  the actual's explanation with the frame context (the ActiveDataSlice
  transfer rule). By-ref copy-back and call-assignment re-point the caller
  variable's explanation instead of adding nodes.

The builder keeps the running activation's latest test occurrences, frame
context and Return occurrence as fields, and the caller's three per open call.

Criteria are anchored when their node executes, so later growth of the graph
cannot change an answer: this is what makes closure equal the streaming
snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cdg import Cdg
from .events import (
    CallEntered,
    ExecEvent,
    Returned,
    RuntimeVar,
    StmtExecuted,
)
from .slicer import CriterionError


@dataclass
class Ddg:
    payloads: list[int | None] = field(default_factory=list)
    preds: list[tuple[int, ...]] = field(default_factory=list)
    # (stmt id, display name) -> anchor node indices of the last execution
    criteria: dict[tuple[int, str], tuple[int, ...]] = field(default_factory=dict)
    occurrences: int = 0  # StmtExecuted nodes only

    def executed_criteria(self) -> list[tuple[int, str]]:
        return sorted(self.criteria)


class _Builder:
    def __init__(self, cdg: Cdg):
        self.cdg = cdg
        self.ddg = Ddg()
        self.last_def: dict[RuntimeVar, int] = {}
        self.last_occ: dict[int, int] = {}  # test -> its latest occurrence in this frame
        self.frame_ctx: int | None = None  # this frame's context node; None in main
        self.pending_ret: int | None = None  # this frame's Return occurrence
        # one (last_occ, frame_ctx, pending_ret) of the caller per open call
        self.callers: list[tuple[dict[int, int], int | None, int | None]] = []

    def add(self, payload: int | None, preds: list[int]) -> int:
        self.ddg.payloads.append(payload)
        self.ddg.preds.append(tuple(preds))
        return len(self.ddg.payloads) - 1

    def ctrl_test_occ(self, sid: int) -> int | None:
        p = self.cdg.test[sid]
        return self.last_occ[p] if p is not None else None

    def anchor(self, sid: int, var: RuntimeVar, ctrl_occ: int | None) -> None:
        anchors = []
        if var in self.last_def:
            anchors.append(self.last_def[var])
        if ctrl_occ is not None:
            anchors.append(ctrl_occ)
        self.ddg.criteria[(sid, var.display)] = tuple(anchors)

    def on_stmt(self, ev: StmtExecuted) -> None:
        u = ev.id
        ctrl_occ = self.ctrl_test_occ(u)
        preds = [self.last_def[v] for v in ev.uses if v in self.last_def]
        ctrl_edge = ctrl_occ if ctrl_occ is not None else self.frame_ctx
        if ctrl_edge is not None:
            preds.append(ctrl_edge)
        idx = self.add(u, preds)
        self.ddg.occurrences += 1

        kind = self.cdg.kind(u)
        is_call = kind == "Call"
        use_route = ev.uses + (ev.defs if is_call else ())
        for v in use_route:
            self.anchor(u, v, ctrl_occ)
        if not is_call:
            for d in ev.defs:
                self.last_def[d] = idx
                self.ddg.criteria[(u, d.display)] = (idx,)
        self.last_occ[u] = idx
        if kind == "Return":
            self.pending_ret = idx

    def on_call(self, ev: CallEntered) -> None:
        u = ev.call_site
        preds = []
        if self.frame_ctx is not None:
            preds.append(self.frame_ctx)
        ctrl_occ = self.ctrl_test_occ(u)
        if ctrl_occ is not None:
            preds.append(ctrl_occ)
        fc = self.add(u, preds)
        self.callers.append((self.last_occ, self.frame_ctx, self.pending_ret))
        self.last_occ, self.frame_ctx, self.pending_ret = {}, fc, None
        for f_var, sources in ev.transfers:
            spreds = [self.last_def[s] for s in sources if s in self.last_def]
            spreds.append(fc)
            self.last_def[f_var] = self.add(None, spreds)

    def on_returned(self, ev: Returned) -> None:
        u = ev.call_site
        ret_occ = self.pending_ret
        self.last_occ, self.frame_ctx, self.pending_ret = self.callers.pop()
        for f_var, a_var in ev.copy_backs:
            if f_var in self.last_def:
                self.last_def[a_var] = self.last_def[f_var]
            else:
                self.last_def.pop(a_var, None)
        if ev.returned_into is not None:
            if ret_occ is not None:
                self.last_def[ev.returned_into] = ret_occ
            else:
                self.last_def.pop(ev.returned_into, None)
        ctrl_occ = self.ctrl_test_occ(u)
        for v in ev.receiver_members:
            self.anchor(u, v, ctrl_occ)
        for v in ev.resets:
            self.last_def.pop(v, None)


def build_ddg(events: list[ExecEvent], cdg: Cdg) -> Ddg:
    """Full dependence graph of a completed (or budget-cut) trace."""
    b = _Builder(cdg)
    for ev in events:
        if isinstance(ev, StmtExecuted):
            b.on_stmt(ev)
        elif isinstance(ev, CallEntered):
            b.on_call(ev)
        elif isinstance(ev, Returned):
            b.on_returned(ev)
        # IO and warning events add no graph structure
    return b.ddg


def backward_slice(ddg: Ddg, node: int, var: str) -> frozenset[int]:
    """Statement ids backward-reachable from the criterion's anchors."""
    anchors = ddg.criteria.get((node, var))
    if anchors is None:
        raise CriterionError(
            f"criterion ({node}, {var}) never executed with that variable")
    result: set[int] = set()
    visited = set(anchors)
    stack = list(anchors)
    while stack:
        n = stack.pop()
        if ddg.payloads[n] is not None:
            result.add(ddg.payloads[n])
        for p in ddg.preds[n]:
            if p not in visited:
                visited.add(p)
                stack.append(p)
    return frozenset(result)
