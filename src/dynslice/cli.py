"""Command-line surface: slice, cdg, trace, and check subcommands.

Exit codes: 0 ok, 2 parse/check error, 3 runtime error, 4 criterion error,
5 engine mismatch. `DYNSLICE_BUDGET` sets the default step budget.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

from . import generator, interpreter, oracle, slicer
from .cdg import Cdg, build_cdg, export_dot, export_json
from .events import ExecEvent, parse_trace, to_line
from .frontend import SourceError, load
from .slicer import CriterionError
from .syntax import Program, pretty

ENV_BUDGET = "DYNSLICE_BUDGET"


@dataclass
class RunConfig:
    source: str | None = None  # path, or None when generating from a seed
    inputs: tuple[int, ...] = ()
    budget: int = interpreter.DEFAULT_BUDGET
    fmt: str = "text"  # "text" | "json"
    criterion: tuple[int, str] | None = None
    object_name: str | None = None
    dot_path: str | None = None
    seed: int | None = None
    trace_path: str | None = None
    program_text: str = field(default="", repr=False)


def _default_budget() -> int:
    raw = os.environ.get(ENV_BUDGET)
    return int(raw) if raw else interpreter.DEFAULT_BUDGET


def _parse_inputs(args: argparse.Namespace) -> tuple[int, ...]:
    # the flag wins over the file
    if getattr(args, "inputs", None) is not None:
        text = args.inputs
    elif getattr(args, "inputs_file", None) is not None:
        with open(args.inputs_file, encoding="utf-8") as fh:
            text = fh.read()
    else:
        return ()
    parts = [p for p in re.split(r"[\s,]+", text.strip()) if p]
    return tuple(int(p) for p in parts)


def _parse_criterion(text: str) -> tuple[int, str]:
    node, sep, var = text.partition(":")
    if not sep or not var or not node.isdigit():
        raise SystemExit(f"error: criterion must look like N:VAR, got {text!r}")
    return int(node), var


def _config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        source=getattr(args, "source", None),
        inputs=_parse_inputs(args),
        budget=getattr(args, "budget", None) or _default_budget(),
        fmt="json" if getattr(args, "json", False) else "text",
        criterion=(_parse_criterion(args.criterion)
                   if getattr(args, "criterion", None) else None),
        object_name=getattr(args, "object", None),
        dot_path=getattr(args, "dot", None),
        seed=getattr(args, "seed", None),
        trace_path=getattr(args, "trace", None),
    )
    if cfg.source is not None:
        with open(cfg.source, encoding="utf-8") as fh:
            cfg.program_text = fh.read()
    elif cfg.seed is not None:
        generated = generator.generate(cfg.seed)
        cfg.program_text = generated.source
        if not cfg.inputs:
            cfg.inputs = generated.inputs
    else:
        raise SystemExit("error: a source file (or --seed for check) is required")
    return cfg


def _listing(program: Program, slice_ids: frozenset[int]) -> str:
    """Source listing with in-slice statements marked by a leading '>'."""
    lines = []
    for line in pretty(program).splitlines():
        m = re.search(r"#(\d+):", line)
        mark = ">" if m and int(m.group(1)) in slice_ids else " "
        lines.append(f"{mark} {line}")
    return "\n".join(lines)


def _report(cfg: RunConfig, state: slicer.SliceState,
            slice_ids: frozenset[int], executed: bool) -> dict:
    if cfg.criterion is not None:
        criterion = {"node": cfg.criterion[0], "var": cfg.criterion[1]}
    else:
        criterion = {"object": cfg.object_name}
    return {
        "criterion": criterion,
        "slice": sorted(slice_ids),
        "executed": executed,
        "stats": {"events": state.events, "updates": state.updates,
                  "peak_cardinality": state.peak_cardinality,
                  "dyn_entries": len(state.dyn_table)},
    }


# -- commands -----------------------------------------------------------------

def cmd_slice(cfg: RunConfig) -> int:
    program = load(cfg.program_text)
    state = slicer.init(build_cdg(program))
    result = interpreter.run(program, cfg.inputs, cfg.budget, sink=state.feed)
    if not result.ok:
        print(f"error: {result.message}", file=sys.stderr)
        return 3
    try:
        if cfg.criterion is not None:
            ids = state.slice_of(*cfg.criterion)
        else:
            ids = state.slice_of_object(cfg.object_name)
    except CriterionError as exc:
        if cfg.fmt == "json" and cfg.criterion is not None:
            print(json.dumps(_report(cfg, state, frozenset(), False), sort_keys=True))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 4
    if cfg.fmt == "json":
        print(json.dumps(_report(cfg, state, ids, True), sort_keys=True))
    else:
        name = (f"({cfg.criterion[0]}, {cfg.criterion[1]})"
                if cfg.criterion is not None else cfg.object_name)
        body = ", ".join(str(i) for i in sorted(ids))
        print(f"slice {name} = {{{body}}}")
        print()
        print(_listing(program, ids))
    return 0


def cmd_cdg(cfg: RunConfig) -> int:
    program = load(cfg.program_text)
    graph = build_cdg(program)
    if cfg.dot_path:
        with open(cfg.dot_path, "w", encoding="utf-8") as fh:
            fh.write(export_dot(graph))
    elif cfg.fmt == "json":
        sys.stdout.write(export_json(graph))
    else:
        sys.stdout.write(export_dot(graph))
    return 0


def cmd_trace(cfg: RunConfig) -> int:
    # lines are written only once the whole run serialized, so an event that
    # cannot be serialized leaves stdout empty rather than truncated
    lines: list[str] = []
    result = interpreter.run(load(cfg.program_text), cfg.inputs, cfg.budget,
                             sink=lambda ev: lines.append(to_line(ev)))
    sys.stdout.writelines(lines)
    if not result.ok:
        print(f"error: {result.message}", file=sys.stderr)
        return 3
    return 0


def cmd_check(cfg: RunConfig) -> int:
    program = load(cfg.program_text)
    graph = build_cdg(program)
    if cfg.trace_path:
        with open(cfg.trace_path, encoding="utf-8") as fh:
            events: list[ExecEvent] = parse_trace(fh.read())
    else:
        result = interpreter.run(program, cfg.inputs, cfg.budget)
        if not result.ok:
            print(f"error: {result.message}", file=sys.stderr)
            return 3
        events = result.events
    state = slicer.slice_events(graph, events)
    ddg = oracle.build_ddg(events, graph)
    verdict = _first_mismatch(state, ddg)
    if verdict is None:
        print(f"OK: {len(ddg.criteria)} criteria agree")
        return 0
    (node, var), streaming, reference = verdict
    fmt = lambda s: "absent" if s is None else str(sorted(s))
    print(f"MISMATCH at ({node}, {var}):", file=sys.stderr)
    print(f"  streaming: {fmt(streaming)}", file=sys.stderr)
    print(f"  oracle:    {fmt(reference)}", file=sys.stderr)
    return 5


def run_check(graph: Cdg, events: list[ExecEvent]):
    """First differing criterion between the two engines, or None if all agree."""
    return _first_mismatch(slicer.slice_events(graph, events),
                           oracle.build_ddg(events, graph))


def _first_mismatch(state: slicer.SliceState, ddg: oracle.Ddg):
    mine = set(state.criteria())
    theirs = set(ddg.executed_criteria())
    for key in sorted(mine - theirs):
        return key, state.slice_of(*key), None
    for key in sorted(theirs - mine):
        return key, None, oracle.backward_slice(ddg, *key)
    for key in sorted(mine):
        a = state.slice_of(*key)
        b = oracle.backward_slice(ddg, *key)
        if a != b:
            return key, a, b
    return None


# -- argument wiring -------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, inputs: bool = True) -> None:
    if inputs:
        p.add_argument("--inputs", help="comma-separated integers for cin")
        p.add_argument("--inputs-file", help="file of integers for cin (flag wins)")
        p.add_argument("--budget", type=int, help="step budget (default "
                       f"${ENV_BUDGET} or {interpreter.DEFAULT_BUDGET})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynslice",
        description="Dynamic slicing for a miniature object-oriented language")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slice", help="run a program and print a dynamic slice")
    p.add_argument("source")
    _add_common(p)
    p.add_argument("--criterion", help="slicing criterion N:VAR (e.g. 16:T4.a)")
    p.add_argument("--object", help="object name for a whole-object slice")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(cmd=cmd_slice)

    p = sub.add_parser("cdg", help="export the control dependence graph")
    p.add_argument("source")
    p.add_argument("--dot", help="write DOT to this path instead of stdout")
    p.add_argument("--json", action="store_true", help="JSON node list to stdout")
    p.set_defaults(cmd=cmd_cdg)

    p = sub.add_parser("trace", help="run a program and print its event trace")
    p.add_argument("source")
    _add_common(p)
    p.set_defaults(cmd=cmd_trace)

    p = sub.add_parser("check", help="compare the slicer against the DDG oracle")
    p.add_argument("source", nargs="?")
    _add_common(p)
    p.add_argument("--seed", type=int, help="check a generated program instead")
    p.add_argument("--trace", help="replay a serialized trace instead of running")
    p.set_defaults(cmd=cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "slice" and bool(args.criterion) == bool(args.object):
        print("error: slice needs exactly one of --criterion or --object",
              file=sys.stderr)
        return 2
    try:
        cfg = _config(args)
        return args.cmd(cfg)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except SourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CriterionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
