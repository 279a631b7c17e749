"""Command-line surface: slice, cdg, trace, and check subcommands.

Exit codes: 0 ok, 2 parse/check error (a malformed or foreign trace and a step
budget below 1 included), 3 runtime error, 4 criterion error, 5 engine
mismatch. `DYNSLICE_BUDGET` sets the default step budget.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import generator, interpreter, oracle, slicer
from .cdg import Cdg, build_cdg, export_dot, export_json
from .events import ExecEvent, line_writer, parse_trace, validate_trace
from .frontend import SourceError, load
from .slicer import CriterionError
from .syntax import Program, pretty

ENV_BUDGET = "DYNSLICE_BUDGET"


def _budget(args: argparse.Namespace) -> int:
    if args.budget is not None:
        budget = args.budget
    else:
        budget = int(os.environ.get(ENV_BUDGET) or interpreter.DEFAULT_BUDGET)
    if budget < 1:
        raise ValueError(f"step budget must be at least 1, got {budget}")
    return budget


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
    return tuple(_input(n, p) for n, p in enumerate(parts, start=1))


def _input(n: int, text: str) -> int:
    """The n-th cin value; ValueError naming it if it is no int Python reads."""
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text[0] in "+-" else text
        if digits.isdecimal():  # past Python's int string-conversion limit
            raise ValueError(f"input {n} is too long: {len(digits)} digits") from None
        raise ValueError(f"input {n} is not an integer: {text!r}") from None


def _parse_criterion(text: str) -> tuple[int, str]:
    node, sep, var = text.partition(":")
    if not sep or not var or not node.isdigit():
        raise SystemExit(f"error: criterion must look like N:VAR, got {text!r}")
    return int(node), var


def _program(args: argparse.Namespace) -> tuple[str, tuple[int, ...]]:
    """Program text and cin inputs, from the source file or from --seed."""
    inputs = _parse_inputs(args)
    if args.source is not None:
        with open(args.source, encoding="utf-8") as fh:
            return fh.read(), inputs
    if args.seed is not None:
        generated = generator.generate(args.seed)
        return generated.source, inputs or generated.inputs
    raise SystemExit("error: a source file (or --seed for check) is required")


def _listing(program: Program, slice_ids: frozenset[int]) -> str:
    """Source listing with in-slice statements marked by a leading '>'."""
    lines = []
    for line in pretty(program).splitlines():
        m = re.search(r"#(\d+):", line)
        mark = ">" if m and int(m.group(1)) in slice_ids else " "
        lines.append(f"{mark} {line}")
    return "\n".join(lines)


def _report(criterion: tuple[int, str] | None, object_name: str | None,
            state: slicer.SliceState, slice_ids: frozenset[int], executed: bool) -> dict:
    if criterion is not None:
        asked = {"node": criterion[0], "var": criterion[1]}
    else:
        asked = {"object": object_name}
    return {
        "criterion": asked,
        "slice": sorted(slice_ids),
        "executed": executed,
        "stats": {"events": state.events, "updates": state.updates,
                  "peak_cardinality": state.peak_cardinality,
                  "dyn_entries": len(state.dyn_table)},
    }


# -- commands -----------------------------------------------------------------

def cmd_slice(args: argparse.Namespace) -> int:
    criterion = _parse_criterion(args.criterion) if args.criterion else None
    text, inputs = _program(args)
    program = load(text)
    state = slicer.init(build_cdg(program))
    result = interpreter.run(program, inputs, _budget(args), sink=state.feed)
    if not result.ok:
        print(f"error: {result.message}", file=sys.stderr)
        return 3
    try:
        if criterion is not None:
            ids = state.slice_of(*criterion)
        else:
            ids = state.slice_of_object(args.object)
    except CriterionError as exc:
        if args.json and criterion is not None:
            report = _report(criterion, args.object, state, frozenset(), False)
            print(json.dumps(report, sort_keys=True))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 4
    if args.json:
        print(json.dumps(_report(criterion, args.object, state, ids, True), sort_keys=True))
    else:
        name = f"({criterion[0]}, {criterion[1]})" if criterion is not None else args.object
        body = ", ".join(str(i) for i in sorted(ids))
        print(f"slice {name} = {{{body}}}")
        print()
        print(_listing(program, ids))
    return 0


def cmd_cdg(args: argparse.Namespace) -> int:
    program = load(_program(args)[0])
    graph = build_cdg(program)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(graph))
    elif args.json:
        sys.stdout.write(export_json(graph))
    else:
        sys.stdout.write(export_dot(graph))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    text, inputs = _program(args)
    # lines are written only once the whole run serialized, so an event that
    # cannot be serialized leaves stdout empty rather than truncated; a
    # repeated payload-free event is its index, so the held lines stay small
    lines: list[str] = []
    write = line_writer()
    result = interpreter.run(load(text), inputs, _budget(args),
                             sink=lambda ev: lines.append(write(ev)))
    sys.stdout.writelines(lines)
    if not result.ok:
        print(f"error: {result.message}", file=sys.stderr)
        return 3
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    text, inputs = _program(args)
    program = load(text)
    graph = build_cdg(program)
    if args.trace:
        with open(args.trace, encoding="utf-8") as fh:
            events: list[ExecEvent] = parse_trace(fh.read())
        validate_trace(events, graph)
    else:
        result = interpreter.run(program, inputs, _budget(args))
        if not result.ok:
            print(f"error: {result.message}", file=sys.stderr)
            return 3
        events = result.events
    state = slicer.init(graph).consume(events)
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
    return _first_mismatch(slicer.init(graph).consume(events),
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

def _add_common(p: argparse.ArgumentParser) -> None:
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
        return args.cmd(args)
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
