"""Dynamic slicing toolkit for a miniature object-oriented language.

Pipeline: `frontend.load` source into a numbered AST, `cdg.build_cdg` the
control dependence graph, `interpreter.run` on concrete inputs, then feed the
event stream to `slicer` for streaming dynamic slices. `oracle` recomputes
slices from the full dynamic dependence graph for differential testing and
`generator` produces the random programs that drive it.
"""

from .cdg import Cdg, build_cdg, def_use, export_dot, export_json
from .events import RuntimeVar, parse_trace, serialize_trace
from .frontend import (
    CheckError,
    LexError,
    NoMatchError,
    ParseError,
    SourceError,
    check,
    load,
    parse,
    resolve_overload,
)
from .generator import GeneratedProgram, generate
from .interpreter import DEFAULT_BUDGET, RunResult, run
from .oracle import Ddg, backward_slice, build_ddg
from .slicer import CriterionError, SliceState, init
from .syntax import Program, pretty

__all__ = [
    "Cdg",
    "CheckError",
    "CriterionError",
    "Ddg",
    "DEFAULT_BUDGET",
    "GeneratedProgram",
    "LexError",
    "NoMatchError",
    "ParseError",
    "Program",
    "RunResult",
    "RuntimeVar",
    "SliceState",
    "SourceError",
    "backward_slice",
    "build_cdg",
    "build_ddg",
    "check",
    "def_use",
    "export_dot",
    "export_json",
    "generate",
    "init",
    "load",
    "parse",
    "parse_trace",
    "pretty",
    "resolve_overload",
    "run",
    "serialize_trace",
]
