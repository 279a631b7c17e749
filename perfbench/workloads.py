"""The benchmark's workloads: programs, inputs, criteria and expected answers.

`loop` and `calls` are fixed programs stored in `programs/` with expected
answers written out by hand below. `corpus` is 200 generated programs; the
default set (generator seeds 0..199) is frozen in `corpus.json` together with
the answers the dependence-graph oracle gave for it, so a later change to the
generator cannot change what is measured. Programs for seeds outside the
frozen set are generated, run and answered by the oracle on demand.

Regenerate the frozen set (only when deliberately re-baselining) with:

    PYTHONPATH=src python3 perfbench/workloads.py --freeze
"""

from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import asdict, dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_FILE = os.path.join(HERE, "corpus.json")

LOOP_N = 20000
CALLS_N = 10000
CORPUS_SIZE = 200
PROBE_NS = (100, 1000, 10000)


@dataclass(frozen=True)
class Program:
    name: str
    source: str
    inputs: tuple[int, ...]
    criterion: str  # N:VAR for `slice --criterion`, or an object for `--object`
    slice: tuple[int, ...]  # expected answer for the criterion
    criteria: int  # number of criteria `dynslice check` reports agreeing
    outputs: tuple  # expected OutputProduced values in order; None = unchecked


def _read(name: str) -> str:
    with open(os.path.join(HERE, "programs", name), encoding="utf-8") as fh:
        return fh.read()


def loop(n: int = LOOP_N) -> list[Program]:
    """Call-free loop (a copy of dynslice.fixtures.STREAM_SOURCE).

    Criteria (12): 1:n 2:a 3:b 4:n 5:a 5:b 6:a 6:b 7:n 8:a 9:b 10:n.
    Outputs are a = 2^n - 1, b = 2^n and n = 0. The first two have more than
    4300 decimal digits at the default n, so only the count and the last value
    are checked; whether such values are legal is ROADMAP item 4's decision.
    """
    return [Program(f"loop-n{n}", _read("loop.mini"), (n,), "8:a",
                    (1, 2, 3, 4, 5, 6, 7), 12, (None, None, 0))]


def calls(n: int = CALLS_N) -> list[Program]:
    """Method call in a loop, accumulating into a member of the receiver.

    Criteria (13): 1:n 2:i 3:i 3:n 4:i 4:o.s 5:i 6:o.s 7:i 8:t 8:x 9:o.s 9:t.
    Outputs: o.s = sum of (i + 1) for i < n = n(n+1)/2, then i = n.
    """
    return [Program(f"calls-n{n}", _read("calls.mini"), (n,), "6:o.s",
                    (1, 2, 3, 4, 5, 8, 9), 13, (n * (n + 1) // 2, n))]


def corpus(seed: int) -> list[Program]:
    """Generated programs for generator seeds seed .. seed + CORPUS_SIZE - 1."""
    with open(CORPUS_FILE, encoding="utf-8") as fh:
        frozen = {p["name"]: p for p in json.load(fh)["programs"]}
    programs = []
    for s in range(seed, seed + CORPUS_SIZE):
        p = frozen.get(f"seed{s}")
        programs.append(_from_json(p) if p is not None else generated(s))
    return programs


def _from_json(p: dict) -> Program:
    return Program(p["name"], p["source"], tuple(p["inputs"]), p["criterion"],
                   tuple(p["slice"]), p["criteria"], tuple(p["outputs"]))


def generated(seed: int) -> Program:
    """Generate one program and take its expected answers from the oracle.

    The criterion is drawn from the executed criteria with the program's own
    seed, so the same seed always asks the same question. A program whose
    main executes nothing (seeds 62 and 314) has no criterion; it is asked for
    a whole-object slice of its first object instead, which must be empty.
    """
    from dynslice import build_cdg, generate, load, run
    from dynslice.oracle import backward_slice, build_ddg

    g = generate(seed)
    program = load(g.source)
    result = run(program, g.inputs)
    if not result.ok:
        raise RuntimeError(f"generated seed {seed} did not run: {result.message}")
    graph = build_cdg(program)
    ddg = build_ddg(result.events, graph)
    if ddg.criteria:
        node, var = random.Random(seed).choice(ddg.executed_criteria())
        criterion, answer = f"{node}:{var}", backward_slice(ddg, node, var)
    else:
        criterion, answer = next(iter(graph.main_objects)), ()
    return Program(f"seed{seed}", g.source, tuple(g.inputs), criterion,
                   tuple(sorted(answer)), len(ddg.criteria),
                   tuple(result.outputs))


WORKLOADS = {"loop": lambda seed: loop(), "calls": lambda seed: calls(),
             "corpus": corpus}


def _freeze() -> None:
    programs = [asdict(generated(s)) for s in range(CORPUS_SIZE)]
    with open(CORPUS_FILE, "w", encoding="utf-8") as fh:
        json.dump({"generator_seeds": [0, CORPUS_SIZE - 1],
                   "programs": programs}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(programs)} programs to {CORPUS_FILE}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--freeze", action="store_true",
                        help="regenerate corpus.json from the generator and oracle")
    if parser.parse_args().freeze:
        _freeze()
