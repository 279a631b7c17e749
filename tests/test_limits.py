"""Programs at and past the two depth limits end in a documented exit code:
nesting past `frontend.MAX_NESTING` exits 2, and a run that opens more than
`interpreter.MAX_DEPTH` blocks exits 3. Neither ends in a RecursionError."""

from __future__ import annotations

import json

import pytest

from dynslice import load, run
from dynslice.cli import main
from dynslice.frontend import MAX_NESTING

# runs at n=100 (202 blocks open at the deepest point); n=300 needs 602
RECURSIVE_SOURCE = """\
class c {
    int m;
public:
    int f(c p, int n) {
        int r;
        #1: r = 0;
        #2: if (n > 0) {
            #3: r = p.f(p, n - 1);
        }
        #4: return r + 1;
    }
};
void main() {
    c o;
    int k, n;
    #5: cin >> n;
    #6: k = o.f(o, n);
    #7: cout << k;
}
"""


def nested(shape: str, depth: int) -> str:
    """A program nested `depth` deep: main's block plus depth - 1 levels."""
    n = depth - 1
    if shape == "parens":
        return "void main() { int x; x = " + "(" * n + "1" + ")" * n + "; }"
    if shape == "operators":
        return "void main() { int x; x = " + "+".join(["1"] * (n + 1)) + "; }"
    return "void main() { int x; x = 1; " + "if (x) { " * n + "x = 2; " + "} " * n + "}"


def write(tmp_path, text: str) -> str:
    path = tmp_path / "prog.mini"
    path.write_text(text)
    return str(path)


SHAPES = ["parens", "operators", "blocks"]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 2000])
@pytest.mark.parametrize("command", ["cdg", "slice"])
def test_nesting_past_the_limit_exits_2(tmp_path, capsys, shape, depth, command):
    argv = [command, write(tmp_path, nested(shape, depth))]
    if command == "slice":
        argv += ["--criterion", "1:x"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nested too deeply" in captured.err


@pytest.mark.parametrize("shape", SHAPES)
def test_nesting_at_the_limit_runs(tmp_path, capsys, shape):
    path = write(tmp_path, nested(shape, MAX_NESTING))
    # slice prints a pretty listing; check runs the slicer and the oracle
    assert main(["slice", path, "--criterion", "1:x"]) == 0
    assert main(["check", path]) == 0
    assert main(["cdg", path, "--json"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("n,code", [(100, 0), (300, 3)])
@pytest.mark.parametrize("command", ["slice", "trace", "check"])
def test_deep_recursion_stops_with_stack_overflow(tmp_path, capsys, n, code, command):
    argv = [command, write(tmp_path, RECURSIVE_SOURCE), "--inputs", str(n)]
    if command == "slice":
        argv += ["--criterion", "7:k"]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 3:
        assert "stack overflow" in captured.err
        # trace leaves the prefix that ran; the others print nothing
        if command == "trace":
            assert all(json.loads(line) for line in captured.out.splitlines())
            assert captured.out
        else:
            assert captured.out == ""


def test_stack_overflow_does_not_depend_on_the_callers_stack():
    program = load(RECURSIVE_SOURCE)

    def deeper(k: int):
        return deeper(k - 1) if k else run(program, [300])

    shallow, deep = run(program, [300]), deeper(100)
    assert shallow.status == deep.status == "stack-overflow"
    assert shallow.events == deep.events
    assert run(program, [100]).ok


@pytest.mark.parametrize("command", ["slice", "trace", "check"])
def test_recursion_at_the_nesting_limit_exits_3(tmp_path, capsys, command):
    # the method body and MAX_NESTING - 2 ifs reach the limit around the call
    ifs = MAX_NESTING - 2
    source = ("class c { int m; public: int f(c p, int n) { int r; r = 0; "
              + "if (n > 0) { " * ifs + "r = p.f(p, n - 1); " + "} " * ifs
              + "return r; } }; void main() { c o; int k, n; cin >> n; "
              "k = o.f(o, n); cout << k; }")
    argv = [command, write(tmp_path, source), "--inputs", "50"]
    if command == "slice":
        argv += ["--criterion", "1:r"]
    assert main(argv) == 3
    assert "stack overflow" in capsys.readouterr().err
