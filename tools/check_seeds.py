"""Print each generated program on which `dynslice check` would not exit 0.

    python tools/check_seeds.py SRC_DIR FIRST LAST

For each generator seed FIRST..LAST, inclusive, `check --seed` runs in
process: the program runs on its inputs and the streaming slicer is compared
with the dependence-graph oracle on every criterion. Each seed whose exit code
is not 0 is printed as `seed N exit C: ...` with the first line `check` wrote
to stderr, the first mismatching criterion for exit 5; the last line counts
them. SRC_DIR is the `src` directory whose `dynslice` is imported, so two
checkouts can be compared: the same output means the same seeds fail, in the
same way. `answer_digest.py` compares the slicer's answers themselves.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout


def failures(first: int, last: int):
    """(seed, exit code, first stderr line) of each seed `check` rejects."""
    from dynslice.cli import main

    for seed in range(first, last + 1):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["check", "--seed", str(seed)])
        if code != 0:
            yield seed, code, (err.getvalue().splitlines() or [""])[0]


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.path.insert(0, sys.argv[1])
    failed = 0
    for seed, code, line in failures(int(sys.argv[2]), int(sys.argv[3])):
        failed += 1
        print(f"seed {seed} exit {code}: {line}")
    print(f"{failed} of {int(sys.argv[3]) - int(sys.argv[2]) + 1} seeds fail")
