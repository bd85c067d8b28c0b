"""Run a fixed set of CLI commands on two source trees and compare the outputs.

    python scripts/compare_outputs.py A B

A and B are checkouts of the repository (say the parent commit and a
change). Each command runs as `python -m lanemorse ...` once with
PYTHONPATH=A/src and once with PYTHONPATH=B/src. For each command one line
says whether its stdout, its stderr and its exit code are identical or
differ; the exit code is 1 if any of them differs. `compare_outputs.py . .`
runs every command twice on one tree, which checks that the default output
is deterministic from run to run.

Where a stdout differs and both parse as JSON (or both as CSV), the lines
below it say whether only floats moved: the same keys, list lengths,
integers, flags and strings on both sides. If so they give, per JSON key
path (list indices written []) or CSV column, the largest relative change
|a - b| / max(|a|, |b|) and the largest absolute change; if not, the first
value that is not a float and moved.

The set covers the solve, morse, spectrum and sweep commands on the p and N
bands the tests and the benchmark use, the longest shootings (p = 760, and
p = 4.9999, N = 3, near the critical exponent), the horizon error at
p = 800, the too-close-to-1 error at p = 1.001, the solve at p = 1.2,
N = 3 (u(0) = 3.1e8), and limit-check at N = 2 and 5.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = [
    "solve --p 3", "solve --p 400", "solve --p 760", "solve --p 1.25",
    "solve --p 2.5 --N 3", "solve --p 4.9999 --N 3", "solve --p 1.3 --N 8",
    "solve --p 800",
    "morse --p 400", "morse --p 380", "morse --p 420", "morse --p 760",
    "morse --p 8", "morse --p 1.25", "morse --p 4.9999 --N 3", "morse --p 1.5 --N 6",
    "spectrum --p 400", "spectrum --p 2.5 --N 3",
    "sweep --p 8,50,400", "sweep --p 1.5,2.2 --N 5",
    "sweep --p 4,14 --format csv", "sweep --p 1.5,3.3 --N 3 --format csv",
    "solve --p 1.001", "solve --p 1.2 --N 3",
    "limit-check --N 2", "limit-check --N 5",
]


def run(tree: Path, command: str) -> tuple[bytes, bytes, int]:
    """(stdout, stderr, exit code) of one command on the package in tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "lanemorse", *command.split()],
                          cwd=tree, env=env, capture_output=True, check=False)
    return done.stdout, done.stderr, done.returncode


def leaves(text: str) -> list[tuple[str, object]] | None:
    """(path, value) of every scalar in a JSON or CSV text, in order; None if neither."""
    try:
        return list(_walk(json.loads(text), ""))
    except ValueError:
        pass
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
        return None
    return [(column, _cell(value)) for row in rows[1:] for column, value in zip(rows[0], row)]


def _walk(node, path: str):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _walk(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for value in node:
            yield from _walk(value, f"{path}[]")
    else:
        yield path, node


def _cell(value: str):
    for kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            pass
    return value


def float_changes(a: bytes, b: bytes) -> list[str]:
    """Report lines on how two differing stdouts differ, per key path or column."""
    ours, theirs = (leaves(x.decode(errors="replace")) for x in (a, b))
    if ours is None or theirs is None:
        return ["stdout is not JSON or CSV on both sides"]
    if [path for path, _ in ours] != [path for path, _ in theirs]:
        return ["not only floats: the keys, list lengths or CSV rows differ"]
    largest: dict[str, tuple[float, float]] = {}
    for (path, x), (_, y) in zip(ours, theirs):
        if x == y and type(x) is type(y):
            continue
        # an integer-valued float prints as an integer: a pair of numbers
        # counts as floats when either side is a float
        kinds = {type(x), type(y)}
        if not (kinds <= {int, float} and float in kinds):
            return [f"not only floats: {path} {x!r} -> {y!r}"]
        diff = abs(x - y)
        rel = diff / max(abs(x), abs(y))
        old = largest.get(path, (0.0, 0.0))
        largest[path] = (max(old[0], rel), max(old[1], diff))
    width = max(map(len, largest), default=0)
    return ["only floats moved; largest change per key path or column:"] + [
        f"  {path:{width}s}  rel {rel:.2g}  abs {diff:.2g}"
        for path, (rel, diff) in largest.items()]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py A B", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "src" / "lanemorse").is_dir():
            print(f"{tree} holds no src/lanemorse", file=sys.stderr)
            return 2
    differing = 0
    for command in COMMANDS:
        a, b = (run(tree, command) for tree in trees)
        verdicts = ["identical" if x == y else "differs" for x, y in zip(a, b)]
        differing += "differs" in verdicts
        print(f"{command:40s} stdout {verdicts[0]:9s}  stderr {verdicts[1]:9s}  "
              f"exit {verdicts[2]} ({a[2]}, {b[2]})", flush=True)
        if a[0] != b[0]:
            for line in float_changes(a[0], b[0]):
                print(f"    {line}", flush=True)
    print(f"{differing} of {len(COMMANDS)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
