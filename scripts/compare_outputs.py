"""Run a fixed set of CLI commands on two source trees and compare the outputs.

    python scripts/compare_outputs.py A B

A and B are checkouts of the repository (say the parent commit and a
change). Each command runs as `python -m lanemorse ...` once with
PYTHONPATH=A/src and once with PYTHONPATH=B/src. For each command one line
says whether its stdout, its stderr and its exit code are identical or
differ; the exit code is 1 if any of them differs. `compare_outputs.py . .`
runs every command twice on one tree, which checks that the default output
is deterministic from run to run.

The set covers the solve, morse, spectrum and sweep commands on the p and N
bands the tests and the benchmark use, the longest shootings (p = 760, the
second horizon at p = 4.9999, N = 3), the horizon error at p = 800 and the
too-close-to-1 errors at p = 1.001 and p = 1.2, N = 3.
"""

from __future__ import annotations

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
]


def run(tree: Path, command: str) -> tuple[bytes, bytes, int]:
    """(stdout, stderr, exit code) of one command on the package in tree/src."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-m", "lanemorse", *command.split()],
                          cwd=tree, env=env, capture_output=True, check=False)
    return done.stdout, done.stderr, done.returncode


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
    print(f"{differing} of {len(COMMANDS)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
