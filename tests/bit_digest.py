"""SHA-256 of the final state of each benchmark KdV cell, one ``name sha256``
line per cell.

    python3 tests/bit_digest.py [--save DIR] [--against DIR]

Builds the 11 cells of the ``kdv-linear``, ``kdv-nonlinear`` and ``kdv-wide``
workloads from ``perfbench/workloads.py`` (read only), runs each with the
library of this checkout's ``src`` and hashes the ``tobytes()`` of its final
state (the fine array of a dual run).  A change meant to keep every bit runs
it on the parent and on the change and diffs the output; ``--save DIR``
also writes each state to ``DIR/<name>.npy``.  ``--against DIR`` adds a
third field to each line: max|u - u_saved| / max|u_saved| against the state
that ``--save DIR`` wrote, so a change that moves some cells by round-off
reports how far, run on the change after ``--save`` ran on its parent.
It is a script, not a test: the hashes depend on the BLAS and the CPU
(``test_kdv`` runs it and checks only the lines' form and names).
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # no __pycache__ under perfbench/

import numpy as np  # noqa: E402
import workloads  # noqa: E402

KDV_WORKLOADS = ("kdv-linear", "kdv-nonlinear", "kdv-wide")


def final_states():
    """(name, final state array) of each cell, in workload order."""
    for workload in KDV_WORKLOADS:
        # the seed only orders cases; these workloads draw no input
        for case in workloads.WORKLOADS[workload](random.Random(0), False):
            state = case.solve(case.build()).state
            yield case.name, (state.fine() if hasattr(state, "fine")
                              else state.values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", type=Path, help="folder for <name>.npy files")
    parser.add_argument("--against", type=Path,
                        help="folder of <name>.npy files written by --save")
    args = parser.parse_args(argv)
    for name, values in final_states():
        fields = [name, hashlib.sha256(values.tobytes()).hexdigest()]
        if args.against is not None:
            saved = np.load(args.against / f"{name}.npy")
            moved = np.max(np.abs(values - saved)) / np.max(np.abs(saved))
            fields.append(f"{moved:.2e}")
        print(*fields, flush=True)
        if args.save is not None:
            args.save.mkdir(parents=True, exist_ok=True)
            np.save(args.save / f"{name}.npy", values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
