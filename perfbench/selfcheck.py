"""Quick self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json once at reduced size (fewer cells and
steps), untraced and traced, and checks that no operation fails and that
every end-to-end and per-layer metric named in BENCHMARK.json is emitted,
as a number, with its unit. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import sys

import run


def missing_metrics(emitted: dict, declared: list[dict]) -> list[str]:
    problems = []
    for metric in declared:
        got = emitted.get(metric["name"])
        if got is None:
            problems.append(f"{metric['name']} not emitted")
        elif got.get("unit") != metric["unit"]:
            problems.append(f"{metric['name']} has unit {got.get('unit')!r}, "
                            f"declared {metric['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{metric['name']} value {got.get('value')!r}")
    extra = set(emitted) - {m["name"] for m in declared}
    problems += [f"{name} emitted but not declared" for name in sorted(extra)]
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((False, spec["end_to_end"]),
                                (True, spec["per_layer"])):
            label = f"{workload} trace={int(trace)}"
            out = run.measure(workload, seed=1, seconds=0.0, trace=trace,
                              quick=True)["result"]
            found = missing_metrics(out["metrics"], declared)
            if out["failed"] or not out["correct"]:
                found.append(f"{out['failed']}/{out['attempted']} operations failed")
            problems += [f"{label}: {p}" for p in found]
            print(f"{label}: {'ok' if not found else 'FAILED'}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
