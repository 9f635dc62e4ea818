"""Benchmark of dispersive-compact: time to a checked solution, per workload.

    python3 perfbench/run.py --workload kdv-linear --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
Each pass of the workload runs in a child process of its own (see
``workloads.py``), one pass after another, until the next pass would end
after ``--seconds``. The children run single-threaded: the BLAS thread
variables and DISPERSIVE_COMPACT_THREADS are set to 1 on them only.

On a shared host a neighbour can slow this machine's CPUs down by up to
twice, for stretches of tens of milliseconds to tens of seconds, and the
slow-down does not show as lost CPU time. Each pass therefore times a short
pure-Python probe loop every 50 ms (``workloads.SpeedProbe``), and every
timed interval is rescaled to the speed at which that loop takes
PROBE_REF_S, with the probes' own time taken out (``scaled_s``). The times
below are these rescaled seconds; the unscaled medians are printed beside
them.

With ``--trace 0`` the result holds the medians over the passes of
``setup_s`` (import and building every case), ``solve_s`` (the computing
calls), ``total_s`` (the child process from start to exit, checks included)
and ``peak_rss_mb``. With ``--trace 1`` untraced and traced passes
alternate; the result holds, per span, the medians of ``<span>.calls``,
``<span>.self_s`` and ``<span>.total_s`` over the traced passes (unscaled;
a span holds the time of the probes that fired within it, about 2 %), and
``trace_overhead_s``, the median traced minus the median untraced
``total_s``. The span table of the last traced pass, per (case, name,
parent), is written to ``.perfbench_out/`` with the end-to-end metric each
span should move.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
machine and library versions, the number of passes and the unscaled
medians.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "dispersive_compact"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from spans import SPAN_NAMES, SPANS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "DISPERSIVE_COMPACT_THREADS": "1",
}
DEADLINE_S = 170.0  # every run must exit within 180 s
# the speed probe's time (workloads.SpeedProbe) on an uncontended core of
# the 2.0 GHz Xeon the benchmark was written on; timed intervals are
# rescaled to this speed
PROBE_REF_S = 1.2e-3


def run_child(workload: str, seed: int, traced: bool, quick: bool,
              timeout: float) -> dict:
    """One child process; adds its start and end as ``run_at`` and its
    times (see pass_times) as ``times``."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    if quick:
        cmd.append("--quick")
    env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(ROOT / "src")}
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    end = time.monotonic()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} pass exited with {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not start <= result["probes"][0][0] <= result["probes"][-1][0] <= end:
        raise RuntimeError("the pass's clock is not this process's monotonic "
                           "clock; its times cannot be rescaled")
    result["run_at"] = (start, end)
    result["times"] = pass_times(result)
    return result


def scaled_s(start: float, end: float, probes: list) -> float:
    """Seconds from ``start`` to ``end``, rescaled to the speed at which the
    speed probe takes PROBE_REF_S, less the time of the probes within.

    The probe's time between two samples is interpolated linearly and held
    at the first or last sample outside them; each piece of the interval
    counts ``PROBE_REF_S / probe time`` seconds per second, so each probe
    within counts PROBE_REF_S, which is taken out.
    """
    times = [t for t, _ in probes]
    inside = [k for k, t in enumerate(times) if start < t < end]
    cuts = [start] + [times[k] for k in inside] + [end]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        mid = (lo + hi) / 2.0
        k = bisect.bisect(times, mid)
        if k == 0:
            probe = probes[0][1]
        elif k == len(probes):
            probe = probes[-1][1]
        else:
            (t0, p0), (t1, p1) = probes[k - 1], probes[k]
            probe = p0 + (p1 - p0) * (mid - t0) / (t1 - t0)
        total += (hi - lo) * PROBE_REF_S / probe
    return total - len(inside) * PROBE_REF_S


def pass_times(result: dict) -> dict[str, float]:
    """setup_s, solve_s and total_s of one pass, rescaled (see scaled_s),
    and the same unscaled, less the probes' time, as wall_<name>."""
    parts = {
        "setup_s": [result["import_at"], *result["build_at"].values()],
        "solve_s": list(result["solve_at"].values()),
        "total_s": [result["run_at"]],
    }
    probes = result["probes"]
    out = {}
    for key, spans in parts.items():
        out[key] = sum(scaled_s(a, b, probes) for a, b in spans)
        out[f"wall_{key}"] = sum(b - a - sum(p for t, p in probes
                                             if a < t < b)
                                 for a, b in spans)
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool = False) -> dict:
    """Run passes until ``seconds`` are used; returns the result object."""
    modes = (False, True) if trace else (False,)
    passes: dict[bool, list[dict]] = {False: [], True: []}
    start = time.monotonic()
    count = 0
    while True:
        traced = modes[count % len(modes)]
        remaining = DEADLINE_S - (time.monotonic() - start)
        result = run_child(workload, seed, traced, quick, timeout=remaining)
        passes[traced].append(result)
        count += 1
        times = result["times"]
        print(f"pass {count} {'traced' if traced else 'untraced'}: "
              + ", ".join(f"{key} {times[key]:.4f} s (wall "
                          f"{times['wall_' + key]:.4f} s)"
                          for key in ("setup_s", "solve_s", "total_s"))
              + f", rss {result['peak_rss_mb']:.1f} MB, "
              f"failed {result['failed']}/{result['attempted']}",
              file=sys.stderr)
        for failure in result["failures"]:
            print(f"  failed: {failure}", file=sys.stderr)
        elapsed = time.monotonic() - start
        if (count >= len(modes)
                and elapsed * (count + 1) / count > min(seconds, DEADLINE_S)):
            break

    every = passes[False] + passes[True]
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)

    def median(results, key):
        return statistics.median(r["times"][key] for r in results)

    if trace:
        traced = passes[True]
        metrics = {}
        for name in SPAN_NAMES:
            for field, unit in (("calls", "count"), ("self_s", "s"),
                                ("total_s", "s")):
                value = statistics.median(r["spans"][name][field] for r in traced)
                metrics[f"{name}.{field}"] = {"value": value, "unit": unit}
        overhead = median(traced, "total_s") - median(passes[False], "total_s")
        metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        write_trace(workload, seed, traced[-1])
    else:
        metrics = {key: {"value": median(every, key), "unit": "s"}
                   for key in ("setup_s", "solve_s", "total_s")}
        metrics["peak_rss_mb"] = {
            "value": statistics.median(r["peak_rss_mb"] for r in every),
            "unit": "MB"}
    wall = {key: median(passes[False], "wall_" + key)
            for key in ("setup_s", "solve_s", "total_s")}
    return {
        "environment": environment(every[0]["versions"]),
        "passes": len(every),
        "wall_s": wall,
        "result": {"correct": failed == 0, "attempted": attempted,
                   "failed": failed, "metrics": metrics},
    }


def write_trace(workload: str, seed: int, result: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "missing_boundaries": result["missing_boundaries"],
                   "moves": {name: moves for name, _, moves in SPANS},
                   "spans": result["span_records"]}, fh, indent=1)
        fh.write("\n")


def environment(versions: dict) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions,
            "pinned_env": PINNED_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no library source at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    # byte-compile once so that no pass pays for compiling the sources
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"environment": out["environment"],
                      "passes": out["passes"], "probe_ref_s": PROBE_REF_S,
                      "unscaled_medians": out["wall_s"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
