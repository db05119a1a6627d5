"""One pass of one workload, in a fresh process; prints the result as JSON.

    python3 perfbench/worker.py WORKLOAD SEED T0 TRACE [--small] [--spans PATH]

Times are CPU time of this process (and of any children it waited for),
not wall-clock time: on a virtual machine whose CPUs the hypervisor
preempts, wall time also counts stolen intervals that have nothing to do
with the program.  The workloads are single-threaded and do almost no I/O,
so on a dedicated core the two agree.

CPU time alone still drifts with the host: on a shared machine a core runs
the same code up to twice as fast at one minute as at the next (another
tenant on its sibling hyperthread, frequency changes), and that drift spans
whole runs, so no amount of averaging inside a run removes it.  So the
worker gauges the core's speed with `calibration_s`, a fixed loop of the
benchmark's own, run before the first item and after every item, and
reports each item's CPU time scaled to a nominal speed: the time it would
have taken had the loop run in `NOMINAL_CALIBRATION_S`, taking the mean of
the loops just before and just after the item.  The program cannot change
the loop's speed; it calls nothing of the program, and the garbage collector
is off while it runs, so the size of the program's heap does not count.
The raw CPU times are reported beside the scaled ones.

`setup_s` is the CPU time used from process start to the first timed item
(interpreter start, imports, input generation and processor builds, but not
the calibration loops), scaled by the mean of the median loop run before
input generation and the median loop run after it.  T0 is the parent's
`time.monotonic()` just before it started this process; wall-clock set-up
and phase times are reported for reference.  With TRACE 1 the traced layers
are wrapped for set-up and items, and the spans are written to PATH.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
# CPU seconds of `calibration_s` at the nominal speed, about its median on a
# 2-core Intel Xeon virtual machine (Python 3.11); every scaled time is
# relative to it, so it must not change between the runs compared
NOMINAL_CALIBRATION_S = 0.002
SETUP_CALIBRATIONS = 5


def import_program() -> None:
    """Import `bct` from this checkout's sources, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bct

    if Path(bct.__file__).resolve().parent != src / "bct":
        raise ImportError(f"bct imported from {bct.__file__}, not from {src}")


def cpu_s() -> float:
    """CPU seconds used by this process and by the children it waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def calibration_s() -> float:
    """CPU seconds a fixed loop takes now: a gauge of the core's speed.

    The loop does the kinds of work the program spends its time on (exact
    fractions, dicts keyed by tuples, small sorts) and nothing else, in
    about 2 ms; the collector is off while it runs."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = cpu_s()
        counts, total, check = {}, Fraction(0), 0
        for i in range(300):
            key = (i % 17, i % 5)
            counts[key] = counts.get(key, 0) + 1
            total += Fraction(i % 7 + 1, i % 11 + 1)
            check += sorted((j * 31) % 97 for j in range(20))[i % 20]
        return cpu_s() - start
    finally:
        if enabled:
            gc.enable()


def run(name: str, seed: int, t0: float, traced: bool = False, small: bool = False,
        spans: Path | None = None) -> dict:
    """Set up the workload, run its items once, judge the outputs.

    `setup_s` counts from process start, so it means something only in a
    fresh process."""
    import tracer
    import workloads

    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tr = tracer.Tracer() if traced else None
    try:
        before = [calibration_s() for _ in range(SETUP_CALIBRATIONS)]
        with tr.installed() if tr else nullcontext():
            workload = workloads.build(name, seed, scratch, small)
            times, outputs = [], []
            setup_wall_s = time.monotonic() - t0
            setup_cpu_s = cpu_s() - sum(before)
            calibrations = [calibration_s() for _ in range(SETUP_CALIBRATIONS)]
            phase_start = cpu_s()
            phase_wall_start = time.monotonic()
            for item in workload.items:
                start = cpu_s()
                try:
                    output = item.call()
                except Exception as exc:  # an item that raises is a failed item
                    output = workloads.Raised(f"{type(exc).__name__}: {exc}")
                times.append(cpu_s() - start)
                outputs.append(output)
                calibrations.append(calibration_s())
            phase_s = cpu_s() - phase_start
            phase_wall_s = time.monotonic() - phase_wall_start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed, digest = workload.judge(outputs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    # each item between the loop run just before it and the one just after
    around = calibrations[SETUP_CALIBRATIONS - 1:]
    speed = [2 * NOMINAL_CALIBRATION_S / (ahead + behind)
             for ahead, behind in zip(around, around[1:])]
    setup_speed = 2 * NOMINAL_CALIBRATION_S / (
        statistics.median(before) + statistics.median(calibrations[:SETUP_CALIBRATIONS]))
    result = {
        "workload": name, "seed": seed, "traced": traced,
        "setup_s": setup_cpu_s * setup_speed,
        "item_s": [t * v for t, v in zip(times, speed, strict=True)],
        "setup_cpu_s": setup_cpu_s, "phase_s": phase_s, "item_cpu_s": times,
        "calibration_s": before + calibrations,
        "setup_wall_s": setup_wall_s, "phase_wall_s": phase_wall_s,
        "failed": [item.name for item, f in zip(workload.items, failed) if f],
        "errors": sorted({o.error for o in outputs if isinstance(o, workloads.Raised)}),
        "digest": digest, "peak_rss_mb": peak_rss_mb,
    }
    if tr:
        result["layers"] = tr.metrics()
        if spans is not None:
            tr.write(spans)
    return result


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("t0", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    try:
        import_program()
    except ImportError as exc:
        print(f"worker: cannot import the program: {exc}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.t0, bool(args.trace), args.small,
                 args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
