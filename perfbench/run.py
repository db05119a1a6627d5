"""The repository benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload coherence --seed 0 --seconds 20 --trace 0

Workloads: coherence, dilation, tomography (see `workloads.py` for what each
runs and why), or `all`, which interleaves the three pass by pass so that
host drift does not land on one workload.

Each pass is one fresh worker process that sets the workload up and issues
its items back to back from one thread (a closed loop with one client).
Passes run one at a time until `--seconds` have gone by, and at least
two of them.  Times are the worker's CPU time scaled to a nominal core
speed, which a calibration loop run between items gauges (see `worker.py`):
on a shared host the raw CPU time of the same code drifts by up to 2x over
minutes.  The raw CPU times, the wall-clock figures and the host's steal
time are kept in the run record.  With `--trace 0` the last line of output
is a JSON object with the end-to-end metrics of the untraced passes:

- items_per_s: items completed per scaled second of item time;
- item_p50_ms, item_p90_ms: per-item latency over all passes' items;
- setup_s: median over passes of the time from process start to the first
  timed item (interpreter start, imports, input generation, processor builds);
- peak_rss_mb: median over passes of the worker's peak resident memory.

The share of failed items is printed with them, and is the `failed` count of
the JSON line.  With `--trace 1`, untraced and traced passes alternate; the
JSON line holds the per-layer metrics of the traced passes (counts, which
must repeat exactly between passes, and median times) and
`trace.overhead_frac`, the traced passes' time per item over the untraced
passes', minus one.

Every pass's outputs are checked (see `Workload.judge`) and hashed.  All
passes of a workload must give the same digest, and where `digests.json`
records one for the seed, that one; `record_digests.py` writes that file.
A run record with the samples, the interpreter, core count, seeds and
source hash is written under `perfbench/out/`.  Seed 0 is the development
seed; seed 1 is held out for checking a claimed gain.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("coherence", "dilation", "tomography")
HASH_SEED = "0"
MIN_ROUNDS = 2
RUN_LIMIT_S = 170.0

END_TO_END = (("items_per_s", "1/s"), ("item_p50_ms", "ms"), ("item_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYER_UNITS = {name: unit for name, unit, _better in tracer.per_layer_metrics()}


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, seed: int, traced: bool, small: bool, started: float) -> dict:
    """Run one worker process and return its result."""
    command = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    extra = ["--small"] if small else []
    if traced:
        extra += ["--spans", str(OUT / f"spans-{workload}.json.gz")]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - started))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(command + [repr(t0), str(int(traced))] + extra,
                              capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{workload} pass did not end within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def end_to_end(passes: list[dict]) -> dict[str, float]:
    latencies = [t * 1000 for p in passes for t in p["item_s"]]
    return {
        "items_per_s": len(latencies) / sum(t for p in passes for t in p["item_s"]),
        "item_p50_ms": statistics.median(latencies),
        "item_p90_ms": statistics.quantiles(latencies, n=10)[-1],
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of the traced passes, and the counts that did not repeat."""
    out, unsteady = {}, []
    for name, _unit, _better in tracer.per_layer_metrics():
        if name == tracer.OVERHEAD:
            per_item = [statistics.mean(t for p in ps for t in p["item_s"])
                        for ps in (traced, plain)]
            out[name] = per_item[0] / per_item[1] - 1
            continue
        values = [p["layers"][name] for p in traced]
        if tracer.is_count(name):
            if len(set(values)) > 1:
                unsteady.append(f"{name}: {values}")
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, unsteady


def source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def steal_s() -> float | None:
    """Seconds the hypervisor has taken from this machine's CPUs, if known."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def commit() -> str | None:
    """The checked-out commit, when the benchmark runs in a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def recorded_digest(workload: str, seed: int) -> str | None:
    path = HERE / "digests.json"
    table = json.loads(path.read_text()).get(workload, {}) if path.exists() else {}
    return table.get(str(seed), table.get("*"))


def report(workload: str, seed: int, small: bool, passes: list[dict]) -> tuple[dict, list[str]]:
    """Metrics of one workload's passes, and the problems found in them."""
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    problems = []
    attempted = sum(len(p["item_s"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    for p in passes:
        problems += [f"item failed: {name}" for name in p["failed"][:5]]
        problems += [f"item raised: {error}" for error in p["errors"][:5]]
    digests = sorted({p["digest"] for p in passes})
    if len(digests) > 1:
        problems.append(f"passes disagree on the output digest: {digests}")
    expected = None if small else recorded_digest(workload, seed)
    if expected is not None and digests != [expected]:
        problems.append(f"output digest {digests} differs from the one recorded "
                        f"for seed {seed}: {expected}")
    e2e = end_to_end(plain)
    n = sum(len(p["item_s"]) for p in plain)
    print(f"{workload}: seed {seed}, {len(plain)} untraced and {len(traced)} traced "
          f"passes, {attempted} items, {failed} failed")
    cpu_s = sum(t for p in plain for t in p["item_cpu_s"])
    print(f"  items_per_s   {e2e['items_per_s']:12.4f} 1/s  ({n} items; "
          f"{n / cpu_s:.4f} per raw CPU s)")
    print(f"  item_p50_ms   {e2e['item_p50_ms']:12.4f} ms   (n={n})")
    print(f"  item_p90_ms   {e2e['item_p90_ms']:12.4f} ms   (n={n})")
    print(f"  setup_s       {e2e['setup_s']:12.4f} s    (median of {len(plain)} processes)")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:12.4f} MB   (median of {len(plain)} processes)")
    print(f"  failed_frac   {failed / attempted:12.4f}      ({failed}/{attempted})")
    match = "not recorded for this seed" if expected is None else (
        "matches the recorded one" if digests == [expected] else "DIFFERS from the recorded one")
    print(f"  digest        {digests[0][:16]}  ({match})")
    record = {"attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
              "samples": n, "digest": digests, "recorded_digest": expected,
              "end_to_end": e2e, "passes": passes}
    if traced:
        layers, unsteady = per_layer(plain, traced)
        problems += [f"count differs between traced passes: {u}" for u in unsteady]
        for name, value in layers.items():
            if value:
                print(f"  {name:52s} {value:14.6g} {LAYER_UNITS[name]}")
        print(f"  spans of the last traced pass: {OUT.name}/spans-{workload}.json.gz")
        record["per_layer"] = layers
    return record, problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    kinds = (False, True) if args.trace else (False,)
    schedule = [(name, traced) for name in names for traced in kinds]

    OUT.mkdir(parents=True, exist_ok=True)
    started, steal_before = time.monotonic(), steal_s()
    passes: dict[str, list[dict]] = {name: [] for name in names}
    rounds = 0
    try:
        while rounds < MIN_ROUNDS or time.monotonic() - started < args.seconds * len(names):
            for name, traced in schedule:
                passes[name].append(run_pass(name, args.seed, traced, args.small, started))
            rounds += 1
    except PassFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    records, problems, metrics = {}, [], {}
    for name in names:
        record, found = report(name, args.seed, args.small, passes[name])
        records[name] = record
        problems += [f"{name}: {p}" for p in found]
        prefix = "" if len(names) == 1 else f"{name}."
        if args.trace:
            metrics.update({prefix + m: {"value": v, "unit": LAYER_UNITS[m]}
                            for m, v in record["per_layer"].items()})
        else:
            metrics.update({prefix + m: {"value": record["end_to_end"][m], "unit": u}
                            for m, u in END_TO_END})
    for problem in problems:
        print(f"problem: {problem}")

    run_record = {
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        "workload_seed": args.seed, "hash_seed": HASH_SEED, "seconds": args.seconds,
        "trace": args.trace, "small": args.small,
        "source_sha256": source_hash(), "commit": commit(),
        "started_unix": time.time() - (time.monotonic() - started),
        "wall_s": time.monotonic() - started,
        "host_steal_s": None if steal_before is None else steal_s() - steal_before,
        "workloads": records, "problems": problems,
    }
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(run_record, indent=1, sort_keys=True))
    print(f"run record: {record_path.relative_to(ROOT)}")

    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
