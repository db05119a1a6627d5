"""Record each workload's output digest for a range of seeds in digests.json.

    python3 perfbench/record_digests.py FIRST_SEED LAST_SEED

Run it on the commit whose outputs are the reference.  The benchmark then
compares every run against the digest recorded for its seed, so that a
change that alters one byte of output fails its correctness gate.  The
tomography workload has no randomness, so it has one digest, under "*".
"""

from __future__ import annotations

import json
import sys
import time

import worker
from run import WORKLOADS


def main(argv: list[str]) -> int:
    first, last = (int(a) for a in argv)
    worker.import_program()
    table: dict[str, dict[str, str]] = {}
    for name in WORKLOADS:
        seeds = [0] if name == "tomography" else range(first, last + 1)
        for seed in seeds:
            result = worker.run(name, seed, time.monotonic())
            if result["failed"]:
                print(f"{name} seed {seed}: failed items {result['failed']}",
                      file=sys.stderr)
                return 1
            key = "*" if name == "tomography" else str(seed)
            table.setdefault(name, {})[key] = result["digest"]
            print(name, key, result["digest"], flush=True)
    path = worker.ROOT / "perfbench" / "digests.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
