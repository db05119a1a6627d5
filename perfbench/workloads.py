"""The benchmark's workloads: inputs, items, correctness gate and output digest.

Each workload is a list of items that one client issues back to back (a
closed loop).  `build` makes the inputs from the workload seed during set-up;
the program only ever receives the generated inputs.  `Workload.judge`
applies the correctness gate to every item's output and hashes the
workload's canonical output bytes.

Why these three:

- coherence builds many small kernels and composes them on a few fixed
  small systems, and never touches `dilation` or `tomography.rank`.  It is
  the only workload that runs with a fault active, so a cache that ignores
  `faults.active_fault()` shows up here as failures.
- dilation (200 instruments, as in AC07) reads a large prebuilt reversible
  kernel (7776 rows at (3,3)) through `apply`, `tensor_states` and
  `apply_effect_at` in the verification probes: the reverse of coherence,
  which writes many small kernels.  A change that makes application cheaper
  by making construction dearer shows up in its set-up time or in
  coherence.
- tomography spends its time in `tensor_states`, `apply_moves_to_vector`,
  exact `rank`, the CLI, schema validation and canonical JSON, with no
  kernel composition and no dilation.  CT mode runs the same code on
  unsigned composites, so a change specialised to signs shows up as a cost.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from bct import cli, coherence, dilation, faults, kernels, serial
from bct.systems import leaf

DILATION_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3))
TOMOGRAPHY_DIMS = (2, 3, 4, 5)


@dataclass(frozen=True)
class Raised:
    """The output of an item that raised."""

    error: str


@dataclass(frozen=True)
class Item:
    name: str
    call: Callable[[], Any]
    group: str = ""


@dataclass
class Workload:
    items: list[Item]
    judge_output: Callable[[Item, Any], tuple[bool, bytes]]
    # groups (faulted suite runs) in which some check must fail
    must_detect: frozenset[str] = field(default_factory=frozenset)

    def judge(self, outputs: list[Any]) -> tuple[list[bool], str]:
        """Per item whether it failed, and the sha256 of the output bytes."""
        digest = hashlib.sha256()
        failed = []
        detected = dict.fromkeys(self.must_detect, False)
        for item, output in zip(self.items, outputs, strict=True):
            raised = isinstance(output, Raised)
            if raised:
                passed, data = False, f"{item.name} raised {output.error}\n".encode()
            else:
                passed, data = self.judge_output(item, output)
            digest.update(data)
            if item.group in detected:
                detected[item.group] |= not (raised or passed)
                failed.append(raised)
            else:
                failed.append(not passed)
        # a faulted run that detects nothing fails as a whole
        return ([f or not detected.get(item.group, True)
                 for f, item in zip(failed, self.items)], digest.hexdigest())


def suite_configs(seed: int, small: bool = False) -> list[coherence.SuiteConfig]:
    """The AC04 runs: the default suite, then each known fault."""
    if small:
        base = dict(seed=seed, pentagon_dims=((2, 2, 2, 2), (2, 3, 2, 3)),
                    hexagon_dims=((2, 2, 2), (3, 2, 3)))
        return [coherence.SuiteConfig(kernel_pairs=3, **base)] + [
            coherence.SuiteConfig(fault=f, kernel_pairs=2, **base)
            for f in faults.KNOWN_FAULTS]
    return [coherence.SuiteConfig(seed=seed, kernel_pairs=100)] + [
        coherence.SuiteConfig(seed=seed, fault=f, kernel_pairs=5)
        for f in faults.KNOWN_FAULTS]


def suite_items(config: coherence.SuiteConfig) -> list[Item]:
    """The check calls `run_suite(config)` makes, in its order."""
    group = config.fault or ""

    def check(name: str, *args, **kwargs) -> Item:
        def call():
            with faults.inject_fault(config.fault):
                return getattr(coherence, name)(*args, **kwargs)
        return Item(f"{group}/{name}{args}", call, group)

    mode = config.mode
    items = [check("check_pentagon", dims, mode) for dims in config.pentagon_dims]
    items += [check("check_hexagon", dims, mode) for dims in config.hexagon_dims]
    items.append(check("check_sliding", config.seed, mode=mode,
                       pairs=config.kernel_pairs))
    items.append(check("check_bifunctoriality", config.seed, mode=mode,
                       pairs=config.kernel_pairs))
    items.append(check("check_probabilistic_compatibility", config.seed, mode=mode))
    return items


def _judge_report(item: Item, report) -> tuple[bool, bytes]:
    return report.passed, serial.dumps(report.to_json()).encode("utf-8")


def _coherence(seed: int, small: bool, scratch: Path) -> Workload:
    configs = suite_configs(seed, small)
    items = [item for config in configs for item in suite_items(config)]
    return Workload(items, _judge_report,
                    frozenset(c.fault for c in configs if c.fault))


def _judge_dilation(item: Item, result) -> tuple[bool, bytes]:
    doc = {"sigma": serial.vector_to_json(result.sigma),
           "observation": [serial.vector_to_json(e) for e in result.observation],
           "outcomes": [str(o) for o in result.outcomes],
           "mu": [[list(fl.h), list(fl.xi), serial.fraction_to_str(w)]
                  for fl, w in result.mu.items()],
           "verified": result.verified}
    ok = result.verified and result.sigma.is_deterministic
    return ok, serial.dumps(doc).encode("utf-8")


def _dilation(seed: int, small: bool, scratch: Path) -> Workload:
    processors = {dims: dilation.build_processor(leaf(dims[0]), leaf(dims[1]))
                  for dims in DILATION_DIMS}
    # 50 items per dims pair with branch counts cycling through 1-3, in a
    # seeded order, so that every seed gets the same mix of sizes; the
    # instruments' contents still vary, and 200 of them keep the spread of
    # the per-item latency percentiles between seeds small
    per_dims = 2 if small else 50
    plan = [(dims, 1 + i % 3) for dims in DILATION_DIMS for i in range(per_dims)]
    rng = random.Random(seed)
    rng.shuffle(plan)
    items = []
    for dims, branches in plan:
        instrument = kernels.random_instrument(rng, leaf(dims[0]), leaf(dims[1]),
                                               branches=branches)

        def call(instrument=instrument, processor=processors[dims]):
            return dilation.realize_instrument(instrument, processor=processor,
                                               verify=True)
        items.append(Item(f"realize{dims}x{branches}", call))
    return Workload(items, _judge_dilation)


def _judge_exit(item: Item, output: tuple[int, Path]) -> tuple[bool, bytes]:
    code, path = output
    data = path.read_bytes() if path.exists() else b""
    return code == 0 and bool(data), f"{item.name} exit {code}\n".encode() + data


def _tomography(seed: int, small: bool, scratch: Path) -> Workload:
    # no randomness: the seed does not change this workload
    dims = TOMOGRAPHY_DIMS[:2] if small else TOMOGRAPHY_DIMS
    items = []
    for triple in itertools.product(dims, repeat=3):
        text = ",".join(map(str, triple))
        for mode in ("BCT", "CT"):
            path = scratch / f"verify-dims-{mode}-{text.replace(',', '')}.json"
            argv = ["verify-dims", "--triples", text, "--mode", mode, "--out", str(path)]

            def call(argv=argv, path=path):
                return cli.main(argv), path
            items.append(Item(f"verify-dims {text} {mode}", call))
    return Workload(items, _judge_exit)


_BUILDERS = {"coherence": _coherence, "dilation": _dilation, "tomography": _tomography}


def build(name: str, seed: int, scratch: Path, small: bool = False) -> Workload:
    """Set up a workload; `scratch` is a directory for files it writes."""
    return _BUILDERS[name](seed, small, scratch)
