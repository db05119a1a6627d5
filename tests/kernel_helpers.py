"""Kernel builders that only tests use.

`atomic_decomposition` splits a kernel into its atomic parts, and
`random_reversible_kernel` draws a seeded signed permutation; both are test
plumbing for the predicates and protocols, built on the public API.
"""

import random

from bct.kernels import Kernel, reversible_kernel
from bct.labels import enumerate_pure_labels, label_sort_key
from bct.systems import SystemTree, TheoryMode, Trivial


def atomic_decomposition(kernel: Kernel) -> list[Kernel]:
    """Split into one atomic kernel per nonzero entry; parts re-sum exactly."""
    if isinstance(kernel.in_system, Trivial):
        raise ValueError("preparations do not decompose entrywise")
    parts = []
    rows = kernel.rows
    for a in sorted(rows, key=label_sort_key):
        for (b, tau), w in sorted(rows[a].items(),
                                  key=lambda item: (label_sort_key(item[0][0]),
                                                    item[0][1])):
            parts.append(Kernel(kernel.in_system, kernel.out_system,
                                {a: {(b, tau): w}}))
    return parts


def random_reversible_kernel(rng: random.Random, system: SystemTree) -> Kernel:
    basis = enumerate_pure_labels(system)
    shuffled = list(basis)
    rng.shuffle(shuffled)
    signs = {a: (rng.choice((-1, 1)) if system.mode is TheoryMode.BCT else 1)
             for a in basis}
    return reversible_kernel(system, system, dict(zip(basis, shuffled)), signs)
