"""Every test runs with the trusted constructors checked.

`Kernel._trusted` and `GeneralizedVector._trusted` skip validation because
the calculus builds their inputs from validated parts.  Here both are
wrapped so that each result is also rebuilt through the validating
constructor of its class and must come out equal: every kernel and vector
built inside the calculus during the tests is proven valid.  Both are given
as int numerators keyed by basis index over a positive int denominator, and
are rebuilt from the labels their indices decode to and the `Fraction`s
they stand for, so a key off the basis, or a result that is not in
canonical form (a zero numerator, an empty row, or a factor common to all
the ints), also fails.  A kernel whose rows are a rule (a mapping other
than a dict, such as the universal processor's) is checked a block of rows
at a time, streaming over its indices, so every row is checked without
holding them all.  A rebuild that the constructor refuses is an
`AssertionError` naming the class, never the constructor's `ValueError`: a
trusted build of invalid weights is a fault of the calculus, and a test
that expects a checked path to refuse bad input must not pass because the
suite refused it.  The wrapped originals stay reachable as `__wrapped__`.
"""

import functools
import itertools
from fractions import Fraction
from math import gcd

import pytest

from bct.kernels import Kernel
from bct.labels import coder
from bct.states import GeneralizedVector
from bct.systems import TheoryMode, Trivial

BLOCK = 4096


def rebuilt(cls, *args):
    """`cls(*args)`, its `ValueError` an `AssertionError` naming `cls`."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise AssertionError(
            f"trusted {cls.__name__} refused by its constructor: {exc}") from exc


def check_kernel_rows(cls, in_system, out_system, nums, den):
    """`nums` over `den` are canonical ints that keep the constructor's
    invariants, and a rebuild through the validating constructor from their
    labels and `Fraction`s gives them back.

    Every row gets the constructor's checks restated on basis indices (an
    index in range is a valid label, as the coder tests show); rows held in
    a dict, and the first block of a rule's rows, are also rebuilt.
    """
    assert type(den) is int and den > 0
    source, target = coder(in_system), coder(out_system)
    plus_only = in_system.mode is TheoryMode.CT or isinstance(out_system, Trivial)
    taus = (1,) if plus_only else (-1, 1)
    common = den
    rows = iter(nums.items())
    first = True
    while block := dict(itertools.islice(rows, BLOCK)):
        if first or isinstance(nums, dict):
            labelled = {source.label(x): {(target.label(b), tau): Fraction(n, den)
                                          for (b, tau), n in row.items()}
                        for x, row in block.items()}
            kernel = rebuilt(cls, in_system, out_system, labelled)
            scale, rest = divmod(den, kernel.den)
            assert rest == 0 and block == {x: {e: n * scale for e, n in row.items()}
                                           for x, row in kernel.nums.items()}
        first = False
        for x, row in block.items():
            assert type(x) is int and 0 <= x < source.dim and row
            for (b, tau), n in row.items():
                assert type(b) is int and 0 <= b < target.dim and tau in taus
                assert type(n) is int and n > 0
            assert sum(row.values()) <= den
            if common != 1:
                common = gcd(common, *row.values())
    assert common == 1


@pytest.fixture(autouse=True)
def validate_trusted_constructions(monkeypatch):
    trusted_kernel = Kernel._trusted.__func__
    trusted_vector = GeneralizedVector._trusted.__func__

    @functools.wraps(trusted_kernel)
    def checked_kernel(cls, in_system, out_system, nums, den):
        kernel = trusted_kernel(cls, in_system, out_system, nums, den)
        check_kernel_rows(cls, in_system, out_system, nums, den)
        return kernel

    @functools.wraps(trusted_vector)
    def checked_vector(cls, system, nums, den):
        vector = trusted_vector(cls, system, nums, den)
        assert type(den) is int and den > 0
        code = coder(system)
        assert all(type(x) is int and 0 <= x < code.dim and type(n) is int
                   for x, n in nums.items())
        labelled = {code.label(x): Fraction(n, den) for x, n in nums.items()}
        assert rebuilt(cls, system, labelled) == vector
        return vector

    monkeypatch.setattr(Kernel, "_trusted", classmethod(checked_kernel))
    monkeypatch.setattr(GeneralizedVector, "_trusted", classmethod(checked_vector))


@pytest.fixture
def validated_builds(validate_trusted_constructions, monkeypatch):
    """The kernels and vectors that go through the checks of a validating
    constructor (`Kernel.__post_init__`, `GeneralizedVector._check`) after
    the test clears this list; the trusted constructors are the originals
    here, so their own checks in the suite do not count."""
    built = []
    for cls, check in ((Kernel, "__post_init__"), (GeneralizedVector, "_check")):
        real = getattr(cls, check)
        monkeypatch.setattr(cls, check,
                            lambda self, real=real: built.append(self) or real(self))
        monkeypatch.setattr(cls, "_trusted", classmethod(cls._trusted.__func__.__wrapped__))
    return built
