"""Every test runs with the trusted constructors checked.

`Kernel._trusted` and `GeneralizedVector._trusted` skip validation because
the calculus builds their inputs from validated parts.  Here both are
wrapped so that each result is also rebuilt through the validating
constructor of its class and must come out equal: every kernel and vector
built inside the calculus during the tests is proven valid.  A vector is
given to `_trusted` as int numerators over a positive int denominator; it is
rebuilt from the `Fraction`s they stand for, so a result that is not in
canonical form (a zero numerator, or a factor common to all the ints) also
fails.  The wrapped originals stay reachable as `__wrapped__`.
"""

import functools
from fractions import Fraction

import pytest

from bct.kernels import Kernel
from bct.states import GeneralizedVector


@pytest.fixture(autouse=True)
def validate_trusted_constructions(monkeypatch):
    trusted_kernel = Kernel._trusted.__func__
    trusted_vector = GeneralizedVector._trusted.__func__

    @functools.wraps(trusted_kernel)
    def checked_kernel(cls, in_system, out_system, rows):
        kernel = trusted_kernel(cls, in_system, out_system, rows)
        assert cls(in_system, out_system, rows) == kernel
        return kernel

    @functools.wraps(trusted_vector)
    def checked_vector(cls, system, nums, den):
        vector = trusted_vector(cls, system, nums, den)
        assert type(den) is int and den > 0
        assert all(type(n) is int for n in nums.values())
        assert cls(system, {label: Fraction(n, den) for label, n in nums.items()}) == vector
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
