"""Every test runs with the trusted constructors checked.

`Kernel._trusted` and `GeneralizedVector._trusted` skip validation because
the calculus builds their inputs from validated parts.  Here both are
wrapped so that each result is also rebuilt through the validating
constructor of its class and must come out equal: every kernel and vector
built inside the calculus during the tests is proven valid.  The wrapped
originals stay reachable as `__wrapped__`.
"""

import functools

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
    def checked_vector(cls, system, coeffs):
        vector = trusted_vector(cls, system, coeffs)
        assert cls(system, coeffs) == vector
        return vector

    monkeypatch.setattr(Kernel, "_trusted", classmethod(checked_kernel))
    monkeypatch.setattr(GeneralizedVector, "_trusted", classmethod(checked_vector))


@pytest.fixture
def validated_builds(validate_trusted_constructions, monkeypatch):
    """The kernels and vectors that go through a validating constructor
    after the test clears this list; the trusted constructors are the
    originals here, so their own checks in the suite do not count."""
    built = []
    for cls in (Kernel, GeneralizedVector):
        real = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, real=real: built.append(self) or real(self))
        monkeypatch.setattr(cls, "_trusted", classmethod(cls._trusted.__func__.__wrapped__))
    return built
