"""Scalar test functions with attached derivatives.

A :class:`ScalarFunction` bundles a vectorized callable with its first and
(optionally) second derivative so that trace-formula checks and
double-operator-integral kernels can evaluate divided differences and
derivative limits without numerical differentiation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .spectral import _check_resolvent_args

__all__ = [
    "ScalarFunction",
    "bump_c2",
    "gaussian_bump",
    "identity",
    "imag_part",
    "polynomial",
    "power_shift_inverse",
    "product",
    "real_part",
    "resolvent_function",
    "smoothstep_cutoff",
    "squared_lorentzian",
]


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function of a real variable, with optional derivatives.

    ``value`` must accept numpy arrays elementwise.  ``derivative`` and
    ``derivative2`` follow the same convention when present.
    """

    value: Callable
    derivative: Optional[Callable] = None
    derivative2: Optional[Callable] = None
    name: str = field(default="", compare=False)

    def __call__(self, x):
        return self.value(x)

    def d1(self, x):
        if self.derivative is None:
            raise ValueError(f"function {self.name!r} has no attached derivative")
        return self.derivative(x)

    def d2(self, x):
        if self.derivative2 is None:
            raise ValueError(f"function {self.name!r} has no attached second derivative")
        return self.derivative2(x)


def identity() -> ScalarFunction:
    return ScalarFunction(
        value=lambda x: np.asarray(x, dtype=float) + 0.0,
        derivative=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        derivative2=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        name="identity",
    )


def polynomial(coeffs) -> ScalarFunction:
    """Polynomial with coefficients in descending degree order."""
    c = np.asarray(coeffs, dtype=float)
    d1 = np.polyder(c)
    d2 = np.polyder(c, 2)
    return ScalarFunction(
        value=lambda x, c=c: np.polyval(c, x),
        derivative=lambda x, c=d1: np.polyval(c, x),
        derivative2=lambda x, c=d2: np.polyval(c, x),
        name=f"poly[deg={c.size - 1}]",
    )


def gaussian_bump(center: float = 0.0, width: float = 1.0, height: float = 1.0) -> ScalarFunction:
    c, w, a = float(center), float(width), float(height)

    def val(x):
        u = (np.asarray(x, dtype=float) - c) / w
        return a * np.exp(-0.5 * u * u)

    def der(x):
        u = (np.asarray(x, dtype=float) - c) / w
        return -(u / w) * a * np.exp(-0.5 * u * u)

    def der2(x):
        u = (np.asarray(x, dtype=float) - c) / w
        return ((u * u - 1.0) / (w * w)) * a * np.exp(-0.5 * u * u)

    return ScalarFunction(val, der, der2, name=f"gauss[c={c},w={w}]")


def squared_lorentzian() -> ScalarFunction:
    """``(1 + x^2)^{-2}``: smooth, even, integrable decay."""

    def val(x):
        x = np.asarray(x, dtype=float)
        return (1.0 + x * x) ** -2.0

    def der(x):
        x = np.asarray(x, dtype=float)
        return -4.0 * x * (1.0 + x * x) ** -3.0

    def der2(x):
        x = np.asarray(x, dtype=float)
        q = 1.0 + x * x
        return -4.0 * q**-3.0 + 24.0 * x * x * q**-4.0

    return ScalarFunction(val, der, der2, name="sqlorentz")


def resolvent_function(z: complex, m: int = 1, part: Optional[str] = None) -> ScalarFunction:
    """``(x - z)^{-m}`` for non-real ``z``; ``part`` selects "re" or "im"."""
    z, m = _check_resolvent_args(z, m)

    def val(x):
        return (np.asarray(x, dtype=complex) - z) ** (-m)

    def der(x):
        return -m * (np.asarray(x, dtype=complex) - z) ** (-m - 1)

    def der2(x):
        return m * (m + 1) * (np.asarray(x, dtype=complex) - z) ** (-m - 2)

    f = ScalarFunction(val, der, der2, name=f"resolvent[m={m},z={z}]")
    if part is None:
        return f
    return {"re": real_part, "im": imag_part}[part](f)


def power_shift_inverse(m: int) -> ScalarFunction:
    """``(x^m - i)^{-1}`` with analytic derivatives (complex-valued)."""
    m = int(m)

    def val(x):
        return 1.0 / (np.asarray(x, dtype=complex) ** m - 1j)

    def der(x):
        x = np.asarray(x, dtype=complex)
        f = 1.0 / (x**m - 1j)
        return -m * x ** (m - 1) * f * f

    def der2(x):
        x = np.asarray(x, dtype=complex)
        f = 1.0 / (x**m - 1j)
        return -m * (m - 1) * x ** (m - 2) * f * f + 2.0 * m * m * x ** (2 * m - 2) * f**3

    return ScalarFunction(val, der, der2, name=f"powshiftinv[m={m}]")


def _smoothstep(u):
    # quintic smoothstep: value 0->1 with vanishing first and second
    # derivatives at both ends
    u = np.clip(u, 0.0, 1.0)
    return u**3 * (10.0 - 15.0 * u + 6.0 * u * u)


def _smoothstep_d1(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 30.0 * u * u * (1.0 - u) ** 2, 0.0)


def _smoothstep_d2(u):
    inside = (u > 0.0) & (u < 1.0)
    u = np.clip(u, 0.0, 1.0)
    return np.where(inside, 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u), 0.0)


def smoothstep_cutoff(r: float) -> ScalarFunction:
    """Even C^2 cutoff: 0 on ``[-r, r]``, 1 outside ``[-2r, 2r]``."""
    r = float(r)
    if r <= 0:
        raise ValueError("cutoff radius must be positive")

    def val(x):
        x = np.asarray(x, dtype=float)
        return _smoothstep((np.abs(x) - r) / r)

    def der(x):
        x = np.asarray(x, dtype=float)
        return np.sign(x) * _smoothstep_d1((np.abs(x) - r) / r) / r

    def der2(x):
        x = np.asarray(x, dtype=float)
        return _smoothstep_d2((np.abs(x) - r) / r) / (r * r)

    return ScalarFunction(val, der, der2, name=f"cutoff[r={r}]")


def bump_c2(r: float, height: float = 1.0) -> ScalarFunction:
    """C^2 bump ``height * (1 - (x/r)^2)^3`` supported on ``[-r, r]``."""
    r = float(r)
    a = float(height)
    if r <= 0:
        raise ValueError("bump radius must be positive")

    def val(x):
        u = np.asarray(x, dtype=float) / r
        core = (1.0 - u * u) ** 3
        return a * np.where(np.abs(u) < 1.0, core, 0.0)

    def der(x):
        u = np.asarray(x, dtype=float) / r
        core = -6.0 * u * (1.0 - u * u) ** 2 / r
        return a * np.where(np.abs(u) < 1.0, core, 0.0)

    def der2(x):
        u = np.asarray(x, dtype=float) / r
        core = (1.0 - u * u) * (30.0 * u * u - 6.0) / (r * r)
        return a * np.where(np.abs(u) < 1.0, core, 0.0)

    return ScalarFunction(val, der, der2, name=f"bump[r={r}]")


def product(f: ScalarFunction, g: ScalarFunction) -> ScalarFunction:
    """Pointwise product with Leibniz derivatives."""
    der = None
    if f.derivative is not None and g.derivative is not None:
        der = lambda x: f.d1(x) * g(x) + f(x) * g.d1(x)  # noqa: E731
    der2 = None
    if f.derivative2 is not None and g.derivative2 is not None:
        der2 = lambda x: f.d2(x) * g(x) + 2.0 * f.d1(x) * g.d1(x) + f(x) * g.d2(x)  # noqa: E731
    return ScalarFunction(lambda x: f(x) * g(x), der, der2, name=f"({f.name}*{g.name})")


def real_part(f: ScalarFunction) -> ScalarFunction:
    return ScalarFunction(
        value=lambda x: np.real(f(x)),
        derivative=None if f.derivative is None else (lambda x: np.real(f.d1(x))),
        derivative2=None if f.derivative2 is None else (lambda x: np.real(f.d2(x))),
        name=f"Re[{f.name}]",
    )


def imag_part(f: ScalarFunction) -> ScalarFunction:
    return ScalarFunction(
        value=lambda x: np.imag(f(x)),
        derivative=None if f.derivative is None else (lambda x: np.imag(f.d1(x))),
        derivative2=None if f.derivative2 is None else (lambda x: np.imag(f.d2(x))),
        name=f"Im[{f.name}]",
    )
