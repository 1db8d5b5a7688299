"""Double-operator-integral kernels for resolvent-power denominators.

For a pair of Hermitian matrices and a scalar function ``f``, the difference
``f(H) - f(H0)`` equals a double operator integral: in the two eigenbases it
acts as a Hadamard (entrywise) multiplier by the kernel

    K(x, y) = (f(x) - f(y)) / (g(x) - g(y)),

applied to ``T = g(H) - g(H0)``.  Here ``g`` is the resolvent power
``g(x) = (x - z)^{-m}``, whose divided-difference denominator factors through
the telescoping cofactor

    p(x, y; z) = sum_{j=0}^{m-1} (x - z)^(m-1-j) (y - z)^j,

with ``(x-z)^m - (y-z)^m = (x - y) p(x, y; z)``.  The module provides the
cofactor algebra; closed-form lower bounds on ``|p|`` over a square and its
exterior, from the factorization of ``p`` over the m-th roots of unity; the
kernel in direct and factored form; the exact finite-dimensional identity
check; and boundedness reports for the transformer hypotheses (sup norm,
weighted derivative, equal limits at both infinities).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .functions import ScalarFunction, resolvent_function, smoothstep_cutoff
from .spectral import (
    ABS_FLOOR,
    SpectralDecomposition,
    _check_resolvent_args,
    apply_function,
    schatten_norm,
    singular_values,
)
from .ssf import PowerChangeOfVariable

__all__ = [
    "AntidiagonalCollisionError",
    "BoundedRegion",
    "CofactorPolynomial",
    "CutoffSplitReport",
    "DegenerateKernelError",
    "DoiKernel",
    "ExteriorRegion",
    "KernelHypothesesReport",
    "LowerBoundCertificate",
    "cofactor_lower_bound_cert",
    "doi_apply",
    "doi_identity_residual",
    "kernel_dlambda",
    "kernel_eval",
    "kernel_hypotheses_report",
    "resolvent_cutoff_split",
    "resolvent_kernel",
]


class DegenerateKernelError(ValueError):
    """Kernel denominator vanishes away from the diagonal coincidence band."""


class AntidiagonalCollisionError(DegenerateKernelError):
    """Two distinct eigenvalues collide through the denominator function."""


# ---------------------------------------------------------------------------
# telescoping cofactor algebra


def _check_odd_resolvent_args(z, m) -> tuple:
    """:func:`~ssflab.spectral._check_resolvent_args` plus the odd-power rule.

    Shared by the cofactor, :func:`resolvent_kernel` and factored-mode kernels.
    """
    if isinstance(m, (int, np.integer)) and m % 2 == 0:
        raise ValueError(f"power m must be an odd integer >= 1, got {m!r}")
    return _check_resolvent_args(z, m)


def _p_eval(m: int, z: complex, lam, mu) -> np.ndarray:
    a = np.asarray(lam, dtype=complex) - z
    b = np.asarray(mu, dtype=complex) - z
    acc = np.ones(np.broadcast(a, b).shape, dtype=complex)
    for k in range(1, m):
        acc = acc * b + a**k
    return acc


def _p_dlam(m: int, z: complex, lam, mu) -> np.ndarray:
    a = np.asarray(lam, dtype=complex) - z
    b = np.asarray(mu, dtype=complex) - z
    acc = np.zeros(np.broadcast(a, b).shape, dtype=complex)
    for j in range(m - 2, -1, -1):
        acc = acc * b + (m - 1 - j) * a ** (m - 2 - j)
    return acc


@dataclass(frozen=True)
class CofactorPolynomial:
    """The telescoping cofactor ``p(x, y; z)`` of ``(x-z)^m - (y-z)^m``.

    On the diagonal it collapses to ``m (x - z)^(m-1)``; off the diagonal it
    carries the full divided-difference denominator of the resolvent power.
    """

    m: int
    z: complex

    def __post_init__(self):
        z, m = _check_odd_resolvent_args(self.z, self.m)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "z", z)

    def __call__(self, lam, mu):
        return _p_eval(self.m, self.z, lam, mu)


# ---------------------------------------------------------------------------
# closed-form lower-bound certificates
#
# Over the m-th roots of unity w_k = exp(2 pi i k / m) the cofactor factors as
#
#     p(x, y; z) = prod_{k=1}^{m-1} ((x - z) - w_k (y - z))
#                = prod_{k=1}^{m-1} (u_k - c_k),  u_k = x - w_k y,  c_k = z (1 - w_k),
#
# so a lower bound on each |u_k - c_k| over the region multiplies into one on
# |p|.  For odd m no w_k is real, so every u_k sweeps a true parallelogram.


@dataclass(frozen=True)
class BoundedRegion:
    """The square ``[-r, r]^2``."""

    r: float


@dataclass(frozen=True)
class ExteriorRegion:
    """The unbounded exterior ``max(|x|, |y|) >= r``."""

    r: float


@dataclass(frozen=True)
class LowerBoundCertificate:
    m: int
    z: complex
    region: Union[BoundedRegion, ExteriorRegion]
    lower_bound: float
    passed: bool


def _segment_distance(c: complex, start: complex, step: complex) -> float:
    """Distance from ``c`` to the segment ``start + t step``, ``0 <= t <= 1``."""
    t = ((c - start) * step.conjugate()).real / abs(step) ** 2
    return abs(c - start - min(max(t, 0.0), 1.0) * step)


def _parallelogram_distance(c: complex, w: complex, r: float) -> float:
    """Distance from ``c`` to ``{x + w y : |x|, |y| <= r}`` for non-real ``w``."""
    # coordinates of c in the basis (1, w)
    y = c.imag / w.imag
    x = c.real - y * w.real
    if abs(x) <= r and abs(y) <= r:
        return 0.0
    edges = (
        (complex(-r) - w * r, 2 * w * r),  # x = -r
        (complex(r) - w * r, 2 * w * r),  # x = +r
        (complex(-r) - w * r, complex(2 * r)),  # y = -r
        (complex(-r) + w * r, complex(2 * r)),  # y = +r
    )
    return min(_segment_distance(c, start, step) for start, step in edges)


def _factor_bounds(
    p: CofactorPolynomial, region: Union[BoundedRegion, ExteriorRegion]
) -> list:
    """Lower bounds on ``|u_k - c_k|`` (bounded) or ``|u_k - c_k| / s`` (exterior), k = 1..m-1.

    Bounded: ``u_k`` fills the parallelogram ``[-r, r] + w_k [-r, r]``, so the
    factor is at least the distance from ``c_k`` to it.  Exterior, with
    ``s = |x| + |y| >= r``: ``|x - w_k y|^2 >= s^2 (1 - |cos theta_k|) / 2``,
    so ``|u_k - c_k| / s >= kappa_k - |c_k| / r`` with
    ``kappa_k = sqrt((1 - |cos theta_k|) / 2)``.
    """
    if not isinstance(region, (BoundedRegion, ExteriorRegion)):
        raise TypeError(f"unknown region {region!r}")
    r = float(region.r)
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"region requires a finite r > 0, got r={region.r!r}")
    bounds = []
    for k in range(1, p.m):
        theta = 2.0 * math.pi * k / p.m
        w = cmath.exp(1j * theta)
        c = p.z * (1.0 - w)
        if isinstance(region, BoundedRegion):
            bounds.append(_parallelogram_distance(c, w, r))
        else:
            kappa = math.sqrt(0.5 * (1.0 - abs(math.cos(theta))))
            bounds.append(max(kappa - abs(c) / r, 0.0))
    return bounds


def cofactor_lower_bound_cert(
    p: CofactorPolynomial, region: Union[BoundedRegion, ExteriorRegion]
) -> LowerBoundCertificate:
    """Closed-form lower bound on the cofactor over a region.

    Bounded mode bounds ``min |p|`` over the square; exterior mode bounds
    ``inf |p| / (|x| + |y|)^(m-1)`` over the whole unbounded exterior.  The
    bound is the product of the per-factor bounds of :func:`_factor_bounds`,
    valid at every point of the region; it passes when positive.
    """
    lower = math.prod(_factor_bounds(p, region))
    return LowerBoundCertificate(
        m=p.m, z=p.z, region=region, lower_bound=lower, passed=lower > 0.0
    )


# ---------------------------------------------------------------------------
# kernels


_BAND_DELTA0 = 1e-5


def _coincidence_band(lam, mu) -> np.ndarray:
    """Mask of ``|x - y| <= _BAND_DELTA0 * (1 + |x|)``, where kernels use derivative limits."""
    return np.abs(lam - mu) <= _BAND_DELTA0 * (1.0 + np.abs(lam))


# the factored-mode probe of g: a real point where resolvent powers with
# different m or z differ, short of an m-th root of unity coincidence
_G_PROBE = 0.5
_G_PROBE_RTOL = 1e-12


@dataclass(frozen=True)
class DoiKernel:
    """Divided-difference kernel ``(f(x) - f(y)) / (g(x) - g(y))``.

    ``mode="direct"`` evaluates the ratio; ``mode="factored"`` uses the
    algebraic factorization through the telescoping cofactor, which requires
    ``g`` to be the resolvent power ``(x - z)^{-m}`` (fields ``m``, ``z``).
    Factored mode checks ``m`` and ``z`` as :func:`resolvent_kernel` does and
    rejects a ``g`` that differs from ``(x - z)^{-m}`` at ``x = 0.5``.
    Inside the diagonal coincidence band ``|x - y| <= 1e-5 (1 + |x|)`` the
    derivative limit ``f'(x)/g'(x)`` is used.
    """

    f: ScalarFunction
    g: ScalarFunction
    mode: str = "direct"
    m: Optional[int] = None
    z: Optional[complex] = None

    def __post_init__(self):
        if self.mode not in ("direct", "factored"):
            raise ValueError(f"unknown kernel mode {self.mode!r}")
        if self.mode == "factored" and (self.m is None or self.z is None):
            raise ValueError("factored mode requires resolvent parameters m and z")
        if self.g.derivative is None or self.f.derivative is None:
            raise ValueError("kernel functions need attached first derivatives")
        if self.mode == "factored":
            z, m = _check_odd_resolvent_args(self.z, self.m)
            object.__setattr__(self, "m", m)
            object.__setattr__(self, "z", z)
            want = (_G_PROBE - z) ** (-m)
            got = complex(self.g(_G_PROBE))
            if not abs(got - want) <= _G_PROBE_RTOL * abs(want):
                raise ValueError(
                    f"factored mode needs g(x) = (x - z)^(-m) with m={m}, z={z}: "
                    f"g({_G_PROBE}) = {got}, expected {want}"
                )


def resolvent_kernel(f: ScalarFunction, m: int, z: complex, mode: str = "direct") -> DoiKernel:
    """Kernel with denominator function ``g(x) = (x - z)^{-m}``."""
    z, m = _check_odd_resolvent_args(z, m)
    return DoiKernel(f=f, g=resolvent_function(z, m), mode=mode, m=m, z=z)


_DENOM_ABS_TOL = 1e-13


def _kernel_grid(k: DoiKernel, lam, mu, dlambda: bool = False):
    """``(K, dK/dx)`` on broadcastable real arguments (``dK/dx`` only with ``dlambda``).

    Every one-variable quantity is evaluated on ``lam`` and ``mu`` as passed,
    before broadcasting, so an outer-product grid costs O(N) function calls;
    only differences, the cofactor and quotients fill the grid.  Band entries
    are then overwritten with the midpoint derivative limits.
    """
    scalar = np.isscalar(lam) and np.isscalar(mu)
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    band = np.asarray(_coincidence_band(lam, mu))
    reg = ~band
    lam_b, mu_b = np.broadcast_arrays(lam, mu)
    fl = np.asarray(k.f(lam), dtype=complex)
    fm = np.asarray(k.f(mu), dtype=complex)
    num = fl - fm
    fp = np.asarray(k.f.d1(lam), dtype=complex) if dlambda else None
    dk = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if k.mode == "direct":
            den = np.asarray(k.g(lam), dtype=complex) - np.asarray(k.g(mu), dtype=complex)
            bad = reg & (np.abs(den) < _DENOM_ABS_TOL)
            if np.any(bad):
                j = int(np.argmin(np.abs(den[bad])))
                raise DegenerateKernelError(
                    f"denominator {np.abs(den[bad]).min():.3e} below {_DENOM_ABS_TOL:g} at "
                    f"(x, y) = ({lam_b[bad][j]}, {mu_b[bad][j]}) outside the band"
                )
            kv = num / den
            if dlambda:
                gp = np.asarray(k.g.d1(lam), dtype=complex)
                dk = fp / den - num * gp / (den * den)
        else:
            m, z = k.m, k.z
            a = lam - z
            b = mu - z
            pv = _p_eval(m, z, lam, mu)
            pscale = (np.abs(a) + np.abs(b)) ** (m - 1)
            if np.any(reg & (np.abs(pv) < _DENOM_ABS_TOL * np.maximum(pscale, 1.0))):
                raise DegenerateKernelError("telescoping cofactor vanished off-diagonal")
            phi = num / (lam - mu)
            big_g = a**m * b**m / pv
            kv = -phi * big_g
            if dlambda:
                # derivative of the first divided difference in its first slot
                dphi = (fm - fl - fp * (mu - lam)) / (lam - mu) ** 2
                dbig_g = big_g * (m / a - _p_dlam(m, z, lam, mu) / pv)
                dk = -(dphi * big_g + phi * dbig_g)
    # 0-d inputs give numpy scalars; the band entries below need arrays
    kv = np.asarray(kv)
    dk = None if dk is None else np.asarray(dk)
    if np.any(band):
        mid = 0.5 * (lam_b[band] + mu_b[band])
        fp_mid = np.asarray(k.f.d1(mid), dtype=complex)
        gp_mid = np.asarray(k.g.d1(mid), dtype=complex)
        kv[band] = fp_mid / gp_mid
        if dlambda:
            if k.f.derivative2 is None or k.g.derivative2 is None:
                raise ValueError("diagonal kernel derivative needs second derivatives")
            fpp = np.asarray(k.f.d2(mid), dtype=complex)
            gpp = np.asarray(k.g.d2(mid), dtype=complex)
            dk[band] = 0.5 * (fpp * gp_mid - fp_mid * gpp) / (gp_mid * gp_mid)
    if scalar:
        return complex(kv), (None if dk is None else complex(dk))
    return kv, dk


def kernel_eval(k: DoiKernel, lam, mu):
    """Evaluate the kernel on broadcastable real arguments."""
    return _kernel_grid(k, lam, mu)[0]


def kernel_dlambda(k: DoiKernel, lam, mu):
    """Partial derivative of the kernel in its first argument."""
    return _kernel_grid(k, lam, mu, dlambda=True)[1]


# ---------------------------------------------------------------------------
# the exact finite-dimensional identity


def doi_apply(
    d0: SpectralDecomposition, d: SpectralDecomposition, k: DoiKernel, t
) -> np.ndarray:
    """Apply the kernel as a Hadamard multiplier in the two eigenbases.

    Rows live in the eigenbasis of ``d`` (second operator), columns in the
    eigenbasis of ``d0``.
    """
    t = np.asarray(t, dtype=complex)
    if t.shape != (d.dim, d0.dim):
        raise ValueError(f"operand shape {t.shape} does not match ({d.dim}, {d0.dim})")
    kmat = kernel_eval(k, d0.eigenvalues[None, :], d.eigenvalues[:, None])
    u0 = d0.eigenvectors
    u = d.eigenvectors
    mixed = u.conj().T @ t @ u0
    return u @ (kmat * mixed) @ u0.conj().T


# |g(x) - g(y)| below this times the largest |g| on the spectra is a collision
_COLLISION_RTOL = 1e-6


def doi_identity_residual(
    d0: SpectralDecomposition,
    d: SpectralDecomposition,
    f: ScalarFunction,
    m: int,
    z: complex,
) -> float:
    """Max-entry residual of ``f(H) - f(H0) = K o (g(H) - g(H0))``.

    ``g`` is the resolvent power ``(x - z)^{-m}``.  Distinct eigenvalues
    whose ``g``-values collide (the antidiagonal zero set of the telescoping
    cofactor) make the kernel ill-posed; such configurations raise
    :class:`AntidiagonalCollisionError` instead of degrading silently.
    """
    if d0.dim != d.dim:
        raise ValueError("dimension mismatch")
    k = resolvent_kernel(f, m, z)
    gl = np.asarray(k.g(d0.eigenvalues), dtype=complex)
    gm = np.asarray(k.g(d.eigenvalues), dtype=complex)
    diff = np.abs(gm[:, None] - gl[None, :])
    band = _coincidence_band(d0.eigenvalues[None, :], d.eigenvalues[:, None])
    gscale = max(float(np.abs(gl).max()), float(np.abs(gm).max()), ABS_FLOOR)
    colliding = (~band) & (diff < _COLLISION_RTOL * gscale)
    if np.any(colliding):
        j, i = np.argwhere(colliding)[0]
        raise AntidiagonalCollisionError(
            f"eigenvalues {d0.eigenvalues[i]:.6g} and {d.eigenvalues[j]:.6g} collide "
            f"through g (|dg| = {diff[j, i]:.3e} < {_COLLISION_RTOL:g} * {gscale:.3e})"
        )
    t = apply_function(d, k.g) - apply_function(d0, k.g)
    lhs = apply_function(d, k.f) - apply_function(d0, k.f)
    approx = doi_apply(d0, d, k, t)
    return float(np.abs(lhs - approx).max())


# ---------------------------------------------------------------------------
# transformer-hypotheses report


@dataclass(frozen=True)
class KernelHypothesesReport:
    sup_abs: float
    sup_weighted_dlambda: float
    sup_abs_rise: float
    sup_weighted_dlambda_rise: float
    limit_mismatch: float
    dlambda_tail_exponent: float


def kernel_hypotheses_report(k: DoiKernel, lam_grid, mu_grid) -> KernelHypothesesReport:
    """Sampled boundedness checks behind the Hadamard-transformer estimates.

    Reports ``sup |K|``, ``sup (1 + x^2) |dK/dx|``, the relative rise of each
    sup from the inner square ``|x|, |y| <= edge / 10`` to the whole grid, the
    mismatch between the two infinite limits sampled at the grid edge, and the
    fitted tail decay exponent of ``sup_y |dK/dx|``.  The whole grid contains
    the inner square, so a rise is never negative, and any positive rise means
    the outer decade raised the sup: the grid has not shown it bounded.
    """
    lam = np.asarray(lam_grid, dtype=float)
    mu = np.asarray(mu_grid, dtype=float)
    if lam.ndim != 1 or mu.ndim != 1:
        raise ValueError("grids must be 1-d")
    edge = float(min(-lam.min(), lam.max()))
    lam_inner = np.abs(lam) <= edge / 10.0
    mu_inner = np.abs(mu) <= edge / 10.0
    if not (lam_inner.any() and mu_inner.any()):
        raise ValueError(f"grids need nodes within edge / 10 = {edge / 10.0:g} of 0")
    kv, dk = _kernel_grid(k, lam[:, None], mu[None, :], dlambda=True)
    abs_k, abs_dk = np.abs(kv), np.abs(dk)
    weighted = (1.0 + lam[:, None] ** 2) * abs_dk

    inner = lam_inner[:, None] & mu_inner[None, :]

    def rise(values):
        whole = float(values.max())
        part = float(values.max(where=inner, initial=0.0))
        return (whole - part) / max(part, ABS_FLOOR)

    top = kernel_eval(k, np.full_like(mu, edge), mu)
    bot = kernel_eval(k, np.full_like(mu, -edge), mu)
    limit_mismatch = float(np.abs(top - bot).max())

    # tail decay of sup_y |dK/dx| against |x|, fitted on the outer decade
    sup_rows = abs_dk.max(axis=1)
    tail = np.abs(lam) >= edge / 10.0
    x = np.abs(lam[tail])
    y = sup_rows[tail]
    good = y > 0
    if good.sum() > 1:
        exponent = -float(np.polyfit(np.log(x[good]), np.log(y[good]), 1)[0])
    else:
        exponent = float("inf")

    return KernelHypothesesReport(
        sup_abs=float(abs_k.max()),
        sup_weighted_dlambda=float(weighted.max()),
        sup_abs_rise=rise(abs_k),
        sup_weighted_dlambda_rise=rise(weighted),
        limit_mismatch=limit_mismatch,
        dlambda_tail_exponent=exponent,
    )


# ---------------------------------------------------------------------------
# cutoff decomposition of the transformed resolvent


@dataclass(frozen=True)
class CutoffSplitReport:
    residual: float
    scale: float
    relative_residual: float
    trace_norm_total: float
    trace_norm_inner: float
    trace_norm_outer: float


def resolvent_cutoff_split(
    d0: SpectralDecomposition, d: SpectralDecomposition, m: int, r: float
) -> CutoffSplitReport:
    """Split ``(phi(H)-i)^{-1} - (phi(H0)-i)^{-1}`` by a smooth cutoff.

    With ``theta`` vanishing on ``[-r, r]`` and equal to 1 outside
    ``[-2r, 2r]``, and ``phi = PowerChangeOfVariable(m, r)`` the monotone map
    equal to ``x^m`` beyond ``r``, the transformed resolvent difference decomposes
    exactly into an inner part driven by ``(1-theta)/(phi - i)`` and an outer
    part driven by ``theta/(x^m - i)``.  Reports the max-entry residual of the decomposition
    and the trace norms of all three differences.
    """
    phi = PowerChangeOfVariable(m, r)
    theta = smoothstep_cutoff(r)

    def whole(x):
        return 1.0 / (np.asarray(phi(x), dtype=complex) - 1j)

    def inner(x):
        return (1.0 - np.asarray(theta(x), dtype=complex)) / (
            np.asarray(phi(x), dtype=complex) - 1j
        )

    def outer(x):
        return np.asarray(theta(x), dtype=complex) / (
            np.asarray(x, dtype=complex) ** m - 1j
        )

    lhs = apply_function(d, whole) - apply_function(d0, whole)
    t_inner = apply_function(d, inner) - apply_function(d0, inner)
    t_outer = apply_function(d, outer) - apply_function(d0, outer)
    residual = float(np.abs(lhs - (t_inner + t_outer)).max())
    scale = max(float(np.abs(lhs).max()), ABS_FLOOR)
    return CutoffSplitReport(
        residual=residual,
        scale=scale,
        relative_residual=residual / scale,
        trace_norm_total=schatten_norm(singular_values(lhs), 1),
        trace_norm_inner=schatten_norm(singular_values(t_inner), 1),
        trace_norm_outer=schatten_norm(singular_values(t_outer), 1),
    )
