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
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .functions import ScalarFunction, resolvent_function, smoothstep_cutoff
from .spectral import (
    ABS_FLOOR,
    SpectralDecomposition,
    _check_int,
    _check_positive,
    _check_resolvent_args,
    apply_function,
    schatten_norm,
    singular_values,
)

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
    "kernel_eval",
    "kernel_hypotheses_report",
    "resolvent_cutoff_split",
]


class DegenerateKernelError(ValueError):
    """Kernel denominator vanishes away from the diagonal coincidence band."""


class AntidiagonalCollisionError(DegenerateKernelError):
    """Two distinct eigenvalues collide through the denominator function."""


# ---------------------------------------------------------------------------
# telescoping cofactor algebra


def _p_eval(m: int, z: complex, lam, mu) -> np.ndarray:
    a = np.asarray(lam, dtype=complex) - z
    b = np.asarray(mu, dtype=complex) - z
    # Horner in b: ((a + b) b + a^2) b + ... + a^(m-1)
    acc = a + b if m > 1 else np.ones(np.broadcast_shapes(a.shape, b.shape), complex)
    for k in range(2, m):
        acc *= b
        acc += a**k
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
        z, m = _check_resolvent_args(self.z, self.m, "m", odd=True)
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
    r = _check_positive(region.r, "r")
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
    return LowerBoundCertificate(lower_bound=lower, passed=lower > 0.0)


# ---------------------------------------------------------------------------
# kernels


_BAND_DELTA0 = 1e-5


def _coincidence_band(lam, mu, gap=None) -> np.ndarray:
    """Mask of ``|x - y| <= _BAND_DELTA0 * (1 + |x|)``; ``gap`` may pass ``y - x``."""
    return np.abs(mu - lam if gap is None else gap) <= _BAND_DELTA0 * (1.0 + np.abs(lam))


@dataclass(frozen=True)
class DoiKernel:
    """Divided-difference kernel ``(f(x) - f(y)) / (g(x) - g(y))``.

    ``g`` is the resolvent power ``(x - z)^{-m}``, built from the odd power
    ``m`` and the non-real point ``z``.  ``mode="direct"`` evaluates the
    ratio; ``mode="factored"`` uses the algebraic factorization through the
    telescoping cofactor.  Inside the diagonal coincidence band
    ``|x - y| <= 1e-5 (1 + |x|)`` the derivative limit ``f'(x)/g'(x)`` is
    used.
    """

    f: ScalarFunction
    m: int
    z: complex
    mode: str = "direct"
    g: ScalarFunction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("direct", "factored"):
            raise ValueError(f"unknown kernel mode {self.mode!r}")
        z, m = _check_resolvent_args(self.z, self.m, "m", odd=True)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "g", resolvent_function(z, m))


# off the band, |g(x) - g(y)| or |p| below this times its scale is a collision
_DENOM_RTOL = 1e-13


class _AxisValues(NamedTuple):
    """One-variable kernel inputs on an axis (``None`` where a mode does not use them)."""

    f: np.ndarray
    fp: Optional[np.ndarray]
    g: Optional[np.ndarray]
    gp: Optional[np.ndarray]

    def take(self, index) -> "_AxisValues":
        return _AxisValues(*(None if v is None else v[index] for v in self))


def _axis_values(k: DoiKernel, x, dlambda: bool) -> _AxisValues:
    """``f(x)``, and ``f'(x)`` with ``dlambda``; in direct mode also ``g`` and ``g'``."""
    fx = np.asarray(k.f(x), dtype=complex)
    fp = np.asarray(k.f.d1(x), dtype=complex) if dlambda else None
    gx = gp = None
    if k.mode == "direct":
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gx = np.asarray(k.g(x), dtype=complex)
            gp = np.asarray(k.g.d1(x), dtype=complex) if dlambda else None
    return _AxisValues(fx, fp, gx, gp)


def _band_limits(k: DoiKernel, x, dlambda: bool) -> tuple:
    """The diagonal limits ``K(x, x) = f'/g'`` and, with ``dlambda``,
    ``dK/dx(x, x) = (f'' g' - f' g'') / (2 g'^2)`` (else ``None``)."""
    fp = np.asarray(k.f.d1(x), dtype=complex)
    gp = np.asarray(k.g.d1(x), dtype=complex)
    if not dlambda:
        return fp / gp, None
    fpp = np.asarray(k.f.d2(x), dtype=complex)
    gpp = np.asarray(k.g.d2(x), dtype=complex)
    return fp / gp, 0.5 * (fpp * gp - fp * gpp) / (gp * gp)


def _kernel_grid(
    k: DoiKernel,
    lam,
    mu,
    dlambda: bool = False,
    at_lam: Optional[_AxisValues] = None,
    at_mu: Optional[_AxisValues] = None,
    out: tuple = (None, None),
):
    """``(K, dK/dx)`` on broadcastable real arrays (``dK/dx`` only with ``dlambda``).

    Both come from one reciprocal ``R = 1 / (g(x) - g(y))`` per entry, as
    ``K = (f(x) - f(y)) R`` and ``dK/dx = (f'(x) - K g'(x)) R``.  The factored
    mode takes ``R = a^m b^m / ((y - x) p(x, y; z))``, ``a = x - z``, ``b = y - z``.
    One-variable values are taken on ``lam`` and ``mu`` before broadcasting, so
    a grid costs O(N) function calls, or passed in ``at_lam`` and ``at_mu``
    (``at_lam`` with ``f'`` when ``dlambda``).  ``out`` may pass the arrays for
    ``K`` and ``dK/dx``.  Band entries get the derivative limits at their
    midpoint.
    """
    lam, mu = np.asarray(lam, dtype=float), np.asarray(mu, dtype=float)
    shape = np.broadcast_shapes(lam.shape, mu.shape)
    lam, mu = np.atleast_1d(lam, mu)  # in-place arithmetic below needs arrays
    at_lam = _axis_values(k, lam, dlambda) if at_lam is None else at_lam
    at_mu = _axis_values(k, mu, False) if at_mu is None else at_mu
    gap = mu - lam
    band = _coincidence_band(lam, mu, gap)
    dk = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if k.mode == "direct":
            what, r = "denominator g(x) - g(y)", at_lam.g - at_mu.g
            scale = np.maximum(np.abs(at_lam.g), np.abs(at_mu.g))
        else:
            m, z = k.m, k.z
            a = lam - z
            what, r = "telescoping cofactor", _p_eval(m, z, lam, mu)
            scale = (np.abs(a) + np.abs(mu - z)) ** (m - 1)
            np.maximum(scale, 1.0, out=scale)
        size = np.abs(r)
        scale *= _DENOM_RTOL
        # strict, so that 0 against 0 (g underflowed) or inf against inf is one too
        bad = ~((size > scale) | band)
        if np.any(bad):
            rel = _DENOM_RTOL * size[bad] / scale[bad]
            j = int(np.argmin(rel))
            lam_b, mu_b = np.broadcast_arrays(lam, mu)
            raise DegenerateKernelError(
                f"{what} is {rel[j]:.3e} of its scale, not above {_DENOM_RTOL:g}, at "
                f"(x, y) = ({lam_b[bad][j]}, {mu_b[bad][j]}) outside the band"
            )
        if k.mode == "direct":
            np.reciprocal(r, out=r)
            gp = at_lam.gp
        else:
            # a^m - b^m = (x - y) p, so g(x) - g(y) = (y - x) p / (a^m b^m)
            r *= gap
            np.divide(a**m, r, out=r)
            r *= (mu - z) ** m
            gp = -m / a ** (m + 1)
        kv = np.subtract(at_lam.f, at_mu.f, out=out[0])
        kv *= r
        if dlambda:
            dk = np.multiply(kv, gp, out=out[1])
            np.subtract(at_lam.fp, dk, out=dk)
            dk *= r
    # the band is thin: index its entries rather than mask the grid
    band = np.unravel_index(np.flatnonzero(band), band.shape)
    if band[0].size:
        lam_b, mu_b = np.broadcast_arrays(lam, mu)
        k_band, dk_band = _band_limits(k, 0.5 * (lam_b[band] + mu_b[band]), dlambda)
        kv[band] = k_band
        if dlambda:
            dk[band] = dk_band
    return kv.reshape(shape), (None if dk is None else dk.reshape(shape))


def kernel_eval(k: DoiKernel, lam, mu):
    """Evaluate the kernel on broadcastable real arrays; a scalar pair gives a 0-d array."""
    return _kernel_grid(k, lam, mu)[0]


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
    k = DoiKernel(f, m, z)
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


# complex temporaries of one row block of the hypotheses grid stay near this
# size (about 45 rows at N = 721), so a report never holds a whole N x N grid
_BLOCK_BYTES = 1 << 19


def kernel_hypotheses_report(k: DoiKernel, axis) -> KernelHypothesesReport:
    """Sampled boundedness checks behind the Hadamard-transformer estimates.

    The kernel is sampled on the square grid ``axis x axis``.  Reports
    ``sup |K|``, ``sup (1 + x^2) |dK/dx|``, the relative rise of each sup from
    the inner square ``|x|, |y| <= edge / 10`` to the whole grid, the mismatch
    between the two infinite limits sampled at the grid edge, and the fitted
    tail decay exponent of ``sup_y |dK/dx|``.  The whole grid contains the
    inner square, so a rise is never negative, and any positive rise means
    the outer decade raised the sup: the grid has not shown it bounded.

    The grid is streamed by rows: the one-variable values are taken once on
    the axis, and each block of rows is reduced to its row sups, over all
    columns and over the inner columns, before the next block is built.
    """
    lam = np.asarray(axis, dtype=float)
    if lam.ndim != 1:
        raise ValueError("the axis must be 1-d")
    edge = float(min(-lam.min(), lam.max()))
    lam_inner = np.abs(lam) <= edge / 10.0
    if not lam_inner.any():
        raise ValueError(f"the axis needs nodes within edge / 10 = {edge / 10.0:g} of 0")

    at = _axis_values(k, lam, dlambda=True)
    at_cols = at.take(np.s_[None, :])
    # row sups of |K| and |dK/dx|, over all columns and over the inner ones
    sup_k, sup_k_inner, sup_dk, sup_dk_inner = np.empty((4, lam.size))
    step = max(1, _BLOCK_BYTES // (16 * lam.size))
    # K, dK/dx and their moduli reuse one set of buffers from block to block
    work, modulus = np.empty((2, step, lam.size), dtype=complex), np.empty((step, lam.size))
    for start in range(0, lam.size, step):
        rows = np.s_[start : start + step]
        kv, dk = _kernel_grid(
            k,
            lam[rows, None],
            lam[None, :],
            dlambda=True,
            at_lam=at.take(np.s_[rows, None]),
            at_mu=at_cols,
            out=tuple(work[:, : lam[rows].size]),
        )
        for v, sup, sup_inner in ((kv, sup_k, sup_k_inner), (dk, sup_dk, sup_dk_inner)):
            mod = np.abs(v, out=modulus[: v.shape[0]])
            sup[rows] = mod.max(axis=1)
            sup_inner[rows] = mod.max(axis=1, where=lam_inner, initial=0.0)
    # rounding is monotone, so a row's sup of (1 + x^2) |dK/dx| is its weight
    # times its sup of |dK/dx|, bit for bit
    weight = 1.0 + lam**2
    sup_w, sup_w_inner = weight * sup_dk, weight * sup_dk_inner

    def rise(whole_rows, inner_rows):
        whole = float(whole_rows.max())
        part = float(inner_rows.max(where=lam_inner, initial=0.0))
        return (whole - part) / max(part, ABS_FLOOR)

    top = kernel_eval(k, np.full_like(lam, edge), lam)
    bot = kernel_eval(k, np.full_like(lam, -edge), lam)
    limit_mismatch = float(np.abs(top - bot).max())

    # tail decay of sup_y |dK/dx| against |x|, fitted on the outer decade
    good = (np.abs(lam) >= edge / 10.0) & (sup_dk > 0)
    if good.sum() > 1:
        exponent = -float(np.polyfit(np.log(np.abs(lam[good])), np.log(sup_dk[good]), 1)[0])
    else:
        exponent = float("inf")

    return KernelHypothesesReport(
        sup_abs=float(sup_k.max()),
        sup_weighted_dlambda=float(sup_w.max()),
        sup_abs_rise=rise(sup_k, sup_k_inner),
        sup_weighted_dlambda_rise=rise(sup_w, sup_w_inner),
        limit_mismatch=limit_mismatch,
        dlambda_tail_exponent=exponent,
    )


# ---------------------------------------------------------------------------
# cutoff decomposition of the transformed resolvent


def _bump_power(x, m: int, r: float) -> np.ndarray:
    """Odd, strictly increasing C^2 map equal to ``x^m`` for ``|x| >= r``.

    With ``k = (m - 1) / 2`` and ``c = (m - 1) / 7^k``,

        phi(x) = x^m + c r^(m-1) x (1 - x^2/r^2)^3    for |x| < r.

    The correction is odd with a triple zero at ``+-r``, so value, slope and
    curvature match ``x^m`` there.  With ``u = x^2/r^2`` the slope is
    ``r^(m-1) [m u^k + c (1-u)^2 (1-7u)]``.  For ``u <= 1/7`` both terms are
    ``>= 0`` and the slope at 0 is ``c r^(m-1) > 0``; for ``1/7 < u < 1`` put
    ``v = 7u``: ``c (1-u)^2 (7u-1) < 2k 7^-k (v-1) < (2k+1) 7^-k v^k = m u^k``.
    ``m = 1`` gives ``c = 0``, the identity.
    """
    x = np.asarray(x, dtype=float)
    u = (x / r) ** 2
    amplitude = (m - 1) / 7.0 ** ((m - 1) // 2) * r ** (m - 1)
    return x**m + np.where(u < 1.0, amplitude * x * (1.0 - u) ** 3, 0.0)


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
    ``[-2r, 2r]``, and ``phi`` the map :func:`_bump_power` equal to ``x^m``
    beyond ``r``, the transformed resolvent difference decomposes exactly into
    an inner part driven by ``(1-theta)/(phi - i)`` and an outer part driven
    by ``theta/(x^m - i)``.  Reports the max-entry residual of the
    decomposition and the trace norms of all three differences.
    """
    m = _check_int(m, "m", low=1, odd=True)
    theta = smoothstep_cutoff(r)

    def whole(x):
        return 1.0 / (np.asarray(_bump_power(x, m, r), dtype=complex) - 1j)

    def inner(x):
        return (1.0 - np.asarray(theta(x), dtype=complex)) / (
            np.asarray(_bump_power(x, m, r), dtype=complex) - 1j
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
