"""Spectral shift functions for finite Hermitian pairs.

The spectral shift of a pair ``(H0, H)`` is the integer step function

    xi(x) = #{eigenvalues of H0 <= x} - #{eigenvalues of H <= x},

right-continuous, vanishing outside the convex hull of the two spectra.  It
feeds the exact trace identity

    Tr(f(H) - f(H0)) = integral of xi(x) f'(x) dx,

whose right-hand side is evaluated exactly interval-by-interval.  The module
also provides the invariance-principle route through the resolvent power
``(H - a)^{-m}``, ``a`` below both spectra, which reads no eigenvalue; the
perturbation-determinant route ``xi = Im log det(I + V (H0-z)^{-1}) / pi``
with its branch read from tridiagonal pivots, and the Richardson table that
both phase routes (this one and ``scattering.ssf_scattering``) take to the
real axis.

scipy supplies only the LAPACK routines ``zhetrd``, ``dsterf`` and
``ztrtri``.  They are loaded from scipy's ``_flapack`` extension file, so
``import ssflab`` does not import the ``scipy.linalg`` package, which takes
far longer and more memory than the extension itself.
"""

from __future__ import annotations

import cmath
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy

from .spectral import (
    SpectralDecomposition,
    _check_finite,
    _check_hermitian,
    _check_int,
    _check_positive,
    _check_real,
    resolvent_power,
)

__all__ = [
    "StepFunction",
    "compare_at_resolved_points",
    "perturbation_determinant",
    "ssf_counting",
    "ssf_via_determinant",
    "ssf_via_invariance",
    "trace_formula_sides",
]


def _load_flapack():
    """scipy's LAPACK extension module, loaded from its file.

    A module already imported under ``scipy.linalg._flapack`` is reused;
    otherwise the one loaded here is registered under that name, so a later
    ``import scipy.linalg`` exports these very routines.  No package
    ``__init__`` of ``scipy.linalg`` runs.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    folder = os.path.join(scipy.__path__[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
            return module
    raise ImportError(f"scipy's LAPACK extension _flapack is not in {folder}", name=name)


_flapack = _load_flapack()


# ---------------------------------------------------------------------------
# step functions


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous integer step function of compact support.

    ``values`` has one more entry than ``breakpoints``; entry ``i`` is the
    value on ``[breakpoints[i-1], breakpoints[i])``.  The leading and
    trailing values are zero.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.array(self.breakpoints, dtype=float)
        vals = np.array(self.values)
        if bp.ndim != 1 or vals.ndim != 1:
            raise ValueError("breakpoints and values must be 1-d")
        if not np.isfinite(bp).all():
            raise ValueError("breakpoints must be finite")
        if (bp[1:] <= bp[:-1]).any():
            raise ValueError("breakpoints must be strictly increasing")
        if not (vals == np.round(vals)).all():
            raise ValueError("step values must be integers")
        vals = vals.astype(int)
        if vals.size != bp.size + 1:
            raise ValueError("need exactly len(breakpoints) + 1 values")
        if vals[0] != 0 or vals[-1] != 0:
            raise ValueError("leftmost and rightmost values must be zero")
        bp.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    def __call__(self, x):
        """Value at ``x`` (scalar or array); ``+-inf`` give 0, a NaN is rejected."""
        pts = np.asarray(x, dtype=float)
        if np.isnan(pts).any():
            raise ValueError(f"step function point must not be NaN, got x={x!r}")
        idx = np.searchsorted(self.breakpoints, pts, side="right")
        out = self.values[idx]
        if pts.ndim == 0:
            return int(out)
        return out


def _cluster_radius(spec0: np.ndarray, spec: np.ndarray) -> float:
    """Largest gap between two computed copies of one exact eigenvalue.

    A backward-stable Hermitian eigensolver returns the exact eigenvalues of
    ``H + E`` with ``||E|| <= p(n) eps ||H||``, so by Weyl's inequality each
    computed eigenvalue lies within ``r = p(n) * eps * max|lambda|`` of an
    exact one.  ``p(n)`` is the Householder bound: the reduction to
    tridiagonal form applies ``n - 2`` reflectors of length at most ``n``
    from each side, and a sequence of ``j`` reflectors is backward stable
    with ``||E|| <= j * gamma_cn * ||H||``, ``gamma_cn ~ c n u`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., SIAM 2002,
    ch. 19).  With ``c = 1`` and ``eps = 2u`` the two-sided sum is below
    ``n^2 eps ||H||``, so ``p(n) = n^2``; the tridiagonal eigensolver adds
    only ``O(n u)``.  An eigenvalue shared by the two operators (a
    perturbation acting on an invariant subspace) therefore comes back as two
    values at most ``r(H0) + r(H)`` apart, and points closer than that cannot
    be told apart.
    """
    eps = float(np.finfo(float).eps)
    tops = [float(np.abs(sp).max(initial=0.0)) for sp in (spec0, spec)]
    return spec0.size**2 * eps * sum(tops)


def _counting_jumps(spec0: np.ndarray, spec: np.ndarray, radius: float) -> StepFunction:
    """``#{spec0 <= x} - #{spec <= x}`` with clusters inside ``radius`` merged.

    Sorted points whose gap is at most ``radius`` form one cluster; a cluster
    whose net jump is zero leaves no breakpoint, and a kept one is placed at
    its smallest point.
    """
    if spec0.size != spec.size:
        raise ValueError(f"dimension mismatch: {spec0.size} vs {spec.size}")
    points = np.concatenate([spec0, spec])
    weights = np.concatenate([np.ones(spec0.size, dtype=int), -np.ones(spec.size, dtype=int)])
    order = np.argsort(points)
    points = points[order]
    # slicing, not np.diff with prepend, which costs twice as much at this size
    gaps = np.full(points.size, np.inf)
    gaps[1:] = points[1:] - points[:-1]
    start = np.flatnonzero(gaps > radius)
    jump = np.add.reduceat(weights[order], start) if points.size else np.empty(0)
    keep = jump != 0
    vals = np.concatenate([[0], np.cumsum(jump[keep])])
    if vals[-1] != 0:
        raise ValueError("jump weights must sum to zero")
    return StepFunction(points[start][keep], vals)


def ssf_counting(d0: SpectralDecomposition, d: SpectralDecomposition) -> StepFunction:
    """Spectral shift by direct eigenvalue counting.

    Both decompositions must have the same dimension.  Sorted eigenvalues of
    either spectrum whose gap is within the backward-error radius
    ``dim^2 * eps * (max|lambda0| + max|lambda|)`` form one cluster, placed at
    its smallest point; clusters whose counts cancel (shared eigenvalues of
    equal multiplicity, also when they differ by rounding) produce no
    breakpoint.
    """
    lam0, lam = d0.eigenvalues, d.eigenvalues
    return _counting_jumps(lam0, lam, _cluster_radius(lam0, lam))


# ---------------------------------------------------------------------------
# trace formula


def trace_formula_sides(
    xi: StepFunction, d0: SpectralDecomposition, d: SpectralDecomposition, f
) -> tuple:
    """Return ``(Tr(f(H) - f(H0)), integral of xi f')`` evaluated exactly.

    ``xi`` is the pair's spectral shift, as :func:`ssf_counting` builds it.
    The integral side is a finite sum: on each interval between consecutive
    breakpoints the step value multiplies the increment of ``f``; with no
    breakpoint (a zero ``xi``) the sum is empty and gives ``0j``.
    """
    lhs = complex(np.sum(np.asarray(f(d.eigenvalues))) - np.sum(np.asarray(f(d0.eigenvalues))))
    fb = np.asarray(f(xi.breakpoints))
    inner = xi.values[1:-1]
    rhs = complex(np.sum(inner * np.diff(fb)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# invariance principle


def _gershgorin_shift(h0: np.ndarray, h: np.ndarray) -> float:
    """``a = -max(||H0||_inf, ||H||_inf) - 1``, below both spectra by Gershgorin."""
    return -max(float(np.abs(mat).sum(axis=1).max()) for mat in (h0, h)) - 1.0


def _pulled_back_spectra(h: np.ndarray, a: float, powers: Sequence[int]):
    """Eigenvalues of ``h`` from ``(h - a)^{-m}``, ascending, with their radii, per ``m``.

    ``A = h - a = L L*`` by Cholesky, ``R = L^{-*} L^{-1}`` (formed once for
    all ``powers``), ``R^m`` by products, and its eigenvalues ``y`` pull back
    by ``lam = a + y^{-1/m}``.  To first order each ``lam`` lies within
    ``n^2 eps (||A|| + (m + 1) max(y) / phi'(lam))`` of an exact eigenvalue,
    ``phi(lam) = (lam - a)^{-m}`` (Higham 2002, constants ``c n u`` read as
    ``n u``, as in :func:`_cluster_radius`):

    - Cholesky (Thm 10.3) is backward stable to ``n^2 eps ||A||``, which moves
      each ``lam`` that far (Weyl); ``||A|| <= -2a`` by Gershgorin.
    - The triangular inverse ``X`` (LAPACK ``trtri``) has ``L X = I + G``,
      ``||G|| <= n^2 u sqrt(cond A)`` (ch. 14): ``X* X`` is a congruence by
      ``I + G``, a relative move of ``lam`` below the larger other term.
    - ``R``'s own product error enters ``R^m`` ``m`` times and the ``m - 1``
      powering products once each, ``n^2 u max(y)`` apiece; ``eigvalsh``
      adds ``n^2 eps max(y)``.  An error ``dy`` pulls back to ``dy / phi'``.
    """
    n = h.shape[0]
    eps = float(np.finfo(float).eps)
    # trtri fails only on a zero diagonal, which a Cholesky factor never has
    inv, _ = _flapack.ztrtri(np.linalg.cholesky(h - a * np.eye(n)), lower=1)
    resolvent = inv.conj().T @ inv
    for m in powers:
        y = np.linalg.eigvalsh(np.linalg.matrix_power(resolvent, m))
        y_err = (m + 1) * n * n * eps * y[-1]
        if y[0] <= y_err:
            raise ValueError(
                f"(H - a)^-{m} at a={a!r} is too ill-conditioned to pull back: its least "
                f"eigenvalue {y[0]:.3e} is within its error {y_err:.3e}; take a smaller m"
            )
        # phi is decreasing: the ascending y are the images of H's eigenvalues
        # from the top down, so the pull-back reverses their order
        shifted = y[::-1] ** (-1.0 / m)
        slope = m * shifted ** (-m - 1.0)
        yield a + shifted, n * n * eps * (-2.0 * a) + y_err / slope


def ssf_via_invariance(h0, h, powers: Sequence[int]) -> list:
    """Spectral shifts through the resolvent powers ``phi(H) = (H - a)^{-m}``, ``m`` in ``powers``.

    The invariance principle (Yafaev, *Mathematical Scattering Theory*, ch. 8)
    for the decreasing ``phi(lam) = (lam - a)^{-m}``, odd ``m >= 1``, with
    ``a = -max(||H0||_inf, ||H||_inf) - 1`` below both spectra by Gershgorin:
    no eigenvalue of ``H0`` or ``H`` is read.  Returns one ``(xi, radius)``
    per power, in order, where ``radius`` is the largest radius of a
    pulled-back eigenvalue and ``xi`` merges clusters within it.  Its term
    ``n^2 eps (-2a)`` alone exceeds counting's radius
    ``n^2 eps (max|lambda0| + max|lambda|)``.  The gates, ``a`` and each
    matrix's factorization are shared by the powers.
    """
    powers = [_check_int(m, f"powers[{i}]", low=1, odd=True) for i, m in enumerate(powers)]
    h0 = _check_hermitian(np.asarray(h0), "h0")
    h = _check_hermitian(np.asarray(h), "h")
    if h0.ndim != 2 or h0.shape != h.shape:
        raise ValueError(f"h0 and h must be matrices of one shape, got {h0.shape} and {h.shape}")
    a = _gershgorin_shift(h0, h)
    out = []
    pulled = zip(_pulled_back_spectra(h0, a, powers), _pulled_back_spectra(h, a, powers))
    for (lam0, radius0), (lam, radius) in pulled:
        radius = float(max(radius0.max(), radius.max()))
        out.append((_counting_jumps(lam0, lam, radius), radius))
    return out


def compare_at_resolved_points(a: StepFunction, b: StepFunction, radius: float) -> tuple:
    """``(mismatches, compared)`` of two spectral shifts at the points both resolve.

    The points are the midpoints of the gaps wider than ``4 * radius`` between
    the sorted breakpoints of both, ``radius`` the larger of the two routes'
    radii: farther than ``radius`` from every eigenvalue either route sees.
    ``radius`` must be a finite number ``>= 0``.
    """
    radius = _check_real(radius, "radius", "a finite number >= 0", lambda r: 0 <= r < math.inf)
    bps = np.union1d(a.breakpoints, b.breakpoints)
    mids = (0.5 * (bps[:-1] + bps[1:]))[bps[1:] - bps[:-1] > 4.0 * radius]
    return int(np.count_nonzero(a(mids) != b(mids))), int(mids.size)


# ---------------------------------------------------------------------------
# perturbation determinant route


def _validate_perturbation(d0: SpectralDecomposition, v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (d0.dim, d0.dim):
        raise ValueError(f"perturbation shape {v.shape} does not match dim {d0.dim}")
    return _check_hermitian(v, "perturbation")


def perturbation_determinant(d0: SpectralDecomposition, v, z: complex) -> complex:
    """``det(I + V (H0 - z)^{-1})`` for non-real ``z``.

    The dense definition, one O(n^3) evaluation per call.
    :func:`ssf_via_determinant` evaluates the same function of ``z`` through
    a tridiagonal reduction instead, and the tests hold it to this one.
    """
    v = _validate_perturbation(d0, v)
    m = v @ resolvent_power(d0, z, 1)
    m[np.diag_indices_from(m)] += 1.0
    sign, logabs = np.linalg.slogdet(m)
    return complex(sign * np.exp(logabs))


def _determinant_on_vertical_line(
    d0: SpectralDecomposition, diag: np.ndarray, off: np.ndarray, lam: float
):
    """``height -> log det(I + V (H0 - z)^{-1})`` at ``z = lam + i * height``.

    ``diag`` and ``off`` are the diagonal and off-diagonal of the real
    symmetric tridiagonal ``T`` that one unitary reduction of ``H = H0 + V``
    gives (LAPACK ``zhetrd``).  ``det(H - z) = det(T - z)``, so each height
    costs O(n):

        det(I + V (H0 - z)^{-1}) = det(T - z) / prod_i (lambda0_i - z)
                                 = exp(sum_k log(p_k / (lambda0_k - z))),

    with the pivots ``p_1 = d_1 - z``, ``p_k = (d_k - z) - e_{k-1}^2 / p_{k-1}``.
    For ``Im z > 0`` every pivot has ``Im p_k <= -Im z``, so the recurrence
    needs no pivoting and never divides by zero.  As ``lambda0_k - z`` lies in
    the lower half plane too, each term's imaginary part is exactly
    ``arg p_k - arg(lambda0_k - z)``, and the sum's is the continuous branch
    of ``arg det`` that vanishes at ``+i * inf``: no phase tracking is needed.
    The eigenvalues of ``H`` are never used, which keeps this route
    independent of eigenvalue counting.
    """
    shifted = (diag - lam).tolist()
    off_sq = [0.0] + (off * off).tolist()
    shifted0 = (d0.eigenvalues - lam).tolist()

    def log_det(height: float) -> complex:
        ih = 1j * height
        pivot = 1.0
        acc = 0j
        for a, b2, a0 in zip(shifted, off_sq, shifted0):
            pivot = (a - ih) - b2 / pivot
            acc += cmath.log(pivot / (a0 - ih))
        return acc

    return log_det


def _boundary_value(phases: Sequence, powers: Sequence):
    """The height-0 limit of the phases ``T(h), T(h/2), T(h/4), ...``: the
    ratio-1/2 Richardson table, whose column for ``p`` replaces neighbours by
    ``(2^p T(h/2) - T(h)) / (2^p - 1)`` and so removes the ``h^p`` term.
    ``phases`` has one entry more than ``powers``; in plain arithmetic, an
    entry of either may be a float or an array over points."""
    column = list(phases)
    for p in powers:
        column = [(2.0**p * b - a) / (2.0**p - 1.0) for a, b in zip(column, column[1:])]
    return column[0]


def ssf_via_determinant(
    d0: SpectralDecomposition,
    v,
    lam,
    jump_margin: float = 1e-6,
):
    """Spectral shift at ``lam``, a point or a 1-d array of them, through the
    boundary phase of the determinant; a float for a point, else an array.

    The continuous phase of ``det(I + V (H0 - z)^{-1})`` is a sum of pivot
    arguments, read at ``z = lam + i * eps`` for the three heights
    ``eps = near / 2^7``, ``near / 2^8`` and ``near / 2^9``, where ``near`` is
    the distance from ``lam`` to either spectrum.  Off both spectra the phase
    is odd in ``eps`` plus a constant, so the Richardson table removes its
    ``eps`` and ``eps^3`` terms.  Each height's phase is a sum of its own, so
    no other height is needed.  A non-finite point, or one within
    ``jump_margin`` of either spectrum (a jump point), is rejected by name,
    and so is a ``jump_margin`` that is not finite and positive.  ``V`` is
    validated and ``H0 + V`` reduced to its tridiagonal ``T`` once per call;
    each height then costs O(n), and each point keeps the value a call with
    it alone gives.  The eigenvalues of ``H0 + V``, which only guard jump
    points and give ``near``, are those of ``T`` from LAPACK ``dsterf``:
    O(n^2) with no eigenvectors.  No eigenvalue enters the phase.
    """
    single = np.ndim(lam) == 0
    names = ["lam"] if single else [f"lam[{i}]" for i in range(len(lam))]
    points = [_check_finite(x, name) for x, name in zip([lam] if single else lam, names)]
    jump_margin = _check_positive(jump_margin, "jump_margin")
    v = _validate_perturbation(d0, v)
    _, diag, off, _, _ = _flapack.zhetrd(d0.reconstruct() + v, lower=1)
    # at n = 1 the wrapper still wants one off-diagonal entry
    spec, info = _flapack.dsterf(diag, off if off.size else np.zeros(1))
    if info != 0:
        raise np.linalg.LinAlgError(f"dsterf did not converge ({info} off-diagonals left)")
    values = []
    for name, point in zip(names, points):
        near = min(
            float(np.min(np.abs(d0.eigenvalues - point))),
            float(np.min(np.abs(spec - point))),
        )
        if near < jump_margin:
            raise ValueError(
                f"{name}={point} is within {jump_margin:g} of an eigenvalue (jump point)"
            )
        log_det = _determinant_on_vertical_line(d0, diag, off, point)
        phases = [log_det(near / 2.0**k).imag / math.pi for k in (7, 8, 9)]
        values.append(_boundary_value(phases, (1, 3)))
    return values[0] if single else np.array(values)
