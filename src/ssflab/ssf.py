"""Spectral shift functions for finite Hermitian pairs.

The spectral shift of a pair ``(H0, H)`` is the integer step function

    xi(x) = #{eigenvalues of H0 <= x} - #{eigenvalues of H <= x},

right-continuous, vanishing outside the convex hull of the two spectra.  It
feeds the exact trace identity

    Tr(f(H) - f(H0)) = integral of xi(x) f'(x) dx,

whose right-hand side is evaluated exactly interval-by-interval.  The module
also provides the invariance-principle construction through a monotone
change of variable equal to ``x^m`` outside a compact window, the
perturbation-determinant route ``xi = Im log det(I + V (H0-z)^{-1}) / pi``
with its branch read from tridiagonal pivots, and continuous phase tracking
for a determinant known only by value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import lapack

from .spectral import (
    ABS_FLOOR,
    HERMITICITY_RTOL,
    SpectralDecomposition,
    det_id_plus,
    eig_hermitian,
    hermiticity_defect,
    resolvent_power,
)

__all__ = [
    "BranchTrackingError",
    "PowerChangeOfVariable",
    "StepFunction",
    "default_eps_schedule",
    "perturbation_determinant",
    "ssf_counting",
    "ssf_via_determinant",
    "ssf_via_invariance",
    "steps_equal",
    "trace_formula_sides",
    "track_determinant_phase",
]


class BranchTrackingError(RuntimeError):
    """Raised when continuous phase tracking cannot refine below the step floor."""


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
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not np.all(vals == np.round(vals)):
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

    def jumps(self) -> np.ndarray:
        return np.diff(self.values)

    @property
    def is_zero(self) -> bool:
        return self.breakpoints.size == 0

    @classmethod
    def zero(cls) -> "StepFunction":
        return cls(np.empty(0), np.zeros(1, dtype=int))


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


def _steps_from_jumps(
    points: np.ndarray, weights: np.ndarray, radius: float = 0.0
) -> StepFunction:
    """Step function with the given jumps; sorted points whose gap is at most
    ``radius`` merge into one cluster placed at its smallest point, and a
    cluster whose net jump is zero leaves no breakpoint."""
    order = np.argsort(points, kind="stable")
    pts = points[order]
    wts = weights[order]
    start = np.flatnonzero(np.diff(pts, prepend=-np.inf) > radius)
    jump = np.add.reduceat(wts, start) if pts.size else np.empty(0)
    keep = jump != 0
    uniq, jump = pts[start][keep], jump[keep]
    vals = np.concatenate([[0], np.cumsum(jump)])
    if vals.size and vals[-1] != 0:
        raise ValueError("jump weights must sum to zero")
    return StepFunction(uniq, vals)


def _counting_jumps(spec0: np.ndarray, spec: np.ndarray, radius: float) -> StepFunction:
    """``#{spec0 <= x} - #{spec <= x}`` with clusters inside ``radius`` merged."""
    if spec0.size != spec.size:
        raise ValueError(f"dimension mismatch: {spec0.size} vs {spec.size}")
    points = np.concatenate([spec0, spec])
    weights = np.concatenate([np.ones(spec0.size, dtype=int), -np.ones(spec.size, dtype=int)])
    return _steps_from_jumps(points, weights, radius)


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


def steps_equal(a: StepFunction, b: StepFunction, bp_tol: float = 0.0) -> bool:
    """Same integer values, breakpoints pairwise within ``bp_tol``."""
    if a.values.size != b.values.size or np.any(a.values != b.values):
        return False
    if a.breakpoints.size == 0:
        return True
    return bool(np.max(np.abs(a.breakpoints - b.breakpoints)) <= bp_tol)


# ---------------------------------------------------------------------------
# trace formula


def trace_formula_sides(d0: SpectralDecomposition, d: SpectralDecomposition, f) -> tuple:
    """Return ``(Tr(f(H) - f(H0)), integral of xi f')`` evaluated exactly.

    The integral side is a finite sum: on each interval between consecutive
    breakpoints the step value multiplies the increment of ``f``.
    """
    xi = ssf_counting(d0, d)
    lhs = complex(np.sum(np.asarray(f(d.eigenvalues))) - np.sum(np.asarray(f(d0.eigenvalues))))
    if xi.is_zero:
        return lhs, 0.0 + 0.0j
    fb = np.asarray(f(xi.breakpoints))
    inner = xi.values[1:-1]
    rhs = complex(np.sum(inner * np.diff(fb)))
    return lhs, rhs


# ---------------------------------------------------------------------------
# monotone change of variable


# a cap only: even pure bisection reaches float resolution well within it
_NEWTON_MAX_STEPS = 100
# Newton stops once its step is this small
_INVERSE_TOL = 1e-12


@dataclass(frozen=True)
class PowerChangeOfVariable:
    """Odd, strictly increasing C^2 map equal to ``x^m`` for ``|x| >= cutoff``.

    With ``r = cutoff``, ``k = (m - 1) / 2`` and ``c = (m - 1) / 7^k``,

        phi(x) = x^m + c r^(m-1) x (1 - x^2/r^2)^3    for |x| < r.

    The correction is odd with a triple zero at ``+-r``, so value, slope and
    curvature match ``x^m`` there.  With ``u = x^2/r^2`` the slope is
    ``r^(m-1) [m u^k + c (1-u)^2 (1-7u)]``.  For ``u <= 1/7`` both terms are
    ``>= 0`` and the slope at 0 is ``c r^(m-1) > 0``; for ``1/7 < u < 1`` put
    ``v = 7u``: ``c (1-u)^2 (7u-1) < 2k 7^-k (v-1) < (2k+1) 7^-k v^k = m u^k``.
    ``m = 1`` gives ``c = 0``, the identity.
    """

    m: int
    cutoff: float

    def __post_init__(self):
        m, r = self.m, self.cutoff
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1 or m % 2 == 0:
            raise ValueError(f"power m must be an odd integer >= 1, got {m!r}")
        if not (math.isfinite(r) and r > 0):
            raise ValueError(f"cutoff must be finite and positive, got {r!r}")
        object.__setattr__(self, "m", int(m))
        object.__setattr__(self, "cutoff", float(r))

    @property
    def _amplitude(self) -> float:
        # c r^(m-1): the correction's slope at the origin
        return (self.m - 1) / 7.0 ** ((self.m - 1) // 2) * self.cutoff ** (self.m - 1)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        u = (x / self.cutoff) ** 2
        bump = np.where(u < 1.0, self._amplitude * x * (1.0 - u) ** 3, 0.0)
        out = x**self.m + bump
        return out if out.ndim else float(out)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        u = (x / self.cutoff) ** 2
        bump = np.where(u < 1.0, self._amplitude * (1.0 - u) ** 2 * (1.0 - 7.0 * u), 0.0)
        out = self.m * x ** (self.m - 1) + bump
        return out if out.ndim else float(out)

    def inverse(self, y) -> float:
        """Scalar inverse: analytic outside the window, safeguarded Newton inside.

        The slope is positive everywhere, so every Newton step is defined; a
        step that leaves the shrinking bracket (initially ``[-cutoff, cutoff]``)
        is replaced by bisection.
        """
        y = float(y)
        m, r, a = self.m, self.cutoff, self._amplitude
        edge = r**m
        if abs(y) >= edge:
            return math.copysign(abs(y) ** (1.0 / m), y)
        # python floats: numpy's per-call cost dominates on scalars.  Oddness
        # and monotonicity bracket the root in [-cutoff, cutoff]
        lo, hi = -r, r
        x = r * y / edge
        for _ in range(_NEWTON_MAX_STEPS):
            u = (x / r) ** 2
            resid = x**m + a * x * (1.0 - u) ** 3 - y
            if resid == 0.0:
                return x
            if resid < 0.0:
                lo = x
            else:
                hi = x
            step = resid / (m * x ** (m - 1) + a * (1.0 - u) ** 2 * (1.0 - 7.0 * u))
            if abs(step) <= _INVERSE_TOL:
                return x - step
            x -= step
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
        return x


def ssf_via_invariance(
    d0: SpectralDecomposition, d: SpectralDecomposition, phi: PowerChangeOfVariable
) -> StepFunction:
    """Spectral shift computed for the transformed pair and pulled back.

    The spectra are mapped through the monotone ``phi`` (the spectral theorem
    makes these exactly the eigenvalues of ``phi(H0)`` and ``phi(H)``), the
    counting construction runs in the transformed variable, and breakpoints
    are pulled back through the inverse map.

    Clusters merge within the transformed radius: the eigenvalue radius of
    :func:`ssf_counting` carried through ``phi`` (times the largest
    ``phi'`` on the spectra, by the mean value theorem) plus the same
    backward-error rule applied to the mapped spectra as those of
    ``phi(H0)`` and ``phi(H)``.
    """
    lam0, lam = d0.eigenvalues, d.eigenvalues
    mapped0 = np.asarray(phi(lam0), dtype=float)
    mapped = np.asarray(phi(lam), dtype=float)
    if np.any(np.diff(mapped0) < 0) or np.any(np.diff(mapped) < 0):
        raise ValueError("change of variable failed to preserve spectral order")
    slope = float(np.max(phi.derivative(np.concatenate([lam0, lam]))))
    radius = _cluster_radius(lam0, lam) * slope + _cluster_radius(mapped0, mapped)
    transformed = _counting_jumps(mapped0, mapped, radius)
    pulled = np.array([phi.inverse(b) for b in transformed.breakpoints])
    return StepFunction(pulled, transformed.values)


# ---------------------------------------------------------------------------
# perturbation determinant route


def _validate_perturbation(d0: SpectralDecomposition, v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if v.shape != (d0.dim, d0.dim):
        raise ValueError(f"perturbation shape {v.shape} does not match dim {d0.dim}")
    if hermiticity_defect(v) > HERMITICITY_RTOL and np.abs(v).max() > ABS_FLOOR:
        raise ValueError("perturbation must be Hermitian")
    return v


def perturbation_determinant(d0: SpectralDecomposition, v, z: complex) -> complex:
    """``det(I + V (H0 - z)^{-1})`` for non-real ``z``.

    The dense definition, one O(n^3) evaluation per call.
    :func:`ssf_via_determinant` evaluates the same function of ``z`` through
    a tridiagonal reduction instead, and the tests hold it to this one.
    """
    v = _validate_perturbation(d0, v)
    r0 = resolvent_power(d0, z, 1)
    return det_id_plus(v @ r0)


def _determinant_on_vertical_line(d0: SpectralDecomposition, h: np.ndarray, lam: float):
    """``height -> log det(I + V (H0 - z)^{-1})`` at ``z = lam + i * height``.

    ``h`` is ``H = H0 + V``.  One unitary reduction (LAPACK ``zhetrd``, the
    lower triangle, as ``eigh`` reads it) gives a real symmetric tridiagonal
    ``T`` with ``det(H - z) = det(T - z)``, so each height costs O(n):

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
    _, diag, off, _, _ = lapack.zhetrd(h, lower=1)
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


def track_determinant_phase(
    det_fn,
    h_start: float,
    h_targets: Sequence[float],
    min_step: float = 1e-8,
    max_increment: float = math.pi / 2.0,
    max_ratio: float = 1.1,
) -> list:
    """Continuously tracked ``Im log det`` along a descending vertical path.

    The scattering route's tracker, for a determinant known only by value.
    ``det_fn(h)`` evaluates the determinant at height ``h`` above the real
    axis.  The path starts at ``h_start`` (where the determinant is close to
    1 and the principal branch applies) and descends through each target
    height.  Consecutive sample heights never differ by more than the factor
    ``max_ratio``; the winding speed of a spectral determinant is bounded by
    (number of spectral factors) / height, so a ratio cap rules out a silent
    full-turn slip between samples, which a principal-value increment test
    alone cannot see.  On top of that, steps are refined until every phase
    increment is below ``max_increment``; hitting the ``min_step`` floor
    raises :class:`BranchTrackingError`.  Returns the tracked phase at each
    target.
    """
    targets = list(h_targets)
    if any(t <= 0 for t in targets):
        raise ValueError("target heights must be positive")
    if any(t > h_start for t in targets):
        raise ValueError("targets must lie below the starting height")
    if not max_ratio > 1.0:
        raise ValueError("max_ratio must exceed 1")
    order = sorted(targets, reverse=True)

    cur_h = float(h_start)
    cur_val = complex(det_fn(cur_h))
    if abs(cur_val) == 0.0:
        raise BranchTrackingError(f"determinant vanished at starting height {cur_h}")
    phase = cmath.phase(cur_val)
    recorded = {}
    for target in order:
        target = float(target)
        n_pre = max(1, math.ceil(math.log(cur_h / target) / math.log(max_ratio)))
        pending = [
            cur_h * (target / cur_h) ** (k / n_pre) for k in range(n_pre, 0, -1)
        ]
        while pending:
            nxt = pending[-1]
            val = complex(det_fn(nxt))
            if abs(val) == 0.0:
                raise BranchTrackingError(f"determinant vanished at height {nxt}")
            inc = cmath.phase(val / cur_val)
            if abs(inc) < max_increment:
                phase += inc
                cur_h, cur_val = nxt, val
                pending.pop()
                continue
            mid = math.sqrt(cur_h * nxt)
            if cur_h - mid < min_step:
                raise BranchTrackingError(
                    f"phase step refinement hit the floor {min_step:g} near height {cur_h}"
                )
            pending.append(mid)
        recorded[target] = phase
    return [recorded[t] for t in targets]


_EPS_DEPTH = 8


def default_eps_schedule(d0: SpectralDecomposition, d: SpectralDecomposition, lam: float) -> list:
    """Spectral-gap-aware schedule ``gap / 2^k`` for ``k = 1..8``."""
    gap = float(
        min(
            np.min(np.abs(d0.eigenvalues - lam)),
            np.min(np.abs(d.eigenvalues - lam)),
        )
    )
    if gap <= 0:
        raise ValueError(f"lambda={lam} lies on the spectrum")
    return [gap / 2.0**k for k in range(1, _EPS_DEPTH + 1)]


def _check_finite_lambda(lam) -> float:
    """The spectral point ``lam`` of a shift-function route as a float; a NaN
    or infinite point has no shift value and is rejected by name."""
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got lam={lam}")
    return lam


def _check_eps_schedule(eps_schedule: Sequence[float]) -> list:
    """The schedule of either phase route as a list of floats: at least two
    points (Richardson needs two), finite, positive and strictly decreasing."""
    eps = [float(e) for e in eps_schedule]
    if len(eps) < 2:
        raise ValueError(f"eps schedule needs at least two points: {eps}")
    for prev, e in zip([math.inf] + eps, eps):
        if not (math.isfinite(e) and 0 < e < prev):
            raise ValueError(f"eps schedule must be finite, positive, strictly decreasing: {eps}")
    return eps


def _richardson_two_point(eps: Sequence[float], vals: Sequence[float]) -> float:
    ea, eb = float(eps[-2]), float(eps[-1])
    xa, xb = float(vals[-2]), float(vals[-1])
    return (ea * xb - eb * xa) / (ea - eb)


def ssf_via_determinant(
    d0: SpectralDecomposition,
    v,
    lam: float,
    eps_schedule: Optional[Sequence[float]] = None,
    jump_margin: float = 1e-6,
) -> float:
    """Spectral shift at ``lam`` through the boundary phase of the determinant.

    The continuous phase of ``det(I + V (H0 - z)^{-1})`` is a sum of pivot
    arguments, read at ``z = lam + i * eps`` for the epsilon-schedule heights
    only, and Richardson-extrapolated (two-point, linear order) to the real
    axis.  A non-finite ``lam``, or one within ``jump_margin`` of either
    spectrum (a jump point), is rejected.  ``V`` is validated and ``H0 + V`` reduced to tridiagonal
    form once; each height then costs O(n).
    """
    lam = _check_finite_lambda(lam)
    v = _validate_perturbation(d0, v)
    h = d0.reconstruct() + v
    d = eig_hermitian(h)
    near = min(
        float(np.min(np.abs(d0.eigenvalues - lam))),
        float(np.min(np.abs(d.eigenvalues - lam))),
    )
    if near < jump_margin:
        raise ValueError(
            f"lambda={lam} is within {jump_margin:g} of an eigenvalue (jump point)"
        )
    if eps_schedule is None:
        eps_schedule = default_eps_schedule(d0, d, lam)
    eps = _check_eps_schedule(eps_schedule)

    log_det = _determinant_on_vertical_line(d0, h, lam)
    xi_vals = [log_det(e).imag / math.pi for e in eps]
    return _richardson_two_point(eps, xi_vals)
