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
with continuous branch tracking, and a sampled admissibility check for
functions with symbol-like tails.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import lapack

from .functions import ScalarFunction
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
    "AdmissibilityReport",
    "AdmissibleFunction",
    "BranchTrackingError",
    "PowerChangeOfVariable",
    "StepFunction",
    "build_power_map",
    "check_admissible",
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
        idx = np.searchsorted(self.breakpoints, np.asarray(x, dtype=float), side="right")
        out = self.values[idx]
        if np.isscalar(x) or np.asarray(x).ndim == 0:
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
    computed eigenvalue lies within ``r = dim * eps * max|lambda|`` of an
    exact one (taking ``p(n) = n``).  An eigenvalue shared by the two
    operators (a perturbation acting on an invariant subspace) therefore
    comes back as two values at most ``r(H0) + r(H)`` apart, and points
    closer than that cannot be told apart.
    """
    eps = float(np.finfo(float).eps)
    tops = [float(np.abs(sp).max(initial=0.0)) for sp in (spec0, spec)]
    return spec0.size * eps * sum(tops)


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
    ``dim * eps * (max|lambda0| + max|lambda|)`` form one cluster, placed at
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


def _odd_poly_eval(coeffs: np.ndarray, x):
    # coeffs[j] multiplies x^(2j+1)
    x = np.asarray(x, dtype=float)
    u = x * x
    acc = np.zeros_like(x)
    for c in coeffs[::-1]:
        acc = acc * u + c
    return acc * x


def _odd_poly_d1(coeffs: np.ndarray, x):
    x = np.asarray(x, dtype=float)
    u = x * x
    acc = np.zeros_like(x)
    degs = 2 * np.arange(coeffs.size) + 1
    for c, k in zip(coeffs[::-1], degs[::-1]):
        acc = acc * u + c * k
    return acc


def _odd_poly_d2(coeffs: np.ndarray, x):
    x = np.asarray(x, dtype=float)
    u = x * x
    acc = np.zeros_like(x)
    degs = 2 * np.arange(coeffs.size) + 1
    for c, k in zip(coeffs[::-1], degs[::-1]):
        acc = acc * u + c * k * (k - 1)
    # each term k(k-1) x^(k-2) = k(k-1) x^(2j-1): factor one x back out;
    # the second derivative of an odd polynomial vanishes at the origin
    return np.where(x != 0.0, acc / np.where(x != 0.0, x, 1.0), 0.0)


# a cap only: even pure bisection reaches float resolution well within it
_NEWTON_MAX_STEPS = 100


@dataclass(frozen=True)
class PowerChangeOfVariable:
    """Odd monotone map equal to ``x^m`` for ``|x| >= cutoff``.

    Inside ``[-cutoff, cutoff]`` the map is an odd polynomial whose value and
    first two derivatives match ``x^m`` at the cutoff, with derivative
    bounded below by ``lower_slope > 0`` everywhere.
    """

    m: int
    cutoff: float
    inner_coeffs: np.ndarray  # coefficient j multiplies x^(2j+1)
    lower_slope: float

    def __post_init__(self):
        if self.m < 1 or self.m % 2 == 0:
            raise ValueError("power m must be an odd integer >= 1")
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.lower_slope <= 0:
            raise ValueError("monotone map requires a positive lower slope")
        coeffs = np.array(self.inner_coeffs, dtype=float)
        coeffs.flags.writeable = False
        object.__setattr__(self, "inner_coeffs", coeffs)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        outer = np.abs(x) >= self.cutoff
        out = np.where(outer, x ** self.m, _odd_poly_eval(self.inner_coeffs, x))
        return out if out.ndim else float(out)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        outer = np.abs(x) >= self.cutoff
        out = np.where(outer, self.m * x ** (self.m - 1), _odd_poly_d1(self.inner_coeffs, x))
        return out if out.ndim else float(out)

    def derivative2(self, x):
        x = np.asarray(x, dtype=float)
        outer = np.abs(x) >= self.cutoff
        if self.m == 1:
            outer_val = np.zeros_like(x)
        else:
            outer_val = self.m * (self.m - 1) * x ** (self.m - 2)
        out = np.where(outer, outer_val, _odd_poly_d2(self.inner_coeffs, x))
        return out if out.ndim else float(out)

    def inverse(self, y, tol: float = 1e-12) -> float:
        """Scalar inverse: analytic outside the window, safeguarded Newton inside.

        Inside the window the slope is at least ``lower_slope > 0``, so every
        Newton step is defined; a step that leaves the shrinking bracket
        (initially ``[-cutoff, cutoff]``) is replaced by bisection.
        """
        y = float(y)
        edge = self.cutoff ** self.m
        if abs(y) >= edge:
            return math.copysign(abs(y) ** (1.0 / self.m), y)
        # Horner on python floats (numpy's per-call cost dominates on scalars);
        # coefficient j multiplies x^(2j+1)
        terms = [(c, 2 * j + 1) for j, c in enumerate(self.inner_coeffs.tolist())][::-1]
        # oddness and monotonicity bracket the root in [-cutoff, cutoff]
        lo, hi = -self.cutoff, self.cutoff
        x = self.cutoff * y / edge
        for _ in range(_NEWTON_MAX_STEPS):
            u = x * x
            val = slope = 0.0
            for c, k in terms:
                val = val * u + c
                slope = slope * u + c * k
            resid = val * x - y
            if resid == 0.0:
                return x
            if resid < 0.0:
                lo = x
            else:
                hi = x
            step = resid / slope
            if abs(step) <= tol:
                return x - step
            x -= step
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
        return x

    def as_scalar_function(self) -> ScalarFunction:
        return ScalarFunction(
            value=self.__call__,
            derivative=self.derivative,
            derivative2=self.derivative2,
            name=f"powermap[m={self.m},R={self.cutoff}]",
        )


_PHI_GRID = 10001


def _grid_min_slope(coeffs: np.ndarray, cutoff: float) -> float:
    grid = np.linspace(-cutoff, cutoff, _PHI_GRID)
    return float(np.min(_odd_poly_d1(coeffs, grid)))


def build_power_map(m: int, cutoff: float) -> PowerChangeOfVariable:
    """Construct the odd monotone map used by the invariance principle.

    The inner interpolant is the odd quintic matching value and first two
    derivatives of ``x^m`` at the cutoff.  When its derivative is not
    strictly positive on a dense grid (this happens already at ``m = 3``,
    where the quintic system returns ``x^m`` itself), the degree is raised
    to 7 and the free coefficient is chosen, by ternary search on the
    concave grid-minimum, to maximize the worst-case slope.  Failure to find
    a monotone interpolant raises ``ValueError``.
    """
    if not isinstance(m, (int, np.integer)) or m < 1 or m % 2 == 0:
        raise ValueError(f"power m must be an odd integer >= 1, got {m!r}")
    r = float(cutoff)
    if r <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff!r}")

    # match value, slope and curvature of x^m at x = r
    system = np.array(
        [
            [r, r**3, r**5],
            [1.0, 3.0 * r**2, 5.0 * r**4],
            [0.0, 6.0 * r, 20.0 * r**3],
        ]
    )
    target = np.array([r**m, m * r ** (m - 1), m * (m - 1) * r ** (m - 2)])
    quintic = np.linalg.solve(system, target)

    c = _grid_min_slope(quintic, r)
    if c > 0.0:
        return PowerChangeOfVariable(int(m), r, quintic, c)

    # degree-7 fallback: add t * x (x^2 - r^2)^3 / r^6, which has a triple
    # zero at the cutoff so the matching conditions stay intact
    kernel = np.array([-1.0, 3.0 / r**2, -3.0 / r**4, 1.0 / r**6])
    base = np.concatenate([quintic, [0.0]])
    grid = np.linspace(-r, r, _PHI_GRID)
    slope_base = _odd_poly_d1(base, grid)
    slope_kernel = _odd_poly_d1(kernel, grid)

    def worst(t: float) -> float:
        return float(np.min(slope_base + t * slope_kernel))

    span = 10.0 * (float(np.max(np.abs(slope_base))) + 1.0) / max(
        float(np.max(np.abs(slope_kernel))), 1e-30
    )
    lo, hi = -span, span
    for _ in range(300):
        third = (hi - lo) / 3.0
        a, b = lo + third, hi - third
        if worst(a) < worst(b):
            lo = a
        else:
            hi = b
    t_best = 0.5 * (lo + hi)
    coeffs = base + t_best * kernel
    c = _grid_min_slope(coeffs, r)
    if c <= 0.0:
        raise ValueError(
            f"no monotone interpolant found for m={m}, cutoff={cutoff}: "
            f"best worst-case slope {c:.3e}"
        )
    return PowerChangeOfVariable(int(m), r, coeffs, c)


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
    """``height -> det(I + V (H0 - z)^{-1})`` at ``z = lam + i * height``.

    ``h`` is ``H = H0 + V``.  One unitary reduction (LAPACK ``zhetrd``, the
    lower triangle, as ``eigh`` reads it) gives a real symmetric tridiagonal
    ``T`` with ``det(H - z) = det(T - z)``, so each height costs O(n):

        det(I + V (H0 - z)^{-1}) = det(T - z) / prod_i (lambda0_i - z)
                                 = exp(sum_k log(p_k / (lambda0_k - z))),

    with the pivots ``p_1 = d_1 - z``, ``p_k = (d_k - z) - e_{k-1}^2 / p_{k-1}``.
    For ``Im z > 0`` every pivot has ``Im p_k <= -Im z``, so the recurrence
    needs no pivoting and never divides by zero.  The eigenvalues of ``H`` are
    never used, which keeps this route independent of eigenvalue counting.
    """
    _, diag, off, _, _ = lapack.zhetrd(h, lower=1)
    shifted = (diag - lam).tolist()
    off_sq = [0.0] + (off * off).tolist()
    shifted0 = (d0.eigenvalues - lam).tolist()

    def det_fn(height: float) -> complex:
        ih = 1j * height
        pivot = 1.0
        log_det = 0j
        for a, b2, a0 in zip(shifted, off_sq, shifted0):
            pivot = (a - ih) - b2 / pivot
            log_det += cmath.log(pivot / (a0 - ih))
        return cmath.exp(log_det)

    return det_fn


def track_determinant_phase(
    det_fn,
    h_start: float,
    h_targets: Sequence[float],
    min_step: float = 1e-8,
    max_increment: float = math.pi / 2.0,
    max_ratio: float = 1.1,
) -> list:
    """Continuously tracked ``Im log det`` along a descending vertical path.

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


def default_eps_schedule(
    d0: SpectralDecomposition, d: SpectralDecomposition, lam: float, depth: int = 8
) -> list:
    """Spectral-gap-aware schedule ``gap / 2^k`` for ``k = 1..depth``."""
    gap = float(
        min(
            np.min(np.abs(d0.eigenvalues - lam)),
            np.min(np.abs(d.eigenvalues - lam)),
        )
    )
    if gap <= 0:
        raise ValueError(f"lambda={lam} lies on the spectrum")
    return [gap / 2.0**k for k in range(1, depth + 1)]


def _check_eps_schedule(eps_schedule: Sequence[float]) -> list:
    """The schedule as a list of floats, checked finite, positive and strictly decreasing."""
    eps = [float(e) for e in eps_schedule]
    if not eps:
        raise ValueError("eps schedule needs at least one point")
    for prev, e in zip([math.inf] + eps, eps):
        if not (math.isfinite(e) and 0 < e < prev):
            raise ValueError(f"eps schedule must be finite, positive, strictly decreasing: {eps}")
    return eps


def _richardson_two_point(eps: Sequence[float], vals: Sequence[float]) -> float:
    if len(vals) == 1:
        return float(vals[0])
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

    The phase of ``det(I + V (H0 - z)^{-1})`` is tracked continuously from
    ``z = lam + i * 10 * (spectral radius)`` down the vertical line, sampled
    on the epsilon schedule, and Richardson-extrapolated (two-point, linear
    order) to the real axis.  ``lam`` within ``jump_margin`` of either
    spectrum is rejected as a jump point.  ``V`` is validated and ``H0 + V``
    reduced to tridiagonal form once; each tracked height then costs O(n).
    """
    v = _validate_perturbation(d0, v)
    h = d0.reconstruct() + v
    d = eig_hermitian(h)
    lam = float(lam)
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

    radius = max(d0.spectral_radius, d.spectral_radius, 1.0)
    h_start = 10.0 * radius + abs(lam)

    det_fn = _determinant_on_vertical_line(d0, h, lam)
    # winding speed is at most (d0.dim + d.dim) / h, so this ratio keeps the
    # true per-step increment under pi/4
    ratio = math.exp(math.pi / (4.0 * (d0.dim + d.dim)))
    phases = track_determinant_phase(det_fn, h_start, eps, max_ratio=ratio)
    xi_vals = [p / math.pi for p in phases]
    return _richardson_two_point(eps, xi_vals)


# ---------------------------------------------------------------------------
# admissible functions with symbol-like tails


@dataclass(frozen=True)
class AdmissibleFunction:
    """A C^2 function declared to decay like ``tail_constant * x^-tail_power``.

    ``tail_epsilon`` is the declared extra decay margin of the remainder
    ``f(x) - tail_constant * x^-tail_power`` and of its derivative.  The
    declaration is verified by :func:`check_admissible`.
    """

    base: ScalarFunction
    tail_power: int
    tail_constant: float
    tail_epsilon: float

    def __post_init__(self):
        if self.tail_power < 1:
            raise ValueError("tail power must be >= 1")
        if self.tail_epsilon <= 0:
            raise ValueError("tail epsilon must be positive")
        if self.base.derivative is None or self.base.derivative2 is None:
            raise ValueError("admissible functions need two attached derivatives")


@dataclass(frozen=True)
class AdmissibilityReport:
    fitted_constant: float
    slopes: dict
    sup_value: float
    sup_d1: float
    sup_d2: float
    passed: bool
    detail: str


_TAIL_RADII = (10.0, 30.0, 100.0, 300.0)
_SLOPE_SLACK = 0.25


def check_admissible(
    af: AdmissibleFunction, sample_radii: Sequence[float] = _TAIL_RADII
) -> AdmissibilityReport:
    """Sampled two-sided tail check of the declared symbol-like decay.

    For each tail sign and derivative order alpha in {0, 1} the remainder
    against ``tail_constant * x^-m`` is sampled at the given radii; a
    log-log slope steeper than ``-(m + eps + alpha)`` (within a small fitting
    slack) passes, as does a remainder at rounding level.  A single constant
    ``C = max remainder * |x|^(m + eps + alpha)`` is fitted across all
    samples.  Bounded-derivative sups are reported on ``[-100, 100]``.
    """
    radii = np.asarray(sample_radii, dtype=float)
    if radii.size < 2 or np.any(radii <= 1.0):
        raise ValueError("need at least two sample radii greater than 1")
    m = af.tail_power
    f0 = af.tail_constant
    eps = af.tail_epsilon

    slopes = {}
    fitted = 0.0
    passed = True
    notes = []
    floor = 1e-13 * (abs(f0) + 1.0)
    for sign in (+1.0, -1.0):
        x = sign * radii
        for alpha, rem_fn in (
            (0, lambda t: np.abs(np.asarray(af.base(t)) - f0 * t ** (-float(m)))),
            (1, lambda t: np.abs(np.asarray(af.base.d1(t)) + m * f0 * t ** (-float(m) - 1.0))),
        ):
            rem = rem_fn(x)
            need = -(m + eps + alpha)
            fitted = max(fitted, float(np.max(rem * radii ** (m + eps + alpha))))
            if np.all(rem < floor):
                slopes[(sign, alpha)] = float("-inf")
                continue
            if np.any(rem < floor):
                # mixed rounding-level samples: fit only the resolvable ones
                mask = rem >= floor
                slope = float(np.polyfit(np.log(radii[mask]), np.log(rem[mask]), 1)[0]) if mask.sum() > 1 else need
            else:
                slope = float(np.polyfit(np.log(radii), np.log(rem), 1)[0])
            slopes[(sign, alpha)] = slope
            if slope > need + _SLOPE_SLACK:
                passed = False
                notes.append(
                    f"tail sign {sign:+.0f}, order {alpha}: measured slope {slope:.2f} "
                    f"shallower than required {need:.2f}"
                )

    grid = np.linspace(-100.0, 100.0, 2001)
    sup_value = float(np.max(np.abs(np.asarray(af.base(grid)))))
    sup_d1 = float(np.max(np.abs(np.asarray(af.base.d1(grid)))))
    sup_d2 = float(np.max(np.abs(np.asarray(af.base.d2(grid)))))
    if not (np.isfinite(sup_value) and np.isfinite(sup_d1) and np.isfinite(sup_d2)):
        passed = False
        notes.append("non-finite values on the bounded-derivative grid")

    return AdmissibilityReport(
        fitted_constant=fitted,
        slopes=slopes,
        sup_value=sup_value,
        sup_d1=sup_d1,
        sup_d2=sup_d2,
        passed=passed,
        detail="; ".join(notes) if notes else "ok",
    )
