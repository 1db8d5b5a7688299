"""1-D lattice scattering with a closed-form free resolvent.

Free operator: nearest-neighbor hopping ``(h0 u)(n) = u(n+1) + u(n-1)`` on
the integer lattice, spectrum the band ``[-2, 2]``, parameterized
``lam = 2 cos(kappa)``.  The free resolvent kernel is the two-line closed
form ``w^{|n-m|} / (w - 1/w)`` with ``w + 1/w = z``, ``|w| < 1``.  A real
potential with finite support yields a 2x2 scattering matrix (transmission
and two reflections) from a finite Lippmann-Schwinger solve, a perturbation
determinant restricted to the support, and hence both sides of the
determinant-phase identity ``det S(lam) = exp(-2 pi i xi(lam))``.

Sign conventions: boundary values on the band from above use
``w = exp(-i kappa)`` (the limit of the ``|w| < 1`` branch), the
left-incident wave is ``exp(-i kappa n)`` (positive group velocity for the
``+1`` hopping sign), and a weak repulsive potential gives ``xi > 0``.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .ssf import (
    _check_eps_schedule,
    _check_finite_lambda,
    _richardson_two_point,
    track_determinant_phase,
)

__all__ = [
    "BAND_EDGE_MARGIN",
    "BirmanKreinRecord",
    "LatticeScatteringModel",
    "band_sweep",
    "birman_krein_point",
    "bound_state_count_below",
    "free_green",
    "lattice_root",
    "s_matrix",
    "scattering_determinant",
    "ssf_scattering",
    "unitarity_defect",
]

BAND_EDGE_MARGIN = 1e-3


@dataclass(frozen=True)
class LatticeScatteringModel:
    """Real potential with finite support on the integer lattice.

    Sites are integers (a bool or non-integral site is rejected).  The site
    distance matrix and the gaps between consecutive sites are built once,
    at construction, and are read-only, so threads may share a model.
    """

    sites: tuple
    values: tuple

    def __post_init__(self):
        site_arr = _integer_sites(self.sites)
        sites = tuple(int(n) for n in site_arr)
        values = tuple(float(v) for v in self.values)
        if len(sites) != len(values) or len(sites) == 0:
            raise ValueError("sites and values must be non-empty and equal length")
        if any(b <= a for a, b in zip(sites, sites[1:])):
            raise ValueError("sites must be strictly increasing")
        if not all(np.isfinite(values)):
            raise ValueError("potential values must be finite")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "values", values)
        distance = np.abs(site_arr[:, None] - site_arr[None, :])
        distance.flags.writeable = False
        object.__setattr__(self, "_distance", distance)
        object.__setattr__(self, "_gaps", tuple(b - a for a, b in zip(sites, sites[1:])))

    @classmethod
    def single_site(cls, value: float, site: int = 0) -> "LatticeScatteringModel":
        return cls((site,), (value,))

    @classmethod
    def centered(cls, values: Sequence[float]) -> "LatticeScatteringModel":
        """Values laid out symmetrically around the origin."""
        values = tuple(float(v) for v in values)
        half = len(values) // 2
        return cls(tuple(range(-half, len(values) - half)), values)

    @property
    def support_radius(self) -> int:
        return max(abs(n) for n in self.sites)

    @property
    def strength(self) -> float:
        return max(abs(v) for v in self.values)


def _integer_sites(sites) -> np.ndarray:
    """Lattice sites as an integer array; a bool or non-integral site is
    rejected by name rather than truncated to a neighbouring site."""
    arr = np.asarray(sites, dtype=object)
    for site in arr.flat:
        try:
            integral = not isinstance(site, (bool, np.bool_)) and int(site) == site
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise ValueError(f"lattice sites must be integers, got site={site!r}")
    return arr.astype(int)


def lattice_root(z: complex) -> complex:
    """The root of ``w + 1/w = z`` inside the unit disk.

    Rejects a non-finite ``z``, and ``z`` on the band ``[-2, 2]``, where both
    roots sit on the unit circle and the resolvent has no meaning.
    """
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got z={z}")
    if z.imag == 0.0 and abs(z.real) <= 2.0:
        raise ValueError(f"z={z} lies on the spectral band [-2, 2]")
    disc = cmath.sqrt(z * z - 4.0)
    w1 = (z + disc) / 2.0
    w2 = (z - disc) / 2.0
    return w1 if abs(w1) < abs(w2) else w2


def free_green(z: complex, n, m) -> complex:
    """Closed-form free resolvent kernel ``w^{|n-m|} / (w - 1/w)``."""
    w = lattice_root(z)
    dist = np.abs(_integer_sites(n) - _integer_sites(m))
    out = w**dist / (w - 1.0 / w)
    if np.ndim(dist) == 0:
        return complex(out)
    return out


def _kappa(lam: float) -> float:
    lam = _check_finite_lambda(lam)
    if not (abs(lam) < 2.0 - BAND_EDGE_MARGIN):
        raise ValueError(
            f"lam={lam} too close to the band edges (margin {BAND_EDGE_MARGIN:g}); "
            "resolvent boundary values degenerate there"
        )
    return float(np.arccos(lam / 2.0))


def _support_green(model: LatticeScatteringModel, w: complex) -> np.ndarray:
    """Free resolvent kernel ``w^{|n-m|} / (w - 1/w)`` on the potential support."""
    return w**model._distance / (w - 1.0 / w)


def _boundary_green(model: LatticeScatteringModel, lam: float) -> np.ndarray:
    # limit of the |w| < 1 branch from the upper half plane: w = exp(-i kappa)
    return _support_green(model, np.exp(-1j * _kappa(lam)))


def s_matrix(model: LatticeScatteringModel, lam: float) -> np.ndarray:
    """2x2 scattering matrix at a band point.

    Rows and columns index (left-incident, right-incident) channels:
    ``[[t1, r2], [r1, t2]]``.  Transmissions and reflections come from the
    scattered-wave asymptotics of the Lippmann-Schwinger solution on the
    potential support.
    """
    kappa = _kappa(lam)
    sites = np.asarray(model.sites, dtype=int)
    v = np.asarray(model.values, dtype=float)
    g = _boundary_green(model, lam)
    ls = np.eye(len(sites), dtype=complex) + g * v[None, :]
    prefactor = 1.0 / (2j * np.sin(kappa))

    phi_left = np.exp(-1j * kappa * sites)
    psi1 = np.linalg.solve(ls, phi_left)
    t1 = 1.0 + prefactor * np.sum(np.exp(1j * kappa * sites) * v * psi1)
    r1 = prefactor * np.sum(np.exp(-1j * kappa * sites) * v * psi1)

    phi_right = np.exp(1j * kappa * sites)
    psi2 = np.linalg.solve(ls, phi_right)
    t2 = 1.0 + prefactor * np.sum(np.exp(-1j * kappa * sites) * v * psi2)
    r2 = prefactor * np.sum(np.exp(1j * kappa * sites) * v * psi2)

    return np.array([[t1, r2], [r1, t2]], dtype=complex)


def unitarity_defect(s: np.ndarray) -> float:
    return float(np.abs(s.conj().T @ s - np.eye(2)).max())


def scattering_determinant(model: LatticeScatteringModel, z: complex) -> complex:
    """Perturbation determinant ``det(I + V G0_SS(z))`` on the potential support.

    Defined for ``Im z > 0``; any other ``z`` is rejected by name.  With
    ``w = lattice_root(z)`` and ``c = w - 1/w`` the support Green function is
    ``G0_SS = K / c``, where ``K_ij = w^|s_i - s_j|`` is a Markov kernel over
    the sites ``s_1 < ... < s_L``.  So ``K^-1`` is tridiagonal: with
    ``r_i = w^(s_(i+1) - s_i)`` and ``q_i = 1 / (1 - r_i^2)`` (``q_0 = q_L = 1``)
    its diagonal is ``q_(i-1) + q_i - 1`` and its off-diagonal ``-r_i q_i``.
    By Sylvester's identity ``D = det(cK^-1 + V) / det(cK^-1)``.

    Elimination without pivoting gives ``cK^-1`` the pivots ``c q_k`` and
    ``cK^-1 + V`` the pivots ``c q_k f_k``, with the ratio ``f_k`` obeying the
    cancellation-free recurrence ``e_1 = v_1 / c``,
    ``f_k = 1 + e_k (1 - r_k^2)`` (``r_L = 0``), and
    ``e_(k+1) = v_(k+1) / c + r_k^2 e_k / f_k``; so ``D = prod f_k``.  No
    pivot vanishes: for ``Im z > 0``, ``G0_SS^-1 = H0_SS - z - Sigma_S`` has a
    negative definite imaginary part, and so has every Schur complement.
    The cost is O(L) scalar operations, whatever the gaps between sites.
    """
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError(f"the scattering determinant needs Im z > 0, got z={z}")
    w = lattice_root(z)
    c = w - 1.0 / w
    w2 = w * w
    det = 1.0
    carry = 0.0
    for v, gap in zip(model.values, model._gaps):
        r2 = w2**gap
        e = v / c + carry
        ratio = 1.0 + e * (1.0 - r2)
        det *= ratio
        carry = r2 * e / ratio
    return det * (1.0 + model.values[-1] / c + carry)


def ssf_scattering(
    model: LatticeScatteringModel,
    lam: float,
    eps_schedule: Optional[Sequence[float]] = None,
) -> float:
    """Spectral shift at ``lam`` from the tracked determinant phase.

    The phase of the perturbation determinant is followed from high in the
    upper half plane down the epsilon schedule, then Richardson-extrapolated
    to the real axis from the last two epsilons (by default ``2^-4 .. 2^-13``;
    a given schedule must be finite, positive, strictly decreasing and at
    least two long).
    Inside the band the result is generically non-integer; below the band it
    approaches minus the count of discrete eigenvalues below ``lam``.  A
    non-finite ``lam`` is rejected.
    """
    lam = _check_finite_lambda(lam)
    if eps_schedule is None:
        eps_schedule = [2.0 ** (-k) for k in range(4, 14)]
    eps = _check_eps_schedule(eps_schedule)
    h_start = 10.0 * (1.0 + model.strength) + abs(lam)

    def det_at(h):
        return scattering_determinant(model, lam + 1j * h)

    # tight height-ratio cap: the finite-section determinant has at most
    # (number of support sites) zeros plus a slowly varying continuum factor
    ratio = math.exp(math.pi / (8.0 * (len(model.sites) + 2)))
    phases = track_determinant_phase(det_at, h_start, eps, max_ratio=ratio)
    return _richardson_two_point(eps, phases) / np.pi


@dataclass(frozen=True)
class BirmanKreinRecord:
    lam: float
    det_s: complex
    xi: float
    residual: float
    unitarity: float


def birman_krein_point(
    model: LatticeScatteringModel,
    lam: float,
    eps_schedule: Optional[Sequence[float]] = None,
) -> BirmanKreinRecord:
    """Both sides of the determinant-phase identity at one band point.

    ``det S`` comes from the Lippmann-Schwinger scattering solve at the band
    boundary value; ``xi`` comes from the epsilon-tracked determinant phase.
    The two computations share nothing but the potential.
    """
    s = s_matrix(model, lam)
    xi = ssf_scattering(model, lam, eps_schedule)
    det_s = complex(np.linalg.det(s))
    residual = abs(det_s - np.exp(-2j * np.pi * xi))
    return BirmanKreinRecord(
        lam=float(lam),
        det_s=det_s,
        xi=xi,
        residual=float(residual),
        unitarity=unitarity_defect(s),
    )


def band_sweep(
    model: LatticeScatteringModel,
    n_points: int,
    margin: float = 0.05,
    eps_schedule: Optional[Sequence[float]] = None,
) -> list:
    """Evaluate the identity on a uniform grid of interior band points."""
    try:
        n_points = operator.index(n_points)
    except TypeError:
        raise ValueError(f"n_points must be an integer, got n_points={n_points!r}") from None
    if n_points < 1:
        raise ValueError(f"need at least one band point, got n_points={n_points}")
    if margin <= BAND_EDGE_MARGIN:
        raise ValueError("sweep margin must exceed the band-edge margin")
    grid = np.linspace(-2.0 + margin, 2.0 - margin, n_points)
    return [birman_krein_point(model, float(lam), eps_schedule) for lam in grid]


# ---------------------------------------------------------------------------
# truncation oracle


def _truncated_chain(model: LatticeScatteringModel, l_trunc: int) -> tuple:
    """Diagonal and off-diagonal of the operator truncated to sites |n| <= l_trunc."""
    if model.support_radius >= l_trunc / 4:
        raise ValueError(
            f"truncation l_trunc={l_trunc} too small for support radius "
            f"{model.support_radius} (need support < l_trunc/4)"
        )
    n_sites = 2 * l_trunc + 1
    diag = np.zeros(n_sites)
    for site, value in zip(model.sites, model.values):
        diag[site + l_trunc] = value
    off = np.ones(n_sites - 1)
    return diag, off


def bound_state_count_below(
    model: LatticeScatteringModel, lam: float, l_trunc: int = 2000
) -> int:
    """Number of discrete eigenvalues below ``lam`` (large-truncation count).

    Only meaningful for finite ``lam < -2``: inside the band the truncation fills
    the spectrum densely.  Bisection finds only the eigenvalues in
    ``(-inf, nextafter(lam, -inf)]``, that is strictly below ``lam``.
    """
    lam = _check_finite_lambda(lam)
    if lam >= -2.0:
        raise ValueError(f"counting below the band needs lam < -2, got {lam}")
    below = eigvalsh_tridiagonal(
        *_truncated_chain(model, l_trunc),
        select="v",
        select_range=(-np.inf, np.nextafter(lam, -np.inf)),
    )
    return int(below.size)
