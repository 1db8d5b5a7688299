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
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .spectral import _check_finite, _check_int, _check_real
from .ssf import _richardson_two_point, track_determinant_phase

__all__ = [
    "BAND_EDGE_MARGIN",
    "BirmanKreinRecord",
    "LatticeScatteringModel",
    "band_sweep",
    "birman_krein_point",
    "bound_state_count_below",
    "s_matrix",
    "scattering_determinant",
    "ssf_scattering",
]

BAND_EDGE_MARGIN = 1e-3

# the heights 2^-k, k = 4..13, at which the tracked phase is read
_EPS_LADDER = tuple(2.0 ** (-k) for k in range(4, 14))


@dataclass(frozen=True)
class LatticeScatteringModel:
    """Real potential with finite support on the integer lattice.

    Sites are integers (a bool or non-integral site is rejected), and values
    pass the finite gate.  The site distance matrix and the gaps between
    consecutive sites are built once, at construction, and are read-only, so
    threads may share a model.
    """

    sites: tuple
    values: tuple

    def __post_init__(self):
        site_arr = _integer_sites(self.sites)
        sites = tuple(int(n) for n in site_arr)
        values = tuple(_check_finite(v, f"values[{i}]") for i, v in enumerate(self.values))
        if len(sites) != len(values) or len(sites) == 0:
            raise ValueError("sites and values must be non-empty and equal length")
        if any(b <= a for a, b in zip(sites, sites[1:])):
            raise ValueError("sites must be strictly increasing")
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


def _lattice_root(z: complex) -> complex:
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


def _check_band_margin(value, name: str) -> float:
    """The band-sweep margin rule: a finite ``BAND_EDGE_MARGIN < margin < 2``,
    the lower end taken on the grid end ``2 - margin`` as :func:`_kappa` takes
    it (one rounding step above ``BAND_EDGE_MARGIN`` gives the same end)."""
    rule = f"a finite number in ({BAND_EDGE_MARGIN:g}, 2)"
    return _check_real(value, name, rule, lambda m: m < 2.0 and 2.0 - m < 2.0 - BAND_EDGE_MARGIN)


def _kappa(lam: float) -> float:
    lam = _check_finite(lam, "lam")
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

    # one factorization serves the left- and the right-incident wave
    incident = np.stack([np.exp(-1j * kappa * sites), np.exp(1j * kappa * sites)], axis=1)
    psi1, psi2 = np.linalg.solve(ls, incident).T
    t1 = 1.0 + prefactor * np.sum(np.exp(1j * kappa * sites) * v * psi1)
    r1 = prefactor * np.sum(np.exp(-1j * kappa * sites) * v * psi1)
    t2 = 1.0 + prefactor * np.sum(np.exp(-1j * kappa * sites) * v * psi2)
    r2 = prefactor * np.sum(np.exp(1j * kappa * sites) * v * psi2)

    return np.array([[t1, r2], [r1, t2]], dtype=complex)


def scattering_determinant(model: LatticeScatteringModel, z: complex) -> complex:
    """Perturbation determinant ``det(I + V G0_SS(z))`` on the potential support.

    Defined for ``Im z > 0``; any other ``z`` is rejected by name.  With
    ``w = _lattice_root(z)`` and ``c = w - 1/w`` the support Green function is
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
    w = _lattice_root(z)
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


def ssf_scattering(model: LatticeScatteringModel, lam: float) -> float:
    """Spectral shift at ``lam`` from the tracked determinant phase.

    The phase of ``D(z) = det(I + V G0_SS(z))`` is followed down the
    vertical line ``z = lam + i h`` to the heights ``2^-4 .. 2^-13``, then
    Richardson-extrapolated to the real axis from the last two.  Inside the
    band the result is generically non-integer; below the band it approaches
    minus the count of discrete eigenvalues below ``lam``.  A non-finite
    ``lam`` is rejected.

    With ``L`` support sites and strength ``s = max |v|``, the tracker's two
    inputs are proved, not tuned:

    - Start height ``max(2 L s, 2^-4)``.  ``|| G0_SS(z) || <= 1 / Im z``, so
      every eigenvalue ``mu`` of ``V G0_SS`` has ``|mu| <= s / h <= 1 / (2L)``
      and ``|arg D| <= L arcsin(s / h) <= pi / 6 < pi / 4``: the principal
      value there is the continuous branch that vanishes as ``h -> inf``.
    - Height-ratio cap ``exp(1 / (2L))``.  ``V`` has rank at most ``L``, so
      ``|xi| <= L`` and, by Krein's trace formula
      ``d log D / dz = Tr(R0(z) - R(z)) = int xi(t) (t - z)^-2 dt``,
      ``|d arg D / d ln h| <= h L int |t - z|^-2 dt = pi L``.  A step of
      ratio ``exp(1 / (2L))`` moves the phase by less than ``pi / 2`` (``xi``
      vanishes above the spectrum, so the bound is strict), so no step slips
      and none reaches the quarter turn at which the tracker raises
      ``ssf.BranchTrackingError``.
    """
    lam = _check_finite(lam, "lam")
    n_sites = len(model.sites)
    h_start = max(2.0 * n_sites * model.strength, _EPS_LADDER[0])

    def det_at(h):
        return scattering_determinant(model, lam + 1j * h)

    ratio = math.exp(1.0 / (2.0 * n_sites))
    phases = track_determinant_phase(det_at, h_start, _EPS_LADDER, max_ratio=ratio)
    return _richardson_two_point(_EPS_LADDER, phases) / np.pi


@dataclass(frozen=True)
class BirmanKreinRecord:
    lam: float
    det_s: complex
    xi: float
    residual: float
    unitarity: float


def birman_krein_point(model: LatticeScatteringModel, lam: float) -> BirmanKreinRecord:
    """Both sides of the determinant-phase identity at one band point.

    ``det S`` comes from the Lippmann-Schwinger scattering solve at the band
    boundary value; ``xi`` comes from the epsilon-tracked determinant phase.
    The two computations share nothing but the potential.
    """
    s = s_matrix(model, lam)
    xi = ssf_scattering(model, lam)
    det_s = complex(np.linalg.det(s))
    residual = abs(det_s - np.exp(-2j * np.pi * xi))
    return BirmanKreinRecord(
        lam=float(lam),
        det_s=det_s,
        xi=xi,
        residual=float(residual),
        unitarity=float(np.abs(s.conj().T @ s - np.eye(2)).max()),
    )


def band_sweep(
    model: LatticeScatteringModel,
    n_points: int,
    margin: float = 0.05,
) -> list:
    """Evaluate the identity on a uniform grid of interior band points.

    ``margin`` is the distance of the grid ends from the band edges ``-2``
    and ``2``; it must exceed :data:`BAND_EDGE_MARGIN` and stay below 2, so
    the grid runs from left to right.
    """
    n_points = _check_int(n_points, "n_points", low=1)
    margin = _check_band_margin(margin, "margin")
    grid = np.linspace(-2.0 + margin, 2.0 - margin, n_points)
    return [birman_krein_point(model, float(lam)) for lam in grid]


# ---------------------------------------------------------------------------
# truncation oracle


# bound_state_count_below truncates the chain to the sites |n| <= _L_TRUNC
_L_TRUNC = 2000


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


def bound_state_count_below(model: LatticeScatteringModel, lam: float) -> int:
    """Number of discrete eigenvalues below ``lam``, on the chain truncated at ``_L_TRUNC``.

    Only meaningful for finite ``lam < -2``: inside the band the truncation fills
    the spectrum densely.  Bisection finds only the eigenvalues in
    ``(-inf, nextafter(lam, -inf)]``, that is strictly below ``lam``.
    """
    lam = _check_finite(lam, "lam")
    if lam >= -2.0:
        raise ValueError(f"counting below the band needs lam < -2, got {lam}")
    below = eigvalsh_tridiagonal(
        *_truncated_chain(model, _L_TRUNC),
        select="v",
        select_range=(-np.inf, np.nextafter(lam, -np.inf)),
    )
    return int(below.size)
