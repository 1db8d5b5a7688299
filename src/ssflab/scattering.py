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

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectral import _check_finite, _check_int, _check_real
from .ssf import _boundary_value

__all__ = [
    "BAND_EDGE_MARGIN",
    "BirmanKreinRecord",
    "LatticeScatteringModel",
    "band_sweep",
    "birman_krein_point",
    "bound_state_count_below",
    "s_matrix",
    "scattering_log_determinant",
    "ssf_scattering",
]

BAND_EDGE_MARGIN = 1e-3
# stacked L x L support matrices per batch of band points, 32 MB of complex
_BATCH_ENTRIES = 2**21


def _check_site(value, name: str) -> int:
    """A lattice site: an integer below ``2^62`` in magnitude, so that every
    distance between two sites fits an int64."""
    site = _check_int(value, name)
    if not abs(site) < 2**62:
        rule = "an integer below 2**62 in magnitude"
        raise ValueError(f"{name} must be {rule}, got {name}={value!r}")
    return site


def _check_value(value, name: str, n_sites: int, gap: int) -> float:
    """A potential value ``v`` for a model of ``n_sites`` support sites whose
    largest gap is ``gap``: ``2 L |v| g 2^13`` must be a finite double.  So at
    the lowest height ``h = 2^-13 / g`` that :func:`ssf_scattering` reads,
    ``2 L |v| / h`` is finite, and each term ``v / c`` of the pivot recurrence
    of :func:`scattering_log_determinant` is at most ``|v| / h`` in modulus,
    since ``|1 / c| = |G0(z)_nn| <= 1 / Im z``."""
    scale = 2.0**14 * n_sites * gap
    rule = (
        f"a finite number with 2 L |v| g 2**13 finite (|v| up to about "
        f"{sys.float_info.max / scale:.4g} for L={n_sites} sites, largest gap g={gap})"
    )
    return _check_real(value, name, rule, lambda v: math.isfinite(v * scale))


@dataclass(frozen=True)
class LatticeScatteringModel:
    """Real potential with finite support on the integer lattice.

    Each site passes the site rule and each value the strength rule, which
    keeps the scattering route's pivot recurrence finite.  The gaps between
    consecutive sites are built once, at construction.
    """

    sites: tuple
    values: tuple

    def __post_init__(self):
        sites = tuple(_check_site(n, f"sites[{i}]") for i, n in enumerate(self.sites))
        values = tuple(self.values)
        if len(sites) != len(values) or len(sites) == 0:
            raise ValueError("sites and values must be non-empty and equal length")
        if any(b <= a for a, b in zip(sites, sites[1:])):
            raise ValueError("sites must be strictly increasing")
        gaps = tuple(b - a for a, b in zip(sites, sites[1:]))
        gap = max(gaps, default=1)
        values = tuple(
            _check_value(v, f"values[{i}]", len(sites), gap) for i, v in enumerate(values)
        )
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_gaps", gaps)

    @classmethod
    def single_site(cls, value: float, site: int = 0) -> "LatticeScatteringModel":
        return cls((site,), (value,))

    @classmethod
    def centered(cls, values: Sequence[float]) -> "LatticeScatteringModel":
        """Values laid out symmetrically around the origin."""
        half = len(values) // 2
        return cls(tuple(range(-half, len(values) - half)), values)


def _lattice_root(z):
    """The root of ``w + 1/w = z`` inside the unit disk, at each point of ``z``.

    ``z`` is a complex number or an array of them; the roots come back in its
    shape.  Rejects a non-finite ``z``, and ``z`` on the band ``[-2, 2]``,
    where both roots sit on the unit circle and the resolvent has no meaning;
    the error names the first such point.  With ``u = z / 2`` the roots are
    ``u +- sqrt(u - 1) sqrt(u + 1)``, with product 1.  The sign of the larger
    modulus adds two terms that do not cancel and gives the outer root; the
    inner root is its reciprocal.  Nothing squares ``z``, so a large ``|z|``
    neither overflows nor loses digits, as ``(z - sqrt(z^2 - 4)) / 2`` would.
    """
    z = np.asarray(z, dtype=complex)
    bad = ~np.isfinite(z)
    if bad.any():
        raise ValueError(f"z must be finite, got z={complex(z[bad][0])}")
    bad = (z.imag == 0.0) & (np.abs(z.real) <= 2.0)
    if bad.any():
        raise ValueError(f"z={complex(z[bad][0])} lies on the spectral band [-2, 2]")
    u = z / 2.0
    root = np.sqrt(u - 1.0) * np.sqrt(u + 1.0)
    return 1.0 / np.where(np.abs(u + root) >= np.abs(u - root), u + root, u - root)


def _check_band_margin(value, name: str) -> float:
    """The band-sweep margin rule: a finite ``BAND_EDGE_MARGIN < margin < 2``,
    the lower end taken on the grid end ``2 - margin`` as :func:`_band_point`
    takes it (one rounding step above ``BAND_EDGE_MARGIN`` gives the same end)."""
    rule = f"a finite number in ({BAND_EDGE_MARGIN:g}, 2)"
    return _check_real(value, name, rule, lambda m: m < 2.0 and 2.0 - m < 2.0 - BAND_EDGE_MARGIN)


def _band_point(lam: float) -> np.ndarray:
    """A finite band point ``lam`` off the edge margin, as a 1-point array."""
    lam = _check_finite(lam, "lam")
    if not (abs(lam) < 2.0 - BAND_EDGE_MARGIN):
        raise ValueError(
            f"lam={lam} too close to the band edges (margin {BAND_EDGE_MARGIN:g}); "
            "resolvent boundary values degenerate there"
        )
    return np.array([lam])


def _support_green(model: LatticeScatteringModel, w) -> np.ndarray:
    """Free resolvent kernel ``w^{|n-m|} / (w - 1/w)`` on the potential support;
    an array ``w`` of shape ``(N, 1, 1)`` gives ``N`` kernels, stacked."""
    sites = np.array(model.sites, dtype=int)
    return w ** np.abs(sites[:, None] - sites[None, :]) / (w - 1.0 / w)


def _s_matrices(model: LatticeScatteringModel, lam: np.ndarray) -> np.ndarray:
    """The scattering matrices at the band points of the 1-d array ``lam``,
    stacked in shape ``(lam.size, 2, 2)``.

    With ``lam = 2 cos(kappa)``, the Lippmann-Schwinger systems of all
    points, each with its left- and right-incident wave, go to one batched
    solve.
    """
    kappa = np.arccos(lam / 2.0)
    sites = np.asarray(model.sites, dtype=int)
    v = np.asarray(model.values, dtype=float)
    # limit of the |w| < 1 branch from the upper half plane: w = exp(-i kappa)
    g = _support_green(model, np.exp(-1j * kappa)[:, None, None])
    ls = np.eye(len(sites), dtype=complex) + g * v
    prefactor = 1.0 / (2j * np.sin(kappa))

    channel = np.exp(1j * kappa[:, None] * sites)
    incident = channel.conj()
    psi = np.linalg.solve(ls, np.stack([incident, channel], axis=-1))
    psi1, psi2 = psi[..., 0], psi[..., 1]
    t1 = 1.0 + prefactor * np.sum(channel * v * psi1, axis=-1)
    r1 = prefactor * np.sum(incident * v * psi1, axis=-1)
    t2 = 1.0 + prefactor * np.sum(incident * v * psi2, axis=-1)
    r2 = prefactor * np.sum(channel * v * psi2, axis=-1)
    return np.stack([np.stack([t1, r2], axis=-1), np.stack([r1, t2], axis=-1)], axis=-2)


def s_matrix(model: LatticeScatteringModel, lam: float) -> np.ndarray:
    """2x2 scattering matrix at a band point.

    Rows and columns index (left-incident, right-incident) channels:
    ``[[t1, r2], [r1, t2]]``.  Transmissions and reflections come from the
    scattered-wave asymptotics of the Lippmann-Schwinger solution on the
    potential support.
    """
    return _s_matrices(model, _band_point(lam))[0]


def _log_determinants(model: LatticeScatteringModel, z: np.ndarray) -> np.ndarray:
    """``log D`` at each point of the array ``z``, every ``Im z > 0``: the
    recurrence of :func:`scattering_log_determinant` run on arrays."""
    w = _lattice_root(z)
    c = w - 1.0 / w
    w2 = w * w
    log_det = np.zeros(z.shape, dtype=complex)
    carry = 0.0
    for v, gap in zip(model.values, model._gaps):
        r2 = w2**gap
        e = v / c + carry
        ratio = 1.0 + e * (1.0 - r2)
        log_det += np.log(ratio)
        carry = r2 * e / ratio
    return log_det + np.log(1.0 + model.values[-1] / c + carry)


def _ssf_values(model: LatticeScatteringModel, lam: np.ndarray) -> np.ndarray:
    """:func:`ssf_scattering` at each point of the 1-d array ``lam``, from one
    call of :func:`_log_determinants` on all its ``4 * lam.size`` heights."""
    gap = max(model._gaps, default=1)
    heights = 2.0 ** -np.arange(10, 14) / gap
    phases = _log_determinants(model, lam[:, None] + 1j * heights).imag
    band = np.abs(lam) < 2.0
    powers = (1, np.where(band, 2, 3), np.where(band, 3, 5))
    return _boundary_value(phases.T, powers) / np.pi


def scattering_log_determinant(model: LatticeScatteringModel, z: complex) -> complex:
    """``log D(z)`` of ``D = det(I + V G0_SS(z))`` on the potential support.

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
    ``e_(k+1) = v_(k+1) / c + r_k^2 e_k / f_k``; so ``D = prod f_k``, and the
    cost is O(L) scalar operations, whatever the gaps between sites.

    The branch: for ``Im z > 0``, ``G0_SS^-1 = H0_SS - z - Sigma_S`` has a
    negative definite imaginary part, and so has every Schur complement of
    ``cK^-1`` and of ``cK^-1 + V`` (F. Zhang, *The Schur Complement and Its
    Applications*, Springer 2005).  So every pivot lies in the open lower
    half plane, none vanishes, and ``Arg(c q_k f_k) - Arg(c q_k)`` lies in
    ``(-pi, pi)``: it is the principal ``Arg f_k``, and the principal
    ``Log f_k`` is exactly ``Log(c q_k f_k) - Log(c q_k)``.  The pivots move
    continuously with ``z`` and never leave the lower half plane, where the
    principal log is continuous, and every ``f_k -> 1`` as ``z -> +i inf``;
    so ``sum_k Log f_k`` is the continuous branch of ``log D`` that vanishes
    at ``+i inf``.  The sum has no product to overflow.
    """
    z = complex(z)
    if not z.imag > 0.0:
        raise ValueError(f"the scattering determinant needs Im z > 0, got z={z}")
    return complex(_log_determinants(model, np.array(z)))


def ssf_scattering(model: LatticeScatteringModel, lam: float) -> float:
    """Spectral shift at ``lam`` from the boundary phase of the determinant.

    ``Im log D(z) / pi``, with ``log D`` the pivot-log sum of
    :func:`scattering_log_determinant`, is read at ``z = lam + i h`` for the
    four heights ``h = 2^-10 / g, ..., 2^-13 / g`` and taken to the real
    axis by a Richardson table that removes ``h``, ``h^2`` and ``h^3`` on the
    band, and ``h``, ``h^3`` and ``h^5`` off it, where the phase is odd in
    ``h``.  ``g`` is the largest gap between consecutive support sites (1 for
    a single site): ``xi`` varies on the scale ``1 / g``, and the
    extrapolation's next error term with it.  Inside the band the
    result is generically non-integer; below the band it approaches minus the
    count of discrete eigenvalues below ``lam``.  A non-finite ``lam`` is
    rejected.
    """
    lam = _check_finite(lam, "lam")
    return float(_ssf_values(model, np.array([lam]))[0])


@dataclass(frozen=True)
class BirmanKreinRecord:
    lam: float
    det_s: complex
    xi: float
    residual: float
    unitarity: float


def _birman_krein_records(model: LatticeScatteringModel, lam: np.ndarray) -> list:
    """One :class:`BirmanKreinRecord` per point of the 1-d array ``lam``, each
    inside the band and off its edge margin: one run of each batched kernel."""
    s = _s_matrices(model, lam)
    xi = _ssf_values(model, lam)
    det_s = np.linalg.det(s)
    residual = np.abs(det_s - np.exp(-2j * np.pi * xi))
    unitarity = np.abs(np.swapaxes(s.conj(), -1, -2) @ s - np.eye(2)).max(axis=(-2, -1))
    return [
        BirmanKreinRecord(float(a), complex(d), float(x), float(r), float(u))
        for a, d, x, r, u in zip(lam, det_s, xi, residual, unitarity)
    ]


def birman_krein_point(model: LatticeScatteringModel, lam: float) -> BirmanKreinRecord:
    """Both sides of the determinant-phase identity at one band point.

    ``det S`` comes from the Lippmann-Schwinger scattering solve at the band
    boundary value; ``xi`` comes from the pivot-log phase of the perturbation
    determinant at four heights above the band, extrapolated to it
    (:func:`ssf_scattering`).  The two computations share nothing but the
    potential.  It is :func:`band_sweep`'s computation at one point.
    """
    return _birman_krein_records(model, _band_point(lam))[0]


def band_sweep(
    model: LatticeScatteringModel,
    n_points: int,
    margin: float = 0.05,
) -> list:
    """Evaluate the identity on a uniform grid of interior band points.

    ``margin`` is the distance of the grid ends from the band edges ``-2``
    and ``2``; it must exceed :data:`BAND_EDGE_MARGIN` and stay below 2, so
    the grid runs from left to right.  The grid goes to the batched kernels
    in one piece, or in pieces of at most ``_BATCH_ENTRIES`` entries of
    stacked support matrices; each record equals
    :func:`birman_krein_point`'s at its point, bit for bit.
    """
    n_points = _check_int(n_points, "n_points", low=1)
    margin = _check_band_margin(margin, "margin")
    grid = np.linspace(-2.0 + margin, 2.0 - margin, n_points)
    step = max(1, _BATCH_ENTRIES // len(model.sites) ** 2)
    return [
        rec
        for start in range(0, n_points, step)
        for rec in _birman_krein_records(model, grid[start : start + step])
    ]


# ---------------------------------------------------------------------------
# bound states below the band


def bound_state_count_below(model: LatticeScatteringModel, lam: float) -> int:
    """Number of discrete eigenvalues strictly below a finite ``lam < -2``, exactly.

    Below the band ``H0 - lam`` is positive definite, so by Haynsworth's
    inertia additivity over the sites off the support, ``H - lam`` has as
    many negative eigenvalues as the L x L tridiagonal ``c K^-1 + V`` of
    :func:`scattering_log_determinant`, whose ``w`` is now real, in ``(-1, 0)``,
    with ``c = w - 1/w > 0``.  Its pivots ``c q_k f_k`` have the signs of the
    ratios ``f_k`` of the same recurrence (``c q_k > 0``), so by Sylvester's
    law of inertia the count is the number of negative ``f_k``: O(L) scalar
    operations, whatever the gaps between sites.  A zero pivot (``lam`` an
    eigenvalue of a leading block) takes its limit from just below ``lam``,
    where ``c K^-1`` grows: it is positive and the next pivot tends to
    ``-inf``; a ratio that overflows keeps its sign and the limit of the
    next carry.  Inside the band the count has no meaning and is refused.
    """
    lam = _check_finite(lam, "lam")
    if lam >= -2.0:
        raise ValueError(f"counting below the band needs lam < -2, got {lam}")
    w = float(_lattice_root(lam).real)
    c = w - 1.0 / w
    w2 = w * w
    count = 0
    carry = 0.0
    for v, gap in zip(model.values, model._gaps):
        r2 = w2**gap
        e = v / c + carry
        ratio = 1.0 + e * (1.0 - r2)
        count += ratio < 0.0
        if ratio == 0.0:
            carry = -math.inf
        else:
            carry = r2 / (1.0 - r2) if math.isinf(e) else r2 * e / ratio
    return count + (1.0 + model.values[-1] / c + carry < 0.0)
