"""Free Dirac operator on a periodic lattice and its Schatten-class estimates.

The free operator is assembled spectrally: the matrix symbol is evaluated on
the discrete momentum grid and conjugated back by the discrete Fourier
transform, so the only discretization error is domain truncation.  The
spinors use one fixed matrix set per dimension, :data:`DIRAC_MATRICES`, and a
:class:`LatticeModel` is plain data: dimension, points per axis, spacing and
mass.  On top of it the module provides decaying weights, matrix-valued site
potentials (added to ``H0`` as its diagonal blocks, and applied elsewhere
through their ``(n_sites, s, s)`` site blocks, never as a dense matrix),
weighted-resolvent singular-value studies (Schatten threshold law), the exact
resolvent-power expansion, the weighted Hoelder factorization of its terms,
and the exact weight-commutator identity.

Naming note: ``mass`` is the particle mass in the symbol and ``mpow`` the
resolvent power, which are distinct parameters throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .spectral import (
    ABS_FLOOR,
    SingularValueProfile,
    _check_resolvent_args,
    eig_hermitian,
    resolvent_power,
    schatten_norm,
    singular_values,
)
from .utils import random_hermitian

__all__ = [
    "CommutatorDecayReport",
    "DIRAC_MATRICES",
    "FactorizationReport",
    "LatticeModel",
    "MatrixPotential",
    "PowerDifferenceReport",
    "RefinementStudy",
    "WeightedResolventReport",
    "balanced_spacing",
    "commutator_decay_report",
    "commutator_decay_study",
    "commutator_identity_residual",
    "free_hamiltonian",
    "free_resolvent_power",
    "free_symbol",
    "perturbed_hamiltonian",
    "random_bounded_potential",
    "random_decaying_potential",
    "resolvent_power_difference",
    "schatten_refinement_study",
    "weight_diagonal",
    "weighted_factorization_report",
    "weighted_resolvent_schatten",
    "zero_potential",
]

_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def _read_only(*mats) -> np.ndarray:
    out = np.array(mats, dtype=complex)
    out.flags.writeable = False
    return out


#: Standard representation (Thaller, *The Dirac Equation*, 1992, ch. 1) per
#: dimension d: a read-only ``(d + 1, s, s)`` stack of the d kinetic matrices
#: followed by the mass matrix.  Pauli matrices for d in {1, 2} (s = 2);
#: ``[[0, sigma_j], [sigma_j, 0]]`` and ``diag(I, -I)`` for d = 3 (s = 4).
DIRAC_MATRICES = {
    1: _read_only(_SIGMA1, _SIGMA3),
    2: _read_only(_SIGMA1, _SIGMA2, _SIGMA3),
    3: _read_only(
        *(np.kron(_SIGMA1, sigma) for sigma in (_SIGMA1, _SIGMA2, _SIGMA3)),
        np.kron(_SIGMA3, np.eye(2)),
    ),
}


def free_symbol(d: int, mass: float, xi) -> np.ndarray:
    """Momentum-space symbol: sum of kinetic matrices times momentum, plus mass.

    Squares to ``(|xi|^2 + mass^2) I``, so its eigenvalues are the two signed
    branches, each with multiplicity spinor_dim / 2.
    """
    mats = DIRAC_MATRICES[d]
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.size != d:
        raise ValueError(f"momentum must have {d} components")
    return mass * mats[d] + np.tensordot(xi, mats[:d], axes=1)


def _is_integer(x) -> bool:
    return not isinstance(x, bool) and isinstance(x, (int, np.integer))


@dataclass(frozen=True)
class LatticeModel:
    """Periodic lattice in d dimensions with N sites per axis and spacing h.

    Sites carry signed integer coordinates -N/2 .. N/2-1 per axis, so the
    coordinate itself realizes the torus-folded (shorter-arc) distance to the
    origin.  Momenta live on the dual grid 2 pi k / (N h) with the same signed
    integer range.  The spinors use :data:`DIRAC_MATRICES` for dimension d.
    """

    d: int
    n: int
    h: float
    mass: float

    def __post_init__(self):
        if not _is_integer(self.d) or self.d not in DIRAC_MATRICES:
            raise ValueError(f"dimension must be 1, 2 or 3, got d={self.d!r}")
        if not _is_integer(self.n) or self.n < 2 or self.n % 2 != 0:
            raise ValueError(
                f"points per axis must be an even integer >= 2, got n={self.n!r}"
            )
        if not (np.isfinite(self.h) and self.h > 0):
            raise ValueError(f"lattice spacing must be finite and positive, got h={self.h!r}")
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise ValueError(f"mass must be finite and positive, got mass={self.mass!r}")

    @property
    def spinor_dim(self) -> int:
        return DIRAC_MATRICES[self.d].shape[-1]

    @property
    def n_sites(self) -> int:
        return self.n**self.d

    @property
    def total_dim(self) -> int:
        return self.spinor_dim * self.n_sites

    def site_vectors(self) -> np.ndarray:
        """Signed integer site coordinates, lexicographic, shape (n_sites, d)."""
        axis = np.arange(-self.n // 2, self.n // 2)
        grids = np.meshgrid(*([axis] * self.d), indexing="ij")
        return np.stack(grids, axis=-1).reshape(-1, self.d)

    def site_distances(self) -> np.ndarray:
        """Euclidean distance to the origin (torus-folded), per site."""
        return self.h * np.linalg.norm(self.site_vectors(), axis=1)


def balanced_spacing(n: int) -> float:
    """Spacing ``sqrt(2 pi / N)``: domain size and momentum cutoff grow together.

    Refining with this coupling lets both the position and momentum factors
    of a weighted resolvent reach their asymptotic singular-value regime, so
    the Schatten threshold is governed by min(r, k) rather than by whichever
    cutoff a fixed spacing freezes.
    """
    return float(np.sqrt(2.0 * np.pi / n))


def _fft_integer_grid(n: int) -> np.ndarray:
    # FFT-order signed integers 0, 1, .., n/2-1, -n/2, .., -1
    return np.rint(np.fft.fftfreq(n) * n).astype(int)


def _symbol_grid(model: LatticeModel) -> tuple:
    """Symbol and branch energy ``E = sqrt(|xi|^2 + mass^2)`` on the FFT momentum grid.

    Shapes ``(n,)*d + (s, s)`` and ``(n,)*d``, in FFT order along each axis.
    """
    n, d, s = model.n, model.d, model.spinor_dim
    mats = DIRAC_MATRICES[d]
    kint = _fft_integer_grid(n)
    grids = np.meshgrid(*([kint] * d), indexing="ij")
    scale = 2.0 * np.pi / (n * model.h)
    symbol = np.zeros((n,) * d + (s, s), dtype=complex)
    energy_sq = np.full((n,) * d, model.mass**2)
    for j in range(d):
        xi = scale * grids[j]
        symbol += xi[..., None, None] * mats[j]
        energy_sq += xi**2
    symbol += model.mass * mats[d]
    return symbol, np.sqrt(energy_sq)


def _block_circulant(model: LatticeModel, symbol: np.ndarray) -> np.ndarray:
    """Dense site-space matrix of a translation-invariant operator from its symbol.

    The symbol has shape ``(n,)*d + (s, s)``; its trailing block size ``s``
    is the spinor dimension for the Dirac operator and 1 for a scalar
    operator.  The inverse FFT of the symbol over the momentum axes yields
    the convolution kernel, indexed by the componentwise difference of site
    vectors modulo N.
    """
    n, d, s = model.n, model.d, symbol.shape[-1]
    kernel = np.fft.ifftn(symbol, axes=tuple(range(d))).reshape(n**d, s, s)

    axis = np.arange(n)
    step = np.mod(axis[:, None] - axis[None, :], n)
    lin = step
    for _ in range(1, d):
        m = lin.shape[0] * n
        lin = ((lin * n)[:, None, :, None] + step[None, :, None, :]).reshape(m, m)
    out = np.empty((n**d, s, n**d, s), dtype=complex)
    for a in range(s):
        for b in range(s):
            # lin is already reduced mod N^d, so "wrap" never wraps; unlike
            # the default "raise" it lets np.take write into `out` unbuffered
            np.take(kernel[:, a, b], lin, out=out[:, a, :, b], mode="wrap")
    return out.reshape(n**d * s, n**d * s)


def free_hamiltonian(model: LatticeModel) -> np.ndarray:
    """Dense free operator: Fourier conjugation of the symbol on the momentum grid.

    A fresh array the caller may modify; :func:`eig_hermitian` checks its
    Hermiticity on entry.
    """
    symbol, _ = _symbol_grid(model)
    return _block_circulant(model, symbol)


def free_resolvent_power(model: LatticeModel, z: complex, k: int) -> np.ndarray:
    """``(H0 - z)^{-k}`` assembled from the symbol, without diagonalizing ``H0``.

    The symbol squares to ``E^2 I`` with ``E >= mass > 0``, so its spectral
    projections are ``(I +- symbol/E)/2`` and, per momentum,

        (symbol - z)^{-k} = [(E-z)^{-k} + (-E-z)^{-k}]/2 I
                            + [(E-z)^{-k} - (-E-z)^{-k}]/2 symbol/E

    exactly.  The result goes through the same Fourier conjugation as
    :func:`free_hamiltonian`.
    """
    z, k = _check_resolvent_args(z, k)
    symbol, energy = _symbol_grid(model)
    upper = (energy - z) ** (-k)
    lower = (-energy - z) ** (-k)
    even = 0.5 * (upper + lower)
    odd = 0.5 * (upper - lower) / energy
    eye = np.eye(model.spinor_dim)
    power = even[..., None, None] * eye + odd[..., None, None] * symbol
    return _block_circulant(model, power)


# ---------------------------------------------------------------------------
# weights and potentials


def _site_weights(model: LatticeModel, r: float) -> np.ndarray:
    """Site weights ``(1 + |x|^2)^{-r/2}``, one per site."""
    if not (0 < r < np.inf):
        raise ValueError(f"weight exponent must be finite and positive, got r={r!r}")
    return (1.0 + model.site_distances() ** 2) ** (-r / 2.0)


def weight_diagonal(model: LatticeModel, r: float) -> np.ndarray:
    """Entries ``(1 + |x|^2)^{-r/2}``, replicated across spinor components."""
    return np.repeat(_site_weights(model, r), model.spinor_dim)


@dataclass(frozen=True)
class MatrixPotential:
    """Sitewise Hermitian matrix potential, optionally with declared decay.

    When ``decay_c``/``decay_rho`` are set the sitewise spectral norm is
    validated against ``decay_c * (1 + |x|)^{-decay_rho}`` with the folded
    site distance; the constant is an input, the achieved sitewise ratio is
    reported, not asserted.
    """

    model: LatticeModel
    site_matrices: np.ndarray
    decay_c: Optional[float] = None
    decay_rho: Optional[float] = None

    def __post_init__(self):
        s = self.model.spinor_dim
        mats = np.asarray(self.site_matrices, dtype=complex)
        if mats.shape != (self.model.n_sites, s, s):
            raise ValueError(
                f"site matrices must have shape {(self.model.n_sites, s, s)}, "
                f"got {mats.shape}"
            )
        finite = np.isfinite(mats).all(axis=(1, 2))
        if not finite.all():
            raise ValueError(f"site matrix {int(np.argmin(finite))} has a non-finite entry")
        if np.abs(mats - np.conj(np.swapaxes(mats, 1, 2))).max() > 1e-12:
            raise ValueError("potential must be Hermitian at every site")
        if (self.decay_c is None) != (self.decay_rho is None):
            raise ValueError("declare both decay_c and decay_rho or neither")
        if self.decay_c is not None:
            if not (0 < self.decay_c < np.inf and 0 < self.decay_rho < np.inf):
                raise ValueError(
                    "decay declaration requires finite positive C and rho, got "
                    f"decay_c={self.decay_c!r}, decay_rho={self.decay_rho!r}"
                )
            bound = self.decay_c * (1.0 + self.model.site_distances()) ** (
                -self.decay_rho
            )
            tops = np.linalg.norm(mats, ord=2, axis=(1, 2))
            bad = tops > bound * (1.0 + 1e-9)
            if np.any(bad):
                i = int(np.argmax(tops / bound))
                raise ValueError(
                    f"declared decay violated at site {i}: norm {tops[i]:.3e} "
                    f"exceeds bound {bound[i]:.3e}"
                )
        mats.flags.writeable = False
        object.__setattr__(self, "site_matrices", mats)

    @property
    def is_decaying(self) -> bool:
        return self.decay_c is not None


def _site_blocks(matrix: np.ndarray, s: int) -> np.ndarray:
    """Writable view of the ``s x s`` diagonal blocks of a C-contiguous square
    ``matrix``, shape ``(n_sites, s, s)``: the sitewise embedding of a potential."""
    n_sites = matrix.shape[0] // s
    return np.einsum("iaib->iab", matrix.reshape(n_sites, s, n_sites, s))


def _apply_site_blocks(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``V @ x`` for the block-diagonal ``V`` with ``(n_sites, s, s)`` site blocks.

    One batched product over the sites: O(dim^2 s) work, where the product
    with the embedded dense ``V`` would cost O(dim^3).
    """
    n_sites, s, _ = blocks.shape
    return np.matmul(blocks, x.reshape(n_sites, s, -1)).reshape(x.shape)


def zero_potential(model: LatticeModel) -> MatrixPotential:
    s = model.spinor_dim
    return MatrixPotential(model, np.zeros((model.n_sites, s, s), dtype=complex))


def _random_site_matrices(
    model: LatticeModel, rng: np.random.Generator, bounds: np.ndarray, low_frac: float
) -> np.ndarray:
    """Random Hermitian site matrices with norms uniform in ``[low_frac, 1] * bounds``.

    Each site draws its matrix and then its norm fraction, in site order; the
    spectral norms are then taken in one stacked call.
    """
    s = model.spinor_dim
    mats = np.empty((model.n_sites, s, s), dtype=complex)
    fracs = np.empty(model.n_sites)
    for i in range(model.n_sites):
        mats[i] = random_hermitian(rng, s)
        fracs[i] = rng.uniform(low_frac, 1.0)
    tops = np.maximum(np.linalg.norm(mats, ord=2, axis=(1, 2)), ABS_FLOOR)
    return mats * (bounds * fracs / tops)[:, None, None]


def random_decaying_potential(
    model: LatticeModel, rng: np.random.Generator, c: float, rho: float
) -> MatrixPotential:
    """Random sitewise Hermitian matrices saturating 50-100% of the decay bound."""
    bounds = c * (1.0 + model.site_distances()) ** (-rho)
    mats = _random_site_matrices(model, rng, bounds, 0.5)
    return MatrixPotential(model, mats, decay_c=c, decay_rho=rho)


def random_bounded_potential(
    model: LatticeModel, rng: np.random.Generator, bound: float
) -> MatrixPotential:
    """Random sitewise Hermitian matrices with spectral norm in [0.2, 1] * bound, no decay."""
    bounds = np.full(model.n_sites, float(bound))
    return MatrixPotential(model, _random_site_matrices(model, rng, bounds, 0.2))


def perturbed_hamiltonian(
    model: LatticeModel, *potentials: MatrixPotential
) -> np.ndarray:
    """Dense ``H0 + V_1 + V_2 + ...``, the potentials added in order.

    Every potential must live on ``model``'s lattice: the same dimension,
    size, spacing and mass, since its declared decay was checked against that
    lattice's distances.
    """
    out = free_hamiltonian(model)
    blocks = _site_blocks(out, model.spinor_dim)
    for v in potentials:
        if v.model != model:
            raise ValueError(
                f"potential lattice {v.model} does not match the model lattice {model}"
            )
        blocks += v.site_matrices
    return out


# ---------------------------------------------------------------------------
# weighted-resolvent Schatten studies


# fit window of the decay exponent, as fractions of the singular-value count
_FIT_LO_FRAC = 0.02
_FIT_HI_FRAC = 0.4
# largest accepted |fitted - predicted| decay exponent
_EXPONENT_TOL = 0.5


def _fit_decay_exponent(sv: np.ndarray):
    count = sv.size
    lo = max(3, int(_FIT_LO_FRAC * count))
    hi = max(lo + 8, int(_FIT_HI_FRAC * count))
    hi = min(hi, count)
    if hi - lo < 5:
        return float("nan")
    idx = np.arange(lo + 1, hi + 1, dtype=float)
    vals = sv[lo:hi]
    good = vals > 0
    if good.sum() < 5:
        return float("nan")
    slope = np.polyfit(np.log(idx[good]), np.log(vals[good]), 1)[0]
    return float(-slope)


def _weighted_resolvent_profile(
    model: LatticeModel, r: float, k: int, z: complex
) -> SingularValueProfile:
    """Singular values of ``W (H0 - z)^{-k}``, W the :func:`weight_diagonal` weight.

    At ``Re z = 0``, ``z = iy``, the resolvent power is a function of ``H0``,
    so its polar factor is unitary and commutes with it, and ``W R0^k`` has
    the singular values of ``W |R0^k|``.  The symbol squares to ``E^2 I``, so
    ``|R0^k|`` has the scalar symbol ``(E^2 + y^2)^{-k/2}``: a function of
    ``|xi|^2``, even on the FFT grid (the Nyquist row maps to itself), whose
    kernel is real.  Hence ``W |R0^k|`` is ``(w C) (x) I_s`` with ``w`` the
    site weights and ``C`` a real symmetric circulant: one real ``N^d x N^d``
    SVD, each value repeated ``s`` times.  Any other ``z`` takes the SVD of
    the dense complex ``s N^d x s N^d`` matrix.  Expects a validated ``z``
    and ``k``.
    """
    if z.real != 0.0:
        return singular_values(
            weight_diagonal(model, r)[:, None] * free_resolvent_power(model, z, k)
        )
    w = _site_weights(model, r)
    _, energy = _symbol_grid(model)
    modulus = (energy**2 + z.imag**2) ** (-k / 2.0)
    kernel = _block_circulant(model, modulus[..., None, None]).real
    sv = singular_values(w[:, None] * kernel)
    return SingularValueProfile(np.repeat(sv.values, model.spinor_dim))


@dataclass(frozen=True)
class WeightedResolventReport:
    d: int
    n: int
    r: float
    k: int
    z: complex
    p_norms: dict
    threshold_p: float
    predicted_exponent: float
    fitted_exponent: float
    exponent_ok: bool


def weighted_resolvent_schatten(
    model: LatticeModel,
    r: float,
    k: int,
    z: complex,
    p_list: Sequence[float],
) -> WeightedResolventReport:
    """Schatten norms and singular-value decay of weight times free resolvent power.

    The predicted singular-value decay exponent is ``min(r, k) / d``; the
    corresponding summability threshold is ``p > d / min(r, k)``.  ``z`` and
    every ``p`` are validated before any assembly.  At ``Re z = 0`` the
    singular values come from one real SVD of the ``N^d``-site kernel of
    ``|R0^k|``, each repeated over the ``s`` spinor components; any other
    ``z`` takes the SVD of the dense complex ``s N^d``-row matrix.
    """
    z, k = _check_resolvent_args(z, k)
    for p in p_list:
        if not float(p) >= 1.0:
            raise ValueError(f"schatten order p must be >= 1, got {p!r}")
    sv = _weighted_resolvent_profile(model, r, k, z)
    norms = {float(p): schatten_norm(sv, p) for p in p_list}
    fitted = _fit_decay_exponent(sv.values)
    predicted = min(r, float(k)) / model.d
    return WeightedResolventReport(
        d=model.d,
        n=model.n,
        r=r,
        k=k,
        z=z,
        p_norms=norms,
        threshold_p=model.d / min(r, float(k)),
        predicted_exponent=predicted,
        fitted_exponent=fitted,
        exponent_ok=bool(abs(fitted - predicted) <= _EXPONENT_TOL),
    )


@dataclass(frozen=True)
class RefinementStudy:
    d: int
    r: float
    k: int
    z: complex
    n_list: tuple
    norms_by_p: dict
    stabilized: dict
    grows: dict
    threshold_p: float


_STAB_RTOL = 0.05


def schatten_refinement_study(
    d: int,
    r: float,
    k: int,
    z: complex,
    p_list: Sequence[float],
    n_list: Sequence[int],
    mass: float = 1.0,
    h: Optional[float] = None,
) -> RefinementStudy:
    """Track weighted-resolvent Schatten norms across lattice refinement.

    ``h=None`` uses balanced spacing per size (momentum and position windows
    refine together); a fixed ``h`` grows the volume only, which reaches the
    slow position-space tails of weakly decaying weights much faster at the
    same sizes.  A norm is flagged stabilized when the last refinement step
    moves it by at most 5% relatively; flagged growing when it increases at
    every step.
    """
    if len(n_list) < 2:
        raise ValueError("refinement study needs at least two lattice sizes")
    norms_by_p = {float(p): [] for p in p_list}
    for n in n_list:
        spacing = balanced_spacing(n) if h is None else float(h)
        model = LatticeModel(d=d, n=n, h=spacing, mass=mass)
        rep = weighted_resolvent_schatten(model, r, k, z, p_list)
        for p in norms_by_p:
            norms_by_p[p].append(rep.p_norms[p])
    stabilized = {}
    grows = {}
    for p, vals in norms_by_p.items():
        last, prev = vals[-1], vals[-2]
        stabilized[p] = bool(abs(last - prev) <= _STAB_RTOL * abs(last))
        grows[p] = bool(np.all(np.diff(vals) > 0))
    return RefinementStudy(
        d=d,
        r=r,
        k=k,
        z=complex(z),
        n_list=tuple(int(n) for n in n_list),
        norms_by_p={p: tuple(v) for p, v in norms_by_p.items()},
        stabilized=stabilized,
        grows=grows,
        threshold_p=d / min(r, float(k)),
    )


# ---------------------------------------------------------------------------
# resolvent-power expansion


def _resolvent(h: np.ndarray, z: complex) -> np.ndarray:
    """``(h - z)^{-1}`` through an LU solve.

    Shifts the diagonal of ``h`` in place, so callers hand over a matrix they
    no longer need.
    """
    h[np.diag_indices_from(h)] -= z
    return np.linalg.inv(h)


def _horner_expansion(
    res: np.ndarray, res0: np.ndarray, blocks: np.ndarray, mpow: int
) -> np.ndarray:
    """``sum_{k=1..mpow} R^k V R0^(mpow+1-k)``, summed by Horner's rule.

    ``R (V R0^mpow + R (V R0^(mpow-1) + ... + R V R0))`` keeps one running
    power of ``R0`` and applies ``V`` through its site ``blocks``: ``2 mpow - 1``
    dense products instead of one per power and two per term.
    """
    power = res0
    inner = _apply_site_blocks(blocks, power)
    for _ in range(mpow - 1):
        power = power @ res0
        inner = res @ inner
        inner += _apply_site_blocks(blocks, power)
    del power
    return res @ inner


@dataclass(frozen=True)
class PowerDifferenceReport:
    d: int
    n: int
    mpow: int
    z: complex
    residual: float
    scale: float
    relative_residual: float
    trace_norm: float


def resolvent_power_difference(
    model: LatticeModel,
    v0: MatrixPotential,
    v: MatrixPotential,
    z: complex,
    mpow: int,
) -> PowerDifferenceReport:
    """Check the resolvent-power expansion and report the trace norm.

    The difference of the mpow-th resolvent powers of the perturbed and
    unperturbed operators equals minus the sum over k of
    ``R^k V R0^(mpow+1-k)``.  The left side is computed by eigendecomposition,
    the right side by LU-based inversion, so agreement is a genuine
    cross-check rather than a tautology.  The right side inverts ``H`` and
    ``H0`` once each and is summed by Horner's rule, with ``V`` applied
    through its site blocks.
    """
    z, mpow = _check_resolvent_args(z, mpow)
    if mpow % 2 == 0:
        raise ValueError(f"mpow must be an odd integer >= 1, got {mpow!r}")
    h0 = perturbed_hamiltonian(model, v0)
    h = perturbed_hamiltonian(model, v0, v)

    lhs = resolvent_power(eig_hermitian(h), z, mpow)
    lhs -= resolvent_power(eig_hermitian(h0), z, mpow)

    # each dense operator is dropped after its last use: the peak stays near
    # seven dense matrices, the left side's eigendecomposition included
    res0 = _resolvent(h0, z)
    del h0
    res = _resolvent(h, z)
    del h
    # lhs - rhs with rhs = -(the expansion sum)
    diff = _horner_expansion(res, res0, v.site_matrices, mpow)
    del res, res0
    diff += lhs

    residual = float(np.abs(diff).max())
    del diff
    scale = max(float(np.abs(lhs).max()), ABS_FLOOR)
    return PowerDifferenceReport(
        d=model.d,
        n=model.n,
        mpow=mpow,
        z=z,
        residual=residual,
        scale=scale,
        relative_residual=residual / scale,
        trace_norm=schatten_norm(singular_values(lhs), 1),
    )


# ---------------------------------------------------------------------------
# weighted Hoelder factorization


@dataclass(frozen=True)
class FactorizationReport:
    d: int
    k: int
    mpow: int
    rho: float
    r1: float
    r2: float
    budget: float
    feasible: bool
    p1: Optional[float]
    p2: Optional[float]
    norm_left: Optional[float]
    norm_mid: Optional[float]
    norm_right: Optional[float]
    product_bound: Optional[float]
    direct_trace_norm: float
    holder_ok: Optional[bool]
    factorization_residual: float


def weighted_factorization_report(
    model: LatticeModel,
    v: MatrixPotential,
    k: int,
    mpow: int,
    z: complex,
) -> FactorizationReport:
    """Factor one expansion term through decaying weights and check Hoelder.

    The term ``R^k V R0^(mpow+1-k)`` is rewritten as (weighted resolvent) x
    (weight-compensated potential) x (weighted free-side resolvent) with the
    weight exponents splitting the declared potential decay rho
    proportionally: r1 = k rho/(mpow+1), r2 = (mpow+1-k) rho/(mpow+1).
    The Schatten budget ``min(r1,k)/d + min(r2,mpow+1-k)/d`` must exceed 1
    for a trace-class Hoelder pairing; at rho = d it is exactly 1 and the
    factorization is flagged infeasible.  ``R0`` is the free resolvent, built
    from the symbol by :func:`free_resolvent_power`; only ``R`` is inverted.
    ``V`` and the middle factor act through their site blocks.
    """
    if not v.is_decaying:
        raise ValueError("factorization needs a potential with declared decay")
    z, mpow = _check_resolvent_args(z, mpow)
    if not _is_integer(k) or not 1 <= k <= mpow:
        raise ValueError(f"k must be an integer in 1..mpow = {mpow}, got k={k!r}")
    k = int(k)
    rho = float(v.decay_rho)
    j = mpow + 1 - k
    r1 = k * rho / (mpow + 1)
    r2 = j * rho / (mpow + 1)
    u1 = min(r1, float(k)) / model.d
    u2 = min(r2, float(j)) / model.d
    budget = u1 + u2
    feasible = bool(budget > 1.0)

    res = _resolvent(perturbed_hamiltonian(model, v), z)
    rk = res
    for _ in range(k - 1):
        rk = rk @ res
    del res
    r0j = free_resolvent_power(model, z, j)
    direct = rk @ _apply_site_blocks(v.site_matrices, r0j)
    direct_trace = schatten_norm(singular_values(direct), 1)

    w1 = _site_weights(model, r1)
    w2 = _site_weights(model, r2)
    s = model.spinor_dim
    # middle factor <x>^(r1+r2) V: the diagonal weights commute with the site
    # blocks, so it stays block diagonal; left and right are scaled in place
    mid = v.site_matrices / (w1 * w2)[:, None, None]
    left = rk
    left *= np.repeat(w1, s)[None, :]
    right = r0j
    right *= np.repeat(w2, s)[:, None]
    product = left @ _apply_site_blocks(mid, right)
    del right, r0j
    product -= direct
    factorization_residual = float(np.abs(product).max())
    del product, direct

    # an infeasible budget has no Hoelder pairing: its fields stay None
    p1 = p2 = norm_left = norm_mid = norm_right = product_bound = holder_ok = None
    if feasible:
        p1 = budget / u1
        p2 = budget / u2
        norm_left = schatten_norm(singular_values(left), p1)
        norm_mid = float(np.linalg.norm(mid, ord=2, axis=(1, 2)).max())
        norm_right = schatten_norm(_weighted_resolvent_profile(model, r2, j, z), p2)
        product_bound = norm_left * norm_mid * norm_right
        holder_ok = bool(direct_trace <= product_bound * (1.0 + 1e-9))
    return FactorizationReport(
        d=model.d,
        k=k,
        mpow=mpow,
        rho=rho,
        r1=r1,
        r2=r2,
        budget=budget,
        feasible=feasible,
        p1=p1,
        p2=p2,
        norm_left=norm_left,
        norm_mid=norm_mid,
        norm_right=norm_right,
        product_bound=product_bound,
        direct_trace_norm=direct_trace,
        holder_ok=holder_ok,
        factorization_residual=factorization_residual,
    )


# ---------------------------------------------------------------------------
# weight-commutator identity and decay


def commutator_identity_residual(
    model: LatticeModel,
    v0: MatrixPotential,
    v: MatrixPotential,
    r: float,
    k: int,
    z: complex,
) -> float:
    """Relative sup-norm residual of the weight-commutator resolvent identity.

    With W the diagonal weight, R the full resolvent and C the commutator of
    the free operator with W,

        W R^(k+1) = R W R^k + R C R^(k+1)

    holds exactly on the lattice: the sitewise potentials commute with W, so
    only the free part survives in the commutator.  Returns the sup-norm
    residual divided by the sup norm of the left side.
    """
    if not _is_integer(k) or k < 0:
        raise ValueError(f"k must be an integer >= 0, got k={k!r}")
    # the identity carries R^(k+1)
    z, _ = _check_resolvent_args(z, k + 1)
    w = weight_diagonal(model, r)
    h = perturbed_hamiltonian(model, v0, v)
    # the potentials' site blocks commute with W exactly, so this is the
    # commutator of the free operator alone
    comm = h * w[None, :]
    comm -= w[:, None] * h
    res = _resolvent(h, z)
    del h
    # R^k (None for the identity at k = 0) and R^(k+1)
    rk, rk1 = None, res
    for _ in range(k):
        rk, rk1 = rk1, rk1 @ res
    # right side R (W R^k + C R^(k+1)); each dense matrix is dropped after its
    # last use
    inner = comm @ rk1
    del comm
    inner += np.diag(w) if rk is None else w[:, None] * rk
    del rk
    rhs = res @ inner
    del res, inner
    lhs = rk1
    lhs *= w[:, None]
    scale = max(schatten_norm(singular_values(lhs), np.inf), ABS_FLOOR)
    rhs -= lhs
    return schatten_norm(singular_values(rhs), np.inf) / scale


@dataclass(frozen=True)
class CommutatorDecayReport:
    r: float
    n: int
    distances: tuple
    profile_raw: tuple
    profile_weighted: tuple
    sup_constant: float
    far_ratio: float
    decays: bool


_NEAR_WINDOW = 10.0


def commutator_decay_report(model: LatticeModel, r: float) -> CommutatorDecayReport:
    """Columnwise decay profile of the free-operator/weight commutator.

    The raw profile is the spectral norm of each site's column block of the
    commutator; the weighted profile measures each column against the decay
    envelope ``<x>^-(r+1)`` at that column's site, so a flat weighted profile
    means the columns obey the envelope.  ``sup_constant`` is the fitted
    near-field constant: the max of the weighted profile over columns within
    distance 10 of the origin (clipped to 40% of the torus radius).  The free
    operator is nonlocal on the lattice, so the far-field columns outgrow the
    envelope and only the near-field constant is a meaningful stand-in for the
    continuum bound; the full profiles are kept in the report for inspection.
    """
    h00 = free_hamiltonian(model)
    w = weight_diagonal(model, r)
    comm = h00 * w[None, :] - w[:, None] * h00
    dist = model.site_distances()
    s = model.spinor_dim
    dim = model.total_dim

    cols = comm.reshape(dim, model.n_sites, s).transpose(1, 0, 2)
    raw = np.linalg.svd(cols, compute_uv=False)[:, 0]
    weighted = raw * (1.0 + dist**2) ** ((r + 1) / 2.0)
    near = dist <= min(_NEAR_WINDOW, 0.4 * float(dist.max()))
    far = dist >= 0.75 * dist.max()
    raw_max = max(float(raw.max()), ABS_FLOOR)
    far_ratio = float(raw[far].max()) / raw_max
    return CommutatorDecayReport(
        r=float(r),
        n=model.n,
        distances=tuple(float(x) for x in dist),
        profile_raw=tuple(float(x) for x in raw),
        profile_weighted=tuple(float(x) for x in weighted),
        sup_constant=float(weighted[near].max()),
        far_ratio=far_ratio,
        decays=bool(far_ratio < 0.5),
    )


_DECAY_STUDY_H = 1.5
_DECAY_STUDY_RTOL = 0.2


def commutator_decay_study(d: int, r: float, n_list: Sequence[int], mass: float = 1.0):
    """Near-field sup constants of the weighted commutator across refinement.

    Refinement grows the volume at fixed spacing 1.5, so the near-field
    columns converge sitewise and their fitted constant should settle;
    shrinking the spacing instead would keep reshaping the kernel near the
    origin.  Returns (sup_constants, stable flag): stable when the last two
    agree within 20% relatively.
    """
    if len(n_list) < 2:
        raise ValueError("commutator decay study needs at least two lattice sizes")
    sups = []
    for n in n_list:
        model = LatticeModel(d=d, n=n, h=_DECAY_STUDY_H, mass=mass)
        sups.append(commutator_decay_report(model, r).sup_constant)
    stable = bool(abs(sups[-1] - sups[-2]) <= _DECAY_STUDY_RTOL * abs(sups[-1]))
    return tuple(sups), stable
