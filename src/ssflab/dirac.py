"""Free Dirac operator on a periodic lattice and its Schatten-class estimates.

The free operator is assembled spectrally: the matrix symbol is evaluated on
the discrete momentum grid and conjugated back by the discrete Fourier
transform, so the only discretization error is domain truncation.  On top of
it the module provides decaying weights, matrix-valued site potentials,
weighted-resolvent singular-value studies (Schatten threshold law), the exact
resolvent-power expansion, the weighted Hoelder factorization of its terms,
and the exact weight-commutator identity.

Naming note: ``mass`` is the particle mass in the symbol and ``mpow`` the
resolvent power, which are distinct parameters throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .spectral import (
    ABS_FLOOR,
    HermitianOperator,
    _check_resolvent_args,
    eig_hermitian,
    resolvent_power,
    schatten_norm,
    singular_values,
)
from .utils import random_hermitian

__all__ = [
    "CommutatorDecayReport",
    "DiracMatrices",
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
    "dirac_matrices",
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

_ANTICOMM_TOL = 1e-14


@dataclass(frozen=True)
class DiracMatrices:
    """Anticommuting Hermitian matrices (kinetic set plus the mass matrix).

    ``alphas`` holds the d kinetic matrices followed by the mass matrix.
    Spinor dimension is 2 for d in {1, 2} and 4 for d = 3.
    """

    d: int
    spinor_dim: int
    alphas: tuple

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d!r}")
        expected = 2 if self.d in (1, 2) else 4
        if self.spinor_dim != expected:
            raise ValueError(f"spinor_dim must be {expected} for d={self.d}")
        if len(self.alphas) != self.d + 1:
            raise ValueError(f"need {self.d + 1} matrices, got {len(self.alphas)}")
        mats = []
        eye = np.eye(self.spinor_dim)
        for a in self.alphas:
            # a private copy: freezing must not reach the caller's array
            a = np.array(a, dtype=complex)
            if a.shape != (self.spinor_dim, self.spinor_dim):
                raise ValueError("matrix shape does not match spinor_dim")
            if np.abs(a - a.conj().T).max() > _ANTICOMM_TOL:
                raise ValueError("kinetic/mass matrices must be Hermitian")
            if np.abs(a @ a - eye).max() > _ANTICOMM_TOL:
                raise ValueError("each matrix must square to the identity")
            a.flags.writeable = False
            mats.append(a)
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                anti = mats[i] @ mats[j] + mats[j] @ mats[i]
                if np.abs(anti).max() > _ANTICOMM_TOL:
                    raise ValueError(f"matrices {i} and {j} fail to anticommute")
        object.__setattr__(self, "alphas", tuple(mats))

    @property
    def kinetic(self) -> tuple:
        return self.alphas[: self.d]

    @property
    def mass_matrix(self) -> np.ndarray:
        return self.alphas[self.d]

    def __eq__(self, other):
        # the generated equality compares tuples of arrays, whose truth value
        # is ambiguous
        if not isinstance(other, DiracMatrices):
            return NotImplemented
        return self.d == other.d and all(
            np.array_equal(a, b) for a, b in zip(self.alphas, other.alphas)
        )

    def __hash__(self):
        # agrees with __eq__: adding 0.0 maps -0.0 to 0.0, which array_equal
        # counts as equal but tobytes would not
        return hash((self.d, tuple((a + 0.0).tobytes() for a in self.alphas)))


def dirac_matrices(d: int) -> DiracMatrices:
    """Standard representation: Pauli pairs for d in {1, 2}, 4x4 set for d=3."""
    if d == 1:
        return DiracMatrices(1, 2, (_SIGMA1, _SIGMA3))
    if d == 2:
        return DiracMatrices(2, 2, (_SIGMA1, _SIGMA2, _SIGMA3))
    if d == 3:
        zero = np.zeros((2, 2), dtype=complex)
        eye = np.eye(2, dtype=complex)
        off = lambda s: np.block([[zero, s], [s, zero]])  # noqa: E731
        beta = np.block([[eye, zero], [zero, -eye]])
        return DiracMatrices(3, 4, (off(_SIGMA1), off(_SIGMA2), off(_SIGMA3), beta))
    raise ValueError(f"dimension must be 1, 2 or 3, got {d!r}")


def free_symbol(matrices: DiracMatrices, mass: float, xi) -> np.ndarray:
    """Momentum-space symbol: sum of kinetic matrices times momentum, plus mass.

    Squares to ``(|xi|^2 + mass^2) I``, so its eigenvalues are the two signed
    branches, each with multiplicity spinor_dim / 2.
    """
    xi = np.asarray(xi, dtype=float).reshape(-1)
    if xi.size != matrices.d:
        raise ValueError(f"momentum must have {matrices.d} components")
    out = mass * matrices.mass_matrix.copy()
    for j, a in enumerate(matrices.kinetic):
        out = out + xi[j] * a
    return out


@dataclass(frozen=True)
class LatticeModel:
    """Periodic lattice in d dimensions with N sites per axis and spacing h.

    Sites carry signed integer coordinates -N/2 .. N/2-1 per axis, so the
    coordinate itself realizes the torus-folded (shorter-arc) distance to the
    origin.  Momenta live on the dual grid 2 pi k / (N h) with the same signed
    integer range.
    """

    d: int
    n: int
    h: float
    mass: float
    matrices: DiracMatrices = field(default=None)

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 2, got {self.n!r}")
        if not (self.h > 0):
            raise ValueError(f"lattice spacing must be positive, got {self.h!r}")
        if not (self.mass > 0):
            raise ValueError(f"mass must be positive, got {self.mass!r}")
        if self.matrices is None:
            object.__setattr__(self, "matrices", dirac_matrices(self.d))
        elif self.matrices.d != self.d:
            raise ValueError("matrix set dimension does not match the lattice")

    @property
    def spinor_dim(self) -> int:
        return self.matrices.spinor_dim

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

    def momentum_vectors(self) -> np.ndarray:
        """Momenta in the same lexicographic signed order, shape (n_sites, d)."""
        return (2.0 * np.pi / (self.n * self.h)) * self.site_vectors()


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
    kint = _fft_integer_grid(n)
    grids = np.meshgrid(*([kint] * d), indexing="ij")
    scale = 2.0 * np.pi / (n * model.h)
    symbol = np.zeros((n,) * d + (s, s), dtype=complex)
    energy_sq = np.full((n,) * d, model.mass**2)
    for j, a in enumerate(model.matrices.kinetic):
        xi = scale * grids[j]
        symbol += xi[..., None, None] * a
        energy_sq += xi**2
    symbol += model.mass * model.matrices.mass_matrix
    return symbol, np.sqrt(energy_sq)


def _block_circulant(model: LatticeModel, symbol: np.ndarray) -> np.ndarray:
    """Dense site-space matrix of a translation-invariant operator from its symbol.

    The inverse FFT of the symbol over the momentum axes yields the
    convolution kernel, indexed by the componentwise difference of site
    vectors modulo N.
    """
    n, d, s = model.n, model.d, model.spinor_dim
    kernel = np.fft.ifftn(symbol, axes=tuple(range(d)))
    kernel_flat = kernel.reshape(n**d, s, s)

    sites = model.site_vectors()
    delta = np.mod(sites[:, None, :] - sites[None, :, :], n)
    lin = delta[..., 0]
    for axis in range(1, d):
        lin = lin * n + delta[..., axis]
    blocks = kernel_flat[lin]
    dim = model.total_dim
    return blocks.transpose(0, 2, 1, 3).reshape(dim, dim)


def free_hamiltonian(model: LatticeModel) -> HermitianOperator:
    """Dense free operator: Fourier conjugation of the symbol on the momentum grid."""
    symbol, _ = _symbol_grid(model)
    return HermitianOperator(_block_circulant(model, symbol))


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


def weight_diagonal(model: LatticeModel, r: float) -> np.ndarray:
    """Entries ``(1 + |x|^2)^{-r/2}``, replicated across spinor components."""
    if not (r > 0):
        raise ValueError(f"weight exponent must be positive, got {r!r}")
    w = (1.0 + model.site_distances() ** 2) ** (-r / 2.0)
    return np.repeat(w, model.spinor_dim)


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
        if np.abs(mats - np.conj(np.swapaxes(mats, 1, 2))).max() > 1e-12:
            raise ValueError("potential must be Hermitian at every site")
        if (self.decay_c is None) != (self.decay_rho is None):
            raise ValueError("declare both decay_c and decay_rho or neither")
        if self.decay_c is not None:
            if self.decay_c <= 0 or self.decay_rho <= 0:
                raise ValueError("decay declaration requires positive C and rho")
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

    def achieved_ratio(self) -> float:
        """Largest sitewise norm over the declared decay bound."""
        if not self.is_decaying:
            raise ValueError("potential was not declared decaying")
        bound = self.decay_c * (1.0 + self.model.site_distances()) ** (-self.decay_rho)
        tops = np.linalg.norm(self.site_matrices, ord=2, axis=(1, 2))
        return float((tops / bound).max())

    def to_operator(self) -> np.ndarray:
        s = self.model.spinor_dim
        dim = self.model.total_dim
        out = np.zeros((dim, dim), dtype=complex)
        for i in range(self.model.n_sites):
            out[i * s : (i + 1) * s, i * s : (i + 1) * s] = self.site_matrices[i]
        return out


def zero_potential(model: LatticeModel) -> MatrixPotential:
    s = model.spinor_dim
    return MatrixPotential(model, np.zeros((model.n_sites, s, s), dtype=complex))


def _random_site_matrices(
    model: LatticeModel, rng: np.random.Generator, bounds: np.ndarray, low_frac: float
) -> np.ndarray:
    """Random Hermitian site matrices with norms uniform in ``[low_frac, 1] * bounds``."""
    s = model.spinor_dim
    mats = np.empty((model.n_sites, s, s), dtype=complex)
    for i in range(model.n_sites):
        a = random_hermitian(rng, s)
        top = np.linalg.norm(a, ord=2)
        mats[i] = a * (bounds[i] * rng.uniform(low_frac, 1.0) / max(top, ABS_FLOOR))
    return mats


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


def _lattice_label(model: LatticeModel) -> str:
    return f"(d={model.d}, n={model.n}, h={model.h!r}, mass={model.mass!r})"


def perturbed_hamiltonian(
    model: LatticeModel, *potentials: MatrixPotential
) -> np.ndarray:
    """Dense ``H0 + V_1 + V_2 + ...``, the potentials added in order.

    Every potential must live on ``model``'s lattice: the same dimension,
    size, spacing, mass and Dirac matrices, since its declared decay was
    checked against that lattice's distances.
    """
    out = np.array(free_hamiltonian(model).entries)
    s = model.spinor_dim
    sites = np.arange(model.n_sites)
    blocks = out.reshape(model.n_sites, s, model.n_sites, s)
    for v in potentials:
        if v.model != model:
            other = "" if v.model.matrices == model.matrices else " (other Dirac matrices)"
            raise ValueError(
                f"potential lattice {_lattice_label(v.model)} does not match the "
                f"model lattice {_lattice_label(model)}{other}"
            )
        blocks[sites, :, sites, :] += v.site_matrices
    return out


# ---------------------------------------------------------------------------
# weighted-resolvent Schatten studies


def _fit_decay_exponent(sv: np.ndarray, lo_frac: float = 0.02, hi_frac: float = 0.4):
    count = sv.size
    lo = max(3, int(lo_frac * count))
    hi = max(lo + 8, int(hi_frac * count))
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
    exponent_tol: float = 0.5,
) -> WeightedResolventReport:
    """Schatten norms and singular-value decay of weight times free resolvent power.

    The predicted singular-value decay exponent is ``min(r, k) / d``; the
    corresponding summability threshold is ``p > d / min(r, k)``.
    """
    for p in p_list:
        if not float(p) >= 1.0:
            raise ValueError(f"schatten order p must be >= 1, got {p!r}")
    w = weight_diagonal(model, r)
    weighted = w[:, None] * free_resolvent_power(model, z, k)
    sv = singular_values(weighted)
    norms = {float(p): schatten_norm(sv, p) for p in p_list}
    fitted = _fit_decay_exponent(sv.values)
    predicted = min(r, float(k)) / model.d
    return WeightedResolventReport(
        d=model.d,
        n=model.n,
        r=r,
        k=k,
        z=complex(z),
        p_norms=norms,
        threshold_p=model.d / min(r, float(k)),
        predicted_exponent=predicted,
        fitted_exponent=fitted,
        exponent_ok=bool(abs(fitted - predicted) <= exponent_tol),
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
    stab_rtol: float


def schatten_refinement_study(
    d: int,
    r: float,
    k: int,
    z: complex,
    p_list: Sequence[float],
    n_list: Sequence[int],
    mass: float = 1.0,
    stab_rtol: float = 0.05,
    h: Optional[float] = None,
) -> RefinementStudy:
    """Track weighted-resolvent Schatten norms across lattice refinement.

    ``h=None`` uses balanced spacing per size (momentum and position windows
    refine together); a fixed ``h`` grows the volume only, which reaches the
    slow position-space tails of weakly decaying weights much faster at the
    same sizes.  A norm is flagged stabilized when the last refinement step
    moves it by at most ``stab_rtol`` relatively; flagged growing when it
    increases at every step.
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
        stabilized[p] = bool(abs(last - prev) <= stab_rtol * abs(last))
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
        stab_rtol=stab_rtol,
    )


# ---------------------------------------------------------------------------
# resolvent-power expansion


def _inverse_powers(h: np.ndarray, z: complex, kmax: int) -> list:
    dim = h.shape[0]
    base = np.linalg.solve(h - z * np.eye(dim), np.eye(dim, dtype=complex))
    powers = [np.eye(dim, dtype=complex), base]
    for _ in range(kmax - 1):
        powers.append(powers[-1] @ base)
    return powers


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
    cross-check rather than a tautology.
    """
    if mpow < 1 or mpow % 2 == 0:
        raise ValueError(f"mpow must be an odd integer >= 1, got {mpow!r}")
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError("resolvent point must have Im z != 0")
    h0 = perturbed_hamiltonian(model, v0)
    h = perturbed_hamiltonian(model, v0, v)
    vop = v.to_operator()

    lhs = resolvent_power(eig_hermitian(h), z, mpow) - resolvent_power(
        eig_hermitian(h0), z, mpow
    )

    rp = _inverse_powers(h, z, mpow)
    r0p = _inverse_powers(h0, z, mpow + 1)
    rhs = np.zeros_like(lhs)
    for k in range(1, mpow + 1):
        rhs -= rp[k] @ vop @ r0p[mpow + 1 - k]

    residual = float(np.abs(lhs - rhs).max())
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
    """
    if not v.is_decaying:
        raise ValueError("factorization needs a potential with declared decay")
    if not (1 <= k <= mpow):
        raise ValueError(f"k must lie in 1..mpow, got {k!r}")
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError("resolvent point must have Im z != 0")
    rho = float(v.decay_rho)
    j = mpow + 1 - k
    r1 = k * rho / (mpow + 1)
    r2 = j * rho / (mpow + 1)
    u1 = min(r1, float(k)) / model.d
    u2 = min(r2, float(j)) / model.d
    budget = u1 + u2
    feasible = bool(budget > 1.0)

    h = perturbed_hamiltonian(model, v)
    vop = v.to_operator()
    rk = _inverse_powers(h, z, k)[k]
    r0j = free_resolvent_power(model, z, j)
    direct = rk @ vop @ r0j
    direct_trace = schatten_norm(singular_values(direct), 1)

    w1 = weight_diagonal(model, r1)
    w2 = weight_diagonal(model, r2)
    # middle factor: weights inverted against the sitewise potential; diagonal
    # weights commute with sitewise blocks, so this is exactly <x>^(r1+r2) V
    comp = vop / (w1[:, None] * w2[None, :])
    left = rk * w1[None, :]
    right = w2[:, None] * r0j
    product = left @ comp @ right
    factorization_residual = float(np.abs(product - direct).max())

    # an infeasible budget has no Hoelder pairing: its fields stay None
    p1 = p2 = norm_left = norm_mid = norm_right = product_bound = holder_ok = None
    if feasible:
        p1 = budget / u1
        p2 = budget / u2
        norm_left = schatten_norm(singular_values(left), p1)
        norm_mid = float(np.linalg.norm(comp, ord=2))
        norm_right = schatten_norm(singular_values(right), p2)
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
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k!r}")
    z = complex(z)
    if z.imag == 0.0:
        raise ValueError("resolvent point must have Im z != 0")
    h00 = np.array(free_hamiltonian(model).entries)
    h = perturbed_hamiltonian(model, v0, v)
    w = weight_diagonal(model, r)
    powers = _inverse_powers(h, z, k + 1)
    rk = powers[k]
    rk1 = powers[k + 1]
    res = powers[1]
    comm = h00 * w[None, :] - w[:, None] * h00
    lhs = w[:, None] * rk1
    rhs = res @ (w[:, None] * rk) + res @ comm @ rk1
    scale = max(float(np.linalg.norm(lhs, ord=2)), ABS_FLOOR)
    return float(np.linalg.norm(lhs - rhs, ord=2)) / scale


@dataclass(frozen=True)
class CommutatorDecayReport:
    r: float
    n: int
    near_window: float
    distances: tuple
    profile_raw: tuple
    profile_weighted: tuple
    sup_constant: float
    far_ratio: float
    decays: bool


def commutator_decay_report(
    model: LatticeModel, r: float, near_window: float = 10.0
) -> CommutatorDecayReport:
    """Columnwise decay profile of the free-operator/weight commutator.

    The raw profile is the spectral norm of each site's column block of the
    commutator; the weighted profile measures each column against the decay
    envelope ``<x>^-(r+1)`` at that column's site, so a flat weighted profile
    means the columns obey the envelope.  ``sup_constant`` is the fitted
    near-field constant: the max of the weighted profile over columns within
    ``near_window`` (clipped to 40% of the torus radius).  The free operator
    is nonlocal on the lattice, so the far-field columns outgrow the envelope
    and only the near-field constant is a meaningful stand-in for the
    continuum bound; the full profiles are kept in the report for inspection.
    """
    if near_window <= 0:
        raise ValueError(f"near_window must be positive, got {near_window!r}")
    h00 = np.array(free_hamiltonian(model).entries)
    w = weight_diagonal(model, r)
    comm = h00 * w[None, :] - w[:, None] * h00
    dist = model.site_distances()
    s = model.spinor_dim
    dim = model.total_dim

    cols = comm.reshape(dim, model.n_sites, s).transpose(1, 0, 2)
    raw = np.linalg.svd(cols, compute_uv=False)[:, 0]
    weighted = raw * (1.0 + dist**2) ** ((r + 1) / 2.0)
    near = dist <= min(near_window, 0.4 * float(dist.max()))
    far = dist >= 0.75 * dist.max()
    raw_max = max(float(raw.max()), ABS_FLOOR)
    far_ratio = float(raw[far].max()) / raw_max
    return CommutatorDecayReport(
        r=float(r),
        n=model.n,
        near_window=float(near_window),
        distances=tuple(float(x) for x in dist),
        profile_raw=tuple(float(x) for x in raw),
        profile_weighted=tuple(float(x) for x in weighted),
        sup_constant=float(weighted[near].max()),
        far_ratio=far_ratio,
        decays=bool(far_ratio < 0.5),
    )


def commutator_decay_study(
    d: int,
    r: float,
    n_list: Sequence[int],
    mass: float = 1.0,
    rtol: float = 0.2,
    h: float = 1.5,
):
    """Near-field sup constants of the weighted commutator across refinement.

    Refinement grows the volume at fixed spacing ``h``, so the near-field
    columns converge sitewise and their fitted constant should settle;
    shrinking the spacing instead would keep reshaping the kernel near the
    origin.  Returns (sup_constants, stable flag): stable when the last two
    agree within ``rtol`` relatively.
    """
    if len(n_list) < 2:
        raise ValueError("commutator decay study needs at least two lattice sizes")
    sups = []
    for n in n_list:
        model = LatticeModel(d=d, n=n, h=h, mass=mass)
        sups.append(commutator_decay_report(model, r).sup_constant)
    stable = bool(abs(sups[-1] - sups[-2]) <= rtol * abs(sups[-1]))
    return tuple(sups), stable
