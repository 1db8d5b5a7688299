"""Dense Hermitian linear algebra substrate.

Eigendecompositions, the matrix functional calculus, resolvent powers,
singular values, Schatten norms, and determinants of ``I + M``.  Everything
downstream (eigenvalue-counting step functions, double operator integrals,
lattice Dirac models) is built on the operations in this module.

All container types are immutable after construction and all operations are
pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ABS_FLOOR",
    "HERMITICITY_RTOL",
    "HermitianOperator",
    "NotHermitianError",
    "SingularValueProfile",
    "SpectralDecomposition",
    "apply_function",
    "det_id_plus",
    "eig_hermitian",
    "hermiticity_defect",
    "resolvent_power",
    "schatten_norm",
    "singular_values",
]

#: Relative tolerance for accepting a matrix as Hermitian.
HERMITICITY_RTOL = 1e-12

#: Absolute floor used when forming relative error scales.
ABS_FLOOR = 1e-14


class NotHermitianError(ValueError):
    """Raised when a matrix fails the Hermiticity check."""


def _as_square_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("matrix must have dimension >= 1")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def hermiticity_defect(entries) -> float:
    """Max-entry norm of ``M - M*`` relative to the largest entry of ``M``."""
    m = np.asarray(entries)
    scale = max(float(np.abs(m).max()), ABS_FLOOR)
    return float(np.abs(m - m.conj().T).max()) / scale


@dataclass(frozen=True)
class HermitianOperator:
    """Validated dense Hermitian matrix.

    Raises :class:`NotHermitianError` (reporting the measured asymmetry) when
    the entries differ from their conjugate transpose by more than
    ``HERMITICITY_RTOL`` relative to the largest entry.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = _as_square_matrix(self.entries)
        defect = hermiticity_defect(m)
        if defect > HERMITICITY_RTOL:
            raise NotHermitianError(
                f"matrix is not Hermitian: relative asymmetry {defect:.3e} "
                f"exceeds {HERMITICITY_RTOL:.0e}"
            )
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float)
        vecs = np.array(self.eigenvectors, dtype=complex)
        if vals.ndim != 1 or vecs.shape != (vals.size, vals.size):
            raise ValueError("inconsistent decomposition shapes")
        if np.any(np.diff(vals) < 0):
            raise ValueError("eigenvalues must be sorted in ascending order")
        vals.flags.writeable = False
        vecs.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    def reconstruct(self) -> np.ndarray:
        """Return ``U diag(lambda) U*``."""
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def _fix_column_phases(vecs: np.ndarray) -> np.ndarray:
    # Phase convention: the largest-modulus entry of each eigenvector is made
    # real and positive (first such index wins).  Within numerically
    # degenerate clusters the subspace basis is whatever LAPACK returned,
    # which is deterministic for bitwise-identical input.
    idx = np.argmax(np.abs(vecs), axis=0)
    lead = vecs[idx, np.arange(vecs.shape[1])]
    mags = np.abs(lead)
    phases = np.where(mags > 0.0, lead / np.where(mags > 0.0, mags, 1.0), 1.0)
    return vecs * phases.conj()


def eig_hermitian(operator) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    Accepts a :class:`HermitianOperator` or a raw array (validated on entry).
    Eigenvalues come back ascending; eigenvector phases are fixed so the
    result is deterministic for fixed input.
    """
    if not isinstance(operator, HermitianOperator):
        operator = HermitianOperator(np.asarray(operator))
    vals, vecs = np.linalg.eigh(operator.entries)
    return SpectralDecomposition(vals, _fix_column_phases(vecs))


def apply_function(decomposition: SpectralDecomposition, f) -> np.ndarray:
    """Matrix function ``U diag(f(lambda_i)) U*`` through the spectral theorem.

    ``f`` is any callable accepting an ndarray of eigenvalues; complex-valued
    functions are allowed (the output is then a general complex matrix).
    A non-finite value of ``f`` at an eigenvalue raises ``ValueError`` naming
    the offending eigenvalue.
    """
    with np.errstate(all="ignore"):
        vals = np.asarray(f(decomposition.eigenvalues), dtype=complex)
    if vals.shape != decomposition.eigenvalues.shape:
        raise ValueError("function must evaluate elementwise on the spectrum")
    bad = ~np.isfinite(vals)
    if np.any(bad):
        where = decomposition.eigenvalues[bad]
        raise ValueError(f"function undefined (pole) at eigenvalue(s) {where}")
    u = decomposition.eigenvectors
    return (u * vals) @ u.conj().T


def _check_resolvent_args(z, k) -> tuple:
    """Validated ``(complex z, int k)`` for a resolvent power ``(H - z)^{-k}``.

    ``z`` must be finite and non-real; ``k`` an integer ``>= 1`` (a ``bool``
    is rejected, not read as 0 or 1).  The error names the offending value.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"power k must be an integer >= 1, got {k!r}")
    z = complex(z)
    if z.imag == 0.0 or not np.isfinite(z):
        raise ValueError(f"resolvent point must be finite with Im z != 0, got z={z}")
    return z, int(k)


def resolvent_power(decomposition: SpectralDecomposition, z: complex, k: int) -> np.ndarray:
    """``(H - z)^{-k}`` for non-real ``z`` and integer ``k >= 1``."""
    z, k = _check_resolvent_args(z, k)
    return apply_function(decomposition, lambda lam: (lam - z) ** (-k))


@dataclass(frozen=True)
class SingularValueProfile:
    """Singular values in non-increasing order."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim != 1:
            raise ValueError("singular values must form a 1-d array")
        if np.any(vals < 0):
            raise ValueError("singular values must be non-negative")
        if np.any(np.diff(vals) > 0):
            raise ValueError("singular values must be non-increasing")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def singular_values(matrix) -> SingularValueProfile:
    """Singular values of a real or complex matrix, largest first.

    A real matrix takes the real SVD; anything else is read as complex.
    """
    m = np.asarray(matrix)
    m = np.asarray(m, dtype=float if np.isrealobj(m) else complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    vals = np.linalg.svd(m, compute_uv=False)
    return SingularValueProfile(np.maximum(vals, 0.0))


def schatten_norm(profile, p: float) -> float:
    """Schatten p-norm ``(sum s_i^p)^(1/p)``; ``p = inf`` gives the largest value.

    Accepts a :class:`SingularValueProfile` or a raw matrix.  ``p < 1`` is
    rejected (not a norm).
    """
    if not isinstance(profile, SingularValueProfile):
        profile = singular_values(profile)
    p = float(p)
    if np.isnan(p) or p < 1.0:
        raise ValueError(f"Schatten exponent must satisfy p >= 1, got {p}")
    s = profile.values
    if s.size == 0 or s[0] == 0.0:
        return 0.0
    if np.isinf(p):
        return float(s[0])
    top = float(s[0])
    return top * float(np.sum((s / top) ** p)) ** (1.0 / p)


def det_id_plus(matrix) -> complex:
    """``det(I + M)`` via a stable LU-based factorization (sign + log-modulus)."""
    m = _as_square_matrix(matrix)
    sign, logabs = np.linalg.slogdet(np.eye(m.shape[0]) + m)
    if np.isneginf(logabs):
        return 0.0 + 0.0j
    return complex(sign * np.exp(logabs))
