"""Dense Hermitian linear algebra substrate.

Eigendecompositions, the matrix functional calculus, resolvent powers,
singular values and Schatten norms.  Everything downstream
(eigenvalue-counting step functions, double operator integrals, lattice
Dirac models) is built on the operations in this module.

All container types are immutable after construction and all operations are
pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ABS_FLOOR",
    "HERMITICITY_RTOL",
    "NotHermitianError",
    "SingularValueProfile",
    "SpectralDecomposition",
    "apply_function",
    "eig_hermitian",
    "resolvent_power",
    "schatten_norm",
    "singular_values",
]

#: Relative tolerance for accepting a matrix as Hermitian.
HERMITICITY_RTOL = 1e-12

#: Absolute floor used when forming relative error scales.
ABS_FLOOR = 1e-14


class NotHermitianError(ValueError):
    """Raised when an input fails the Hermitian input gate."""


def _hermiticity_defect(entries) -> float:
    """Max-entry norm of ``M - M*`` relative to the largest entry of ``M``.

    Works over the last two axes, so a ``(n_sites, s, s)`` stack of site
    blocks gets the same value as the block-diagonal matrix it embeds into.
    """
    m = np.asarray(entries)
    scale = max(float(np.abs(m).max()), ABS_FLOOR)
    return float(np.abs(m - np.swapaxes(m, -1, -2).conj()).max()) / scale


def _check_hermitian(m: np.ndarray, name: str) -> np.ndarray:
    """The Hermitian input gate: return ``m`` itself, not a copy, if it passes.

    Rejects, naming the input ``name``, an ``m`` that is not square over its
    last two axes, is empty, has a non-finite entry, or has a
    :func:`_hermiticity_defect` above ``HERMITICITY_RTOL``.  Every rejection is
    a :class:`NotHermitianError`.
    """
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotHermitianError(f"{name} must be square, got shape {m.shape}")
    if m.size == 0:
        raise NotHermitianError(f"{name} must have dimension >= 1, got shape {m.shape}")
    if not np.isfinite(m).all():
        where = tuple(int(i) for i in np.argwhere(~np.isfinite(m))[0])
        raise NotHermitianError(f"{name} has a non-finite entry at index {where}")
    defect = _hermiticity_defect(m)
    if defect > HERMITICITY_RTOL:
        raise NotHermitianError(
            f"{name} is not Hermitian: relative asymmetry {defect:.3e} "
            f"exceeds {HERMITICITY_RTOL:.0e}"
        )
    return m


# scalar gates: each raises ``ValueError("<name> must be <rule>, got
# <name>=<value>")``.  A bool is never read as 0 or 1; a NumPy scalar passes
# where its Python counterpart does.
_REALS = (int, float, np.integer, np.floating)


def _check_int(value, name: str, low=None, high=None, odd=False, even=False) -> int:
    """The integer gate: ``value`` as an ``int`` if it is a Python or NumPy
    integer in ``[low, high]`` (``None``: no end there) of the requested
    parity."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or (low is not None and value < low)
        or (high is not None and value > high)
        or (odd and value % 2 != 1)
        or (even and value % 2 != 0)
    ):
        parity = "odd " if odd else "even " if even else ""
        if low is None:
            span = "" if high is None else f" <= {high}"
        else:
            span = f" >= {low}" if high is None else f" in {low}..{high}"
        raise ValueError(f"{name} must be an {parity}integer{span}, got {name}={value!r}")
    return int(value)


def _check_real(value, name: str, rule: str, ok) -> float:
    """``value`` as a ``float`` ``x`` if ``ok(x)``; a bool, a non-number and an
    integer past the float range are rejected too."""
    real = not isinstance(value, bool) and isinstance(value, _REALS)
    try:
        x = float(value) if real else math.nan
    except OverflowError:  # an integer past the float range
        x = math.nan
    if not ok(x):
        raise ValueError(f"{name} must be {rule}, got {name}={value!r}")
    return x


def _check_finite(value, name: str) -> float:
    """The finite-real gate: NaN and ``inf`` are rejected."""
    return _check_real(value, name, "a finite number", math.isfinite)


def _check_positive(value, name: str) -> float:
    """The finite-positive-real gate: ``value`` must lie in ``(0, inf)``."""
    return _check_real(value, name, "a finite positive number", lambda x: 0 < x < math.inf)


def _check_schatten_order(p) -> float:
    """The Schatten-order rule: ``p >= 1``; ``inf`` is allowed, NaN is not."""
    return _check_real(p, "p", "a number >= 1 or inf", lambda x: x >= 1)


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


def eig_hermitian(matrix) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix.

    ``matrix`` is any square array; it passes the Hermitian input gate and
    is read as complex, so a complex array is not copied.  Eigenvalues come
    back ascending; eigenvector phases are LAPACK's, fixed for fixed input,
    and no reader depends on them: each forms ``U f(Lambda) U*`` or ``U* T U0``.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise NotHermitianError(f"matrix must be a square 2-d array, got shape {m.shape}")
    return SpectralDecomposition(*np.linalg.eigh(_check_hermitian(m, "matrix")))


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


def _check_resolvent_args(z, k, name: str = "k", odd: bool = False) -> tuple:
    """Validated ``(complex z, int k)`` for a resolvent power ``(H - z)^{-k}``.

    ``z`` must be finite and non-real; ``k`` passes the integer gate as an
    integer ``>= 1`` named ``name``, odd if ``odd`` (the odd-power rule of
    the cofactor and resolvent kernels of ``doi`` and of the
    resolvent-power expansion of ``dirac``).
    """
    k = _check_int(k, name, low=1, odd=odd)
    z = complex(z)
    if z.imag == 0.0 or not np.isfinite(z):
        raise ValueError(f"resolvent point must be finite with Im z != 0, got z={z}")
    return z, k


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
    return SingularValueProfile(np.linalg.svd(m, compute_uv=False))


def schatten_norm(profile: SingularValueProfile, p: float) -> float:
    """Schatten p-norm ``(sum s_i^p)^(1/p)``; ``p = inf`` gives the largest value.

    ``profile`` is the matrix's :func:`singular_values`.  ``p`` follows the
    Schatten-order rule: ``p < 1`` is not a norm.
    """
    if not isinstance(profile, SingularValueProfile):
        raise TypeError(f"profile must be a SingularValueProfile, got {type(profile).__name__}")
    p = _check_schatten_order(p)
    s = profile.values
    if s.size == 0 or s[0] == 0.0:
        return 0.0
    if np.isinf(p):
        return float(s[0])
    top = float(s[0])
    return top * float(np.sum((s / top) ** p)) ** (1.0 / p)
