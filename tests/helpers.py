"""Helpers shared by the test modules (not part of the ssflab API)."""

import numpy as np
import scipy.linalg

from ssflab import dirac, scattering


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    # fix the QR phase ambiguity so the result is Haar-ish and deterministic
    return q * (np.diag(r) / np.abs(np.diag(r)))


def derivative_defect(f, points, step_scale: float = 1e-5) -> float:
    """Worst relative mismatch between ``f.d1`` and a central difference."""
    pts = np.asarray(points, dtype=float)
    h = step_scale * np.maximum(1.0, np.abs(pts))
    fd = (np.asarray(f(pts + h)) - np.asarray(f(pts - h))) / (2.0 * h)
    an = np.asarray(f.d1(pts))
    scale = np.maximum(np.abs(an), np.maximum(np.abs(fd), 1.0))
    return float(np.max(np.abs(fd - an) / scale))


def potential_operator(v) -> np.ndarray:
    """Dense block-diagonal matrix of a sitewise potential: the oracle for the
    site-block products of ``ssflab.dirac``."""
    return scipy.linalg.block_diag(*v.site_matrices)


def truncated_eigenvalues(model, l_trunc: int) -> np.ndarray:
    """Eigenvalues of the perturbed operator truncated to sites |n| <= l_trunc."""
    return scipy.linalg.eigvalsh_tridiagonal(*scattering._truncated_chain(model, l_trunc))


def zero_potential(model) -> dirac.MatrixPotential:
    s = model.spinor_dim
    return dirac.MatrixPotential(model, np.zeros((model.n_sites, s, s), dtype=complex))
