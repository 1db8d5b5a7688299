"""Helpers shared by the test modules (not part of the ssflab API)."""

import cmath
import math

import numpy as np
import scipy.linalg

from ssflab import dirac


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


def truncated_chain(model, l_trunc: int) -> tuple:
    """Diagonal and off-diagonal of the operator truncated to sites |n| <= l_trunc."""
    radius = max(abs(n) for n in model.sites)
    if radius >= l_trunc / 4:
        raise ValueError(
            f"truncation l_trunc={l_trunc} too small for support radius "
            f"{radius} (need support < l_trunc/4)"
        )
    n_sites = 2 * l_trunc + 1
    diag = np.zeros(n_sites)
    for site, value in zip(model.sites, model.values):
        diag[site + l_trunc] = value
    return diag, np.ones(n_sites - 1)


def truncated_eigenvalues(model, l_trunc: int) -> np.ndarray:
    """Eigenvalues below the band ``[-2, 2]`` of the perturbed operator truncated
    to sites |n| <= l_trunc: the oracle for ``scattering.bound_state_count_below``."""
    return scipy.linalg.eigvalsh_tridiagonal(
        *truncated_chain(model, l_trunc), select="v", select_range=(-np.inf, -2.0)
    )


def walked_phases(det_fn, h_top: float, heights, max_ratio: float) -> list:
    """Continuous ``arg det_fn(h)`` at each of the non-increasing ``heights``,
    walked down from ``h_top``: the oracle for a determinant phase.

    The walk takes the principal phase at ``h_top`` and adds the principal
    increment of each step; the steps to each height have equal ratios of
    at most ``max_ratio``.  The caller picks ``h_top`` high enough that the
    principal value there is the branch that vanishes at ``+i inf``, and
    ``max_ratio`` fine enough that no step turns by half a turn or more.
    """
    top = h_top
    val = complex(det_fn(top))
    phase = cmath.phase(val)
    out = []
    for h in heights:
        steps = max(1, math.ceil(math.log(top / h) / math.log(max_ratio)))
        for t in np.geomspace(top, h, steps + 1)[1:]:
            nxt = complex(det_fn(float(t)))
            phase += cmath.phase(nxt / val)
            val = nxt
        top = h
        out.append(phase)
    return out


def zero_potential(model) -> dirac.MatrixPotential:
    s = model.spinor_dim
    return dirac.MatrixPotential(model, np.zeros((model.n_sites, s, s), dtype=complex))
