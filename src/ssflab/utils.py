"""Seeded random matrix generators shared by tests and experiment suites."""

from __future__ import annotations

import numpy as np

__all__ = ["random_hermitian", "random_rank_k_hermitian", "rng_from"]


def rng_from(*stream) -> np.random.Generator:
    """Deterministic generator keyed by a tuple of non-negative integers."""
    return np.random.default_rng(list(stream))


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2.0


def random_rank_k_hermitian(
    rng: np.random.Generator, n: int, k: int, scale: float = 1.0, psd: bool = False
) -> np.ndarray:
    """Random Hermitian matrix of rank at most k (positive semidefinite if asked)."""
    b = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    if psd:
        return scale * (b @ b.conj().T) / k
    signs = np.where(rng.standard_normal(k) >= 0.0, 1.0, -1.0)
    return scale * (b * signs) @ b.conj().T / k
