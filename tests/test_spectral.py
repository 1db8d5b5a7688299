"""Dense Hermitian calculus: decompositions, matrix functions, Schatten norms."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import random_unitary

from ssflab.doi import DoiKernel, doi_apply
from ssflab.functions import gaussian_bump, polynomial, resolvent_function
from ssflab.spectral import (
    HERMITICITY_RTOL,
    NotHermitianError,
    SpectralDecomposition,
    _check_hermitian,
    _hermiticity_defect,
    apply_function,
    eig_hermitian,
    resolvent_power,
    schatten_norm,
    singular_values,
)
from ssflab.utils import random_hermitian, rng_from


def test_operator_rejects_non_hermitian():
    with pytest.raises(NotHermitianError, match="matrix is not Hermitian"):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_operator_rejects_non_square():
    with pytest.raises(ValueError, match=r"matrix must be square, got shape \(2, 3\)"):
        eig_hermitian(np.ones((2, 3)))


@pytest.mark.parametrize(
    "bad, match",
    [
        (np.ones(3), r"must be a square 2-d array, got shape \(3,\)"),
        (np.zeros((2, 3, 3)), r"must be a square 2-d array, got shape \(2, 3, 3\)"),
        (np.zeros((0, 0)), "must have dimension >= 1"),
        (np.array([[0.0, np.nan], [np.nan, 0.0]]), r"has a non-finite entry at index \(0, 1\)"),
        (np.array([[np.inf, 0.0], [0.0, 1.0]]), r"has a non-finite entry at index \(0, 0\)"),
    ],
    ids=["vector", "stack", "empty", "nan", "inf"],
)
def test_eig_rejects_bad_input_by_name(bad, match):
    # an infinite entry makes _hermiticity_defect NaN, which no threshold rejects
    with pytest.raises(NotHermitianError, match="matrix " + match):
        eig_hermitian(bad)


class TestHermitianGate:
    def test_returns_its_input_uncopied(self):
        a = random_hermitian(rng_from(3), 6)
        assert _check_hermitian(a, "a") is a

    @pytest.mark.parametrize("scale, asymmetry, ok", [(1e4, 1e-9, True), (1e-6, 1e-15, False)])
    def test_rule_is_relative_to_the_largest_entry(self, scale, asymmetry, ok):
        # an absolute 1e-12 rule would decide both cases the other way
        a = scale * random_hermitian(rng_from(4), 5)
        a[0, 1] += asymmetry
        assert (_hermiticity_defect(a) <= HERMITICITY_RTOL) == ok
        if ok:
            assert _check_hermitian(a, "x") is a
        else:
            with pytest.raises(NotHermitianError, match="x is not Hermitian"):
                _check_hermitian(a, "x")

    def test_stack_gets_the_rule_of_its_block_diagonal_embedding(self):
        rng = rng_from(5)
        stack = np.stack([random_hermitian(rng, 3, scale=float(c)) for c in (1.0, 4.0, 0.5)])
        stack[2, 0, 2] += 1e-10
        dense = scipy.linalg.block_diag(*stack)
        assert _hermiticity_defect(stack) == _hermiticity_defect(dense) > HERMITICITY_RTOL
        with pytest.raises(NotHermitianError, match="stack is not Hermitian"):
            _check_hermitian(stack, "stack")
        stack[1, 2, 0] = np.nan
        with pytest.raises(NotHermitianError, match=r"non-finite entry at index \(1, 2, 0\)"):
            _check_hermitian(stack, "stack")


def test_eig_peak_memory_near_two_dense_matrices():
    # neither the input nor the eigenvectors are copied on the way to eigh:
    # the peak is two dense matrices, M* and M - M* in the Hermiticity check,
    # then eigh's eigenvectors and the decomposition's read-only copy (4.0
    # when the input and the eigenvectors were copies)
    a = random_hermitian(rng_from(6), 256)
    tracemalloc.start()
    try:
        eig_hermitian(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / a.nbytes <= 2.5


def test_eig_sorted_and_reconstructs():
    rng = rng_from(0)
    a = random_hermitian(rng, 9)
    d = eig_hermitian(a)
    assert np.all(np.diff(d.eigenvalues) >= 0)
    np.testing.assert_allclose(d.reconstruct(), a, atol=1e-12)
    gram = d.eigenvectors.conj().T @ d.eigenvectors
    np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)


def test_eig_gives_identical_bits_for_one_input():
    # the eigenvector phases are LAPACK's: fixed for a fixed input
    a = random_hermitian(rng_from(1), 7)
    d1 = eig_hermitian(a)
    for d2 in (eig_hermitian(a), eig_hermitian(a.copy())):
        assert d1.eigenvalues.tobytes() == d2.eigenvalues.tobytes()
        assert d1.eigenvectors.tobytes() == d2.eigenvectors.tobytes()


def test_eigenvector_readers_ignore_column_phases():
    # every reader forms U f(Lambda) U* or U* T U0: a unit phase on each
    # eigenvector column changes none of them
    rng = rng_from(3)
    d0 = eig_hermitian(random_hermitian(rng, 9))
    d = eig_hermitian(random_hermitian(rng, 9))
    t = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))

    def rephased(dec):
        phases = np.exp(2j * np.pi * rng.uniform(size=dec.dim))
        return SpectralDecomposition(dec.eigenvalues, dec.eigenvectors * phases)

    p0, p = rephased(d0), rephased(d)
    f = resolvent_function(0.3 + 1j, 2)
    k = DoiKernel(gaussian_bump(), 3, 2j)
    pairs = [
        (d.reconstruct(), p.reconstruct()),
        (apply_function(d, f), apply_function(p, f)),
        (doi_apply(d0, d, k, t), doi_apply(p0, p, k, t)),
    ]
    for want, got in pairs:
        assert not np.array_equal(want, got)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_apply_function_polynomial_oracle():
    # matrix polynomial computed by repeated matmul is an independent route
    rng = rng_from(2)
    a = random_hermitian(rng, 8)
    coeffs = [0.3, -1.0, 0.5, 2.0]
    d = eig_hermitian(a)
    via_eig = apply_function(d, polynomial(coeffs))
    direct = np.zeros_like(a)
    for c in coeffs:
        direct = direct @ a + c * np.eye(8)
    np.testing.assert_allclose(via_eig, direct, atol=1e-10)


def test_apply_function_homomorphism():
    # f*g through the calculus equals the product of the transforms
    rng = rng_from(3)
    a = random_hermitian(rng, 8)
    d = eig_hermitian(a)
    f = polynomial([1.0, 0.0, -2.0])
    g = polynomial([0.5, 1.0])
    fg = apply_function(d, lambda x: f(x) * g(x))
    np.testing.assert_allclose(
        fg, apply_function(d, f) @ apply_function(d, g), atol=1e-10
    )


def test_apply_function_rejects_pole_on_spectrum():
    d = eig_hermitian(np.diag([0.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        apply_function(d, lambda x: 1.0 / x)


def test_resolvent_power_oracle():
    rng = rng_from(4)
    a = random_hermitian(rng, 6)
    d = eig_hermitian(a)
    z = 0.7 + 1.3j
    inv = np.linalg.inv(a - z * np.eye(6))
    for k in (1, 2, 3):
        np.testing.assert_allclose(
            resolvent_power(d, z, k), np.linalg.matrix_power(inv, k), atol=1e-11
        )


def test_resolvent_power_validation():
    d = eig_hermitian(np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        resolvent_power(d, 1.0, 1)
    with pytest.raises(ValueError):
        resolvent_power(d, 1j, 0)


@pytest.mark.parametrize(
    "z, k, match",
    [
        (2.0, 1, r"z=\(2\+0j\)"),
        (complex(np.inf, 1.0), 1, "inf"),
        (1j, -1, "got k=-1"),
        (1j, 2.0, "got k=2.0"),
        (1j, True, "got k=True"),
    ],
    ids=["real_z", "inf_z", "negative_k", "float_k", "bool_k"],
)
def test_resolvent_power_argument_check_names_value(z, k, match):
    d = eig_hermitian(np.diag([0.0, 1.0]))
    with pytest.raises(ValueError, match=match):
        resolvent_power(d, z, k)


def test_singular_values_nonincreasing_and_unitary_invariant():
    rng = rng_from(5)
    m = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    sv = singular_values(m).values
    assert np.all(np.diff(sv) <= 0)
    u = random_unitary(rng, 7)
    v = random_unitary(rng, 7)
    sv2 = singular_values(u @ m @ v).values
    np.testing.assert_allclose(sv2, sv, atol=1e-10)


def test_singular_values_of_real_matrix_take_the_real_svd():
    rng = rng_from(6)
    m = rng.standard_normal((6, 4))
    np.testing.assert_array_equal(
        singular_values(m).values, np.linalg.svd(m, compute_uv=False)
    )
    c = m + 1j * rng.standard_normal((6, 4))
    np.testing.assert_array_equal(
        singular_values(c).values, np.linalg.svd(c, compute_uv=False)
    )


def test_schatten_norm_known_values():
    sv = singular_values(np.diag([3.0, 4.0]))
    assert schatten_norm(sv, 1) == pytest.approx(7.0)
    assert schatten_norm(sv, 2) == pytest.approx(5.0)
    assert schatten_norm(sv, np.inf) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        schatten_norm(sv, 0.5)
    # a raw matrix is refused, not decomposed on the way in
    with pytest.raises(TypeError, match="profile must be a SingularValueProfile, got ndarray"):
        schatten_norm(np.diag([3.0, 4.0]), 1)


def test_schatten_holder_inequality():
    rng = rng_from(6)
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        lhs = schatten_norm(singular_values(a @ b), 1)
        rhs = schatten_norm(singular_values(a), p) * schatten_norm(singular_values(b), q)
        assert lhs <= rhs + 1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
def test_trace_of_function_matches_eigenvalue_sum(dim, seed):
    rng = rng_from(9, seed)
    a = random_hermitian(rng, dim)
    d = eig_hermitian(a)
    f = resolvent_function(0.3 + 0.9j)
    lhs = np.trace(apply_function(d, f))
    rhs = np.sum(f(d.eigenvalues))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
