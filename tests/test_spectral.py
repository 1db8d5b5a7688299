"""Dense Hermitian calculus: decompositions, matrix functions, Schatten norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import random_unitary

from ssflab.functions import polynomial, resolvent_function
from ssflab.spectral import (
    HermitianOperator,
    NotHermitianError,
    apply_function,
    det_id_plus,
    eig_hermitian,
    resolvent_power,
    schatten_norm,
    singular_values,
)
from ssflab.utils import random_hermitian, rng_from


def test_operator_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_operator_rejects_non_square():
    with pytest.raises(ValueError):
        HermitianOperator(np.ones((2, 3)))


def test_eig_sorted_and_reconstructs():
    rng = rng_from(0)
    a = random_hermitian(rng, 9)
    d = eig_hermitian(a)
    assert np.all(np.diff(d.eigenvalues) >= 0)
    np.testing.assert_allclose(d.reconstruct(), a, atol=1e-12)
    gram = d.eigenvectors.conj().T @ d.eigenvectors
    np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)


def test_eig_deterministic_phases():
    a = random_hermitian(rng_from(1), 7)
    d1 = eig_hermitian(a)
    d2 = eig_hermitian(a.copy())
    np.testing.assert_array_equal(d1.eigenvectors, d2.eigenvectors)


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
        (1j, -1, "got -1"),
        (1j, 2.0, "got 2.0"),
        (1j, True, "got True"),
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
    m = np.diag([3.0, 4.0])
    assert schatten_norm(m, 1) == pytest.approx(7.0)
    assert schatten_norm(m, 2) == pytest.approx(5.0)
    assert schatten_norm(m, np.inf) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        schatten_norm(m, 0.5)


def test_schatten_holder_inequality():
    rng = rng_from(6)
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        lhs = schatten_norm(a @ b, 1)
        rhs = schatten_norm(a, p) * schatten_norm(b, q)
        assert lhs <= rhs + 1e-10


def test_det_id_plus_multiplicativity():
    rng = rng_from(7)
    a = 0.3 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    b = 0.3 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    lhs = det_id_plus(a + b + a @ b)
    rhs = det_id_plus(a) * det_id_plus(b)
    assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


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
