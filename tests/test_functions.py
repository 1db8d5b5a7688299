"""Scalar function families: attached derivatives, supports, combinators."""

import numpy as np
import pytest
from helpers import derivative_defect

from ssflab import functions as fn

SAMPLE = np.array([-3.2, -1.1, -0.4, 0.0, 0.3, 0.9, 2.5, 4.0])


@pytest.mark.parametrize(
    "f",
    [
        fn.polynomial([1.0, 0.0]),
        fn.polynomial([0.2, -1.0, 0.0, 3.0]),
        fn.gaussian_bump(0.3, 0.8, 2.0),
        fn.squared_lorentzian(),
        fn.resolvent_function(0.5 + 1.5j, 2),
        fn.power_shift_inverse(3),
        fn.product(fn.gaussian_bump(), fn.polynomial([1.0, 0.0])),
    ],
    ids=lambda f: f.name,
)
def test_attached_first_derivative(f):
    assert derivative_defect(f, SAMPLE) < 5e-9


@pytest.mark.parametrize(
    "f",
    [
        fn.polynomial([1.0, -2.0, 0.5]),
        fn.gaussian_bump(),
        fn.squared_lorentzian(),
        fn.resolvent_function(1j),
        fn.power_shift_inverse(5),
    ],
    ids=lambda f: f.name,
)
def test_attached_second_derivative(f):
    # central difference of the attached first derivative
    h = 1e-5 * np.maximum(1.0, np.abs(SAMPLE))
    fd = (np.asarray(f.d1(SAMPLE + h)) - np.asarray(f.d1(SAMPLE - h))) / (2 * h)
    an = np.asarray(f.d2(SAMPLE))
    scale = np.maximum(np.abs(an), np.maximum(np.abs(fd), 1.0))
    assert np.max(np.abs(fd - an) / scale) < 5e-9


def test_polynomial_values():
    f = fn.polynomial([2.0, -1.0, 3.0])
    assert f(0.0) == pytest.approx(3.0)
    assert f(2.0) == pytest.approx(2 * 4 - 2 + 3)
    assert f.d1(1.0) == pytest.approx(4.0 - 1.0)


@pytest.mark.parametrize(
    "z, m",
    [(1j, 2.5), (1j, True), (complex(np.nan, 1.0), 1)],
    ids=["float_m", "bool_m", "nan_z"],
)
def test_resolvent_function_argument_check(z, m):
    with pytest.raises(ValueError):
        fn.resolvent_function(z, m)


def test_resolvent_function_rejects_real_pole():
    with pytest.raises(ValueError):
        fn.resolvent_function(2.0)
    with pytest.raises(ValueError):
        fn.resolvent_function(1j, 0)


def test_resolvent_parts_are_real():
    f = fn.real_part(fn.resolvent_function(1j, 1))
    x = np.linspace(-2, 2, 11)
    np.testing.assert_allclose(f(x), (1.0 / (x - 1j)).real, atol=1e-14)
    assert np.isrealobj(f(x))


def test_real_part_takes_the_real_part_of_each_derivative():
    g = fn.resolvent_function(0.5 + 1j, 3)
    f = fn.real_part(g)
    for part, whole in ((f, g), (f.d1, g.d1), (f.d2, g.d2)):
        np.testing.assert_array_equal(part(SAMPLE), np.real(whole(SAMPLE)))


def test_bump_support_and_smooth_boundary():
    f = fn.bump_c2(2.0)
    assert f(0.0) == 1.0
    assert f(2.0) == 0.0 and f(-2.5) == 0.0
    # C^2 at the support edge: both derivatives vanish from inside
    eps = 1e-7
    assert abs(f.d1(2.0 - eps)) < 1e-5
    assert abs(f.d2(2.0 - eps)) < 1e-4


def test_smoothstep_cutoff_plateaus():
    th = fn.smoothstep_cutoff(1.5)
    x_in = np.linspace(-1.5, 1.5, 7)
    x_out = np.array([-4.0, -3.0, 3.0, 5.0])
    np.testing.assert_array_equal(th(x_in), np.zeros(7))
    np.testing.assert_array_equal(th(x_out), np.ones(4))
    mid = th(np.array([2.25]))
    assert 0.0 < mid[0] < 1.0
    with pytest.raises(ValueError):
        fn.smoothstep_cutoff(0.0)


def test_cutoff_partition_with_bump():
    # theta + (1 - theta) is exactly 1 everywhere
    th = fn.smoothstep_cutoff(1.0)
    x = np.linspace(-4, 4, 101)
    np.testing.assert_allclose(th(x) + (1.0 - th(x)), 1.0)


@pytest.mark.parametrize(
    "given, missing",
    [({}, "'d1' and 'd2'"), ({"d1": np.ones_like}, "'d2'"), ({"d2": np.zeros_like}, "'d1'")],
    ids=["neither", "d1_only", "d2_only"],
)
def test_both_derivatives_are_required(given, missing):
    with pytest.raises(TypeError, match=f"required positional arguments?: {missing}$"):
        fn.ScalarFunction(lambda x: x, **given)


def test_product_leibniz_exact_on_polynomials():
    f = fn.polynomial([1.0, 0.0])
    g = fn.polynomial([1.0, 2.0])
    pr = fn.product(f, g)
    x = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(pr(x), x * x + 2.0 * x, atol=1e-14)
    np.testing.assert_allclose(pr.d1(x), 2.0 * x + 2.0, atol=1e-14)
    np.testing.assert_allclose(pr.d2(x), 2.0, atol=1e-14)
