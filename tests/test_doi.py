"""Tests for the divided-difference kernel machinery and cofactor certificates."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ssflab import doi, functions, suites
from ssflab.doi import (
    AntidiagonalCollisionError,
    BoundedRegion,
    CofactorPolynomial,
    DegenerateKernelError,
    DoiKernel,
    ExteriorRegion,
    cofactor_lower_bound_cert,
    doi_apply,
    doi_identity_residual,
    kernel_eval,
    kernel_hypotheses_report,
    resolvent_cutoff_split,
)
from ssflab.spectral import eig_hermitian, schatten_norm, singular_values
from ssflab.utils import random_hermitian, rng_from


def kernel_dlambda(k, lam, mu):
    """``dK/dx`` as the kernel-hypotheses report takes it, from the kernel grid."""
    return doi._kernel_grid(k, lam, mu, dlambda=True)[1]


def _cofactor_sum_oracle(m, z, lam, mu):
    # plain python-complex evaluation of sum_k (x-z)^k (y-z)^(m-1-k)
    a = complex(lam) - z
    b = complex(mu) - z
    return sum(a**k * b ** (m - 1 - k) for k in range(m))


# ---------------------------------------------------------------------------
# telescoping cofactor


class TestCofactorPolynomial:
    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_matches_sum_oracle(self, m):
        p = CofactorPolynomial(m, 0.5 + 2j)
        rng = rng_from(21, m)
        for _ in range(50):
            lam, mu = rng.uniform(-4, 4, size=2)
            want = _cofactor_sum_oracle(m, p.z, lam, mu)
            got = complex(p(lam, mu))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_telescoping_identity_bulk(self, m):
        z = 2j
        p = CofactorPolynomial(m, z)
        rng = rng_from(22, m)
        lam = rng.uniform(-5, 5, size=10**4)
        mu = rng.uniform(-5, 5, size=10**4)
        lhs = (lam - z) ** m - (mu - z) ** m
        rhs = (lam - mu) * p(lam, mu)
        scale = np.maximum(np.abs(lhs), 1.0)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-12

    def test_diagonal_collapse(self):
        p = CofactorPolynomial(5, 1j)
        for x in [-2.0, 0.0, 0.7, 3.0]:
            want = 5.0 * (x - 1j) ** 4
            assert complex(p(x, x)) == pytest.approx(want, rel=1e-13)

    def test_argument_symmetry(self):
        p = CofactorPolynomial(7, 0.3 + 1.5j)
        rng = rng_from(23)
        lam = rng.uniform(-3, 3, size=200)
        mu = rng.uniform(-3, 3, size=200)
        np.testing.assert_allclose(p(lam, mu), p(mu, lam), rtol=1e-12)

    def test_rejects_even_power_and_real_shift(self):
        with pytest.raises(ValueError, match="odd"):
            CofactorPolynomial(2, 1j)
        with pytest.raises(ValueError, match="odd"):
            CofactorPolynomial(0, 1j)
        with pytest.raises(ValueError, match="Im z"):
            CofactorPolynomial(3, 1.0)

    @pytest.mark.parametrize(
        "m, z, match",
        [
            (3, complex("nan+1j"), "finite"),
            (3, complex("1+infj"), "finite"),
            (True, 1j, "integer"),
        ],
    )
    def test_rejects_what_the_resolvent_check_rejects(self, m, z, match):
        # a NaN shift used to yield a certificate with a NaN bound, and
        # True to run as m = 1
        with pytest.raises(ValueError, match=match):
            CofactorPolynomial(m, z)


# ---------------------------------------------------------------------------
# closed-form certificates


def _bounded_nodes(r, n=401):
    axis = np.linspace(-r, r, n)
    return axis[:, None], axis[None, :], axis[1] - axis[0]


def _exterior_nodes(r, outer=1e4, n_levels=200, n_side=401):
    """Nodes on the max-norm squares ``max(|x|, |y|) = t`` for t from r to outer."""
    t = np.geomspace(r, outer, n_levels)[:, None]
    frac = np.linspace(-1.0, 1.0, n_side)[None, :]
    side = (t * frac).ravel()
    edge = np.broadcast_to(t, (n_levels, n_side)).ravel()
    lam = np.concatenate([edge, -edge, side, side])
    mu = np.concatenate([side, side, edge, -edge])
    return lam, mu


# (m, r, z): the suite's defaults and controls, a shift with Re z != 0 whose
# nearest parallelogram points lie inside edges, and higher powers
_BOUNDED_CASES = [
    (3, 1.0, 10j),
    (3, 5.0, 50j),
    (5, 1.0, 20j),
    (3, 1.0, 0.01j),
    (3, 2.0, 1 + 1j),
    (5, 2.0, 0.7 + 3j),
    (7, 1.0, 3j),
    (7, 0.5, -0.4 + 0.9j),
]
_EXTERIOR_CASES = [
    (3, 1.0, 0.01j),
    (3, 2.0, 0.05j),
    (3, 1.0, 10j),
    (5, 1.0, 0.02 + 0.01j),
    (5, 3.0, 0.2j),
    (7, 1.0, 0.01j),
    (7, 4.0, -0.1 + 0.05j),
]


class TestLowerBoundCertificates:
    @pytest.mark.parametrize("m, r, a", [(3, 1.0, 10.0), (3, 5.0, 50.0), (5, 1.0, 20.0)])
    def test_bounded_configs_pass(self, m, r, a):
        cert = cofactor_lower_bound_cert(CofactorPolynomial(m, 1j * a), BoundedRegion(r))
        assert cert.passed
        assert cert.lower_bound > 0

    def test_exterior_config_passes(self):
        cert = cofactor_lower_bound_cert(CofactorPolynomial(3, 0.05j), ExteriorRegion(2.0))
        assert cert.passed

    def test_bounded_near_zero_shift_fails(self):
        # the antidiagonal collision points sit inside the square when the
        # shift is small, so no positive lower bound can be certified
        cert = cofactor_lower_bound_cert(CofactorPolynomial(3, 0.01j), BoundedRegion(1.0))
        assert not cert.passed
        assert cert.lower_bound == 0.0

    def test_exterior_large_shift_fails(self):
        cert = cofactor_lower_bound_cert(CofactorPolynomial(3, 10j), ExteriorRegion(1.0))
        assert not cert.passed
        assert cert.lower_bound == 0.0

    def test_bounded_certificate_is_sound(self):
        # the bound must hold off any grid as well
        p = CofactorPolynomial(3, 10j)
        lb = cofactor_lower_bound_cert(p, BoundedRegion(1.0)).lower_bound
        rng = rng_from(31)
        lam = rng.uniform(-1, 1, size=4000)
        mu = rng.uniform(-1, 1, size=4000)
        assert float(np.min(np.abs(p(lam, mu)))) >= lb

    def test_exterior_certificate_is_sound(self):
        # the exterior is unbounded: sample it out to 1e8
        p = CofactorPolynomial(3, 0.05j)
        lb = cofactor_lower_bound_cert(p, ExteriorRegion(2.0)).lower_bound
        rng = rng_from(32)
        lam = np.exp(rng.uniform(np.log(2.0), np.log(1e8), size=4000))
        lam *= rng.choice([-1.0, 1.0], size=4000)
        mu = lam * rng.uniform(-1.0, 1.0, size=4000)
        for x, y in ((lam, mu), (mu, lam)):
            q = np.abs(p(x, y)) / (np.abs(x) + np.abs(y)) ** 2
            assert float(np.min(q)) >= lb

    @pytest.mark.parametrize("m, r, z", _BOUNDED_CASES)
    def test_bounded_bound_below_every_grid_node(self, m, r, z):
        p = CofactorPolynomial(m, z)
        lb = cofactor_lower_bound_cert(p, BoundedRegion(r)).lower_bound
        lam, mu, _ = _bounded_nodes(r)
        assert lb <= float(np.abs(p(lam, mu)).min()) * (1 + 1e-12)

    @pytest.mark.parametrize("m, r, z", _EXTERIOR_CASES)
    def test_exterior_bound_below_every_ray_node(self, m, r, z):
        p = CofactorPolynomial(m, z)
        lb = cofactor_lower_bound_cert(p, ExteriorRegion(r)).lower_bound
        lam, mu = _exterior_nodes(r)
        q = np.abs(p(lam, mu)) / (np.abs(lam) + np.abs(mu)) ** (m - 1)
        assert lb <= float(q.min()) * (1 + 1e-12)

    @pytest.mark.parametrize("m, r, z", _BOUNDED_CASES)
    def test_each_bounded_factor_is_the_distance_to_its_parallelogram(self, m, r, z):
        # |x - w y - c| is 1-Lipschitz in x and in y, so the grid minimum lies
        # within one spacing above the true minimum, the closed-form distance
        bounds = doi._factor_bounds(CofactorPolynomial(m, z), BoundedRegion(r))
        assert len(bounds) == m - 1
        lam, mu, spacing = _bounded_nodes(r)
        for k, bound in enumerate(bounds, start=1):
            w = np.exp(2j * np.pi * k / m)
            sampled = float(np.abs(lam - w * mu - z * (1 - w)).min())
            assert bound <= sampled * (1 + 1e-12)
            assert sampled <= bound + spacing

    def test_nearest_point_on_an_edge_not_a_vertex(self):
        # c = (1 + i)(1 - w) lies just outside the edge x = 2 of the r = 2
        # parallelogram, at distance (3 - sqrt 3)/2 = 0.634 from an inner point
        # of it; the nearest vertex, 2 + 2w, is 1.753 away
        bounds = doi._factor_bounds(CofactorPolynomial(3, 1 + 1j), BoundedRegion(2.0))
        assert bounds[0] == pytest.approx((3.0 - math.sqrt(3.0)) / 2, rel=1e-12)

    @pytest.mark.parametrize(
        "m, r, a, want",
        [
            (3, 1.0, 10.0, 266.3589838486225),
            (3, 5.0, 50.0, 6658.974596215561),
            (5, 1.0, 20.0, 671322.4103850662),
        ],
    )
    def test_bounded_values(self, m, r, a, want):
        cert = cofactor_lower_bound_cert(CofactorPolynomial(m, 1j * a), BoundedRegion(r))
        assert cert.lower_bound == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("r, a", [(1.0, 0.01), (2.0, 0.05), (1.0, 0.2)])
    def test_exterior_value_at_m3(self, r, a):
        # m = 3: cos(theta_k) = -1/2 gives kappa = 1/2 and |c_k| = sqrt(3) a
        cert = cofactor_lower_bound_cert(CofactorPolynomial(3, 1j * a), ExteriorRegion(r))
        want = (0.5 - math.sqrt(3.0) * a / r) ** 2
        assert cert.lower_bound == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        p = CofactorPolynomial(3, 1j)
        for region in (BoundedRegion(0.0), ExteriorRegion(-1.0), BoundedRegion(math.inf)):
            match = f"r must be a finite positive number, got r={region.r!r}"
            with pytest.raises(ValueError, match=match):
                cofactor_lower_bound_cert(p, region)
        with pytest.raises(TypeError):
            cofactor_lower_bound_cert(p, "square")

    def test_json_payload(self):
        cert = cofactor_lower_bound_cert(CofactorPolynomial(3, 10j), BoundedRegion(1.0))
        assert cert.passed is True
        assert [f.name for f in dataclasses.fields(cert)] == ["lower_bound", "passed"]


# ---------------------------------------------------------------------------
# divided differences and kernels


def _power_kernel(power, mode="direct", m=1, z=1j):
    """The kernel of ``f = g^power`` for ``g = (x - z)^(-m)``: the divided
    difference of ``t -> t^power`` at ``g(x)`` and ``g(y)``, so ``g(x) + g(y)``
    for ``power = 2`` and ``g(x)^2 + g(x) g(y) + g(y)^2`` for ``power = 3``."""
    return DoiKernel(functions.resolvent_function(z, power * m), m, z, mode=mode)


_MODES = ("direct", "factored")


class TestDividedDifference:
    # f = g^2: the kernel is g(x) + g(y), in both modes
    def test_square_gives_sum(self):
        g = functions.resolvent_function(1j, 1)
        rng = rng_from(41)
        for mode in _MODES:
            k = _power_kernel(2, mode)
            for _ in range(30):
                lam, mu = rng.uniform(-4, 4, size=2)
                if abs(lam - mu) <= 1e-5 * (1 + abs(lam)):
                    continue
                want = complex(g(lam)) + complex(g(mu))
                assert kernel_eval(k, lam, mu) == pytest.approx(want, rel=1e-12)

    def test_band_uses_midpoint_derivative(self):
        g = functions.resolvent_function(1j, 1)
        lam = 2.0
        mu = 2.0 + 1e-9
        for mode in _MODES:
            k = _power_kernel(2, mode)
            # inside the coincidence band: f'/g' at the midpoint, 2 g(midpoint),
            # and dK/dx = g'(midpoint), not g' at either argument
            mid = 0.5 * (lam + mu)
            assert kernel_eval(k, lam, mu) == pytest.approx(2 * complex(g(mid)), abs=1e-14)
            assert kernel_eval(k, lam, lam) == pytest.approx(2 * complex(g(lam)), abs=1e-14)
            want = complex(g.d1(mid))
            for x, y in ((lam, mu), (mu, lam)):
                assert kernel_dlambda(k, x, y) == pytest.approx(want, abs=1e-14)

    def test_array_broadcast(self):
        lam = np.array([0.0, 1.0, 2.0])
        gl = functions.resolvent_function(1j, 1)(lam)
        for mode in _MODES:
            out = kernel_eval(_power_kernel(2, mode), lam[:, None], lam[None, :])
            np.testing.assert_allclose(out, gl[:, None] + gl[None, :], atol=1e-12)


class TestKernelEval:
    def _pair(self):
        f = functions.gaussian_bump(0.0, 1.0, 1.0)
        return (
            DoiKernel(f, 3, 2j, mode="direct"),
            DoiKernel(f, 3, 2j, mode="factored"),
        )

    def test_direct_and_factored_agree(self):
        direct, factored = self._pair()
        rng = rng_from(51)
        lam = rng.uniform(-5, 5, size=400)
        mu = rng.uniform(-5, 5, size=400)
        keep = np.abs(lam - mu) > 2e-5 * (1 + np.abs(lam))
        dv = kernel_eval(direct, lam[keep], mu[keep])
        fv = kernel_eval(factored, lam[keep], mu[keep])
        scale = np.maximum(np.abs(dv), 1.0)
        assert np.max(np.abs(dv - fv) / scale) < 1e-9

    def test_diagonal_limit(self):
        direct, _ = self._pair()
        # on the band the kernel is f'(x) / g'(x)
        x = 0.7
        g = functions.resolvent_function(2j, 3)
        want = complex(direct.f.d1(x)) / complex(g.d1(x))
        assert kernel_eval(direct, x, x) == pytest.approx(want, rel=1e-12)

    def test_dlambda_matches_finite_difference(self):
        direct, factored = self._pair()
        h = 1e-6
        for k in (direct, factored):
            for lam, mu in [(0.3, 1.9), (-2.0, 1.0), (3.0, -0.5)]:
                fd = (kernel_eval(k, lam + h, mu) - kernel_eval(k, lam - h, mu)) / (2 * h)
                got = kernel_dlambda(k, lam, mu)
                assert got == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_dlambda_on_band_matches_off_band_slope(self):
        direct, _ = self._pair()
        g = functions.resolvent_function(2j, 3)

        def raw(lam, mu):
            # plain ratio, no coincidence band
            return (complex(direct.f(lam)) - complex(direct.f(mu))) / (
                complex(g(lam)) - complex(g(mu))
            )

        x = 0.4
        t = 1e-3  # outside the band (_BAND_DELTA0 = 1e-5), small enough for O(t^2)
        fd = (raw(x + t, x) - raw(x - t, x)) / (2 * t)
        got = kernel_dlambda(direct, x, x)
        assert got == pytest.approx(fd, rel=1e-3)

    @pytest.mark.parametrize("y", [-0.3, 0.5])
    @pytest.mark.parametrize("x", [1e4, 1e5, 1e20])
    @pytest.mark.parametrize("mode", _MODES)
    def test_dlambda_far_outside_the_support(self, mode, x, y):
        # past |x| = 1 rm-cert's compact-support kernel has f(x) = f'(x) = 0,
        # so dK/dx = f(y) g'(x) / (g(x) - g(y))^2: products and a difference
        # of values far apart in size, exact to a few ulps in double precision
        k = _rm_cert_kernels(mode)["compact_support"]
        z = k.z
        want = complex(k.f(y)) * (-3 * (x - z) ** -4) / ((x - z) ** -3 - (y - z) ** -3) ** 2
        assert kernel_dlambda(k, x, y) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_validation(self):
        f = functions.gaussian_bump()
        with pytest.raises(ValueError, match="mode"):
            DoiKernel(f, 3, 2j, mode="mixed")
        with pytest.raises(ValueError, match="odd"):
            DoiKernel(f, 2, 1j)
        # g is derived from m and z, never passed
        with pytest.raises(TypeError):
            DoiKernel(f, 3, 2j, g=functions.polynomial([1.0, 0.0]))

    @pytest.mark.parametrize(
        "m, z",
        [(3.5, 2j), (True, 2j), (3, complex(np.nan, 1.0))],
        ids=["float_m", "bool_m", "nan_z"],
    )
    def test_kernel_argument_check(self, m, z):
        with pytest.raises(ValueError):
            DoiKernel(functions.gaussian_bump(), m, z)

    @pytest.mark.parametrize(
        "m, z, match",
        [(3, complex(np.nan, 1.0), "finite"), (2, 2j, "odd")],
        ids=["nan_z", "even_m"],
    )
    def test_factored_kernel_checks_m_z_and_g(self, m, z, match):
        # a bad (m, z) is refused; a good one builds g = (x - z)^(-m) itself,
        # so the factored kernel agrees with the direct ratio
        f = functions.gaussian_bump(0.1, 1.0, 1.0)
        with pytest.raises(ValueError, match=match):
            DoiKernel(f, m, z, mode="factored")
        factored = DoiKernel(f, 3, 2j, mode="factored")
        x = np.array([-1.5, 0.3, 1.1, 4.0])
        np.testing.assert_array_equal(factored.g(x), (x - 2j) ** -3)
        np.testing.assert_array_equal(factored.g.d1(x), -3 * (x - 2j) ** -4)
        assert kernel_eval(factored, 0.3, 1.1) == pytest.approx(
            kernel_eval(DoiKernel(f, 3, 2j), 0.3, 1.1), rel=1e-12
        )


def _rm_cert_kernels(mode):
    # the two kernels of the rm-cert suite, plus a Gaussian
    return {
        "compact_support": DoiKernel(functions.bump_c2(1.0), 3, 10.0j, mode=mode),
        "tail_power": DoiKernel(
            functions.product(
                functions.smoothstep_cutoff(1.0), functions.power_shift_inverse(3)
            ),
            3,
            0.01j,
            mode=mode,
        ),
        "gaussian": DoiKernel(functions.gaussian_bump(0.1, 1.0, 1.0), 5, 1.5j, mode=mode),
    }


def _band_crossing_axes():
    # shared nodes put exact coincidences off the diagonal of the index grid,
    # and the nudged copies land inside the band without being equal
    lam = np.concatenate([np.linspace(-6.0, 6.0, 49), [0.3 + 1e-8, 2.0 - 3e-7, -4.0]])
    mu = np.concatenate([np.linspace(-6.0, 6.0, 25), [0.3, 2.0, 5.9 + 1e-9]])
    return lam, mu


class _CountingFunction:
    """Wraps a ScalarFunction and counts the points each slot is asked for."""

    def __init__(self, f):
        self.points = 0
        self.function = functions.ScalarFunction(
            value=self._counted(f.value),
            d1=self._counted(f.d1),
            d2=self._counted(f.d2),
            name=f.name,
        )

    def _counted(self, fn):
        def wrapped(x):
            self.points += np.size(x)
            return fn(x)

        return wrapped


class TestKernelGrids:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["direct", "factored"])
    @pytest.mark.parametrize("name", ["compact_support", "tail_power", "gaussian"])
    def test_outer_grid_equals_flat_pairs(self, name, mode):
        k = _rm_cert_kernels(mode)[name]
        lam, mu = _band_crossing_axes()
        big_l, big_m = np.meshgrid(lam, mu, indexing="ij")
        band = doi._coincidence_band(big_l, big_m)
        assert band.sum() > min(lam.size, mu.size)  # more than a diagonal
        for fn in (kernel_eval, kernel_dlambda):
            grid = fn(k, lam[:, None], mu[None, :])
            flat = fn(k, big_l.ravel(), big_m.ravel()).reshape(big_l.shape)
            assert grid.shape == big_l.shape
            assert np.all(np.isfinite(grid))
            np.testing.assert_allclose(grid, flat, rtol=1e-14, atol=0.0)
            # and one pair at a time, band entries included; scalar numpy
            # arithmetic may round differently from the vector loops
            for i, j in [(0, 0), (49, 25), (50, 26), (51, 27), (10, 5), (48, 24)]:
                one = fn(k, float(lam[i]), float(mu[j]))
                assert one == pytest.approx(grid[i, j], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mode", ["direct", "factored"])
    def test_one_variable_functions_run_on_the_axes(self, mode, monkeypatch):
        n = 300
        axis = np.linspace(-5.0, 5.0, n)
        counted_f = _CountingFunction(functions.gaussian_bump(0.1, 1.0, 1.0))
        counted_g = _CountingFunction(functions.resolvent_function(2j, 3))

        def counted_resolvent(z, m):
            assert (z, m) == (2j, 3)
            return counted_g.function

        # the kernel builds its g through doi's own name
        monkeypatch.setattr(doi, "resolvent_function", counted_resolvent)
        k = DoiKernel(counted_f.function, 3, 2j, mode=mode)
        assert k.g is counted_g.function
        band = int(doi._coincidence_band(axis[:, None], axis[None, :]).sum())
        assert band == n
        for fn in (kernel_eval, kernel_dlambda):
            counted_f.points = counted_g.points = 0
            fn(k, axis[:, None], axis[None, :])
            assert counted_f.points <= 3 * n + 2 * band
            assert counted_g.points <= 3 * n + 2 * band
        counted_f.points = 0
        kernel_hypotheses_report(k, axis)
        # the grid plus the two edge rows, each N pairs with one band entry
        assert counted_f.points <= 7 * n + 2 * (band + 2)

    @pytest.mark.parametrize("fn", [kernel_eval, kernel_dlambda])
    @pytest.mark.parametrize("mode, match", [("direct", "denominator"), ("factored", "cofactor")])
    def test_off_band_collision_raises_on_grids(self, fn, mode, match):
        # (x - i)^3 takes one value at x = +sqrt(3) and x = -sqrt(3)
        k = DoiKernel(functions.gaussian_bump(), 3, 1j, mode=mode)
        lam = np.array([-1.0, math.sqrt(3.0), 2.5])
        mu = np.array([0.5, -math.sqrt(3.0)])
        with pytest.raises(DegenerateKernelError, match=match):
            fn(k, lam[:, None], mu[None, :])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode, x, y", [("direct", 1e110, 2e110), ("factored", 1e160, 3e160)])
    def test_denominator_out_of_float_range_raises(self, mode, x, y):
        # g(x) and g(y) underflow to 0 (direct), or p overflows (factored): the
        # ratio to its scale is NaN, which is a collision, not a NaN kernel
        k = DoiKernel(functions.polynomial([1.0, 0.0]), 3, 1j, mode=mode)
        with pytest.raises(DegenerateKernelError, match="nan of its scale"):
            kernel_eval(k, x, y)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fn", [kernel_eval, kernel_dlambda])
    def test_band_entries_never_raise(self, fn):
        # every diagonal entry has a zero denominator; the band replaces it
        axis = np.array([-3.0, -1.0, 0.0, 0.5, 0.5 + 1e-9, 4.0])
        for mode in _MODES:
            k = DoiKernel(functions.gaussian_bump(), 3, 1j, mode=mode)
            assert np.all(np.isfinite(fn(k, axis[:, None], axis[None, :])))
        # K(x, y) = g(x) + g(y) and dK/dx = g'(x) for f = g^2, band included:
        # there the limits are 2 g and g' at the midpoint
        g = functions.resolvent_function(1j, 1)
        gl, gp = g(axis), g.d1(axis)
        want = (gl[:, None] + gl[None, :]) if fn is kernel_eval else np.repeat(gp[:, None], 6, 1)
        for mode in _MODES:
            got = fn(_power_kernel(2, mode), axis[:, None], axis[None, :])
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# the exact identity


class TestDoiApply:
    @staticmethod
    def _resolvent_cube(a, z=1j):
        # g(A) = (A - z)^(-3) by dense inversion, not through an eigenbasis
        return np.linalg.matrix_power(np.linalg.inv(a - z * np.eye(a.shape[0])), 3)

    def test_separable_square_kernel(self):
        # f = g^2 gives K(x, y) = g(x) + g(y), so the multiplier acts as
        # T -> g(H) T + T g(H0) exactly
        rng = rng_from(61)
        a0 = random_hermitian(rng, 8)
        v = random_hermitian(rng, 8, scale=0.6)
        d0, d = eig_hermitian(a0), eig_hermitian(a0 + v)
        t = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        gh, gh0 = self._resolvent_cube(a0 + v), self._resolvent_cube(a0)
        want = gh @ t + t @ gh0
        for mode in _MODES:
            got = doi_apply(d0, d, _power_kernel(2, mode, m=3), t)
            np.testing.assert_allclose(got, want, atol=1e-10 * np.abs(want).max())

    def test_separable_cube_kernel(self):
        # f = g^3: K = g(x)^2 + g(x) g(y) + g(y)^2
        rng = rng_from(62)
        a0 = random_hermitian(rng, 7)
        v = random_hermitian(rng, 7, scale=0.6)
        d0, d = eig_hermitian(a0), eig_hermitian(a0 + v)
        t = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        gh, gh0 = self._resolvent_cube(a0 + v), self._resolvent_cube(a0)
        want = gh @ gh @ t + gh @ t @ gh0 + t @ gh0 @ gh0
        for mode in _MODES:
            got = doi_apply(d0, d, _power_kernel(3, mode, m=3), t)
            np.testing.assert_allclose(got, want, atol=1e-9 * np.abs(want).max())

    def test_shape_mismatch_rejected(self):
        d0 = eig_hermitian(np.eye(3))
        d = eig_hermitian(np.eye(4))
        k = _power_kernel(2)
        with pytest.raises(ValueError, match="shape"):
            doi_apply(d0, d, k, np.zeros((3, 3)))

    def test_trace_norm_bound(self):
        # Hadamard multiplier bound on trace-normalized operands
        rng = rng_from(63)
        f = functions.gaussian_bump(0.0, 1.0, 1.0)
        for trial in range(10):
            dim = int(rng.integers(3, 10))
            a0 = random_hermitian(rng, dim)
            v = random_hermitian(rng, dim, scale=0.5)
            d0, d = eig_hermitian(a0), eig_hermitian(a0 + v)
            k = DoiKernel(f, 3, 2j)
            t = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            t /= schatten_norm(singular_values(t), 1)
            kmat = kernel_eval(k, d0.eigenvalues[None, :], d.eigenvalues[:, None])
            sup_k = float(np.abs(kmat).max())
            out_norm = schatten_norm(singular_values(doi_apply(d0, d, k, t)), 1)
            assert out_norm <= dim * sup_k * 1.0 + 1e-10


class TestIdentityResidual:
    @pytest.mark.parametrize("m, z", [(3, 2j), (5, 3j)])
    def test_residual_small_on_random_pairs(self, m, z):
        f = functions.gaussian_bump(0.0, 1.2, 1.0)
        done = 0
        idx = 0
        while done < 5 and idx < 200:
            rng = rng_from(71, m, idx)
            idx += 1
            a0 = random_hermitian(rng, 12)
            v = random_hermitian(rng, 12, scale=0.5)
            try:
                res = doi_identity_residual(eig_hermitian(a0), eig_hermitian(a0 + v), f, m, z)
            except AntidiagonalCollisionError:
                continue
            assert res < 1e-8
            done += 1
        assert done == 5

    def test_dimension_mismatch(self):
        f = functions.gaussian_bump()
        with pytest.raises(ValueError, match="dimension"):
            doi_identity_residual(eig_hermitian(np.eye(2)), eig_hermitian(np.eye(3)), f, 3, 1j)

    def test_constructed_collision_detected(self):
        # (x - ia)^3 takes the same value at x = +sqrt(3) a and x = -sqrt(3) a,
        # so these two eigenvalues collide through g even though they are far
        # apart on the real line
        a = 1.0
        lam = math.sqrt(3.0) * a
        d0 = eig_hermitian(np.diag([lam, 5.0]))
        d = eig_hermitian(np.diag([-lam, 6.0]))
        f = functions.gaussian_bump()
        with pytest.raises(AntidiagonalCollisionError, match="collide"):
            doi_identity_residual(d0, d, f, 3, 1j * a)

    def test_collision_point_degenerate_in_direct_mode(self):
        lam = math.sqrt(3.0)
        k = DoiKernel(functions.gaussian_bump(), 3, 1j, mode="direct")
        with pytest.raises(DegenerateKernelError):
            kernel_eval(k, lam, -lam)

    def test_collision_point_degenerate_in_factored_mode(self):
        lam = math.sqrt(3.0)
        k = DoiKernel(functions.gaussian_bump(), 3, 1j, mode="factored")
        with pytest.raises(DegenerateKernelError, match="cofactor"):
            kernel_eval(k, lam, -lam)


# ---------------------------------------------------------------------------
# hypotheses report and cutoff split


class TestKernelHypotheses:
    @staticmethod
    def _axis():
        # inner grid plus a log tail: the two infinite limits only settle
        # far beyond the support of f
        tail = np.logspace(1.0, 5.0, 80)
        return np.sort(np.concatenate([np.linspace(-9.5, 9.5, 201), tail, -tail]))

    def _report(self):
        k = DoiKernel(functions.bump_c2(1.0), 3, 10j, mode="factored")
        return kernel_hypotheses_report(k, self._axis())

    def test_sups_finite_and_limits_match(self):
        rep = self._report()
        assert math.isfinite(rep.sup_abs)
        assert math.isfinite(rep.sup_weighted_dlambda)
        assert rep.sup_abs_rise == 0.0
        assert rep.sup_weighted_dlambda_rise == 0.0
        assert rep.limit_mismatch < 1e-6

    def test_region_split_covers_plane(self):
        # the rise compares the inner square |x|, |y| <= edge / 10 with the
        # whole grid; recomputed here from the kernel on both parts of the split
        k = DoiKernel(functions.polynomial([1.0, 0.0]), 3, 1j, mode="factored")
        axis = self._axis()
        rep = kernel_hypotheses_report(k, axis)
        vals = np.abs(kernel_eval(k, axis[:, None], axis[None, :]))
        near = np.abs(axis) <= 1e4
        inner = near[:, None] & near[None, :]
        sup_inner = float(vals[inner].max())
        sup_outer = float(vals[~inner].max())
        assert max(sup_inner, sup_outer) == rep.sup_abs
        assert rep.sup_abs_rise == pytest.approx((sup_outer - sup_inner) / sup_inner, rel=1e-12)

    def test_growing_kernel_is_not_settled(self):
        # f(x) = x: K = -(x - z)^3 (y - z)^3 / p grows without bound, so both
        # sups rise through the outer decade
        k = DoiKernel(functions.polynomial([1.0, 0.0]), 3, 1j, mode="factored")
        rep = kernel_hypotheses_report(k, self._axis())
        assert rep.sup_abs_rise > 1e3
        assert rep.sup_weighted_dlambda_rise > 1e3

    @staticmethod
    def _rm_cert_kernel(name):
        # rm-cert's two kernels and its growing f(x) = x control
        if name == "control":
            return DoiKernel(functions.polynomial([1.0, 0.0]), 3, 1j, mode="factored")
        return _rm_cert_kernels("factored")[name]

    @staticmethod
    def _full_grid_report(k, axis):
        # the whole N x N grid at once, from the public kernel functions
        abs_k = np.abs(kernel_eval(k, axis[:, None], axis[None, :]))
        abs_dk = np.abs(kernel_dlambda(k, axis[:, None], axis[None, :]))
        weighted = (1.0 + axis[:, None] ** 2) * abs_dk
        edge = min(-axis.min(), axis.max())
        near = np.abs(axis) <= edge / 10.0
        inner = near[:, None] & near[None, :]

        def rise(values):
            part = float(values[inner].max())
            return (float(values.max()) - part) / part

        tail = np.abs(axis) >= edge / 10.0
        slope = np.polyfit(np.log(np.abs(axis[tail])), np.log(abs_dk.max(axis=1)[tail]), 1)[0]
        return float(abs_k.max()), float(weighted.max()), rise(abs_k), rise(weighted), -slope

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["compact_support", "tail_power", "control"])
    def test_streamed_report_equals_the_full_grid(self, name):
        k = self._rm_cert_kernel(name)
        axis = suites._hypotheses_grid(3.0, 1e5, 201, 80)
        step = doi._BLOCK_BYTES // (16 * axis.size)
        # several blocks, the last one short
        assert 1 <= step < axis.size and axis.size % step != 0
        rep = kernel_hypotheses_report(k, axis)
        sup_abs, sup_weighted, abs_rise, weighted_rise, exponent = self._full_grid_report(k, axis)
        assert rep.sup_abs == pytest.approx(sup_abs, rel=1e-14, abs=0.0)
        assert rep.sup_weighted_dlambda == pytest.approx(sup_weighted, rel=1e-14, abs=0.0)
        assert rep.sup_abs_rise == abs_rise
        assert rep.sup_weighted_dlambda_rise == weighted_rise
        assert rep.dlambda_tail_exponent == pytest.approx(exponent, rel=1e-12, abs=0.0)
        if name == "control":
            assert abs_rise > 0.0 and weighted_rise > 0.0

    @pytest.mark.parametrize("name", ["compact_support", "tail_power", "control"])
    def test_report_does_not_depend_on_the_block_size(self, name, monkeypatch):
        # each entry is computed alone, band entries included, so one row per
        # block and the whole grid in one block give the default report bit for bit
        k = self._rm_cert_kernel(name)
        axis = suites._hypotheses_grid(3.0, 1e5, 201, 80)
        want = kernel_hypotheses_report(k, axis)
        for block_bytes in (16 * axis.size, 16 * axis.size * axis.size):
            monkeypatch.setattr(doi, "_BLOCK_BYTES", block_bytes)
            assert kernel_hypotheses_report(k, axis) == want, block_bytes

    @pytest.mark.parametrize("mode", ["direct", "factored"])
    def test_band_entries_off_the_diagonal_keep_the_midpoint_limits(self, mode):
        # 0.5 and 0.5 + 1e-9 lie in each other's band: the limit there is
        # taken at the midpoint, not at either axis node
        k = _rm_cert_kernels(mode)["gaussian"]
        axis = np.array([-3.0, 0.0, 0.5, 0.5 + 1e-9, 2.0])
        rows, cols = axis[:, None], axis[None, :]
        band = doi._coincidence_band(rows, cols)
        assert band[2, 3] and band[3, 2]
        assert np.count_nonzero(band) == axis.size + 2
        mid = 0.5 * (rows + cols)[band]
        k_lim, dk_lim = doi._band_limits(k, mid, dlambda=True)
        # the pair's midpoint limits differ from those at either of its nodes
        pair = doi._band_limits(k, 0.5 * (axis[2] + axis[3]), dlambda=True)
        for node in axis[2:4]:
            at_node = doi._band_limits(k, node, dlambda=True)
            assert pair[0] != at_node[0] and pair[1] != at_node[1]
        # the axis values taken once, as the report passes them, or per call
        at = doi._axis_values(k, axis, dlambda=True)
        passed = doi._kernel_grid(
            k, rows, cols, True, at.take(np.s_[:, None]), at.take(np.s_[None, :])
        )
        for kv, dk in (passed, doi._kernel_grid(k, rows, cols, True)):
            np.testing.assert_array_equal(kv[band], k_lim)
            np.testing.assert_array_equal(dk[band], dk_lim)
        # on the diagonal the midpoint is the node itself
        diag = doi._band_limits(k, axis, dlambda=True)
        np.testing.assert_array_equal(np.diag(passed[0]), diag[0])
        np.testing.assert_array_equal(np.diag(passed[1]), diag[1])

    def test_collision_past_the_first_block_raises(self):
        # (x - i)^3 takes one value at x = +sqrt(3) and x = -sqrt(3): that
        # pair sits at the end of the axis, rows away from the first block
        k = DoiKernel(functions.gaussian_bump(), 3, 1j, mode="factored")
        root = math.sqrt(3.0)
        axis = np.concatenate([np.linspace(-10.0, 10.0, 600), [-root, root]])
        step = doi._BLOCK_BYTES // (16 * axis.size)
        assert axis.size - 2 >= step
        with pytest.raises(DegenerateKernelError, match="cofactor"):
            kernel_hypotheses_report(k, axis)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", ["compact_support", "tail_power", "control"])
    def test_direct_and_factored_reports_agree_on_the_rm_cert_grid(self, name):
        # the direct-against-factored route pair on the grid rm-cert certifies;
        # |g| is about 1e-15 at its edge, so the direct mode's denominator
        # test must be relative to |g| to run there
        axis = suites._hypotheses_grid(3.0, 1e5, 401, 160)
        factored = self._rm_cert_kernel(name)
        direct = dataclasses.replace(factored, mode="direct")
        want = kernel_hypotheses_report(factored, axis)
        got = kernel_hypotheses_report(direct, axis)
        for fld in dataclasses.fields(want):
            assert getattr(got, fld.name) == pytest.approx(
                getattr(want, fld.name), rel=1e-12, abs=0.0
            ), fld.name

    @pytest.mark.parametrize("name", ["compact_support", "tail_power", "control"])
    def test_peak_memory_below_one_full_grid(self, name):
        # one complex N x N grid is 16 N^2 bytes; the full-grid report held
        # about 9.7 of them at the rm-cert axis; row blocks with one reciprocal
        # denominator per entry, written into reused buffers, hold about 0.36
        axis = suites._hypotheses_grid(3.0, 1e5, 401, 160)
        assert axis.size == 721
        tracemalloc.start()
        try:
            kernel_hypotheses_report(self._rm_cert_kernel(name), axis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 16 * axis.size**2

    def test_rejects_bad_grid(self):
        k = DoiKernel(functions.bump_c2(1.0), 3, 10j)
        with pytest.raises(ValueError, match="1-d"):
            kernel_hypotheses_report(k, np.zeros((3, 3)))
        far = np.array([-1e5, -5e4, 5e4, 1e5])
        with pytest.raises(ValueError, match="edge / 10"):
            kernel_hypotheses_report(k, far)


_BUMP_POWERS = [1, 3, 5, 7, 9]
_BUMP_RADII = [0.5, 1.0, 2.0]


class TestBumpPower:
    """The cutoff split's map over the odd powers up to 9 and three window
    radii; each test, parametrized by the power, loops over the radii."""

    @pytest.mark.parametrize("m", _BUMP_POWERS)
    def test_matches_power_outside_window(self, m):
        for r in _BUMP_RADII:
            x = r * np.array([1.0, -1.0, 1.001, -1.001, 1.7, -2.5, 10.0])
            np.testing.assert_array_equal(doi._bump_power(x, m, r), x**m)

    @pytest.mark.parametrize("m", _BUMP_POWERS)
    def test_slope_at_origin_is_the_amplitude(self, m):
        # phi'(0) = c r^(m-1), c = (m - 1) / 7^((m-1)/2): the constant the
        # monotonicity proof needs (x^m adds a slope there only at m = 1)
        for r in _BUMP_RADII:
            x = 1e-6 * r
            want = 1.0 if m == 1 else (m - 1) / 7.0 ** ((m - 1) // 2) * r ** (m - 1)
            assert doi._bump_power(x, m, r) / x == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("m", _BUMP_POWERS)
    def test_odd_and_strictly_increasing(self, m):
        for r in _BUMP_RADII:
            grid = np.linspace(-3.0 * r, 3.0 * r, 20001)
            phi = doi._bump_power(grid, m, r)
            # numpy's x**m is odd only up to its own rounding
            np.testing.assert_allclose(doi._bump_power(-grid, m, r), -phi, rtol=1e-15, atol=0.0)
            assert np.all(phi[1:] > phi[:-1]), (m, r)
            if m == 1:
                np.testing.assert_array_equal(phi, grid)

    @pytest.mark.parametrize("m", _BUMP_POWERS)
    def test_smooth_across_cutoff(self, m):
        # the correction phi - x^m has a triple zero at each window edge, so
        # value, slope and curvature match x^m there (C^2): halving the
        # distance to the edge divides it by 8; a double zero (a C^1 join)
        # would divide it by 4, and m = 1 has no correction at all
        for r in _BUMP_RADII:
            for edge in (r, -r):
                h = 1e-3 * r * np.array([1.0, 0.5])
                x = edge - np.sign(edge) * h
                correction = doi._bump_power(x, m, r) - x**m
                if m == 1:
                    np.testing.assert_array_equal(correction, 0.0)
                    continue
                assert np.sign(correction[0]) == np.sign(edge)
                assert correction[0] / correction[1] == pytest.approx(8.0, rel=1e-2)


class TestCutoffSplit:
    def test_decomposition_is_exact(self):
        rng = rng_from(81)
        for trial in range(5):
            a0 = random_hermitian(rng, 10)
            v = random_hermitian(rng, 10, scale=0.5)
            rep = resolvent_cutoff_split(eig_hermitian(a0), eig_hermitian(a0 + v), 3, 1.0)
            assert rep.relative_residual < 1e-10
            assert rep.trace_norm_total > 0
            assert rep.trace_norm_inner >= 0 and rep.trace_norm_outer >= 0

    def test_json_fields(self):
        d0 = eig_hermitian(np.diag([0.0, 2.0, -1.0]))
        rep = resolvent_cutoff_split(d0, d0, 3, 1.0)
        assert rep.residual <= rep.scale * rep.relative_residual + 1e-30
