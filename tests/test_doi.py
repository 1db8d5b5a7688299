"""Tests for the divided-difference kernel machinery and cofactor certificates."""

import dataclasses
import math

import numpy as np
import pytest

from ssflab import doi, functions
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
    kernel_dlambda,
    kernel_eval,
    kernel_hypotheses_report,
    resolvent_cutoff_split,
    resolvent_kernel,
)
from ssflab.spectral import eig_hermitian, schatten_norm, singular_values
from ssflab.utils import random_hermitian, rng_from


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

    @pytest.mark.parametrize("m", [3, 5])
    def test_partial_derivatives_match_finite_differences(self, m):
        p = CofactorPolynomial(m, 1.5j)
        rng = rng_from(24, m)
        h = 1e-6
        for _ in range(20):
            lam, mu = rng.uniform(-3, 3, size=2)
            fd_lam = (complex(p(lam + h, mu)) - complex(p(lam - h, mu))) / (2 * h)
            fd_mu = (complex(p(lam, mu + h)) - complex(p(lam, mu - h))) / (2 * h)
            dlam = complex(doi._p_dlam(m, p.z, lam, mu))
            # p is symmetric, so dp/dmu is dp/dlam with the arguments swapped
            dmu = complex(doi._p_dlam(m, p.z, mu, lam))
            assert dlam == pytest.approx(fd_lam, rel=1e-7, abs=1e-7)
            assert dmu == pytest.approx(fd_mu, rel=1e-7, abs=1e-7)

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
            with pytest.raises(ValueError, match="r > 0"):
                cofactor_lower_bound_cert(p, region)
        with pytest.raises(TypeError):
            cofactor_lower_bound_cert(p, "square")

    def test_json_payload(self):
        cert = cofactor_lower_bound_cert(CofactorPolynomial(3, 10j), BoundedRegion(1.0))
        assert cert.passed is True
        assert [f.name for f in dataclasses.fields(cert)] == [
            "m",
            "z",
            "region",
            "lower_bound",
            "passed",
        ]


# ---------------------------------------------------------------------------
# divided differences and kernels


class TestDividedDifference:
    # f = x^2, g = x: the kernel is the first divided difference x + y
    def _square(self):
        return DoiKernel(f=functions.polynomial([1.0, 0.0, 0.0]), g=functions.identity())

    def test_square_gives_sum(self):
        k = self._square()
        rng = rng_from(41)
        for _ in range(30):
            lam, mu = rng.uniform(-4, 4, size=2)
            if abs(lam - mu) <= 1e-5 * (1 + abs(lam)):
                continue
            assert kernel_eval(k, lam, mu) == pytest.approx(lam + mu, rel=1e-12)

    def test_band_uses_midpoint_derivative(self):
        k = self._square()
        lam = 2.0
        mu = 2.0 + 1e-9
        # inside the coincidence band: exactly f'(midpoint)
        assert kernel_eval(k, lam, mu) == pytest.approx(lam + mu, abs=1e-12)
        assert kernel_eval(k, lam, lam) == pytest.approx(2 * lam, abs=1e-14)

    def test_array_broadcast(self):
        k = self._square()
        lam = np.array([0.0, 1.0, 2.0])
        out = kernel_eval(k, lam[:, None], lam[None, :])
        np.testing.assert_allclose(out, lam[:, None] + lam[None, :], atol=1e-12)


class TestKernelEval:
    def _pair(self):
        f = functions.gaussian_bump(0.0, 1.0, 1.0)
        return (
            resolvent_kernel(f, 3, 2j, mode="direct"),
            resolvent_kernel(f, 3, 2j, mode="factored"),
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

    def test_validation(self):
        f = functions.gaussian_bump()
        with pytest.raises(ValueError, match="mode"):
            DoiKernel(f=f, g=functions.identity(), mode="mixed")
        with pytest.raises(ValueError, match="factored"):
            DoiKernel(f=f, g=functions.identity(), mode="factored")
        bare = functions.ScalarFunction(value=lambda x: x, name="bare")
        with pytest.raises(ValueError, match="derivative"):
            DoiKernel(f=bare, g=functions.identity())
        with pytest.raises(ValueError, match="odd"):
            resolvent_kernel(f, 2, 1j)

    @pytest.mark.parametrize(
        "m, z",
        [(3.5, 2j), (True, 2j), (3, complex(np.nan, 1.0))],
        ids=["float_m", "bool_m", "nan_z"],
    )
    def test_resolvent_kernel_argument_check(self, m, z):
        with pytest.raises(ValueError):
            resolvent_kernel(functions.gaussian_bump(), m, z)

    @pytest.mark.parametrize(
        "m, z, match",
        [(3, 5j, r"g\(x\) = \(x - z\)"), (3, complex(np.nan, 1.0), "finite"), (2, 2j, "odd")],
        ids=["z_disagrees_with_g", "nan_z", "even_m"],
    )
    def test_factored_kernel_checks_m_z_and_g(self, m, z, match):
        # g is (x - 2i)^(-3); each pair (m, z) used to build a kernel that
        # evaluated without error (z = 5i to 87.95+54.01j at (0.3, 1.1) with
        # this f, against 1.006+3.293j from the direct kernel)
        f = functions.gaussian_bump(0.1, 1.0, 1.0)
        g = functions.resolvent_function(2j, 3)
        with pytest.raises(ValueError, match=match):
            DoiKernel(f=f, g=g, mode="factored", m=m, z=z)
        consistent = DoiKernel(f=f, g=g, mode="factored", m=3, z=2j)
        direct = DoiKernel(f=f, g=g)
        assert kernel_eval(consistent, 0.3, 1.1) == pytest.approx(
            kernel_eval(direct, 0.3, 1.1), rel=1e-12
        )


def _rm_cert_kernels(mode):
    # the two kernels of the rm-cert suite, plus a Gaussian
    return {
        "compact_support": resolvent_kernel(functions.bump_c2(1.0), 3, 10.0j, mode=mode),
        "tail_power": resolvent_kernel(
            functions.product(
                functions.smoothstep_cutoff(1.0), functions.power_shift_inverse(3)
            ),
            3,
            0.01j,
            mode=mode,
        ),
        "gaussian": resolvent_kernel(functions.gaussian_bump(0.1, 1.0, 1.0), 5, 1.5j, mode=mode),
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
            derivative=self._counted(f.derivative),
            derivative2=self._counted(f.derivative2),
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
    def test_one_variable_functions_run_on_the_axes(self, mode):
        n = 300
        axis = np.linspace(-5.0, 5.0, n)
        counted_f = _CountingFunction(functions.gaussian_bump(0.1, 1.0, 1.0))
        counted_g = _CountingFunction(functions.resolvent_function(2j, 3))
        k = DoiKernel(
            f=counted_f.function, g=counted_g.function, mode=mode, m=3, z=2j
        )
        band = int(doi._coincidence_band(axis[:, None], axis[None, :]).sum())
        assert band == n
        for fn in (kernel_eval, kernel_dlambda):
            counted_f.points = counted_g.points = 0
            fn(k, axis[:, None], axis[None, :])
            assert counted_f.points <= 3 * n + 2 * band
            assert counted_g.points <= 3 * n + 2 * band
        counted_f.points = 0
        kernel_hypotheses_report(k, axis, axis)
        # the grid plus the two edge rows, each N pairs with one band entry
        assert counted_f.points <= 7 * n + 2 * (band + 2)

    @pytest.mark.parametrize("fn", [kernel_eval, kernel_dlambda])
    @pytest.mark.parametrize("mode, match", [("direct", "denominator"), ("factored", "cofactor")])
    def test_off_band_collision_raises_on_grids(self, fn, mode, match):
        # (x - i)^3 takes one value at x = +sqrt(3) and x = -sqrt(3)
        k = resolvent_kernel(functions.gaussian_bump(), 3, 1j, mode=mode)
        lam = np.array([-1.0, math.sqrt(3.0), 2.5])
        mu = np.array([0.5, -math.sqrt(3.0)])
        with pytest.raises(DegenerateKernelError, match=match):
            fn(k, lam[:, None], mu[None, :])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fn", [kernel_eval, kernel_dlambda])
    def test_band_entries_never_raise(self, fn):
        # every diagonal entry has a zero denominator; the band replaces it
        axis = np.array([-3.0, -1.0, 0.0, 0.5, 0.5 + 1e-9, 4.0])
        f = functions.polynomial([1.0, 0.0, 0.0])
        for k in (
            DoiKernel(f=f, g=functions.identity()),
            resolvent_kernel(functions.gaussian_bump(), 3, 1j, mode="direct"),
            resolvent_kernel(functions.gaussian_bump(), 3, 1j, mode="factored"),
        ):
            out = fn(k, axis[:, None], axis[None, :])
            assert np.all(np.isfinite(out))
        # K(x, y) = x + y and dK/dx = 1 for f = x^2, g = x, band included
        k = DoiKernel(f=f, g=functions.identity())
        want = (axis[:, None] + axis[None, :]) if fn is kernel_eval else np.ones((6, 6))
        np.testing.assert_allclose(fn(k, axis[:, None], axis[None, :]), want, atol=1e-9)


# ---------------------------------------------------------------------------
# the exact identity


class TestDoiApply:
    def test_separable_square_kernel(self):
        # f = x^2, g = x gives K(x, y) = x + y, so the multiplier acts as
        # T -> H T + T H0 exactly
        rng = rng_from(61)
        a0 = random_hermitian(rng, 8)
        v = random_hermitian(rng, 8, scale=0.6)
        d0, d = eig_hermitian(a0), eig_hermitian(a0 + v)
        k = DoiKernel(f=functions.polynomial([1.0, 0.0, 0.0]), g=functions.identity())
        t = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        got = doi_apply(d0, d, k, t)
        want = (a0 + v) @ t + t @ a0
        np.testing.assert_allclose(got, want, atol=1e-10 * np.abs(want).max())

    def test_separable_cube_kernel(self):
        rng = rng_from(62)
        a0 = random_hermitian(rng, 7)
        v = random_hermitian(rng, 7, scale=0.6)
        d0, d = eig_hermitian(a0), eig_hermitian(a0 + v)
        k = DoiKernel(f=functions.polynomial([1.0, 0.0, 0.0, 0.0]), g=functions.identity())
        t = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        h = a0 + v
        got = doi_apply(d0, d, k, t)
        want = h @ h @ t + h @ t @ a0 + t @ a0 @ a0
        np.testing.assert_allclose(got, want, atol=1e-9 * np.abs(want).max())

    def test_shape_mismatch_rejected(self):
        d0 = eig_hermitian(np.eye(3))
        d = eig_hermitian(np.eye(4))
        k = DoiKernel(f=functions.polynomial([1.0, 0.0, 0.0]), g=functions.identity())
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
            k = resolvent_kernel(f, 3, 2j)
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
        k = resolvent_kernel(functions.gaussian_bump(), 3, 1j, mode="direct")
        with pytest.raises(DegenerateKernelError):
            kernel_eval(k, lam, -lam)

    def test_collision_point_degenerate_in_factored_mode(self):
        lam = math.sqrt(3.0)
        k = resolvent_kernel(functions.gaussian_bump(), 3, 1j, mode="factored")
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
        k = resolvent_kernel(functions.bump_c2(1.0), 3, 10j, mode="factored")
        return kernel_hypotheses_report(k, self._axis(), self._axis())

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
        k = resolvent_kernel(functions.identity(), 3, 1j, mode="factored")
        axis = self._axis()
        rep = kernel_hypotheses_report(k, axis, axis)
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
        k = resolvent_kernel(functions.identity(), 3, 1j, mode="factored")
        rep = kernel_hypotheses_report(k, self._axis(), self._axis())
        assert rep.sup_abs_rise > 1e3
        assert rep.sup_weighted_dlambda_rise > 1e3

    def test_rejects_bad_grid(self):
        k = resolvent_kernel(functions.bump_c2(1.0), 3, 10j)
        with pytest.raises(ValueError, match="1-d"):
            kernel_hypotheses_report(k, np.zeros((3, 3)), np.zeros(3))
        far = np.array([-1e5, -5e4, 5e4, 1e5])
        with pytest.raises(ValueError, match="edge / 10"):
            kernel_hypotheses_report(k, far, far)


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
