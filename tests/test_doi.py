"""Tests for the divided-difference kernel machinery and grid certificates."""

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
    divided_difference,
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
            assert complex(p.dlam(lam, mu)) == pytest.approx(fd_lam, rel=1e-7, abs=1e-7)
            assert complex(p.dmu(lam, mu)) == pytest.approx(fd_mu, rel=1e-7, abs=1e-7)

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_ratio_form_agrees(self, m):
        p = CofactorPolynomial(m, 2j)
        rng = rng_from(25, m)
        lam = rng.uniform(-5, 5, size=500)
        mu = rng.uniform(-5, 5, size=500)
        direct = p(lam, mu)
        ratio = p.ratio_form(lam, mu)
        scale = np.maximum(np.abs(direct), 1.0)
        assert np.max(np.abs(direct - ratio) / scale) < 1e-10

    def test_rejects_even_power_and_real_shift(self):
        with pytest.raises(ValueError, match="odd"):
            CofactorPolynomial(2, 1j)
        with pytest.raises(ValueError, match="odd"):
            CofactorPolynomial(0, 1j)
        with pytest.raises(ValueError, match="Im z"):
            CofactorPolynomial(3, 1.0)


# ---------------------------------------------------------------------------
# grid certificates


class TestLowerBoundCertificates:
    @pytest.mark.parametrize("m, r, a", [(3, 1.0, 10.0), (3, 5.0, 50.0), (5, 1.0, 20.0)])
    def test_bounded_configs_pass(self, m, r, a):
        cert = cofactor_lower_bound_cert(CofactorPolynomial(m, 1j * a), BoundedRegion(r), 301)
        assert cert.passed
        assert cert.c_observed - cert.slack > 0

    def test_exterior_config_passes(self):
        cert = cofactor_lower_bound_cert(
            CofactorPolynomial(3, 0.05j), ExteriorRegion(r=2.0, lam_max=200.0), 301
        )
        assert cert.passed

    def test_bounded_near_zero_shift_fails(self):
        # the antidiagonal collision points sit inside the square when the
        # shift is small, so no positive lower bound can be certified
        cert = cofactor_lower_bound_cert(CofactorPolynomial(3, 0.01j), BoundedRegion(1.0), 301)
        assert not cert.passed

    def test_exterior_large_shift_fails(self):
        cert = cofactor_lower_bound_cert(
            CofactorPolynomial(3, 10j), ExteriorRegion(r=1.0, lam_max=100.0), 301
        )
        assert not cert.passed

    def test_bounded_certificate_is_sound(self):
        # the slack-corrected bound must hold off-grid as well
        p = CofactorPolynomial(3, 10j)
        cert = cofactor_lower_bound_cert(p, BoundedRegion(1.0), 101)
        lb = cert.c_observed - cert.slack
        rng = rng_from(31)
        lam = rng.uniform(-1, 1, size=4000)
        mu = rng.uniform(-1, 1, size=4000)
        assert float(np.min(np.abs(p(lam, mu)))) >= lb

    def test_exterior_certificate_is_sound(self):
        p = CofactorPolynomial(3, 0.05j)
        region = ExteriorRegion(r=2.0, lam_max=200.0)
        cert = cofactor_lower_bound_cert(p, region, 201)
        lb = cert.c_observed - cert.slack
        rng = rng_from(32)
        lam = np.exp(rng.uniform(np.log(2.0), np.log(200.0), size=4000))
        lam *= rng.choice([-1.0, 1.0], size=4000)
        mu = rng.uniform(-200, 200, size=4000)
        q = np.abs(p(lam, mu)) / (np.abs(lam) + np.abs(mu)) ** 2
        assert float(np.min(q)) >= lb

    def test_validation(self):
        p = CofactorPolynomial(3, 1j)
        with pytest.raises(ValueError, match="grid_n"):
            cofactor_lower_bound_cert(p, BoundedRegion(1.0), 10)
        with pytest.raises(ValueError, match="r > 0"):
            cofactor_lower_bound_cert(p, BoundedRegion(0.0), 11)
        with pytest.raises(ValueError, match="lam_max"):
            cofactor_lower_bound_cert(p, ExteriorRegion(r=5.0, lam_max=1.0), 11)
        with pytest.raises(TypeError):
            cofactor_lower_bound_cert(p, "square", 11)

    def test_json_payload(self):
        cert = cofactor_lower_bound_cert(CofactorPolynomial(3, 10j), BoundedRegion(1.0), 51)
        assert cert.passed is True
        assert cert.grid_n == 51
        assert cert.slack >= 0


# ---------------------------------------------------------------------------
# divided differences and kernels


class TestDividedDifference:
    def test_square_gives_sum(self):
        f = functions.polynomial([1.0, 0.0, 0.0])
        rng = rng_from(41)
        for _ in range(30):
            lam, mu = rng.uniform(-4, 4, size=2)
            if abs(lam - mu) <= 1e-5 * (1 + abs(lam)):
                continue
            assert divided_difference(f, lam, mu) == pytest.approx(lam + mu, rel=1e-12)

    def test_band_uses_midpoint_derivative(self):
        f = functions.polynomial([1.0, 0.0, 0.0])
        lam = 2.0
        mu = 2.0 + 1e-9
        # inside the coincidence band: exactly f'(midpoint)
        assert divided_difference(f, lam, mu) == pytest.approx(lam + mu, abs=1e-12)
        assert divided_difference(f, lam, lam) == pytest.approx(2 * lam, abs=1e-14)

    def test_array_broadcast(self):
        f = functions.polynomial([1.0, 0.0, 0.0])
        lam = np.array([0.0, 1.0, 2.0])
        out = divided_difference(f, lam[:, None], lam[None, :])
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
        t = 1e-3  # outside the band (delta0 = 1e-5), small enough for O(t^2)
        fd = (raw(x + t, x) - raw(x - t, x)) / (2 * t)
        got = kernel_dlambda(direct, x, x)
        assert got == pytest.approx(fd, rel=1e-3)

    def test_validation(self):
        f = functions.gaussian_bump()
        with pytest.raises(ValueError, match="mode"):
            DoiKernel(f=f, g=functions.identity(), mode="mixed")
        with pytest.raises(ValueError, match="factored"):
            DoiKernel(f=f, g=functions.identity(), mode="factored")
        with pytest.raises(ValueError, match="band"):
            DoiKernel(f=f, g=functions.identity(), delta0=0.0)
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
        band = doi._coincidence_band(big_l, big_m, k.delta0)
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
        band = int(doi._coincidence_band(axis[:, None], axis[None, :], k.delta0).sum())
        assert band == n
        for fn in (kernel_eval, kernel_dlambda):
            counted_f.points = counted_g.points = 0
            fn(k, axis[:, None], axis[None, :])
            assert counted_f.points <= 3 * n + 2 * band
            assert counted_g.points <= 3 * n + 2 * band
        counted_f.points = 0
        kernel_hypotheses_report(k, axis, axis, region_r=2.0)
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
    def _report(self):
        k = resolvent_kernel(functions.bump_c2(1.0), 3, 10j, mode="factored")
        # inner grid plus a log tail: the two infinite limits only settle
        # far beyond the support of f
        tail = np.logspace(1.0, 5.0, 80)
        lam = np.sort(np.concatenate([np.linspace(-9.5, 9.5, 201), tail, -tail]))
        return kernel_hypotheses_report(k, lam, lam, region_r=3.0)

    def test_sups_finite_and_limits_match(self):
        rep = self._report()
        assert math.isfinite(rep.sup_abs)
        assert math.isfinite(rep.sup_weighted_dlambda)
        assert rep.limit_mismatch < 1e-6
        assert rep.edge == pytest.approx(1e5)

    def test_region_split_covers_plane(self):
        rep = self._report()
        assert set(rep.region_sups) == {
            "square",
            "strip_lam_large",
            "strip_mu_large",
            "exterior",
        }
        sup_all = max(v["sup_abs"] for v in rep.region_sups.values())
        assert sup_all == pytest.approx(rep.sup_abs, rel=1e-12)

    def test_rejects_bad_grid(self):
        k = resolvent_kernel(functions.bump_c2(1.0), 3, 10j)
        with pytest.raises(ValueError, match="1-d"):
            kernel_hypotheses_report(k, np.zeros((3, 3)), np.zeros(3), 1.0)


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

    def test_rejects_power_map_wider_than_split(self):
        from ssflab.ssf import build_power_map

        d0 = eig_hermitian(np.diag([0.0, 1.0]))
        with pytest.raises(ValueError, match="cutoff"):
            resolvent_cutoff_split(d0, d0, 3, 1.0, phi=build_power_map(3, 2.0))

    def test_json_fields(self):
        d0 = eig_hermitian(np.diag([0.0, 2.0, -1.0]))
        rep = resolvent_cutoff_split(d0, d0, 3, 1.0)
        assert rep.residual <= rep.scale * rep.relative_residual + 1e-30
