"""Tests for the 1-d lattice scattering model and the determinant-phase identity."""

import sys
import threading
import time

import numpy as np
import pytest

from ssflab.scattering import (
    BAND_EDGE_MARGIN,
    BirmanKreinRecord,
    LatticeScatteringModel,
    band_sweep,
    birman_krein_point,
    bound_state_count_below,
    free_green,
    lattice_root,
    s_matrix,
    scattering_determinant,
    ssf_scattering,
    unitarity_defect,
)
from ssflab.utils import rng_from

from helpers import truncated_eigenvalues


def _truncated_free(l_trunc: int) -> np.ndarray:
    n = 2 * l_trunc + 1
    return np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)


def _dense_determinant(model: LatticeScatteringModel, z: complex) -> complex:
    """Oracle: the dense ``det(I + V G0_SS)`` from the closed-form kernel."""
    sites = np.asarray(model.sites)
    g = free_green(z, sites[:, None], sites[None, :])
    return complex(np.linalg.det(np.eye(sites.size) + np.asarray(model.values)[:, None] * g))


# ---------------------------------------------------------------------------
# model construction


class TestModel:
    def test_single_site(self):
        m = LatticeScatteringModel.single_site(0.7, site=3)
        assert m.sites == (3,) and m.values == (0.7,)
        assert m.support_radius == 3
        assert m.strength == 0.7

    def test_centered(self):
        m = LatticeScatteringModel.centered([0.1, -0.2, 0.3, 0.4, 0.5])
        assert m.sites == (-2, -1, 0, 1, 2)
        assert m.strength == 0.5
        assert m.support_radius == 2

    def test_centered_even_length(self):
        m = LatticeScatteringModel.centered([1.0, 2.0])
        assert m.sites == (-1, 0)

    @pytest.mark.parametrize(
        "sites, values",
        [
            ((), ()),
            ((0, 0), (1.0, 2.0)),
            ((1, 0), (1.0, 2.0)),
            ((0,), (np.nan,)),
            ((0, 1), (1.0,)),
        ],
    )
    def test_rejects_malformed(self, sites, values):
        with pytest.raises(ValueError):
            LatticeScatteringModel(sites, values)

    @pytest.mark.parametrize("bad", [0.5, 1.7, True, np.bool_(False), float("nan"), "0"])
    def test_rejects_non_integer_sites_naming_them(self, bad):
        # such sites used to be truncated: (0.5, 1.7) became (0, 1), True became 1
        with pytest.raises(ValueError, match=r"lattice sites must be integers, got site="):
            LatticeScatteringModel((bad, 5), (1.0, 2.0))
        with pytest.raises(ValueError, match=r"got site="):
            LatticeScatteringModel.single_site(0.7, site=bad)

    def test_accepts_integral_sites_of_any_numeric_type(self):
        m = LatticeScatteringModel((np.int64(-2), 3.0, 10**6), (1.0, 2.0, 3.0))
        assert m.sites == (-2, 3, 10**6)
        assert all(type(n) is int for n in m.sites)


# ---------------------------------------------------------------------------
# free resolvent


class TestFreeGreen:
    def test_root_solves_quadratic_inside_disk(self):
        rng = rng_from(111)
        for _ in range(50):
            z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 3) * rng.choice([-1, 1]))
            w = lattice_root(z)
            assert abs(w) < 1.0
            assert w + 1.0 / w == pytest.approx(z, abs=1e-12)
        for z in (-3.0, 2.5, 4.0):
            w = lattice_root(z)
            assert abs(w) < 1.0
            assert w + 1.0 / w == pytest.approx(z, abs=1e-12)

    @pytest.mark.parametrize("z", [0.0, 1.0, -2.0, 2.0])
    def test_rejects_band_points(self, z):
        with pytest.raises(ValueError, match="band"):
            lattice_root(z)

    @pytest.mark.parametrize(
        "z", [complex("nan+nanj"), complex("nan+1j"), complex("inf+1j"), complex(1.0, -np.inf)]
    )
    def test_rejects_non_finite_point_naming_it(self, z):
        # such a point used to come back as nan+nanj
        with pytest.raises(ValueError, match=r"z must be finite, got z="):
            lattice_root(z)

    @pytest.mark.parametrize("n, m", [(1.5, 0), (0, 2.25), (True, 0), (np.array([0, 1.5]), 0)])
    def test_rejects_non_integer_sites(self, n, m):
        # free_green(1j, 1.5, 0) used to return the value at distance 1
        with pytest.raises(ValueError, match=r"lattice sites must be integers, got site="):
            free_green(1j, n, m)

    def test_difference_equation(self):
        # (H0 - z) G = I row by row
        z = 0.4 + 0.9j
        for n, m in [(0, 0), (1, 0), (-2, 3), (5, 5)]:
            lhs = free_green(z, n + 1, m) + free_green(z, n - 1, m) - z * free_green(z, n, m)
            want = 1.0 if n == m else 0.0
            assert lhs == pytest.approx(want, abs=1e-12)

    def test_symmetry_and_broadcast(self):
        z = -0.3 + 0.7j
        n = np.arange(-3, 4)
        g = free_green(z, n[:, None], n[None, :])
        np.testing.assert_allclose(g, g.T, atol=1e-14)
        assert g.shape == (7, 7)

    def test_matches_truncated_inverse(self):
        z = 0.5 + 0.5j
        l_trunc = 300
        h0 = _truncated_free(l_trunc)
        ginv = np.linalg.solve(h0 - z * np.eye(2 * l_trunc + 1), np.eye(2 * l_trunc + 1))
        for n, m in [(0, 0), (2, -1), (-4, 5), (7, 7)]:
            got = free_green(z, n, m)
            want = ginv[n + l_trunc, m + l_trunc]
            assert got == pytest.approx(want, abs=1e-8)


# ---------------------------------------------------------------------------
# scattering matrix


class TestSMatrix:
    def test_single_site_closed_form(self):
        v = 0.8
        model = LatticeScatteringModel.single_site(v)
        for lam in (-1.7, -0.4, 0.3, 1.5):
            kappa = np.arccos(lam / 2.0)
            beta = 1.0 / (2j * np.sin(kappa))
            t = 1.0 / (1.0 - beta * v)
            r = beta * v / (1.0 - beta * v)
            s = s_matrix(model, lam)
            assert s[0, 0] == pytest.approx(t, abs=1e-12)
            assert s[1, 1] == pytest.approx(t, abs=1e-12)
            assert s[1, 0] == pytest.approx(r, abs=1e-12)
            assert s[0, 1] == pytest.approx(r, abs=1e-12)
            assert abs(t) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_shifted_site_reflection_phase(self):
        # moving the site multiplies reflections by plane-wave phases and
        # leaves transmission untouched
        v, shift = 0.6, 2
        lam = 0.9
        kappa = np.arccos(lam / 2.0)
        s0 = s_matrix(LatticeScatteringModel.single_site(v), lam)
        s2 = s_matrix(LatticeScatteringModel.single_site(v, site=shift), lam)
        assert s2[0, 0] == pytest.approx(s0[0, 0], abs=1e-12)
        assert s2[1, 0] == pytest.approx(s0[1, 0] * np.exp(-2j * kappa * shift), abs=1e-12)
        assert s2[0, 1] == pytest.approx(s0[0, 1] * np.exp(2j * kappa * shift), abs=1e-12)

    def test_unitary_on_random_band_points(self):
        model = LatticeScatteringModel.centered([0.3, -0.2, 0.5, 0.1, -0.4])
        rng = rng_from(112)
        for lam in rng.uniform(-1.9, 1.9, size=25):
            assert unitarity_defect(s_matrix(model, float(lam))) < 1e-8

    def test_zero_potential_is_identity(self):
        s = s_matrix(LatticeScatteringModel.single_site(0.0), 0.7)
        np.testing.assert_allclose(s, np.eye(2), atol=1e-13)

    @pytest.mark.parametrize("lam", [2.0, -2.0, 1.9995, -1.9995, 2.4])
    def test_rejects_band_edges(self, lam):
        with pytest.raises(ValueError, match="band edge"):
            s_matrix(LatticeScatteringModel.single_site(0.5), lam)

    @pytest.mark.parametrize("entry", [s_matrix, birman_krein_point])
    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_rejects_non_finite_lambda(self, entry, lam):
        # a NaN point used to be reported as too close to the band edges
        with pytest.raises(ValueError, match="lambda must be finite"):
            entry(LatticeScatteringModel.single_site(0.5), lam)


# ---------------------------------------------------------------------------
# perturbation determinant and spectral shift


class TestScatteringDeterminant:
    def test_matches_truncated_operator_determinant(self):
        model = LatticeScatteringModel.centered([0.4, -0.3, 0.2])
        z = 0.3 + 1.1j
        l_trunc = 300
        h0 = _truncated_free(l_trunc)
        g0 = np.linalg.solve(h0 - z * np.eye(2 * l_trunc + 1), np.eye(2 * l_trunc + 1))
        idx = [s + l_trunc for s in model.sites]
        v = np.asarray(model.values)
        small = np.eye(len(idx)) + v[:, None] * g0[np.ix_(idx, idx)]
        assert scattering_determinant(model, z) == pytest.approx(
            complex(np.linalg.det(small)), abs=1e-8
        )

    def test_matches_free_green_determinant(self):
        model = LatticeScatteringModel((-3, 0, 1, 4), (0.7, -1.1, 0.4, 2.0))
        sites = np.asarray(model.sites)
        v = np.asarray(model.values)
        for z in (0.3 + 1e-3j, -1.9 + 0.2j, 2.5 + 1e-6j, -3.0 + 4.0j):
            g = free_green(z, sites[:, None], sites[None, :])
            want = complex(np.linalg.det(np.eye(sites.size) + v[:, None] * g))
            assert scattering_determinant(model, z) == pytest.approx(want, rel=1e-13)

    def test_gaps_inner_root_and_denominator_all_count(self):
        # unequal gaps, both signs, points near and off the band: fails if the
        # sites are taken as contiguous, if c and r_i come from the outer root
        # 1/w, or if the free determinant det(G0_SS^-1) is not divided out
        model = LatticeScatteringModel((-5, -2, -1, 3, 11), (0.9, -1.4, 0.3, 2.2, -0.6))
        zero = LatticeScatteringModel((-5, -2, -1, 3, 11), (0.0,) * 5)
        for lam in (-3.1, -1.7, -0.2, 0.9, 1.95, 2.6):
            for h in (1e-4, 0.05, 1.5):
                z = complex(lam, h)
                assert scattering_determinant(model, z) == pytest.approx(
                    _dense_determinant(model, z), rel=1e-13
                )
                assert scattering_determinant(zero, z) == pytest.approx(1.0, abs=1e-14)

    def test_far_apart_sites_cost_no_more_than_near_ones(self):
        gap = 10**6
        model = LatticeScatteringModel((0, gap), (0.7, -1.3))
        # heights where |w^gap| < 1e-200: the two sites decouple
        for z in (0.3 + 1e-3j, -2.5 + 0.5j, 1.9 + 1e-2j):
            assert scattering_determinant(model, z) == pytest.approx(
                _dense_determinant(model, z), rel=1e-13
            )
        # heights where |w^gap| is 0.35-0.95: w^gap carries the rounding of w
        # amplified by the gap, in the oracle as in the recurrence
        for z in (-1.75 + 1e-6j, -0.5 + 1e-7j, 0.75 + 1e-6j, 1.75 + 1e-7j):
            assert scattering_determinant(model, z) == pytest.approx(
                _dense_determinant(model, z), rel=gap * np.finfo(float).eps
            )
        t0 = time.perf_counter()
        for _ in range(1000):
            scattering_determinant(model, 0.3 + 1e-6j)
        assert time.perf_counter() - t0 < 0.25

    @pytest.mark.parametrize("z", [0.3 - 0.5j, 3.0, -2.5 + 0j, 0.5 - 1e-12j, complex("nan+nanj")])
    def test_rejects_points_off_the_upper_half_plane(self, z):
        model = LatticeScatteringModel.centered([0.3, -0.2, 0.5])
        with pytest.raises(ValueError, match=r"needs Im z > 0, got z="):
            scattering_determinant(model, z)

    def test_threads_sharing_a_model_agree_with_serial(self):
        # the suites fan out over threads that share frozen models
        model = LatticeScatteringModel.centered([0.3, -0.2, 0.5, 0.1, -0.4])
        zs = [complex(lam, h) for lam in np.linspace(-1.9, 1.9, 20) for h in (1e-3, 0.5)]
        serial = [scattering_determinant(model, z) for z in zs]
        results = [None] * 6

        def work(i):
            results[i] = [scattering_determinant(model, z) for z in zs for _ in range(5)]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        expected = [v for v in serial for _ in range(5)]
        assert all(r == expected for r in results)

    def test_zero_potential_determinant_is_one(self):
        model = LatticeScatteringModel.single_site(0.0)
        assert scattering_determinant(model, 1j) == pytest.approx(1.0, abs=1e-14)


class TestSsfScattering:
    def test_epsilon_halving_is_stable(self):
        model = LatticeScatteringModel.centered([0.3, -0.2, 0.5])
        base = tuple(2.0 ** (-k) for k in range(4, 14))
        halved = tuple(2.0 ** (-k) for k in range(5, 15))
        for lam in (-1.2, 0.1, 1.4):
            a = ssf_scattering(model, lam, base)
            b = ssf_scattering(model, lam, halved)
            assert abs(a - b) <= 1e-7

    def test_schedule_validation(self):
        model = LatticeScatteringModel.single_site(0.5)
        with pytest.raises(ValueError, match="two"):
            ssf_scattering(model, 0.5, [0.1])
        with pytest.raises(ValueError, match="positive"):
            ssf_scattering(model, 0.5, [0.1, 0.0])
        with pytest.raises(ValueError, match="two"):
            ssf_scattering(model, 0.5, [])
        for bad in ([0.1, 0.1], [0.1, float("nan")], [float("nan"), 0.1], [0.01, 0.02, 0.005]):
            with pytest.raises(ValueError, match="eps schedule"):
                ssf_scattering(model, 0.5, bad)
        sched = [0.02, 0.01, 0.005]
        assert ssf_scattering(model, 0.5, np.array(sched)) == ssf_scattering(model, 0.5, sched)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_lambda(self, lam):
        model = LatticeScatteringModel.single_site(0.5)
        with pytest.raises(ValueError, match="lambda must be finite"):
            ssf_scattering(model, lam)

    def test_below_band_counts_bound_states(self):
        # v = -1.5 binds one state at -sqrt(v^2 + 4) = -2.5
        model = LatticeScatteringModel.single_site(-1.5)
        assert ssf_scattering(model, -2.25) == pytest.approx(-1.0, abs=1e-6)
        assert ssf_scattering(model, -2.75) == pytest.approx(0.0, abs=1e-6)

    def test_repulsive_potential_has_no_bound_state_below(self):
        model = LatticeScatteringModel.single_site(1.5)
        assert ssf_scattering(model, -2.25) == pytest.approx(0.0, abs=1e-6)


class TestTruncationOracle:
    def test_bound_state_location(self):
        vals = truncated_eigenvalues(LatticeScatteringModel.single_site(-1.5), 2000)
        below = vals[vals < -2.0]
        assert below.size == 1
        assert below[0] == pytest.approx(-2.5, abs=1e-6)

    def test_counts(self):
        model = LatticeScatteringModel.single_site(-1.5)
        assert bound_state_count_below(model, -2.25) == 1
        assert bound_state_count_below(model, -2.75) == 0

    @pytest.mark.parametrize(
        "values",
        [[-1.5], [1.5], [-0.8, -1.2, 0.5], [-3.0, 2.0, -2.5, 0.3], [2.5, -0.4, 3.0]],
    )
    def test_count_equals_full_spectrum_count(self, values):
        model = LatticeScatteringModel.centered(values)
        l_trunc = 400
        vals = truncated_eigenvalues(model, l_trunc)
        bound = vals[vals < -2.0]
        # just below and just above each bound state, where the count steps
        lams = [-2.0001, -2.05, -2.3, -2.9, -3.5, -5.0, *(bound - 1e-9), *(bound + 1e-9)]
        for lam in lams:
            want = int(np.searchsorted(vals, lam, side="left"))
            assert bound_state_count_below(model, lam, l_trunc) == want, lam

    def test_count_rejects_band_points(self):
        with pytest.raises(ValueError, match="below the band"):
            bound_state_count_below(LatticeScatteringModel.single_site(-1.5), -2.0)

    @pytest.mark.parametrize("lam", [float("nan"), -float("inf")])
    def test_count_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match="lambda must be finite"):
            bound_state_count_below(LatticeScatteringModel.single_site(-1.5), lam)

    def test_truncation_needs_room(self):
        model = LatticeScatteringModel.single_site(1.0, site=10)
        with pytest.raises(ValueError, match="truncation"):
            truncated_eigenvalues(model, 20)


# ---------------------------------------------------------------------------
# the determinant-phase identity on the band


class TestBirmanKrein:
    def test_residual_small_single_site(self):
        model = LatticeScatteringModel.single_site(0.7)
        for lam in (-1.5, -0.3, 0.8, 1.6):
            assert birman_krein_point(model, lam).residual <= 1e-5

    def test_residual_small_multi_site_both_signs(self):
        for scale in (1.0, -1.0):
            model = LatticeScatteringModel.centered(
                [scale * x for x in (0.3, -0.2, 0.5, 0.1, -0.4)]
            )
            for lam in (-1.1, 0.4, 1.3):
                rec = birman_krein_point(model, lam)
                assert rec.residual <= 1e-5
                assert rec.unitarity <= 1e-8

    def test_record_fields_consistent(self):
        rec = birman_krein_point(LatticeScatteringModel.single_site(0.5), 0.6)
        want = abs(rec.det_s - np.exp(-2j * np.pi * rec.xi))
        assert rec.residual == pytest.approx(want, abs=1e-15)

    def test_band_sweep_shape_and_margin(self):
        model = LatticeScatteringModel.single_site(0.4)
        records = band_sweep(model, 5, margin=0.1)
        assert len(records) == 5
        assert records[0].lam == pytest.approx(-1.9)
        assert records[-1].lam == pytest.approx(1.9)
        assert all(isinstance(r, BirmanKreinRecord) for r in records)

    def test_band_sweep_validation(self):
        model = LatticeScatteringModel.single_site(0.4)
        with pytest.raises(ValueError, match="band point"):
            band_sweep(model, 0)
        for bad in (2.5, "3", None):
            # 2.5 used to raise NumPy's TypeError from linspace
            with pytest.raises(ValueError, match="n_points"):
                band_sweep(model, bad)
        with pytest.raises(ValueError, match="margin"):
            band_sweep(model, 3, margin=BAND_EDGE_MARGIN)
