"""Tests for the 1-d lattice scattering model and the determinant-phase identity."""

import cmath
import math
import re
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg

from ssflab import cli, scattering, spectral, suites
from ssflab.scattering import (
    BAND_EDGE_MARGIN,
    BirmanKreinRecord,
    LatticeScatteringModel,
    band_sweep,
    birman_krein_point,
    bound_state_count_below,
    s_matrix,
    scattering_log_determinant,
    ssf_scattering,
)
from ssflab.ssf import _boundary_value
from ssflab.utils import rng_from

from helpers import truncated_eigenvalues, walked_phases


def _truncated_free(l_trunc: int) -> np.ndarray:
    n = 2 * l_trunc + 1
    return np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)


def _support_green(model: LatticeScatteringModel, z: complex) -> np.ndarray:
    """The closed-form free kernel ``G0_SS(z)`` on the model's support sites."""
    return scattering._support_green(model, scattering._lattice_root(z))


def _green(z: complex, lo: int, hi: int) -> np.ndarray:
    """``G0(z)`` between the sites ``lo .. hi - 1``, entry ``[n - lo, m - lo]``."""
    return _support_green(LatticeScatteringModel(tuple(range(lo, hi)), (1.0,) * (hi - lo)), z)


def _dense_determinant(model: LatticeScatteringModel, z: complex) -> complex:
    """Oracle: the dense ``det(I + V G0_SS)`` from the closed-form kernel."""
    g = _support_green(model, z)
    return complex(np.linalg.det(np.eye(len(model.sites)) + np.asarray(model.values)[:, None] * g))


def _determinant(model: LatticeScatteringModel, z: complex) -> complex:
    """``D(z)`` as the exponential of the route's pivot-log sum."""
    return cmath.exp(scattering_log_determinant(model, z))


def _pivot_log_sum(model: LatticeScatteringModel, z: complex) -> complex:
    """Oracle: ``sum_k [Log p_k - Log p0_k]`` over the LU pivots, taken without
    pivoting, of ``cK^-1 + V`` and of ``cK^-1``, each tridiagonal built entry
    by entry; also asserts that every pivot lies in the open lower half plane."""
    w = scattering._lattice_root(z)
    c = w - 1.0 / w
    r = [w ** (b - a) for a, b in zip(model.sites, model.sites[1:])]
    q = [1.0] + [1.0 / (1.0 - ri * ri) for ri in r] + [1.0]
    diag = [c * (q[i] + q[i + 1] - 1.0) for i in range(len(model.sites))]
    off_sq = [0.0] + [(c * ri * qi) ** 2 for ri, qi in zip(r, q[1:])]
    total = 0j
    pivot = pivot0 = 1.0
    for a, b2, v in zip(diag, off_sq, model.values):
        pivot = a + v - b2 / pivot
        pivot0 = a - b2 / pivot0
        assert pivot.imag < 0.0 and pivot0.imag < 0.0, (pivot, pivot0)
        total += cmath.log(pivot) - cmath.log(pivot0)
    return total


# ---------------------------------------------------------------------------
# model construction


class TestModel:
    def test_single_site(self):
        m = LatticeScatteringModel.single_site(0.7, site=3)
        assert m.sites == (3,) and m.values == (0.7,)

    def test_centered(self):
        m = LatticeScatteringModel.centered([0.1, -0.2, 0.3, 0.4, 0.5])
        assert m.sites == (-2, -1, 0, 1, 2)

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

    @pytest.mark.parametrize("bad", [0.5, 1.7, 3.0, True, np.bool_(False), float("nan"), "0"])
    def test_rejects_non_integer_sites_naming_them(self, bad):
        # such sites used to be truncated: (0.5, 1.7) became (0, 1), True became 1
        message = re.escape(f"sites[0] must be an integer, got sites[0]={bad!r}")
        with pytest.raises(ValueError, match=message):
            LatticeScatteringModel((bad, 5), (1.0, 2.0))
        with pytest.raises(ValueError, match=message):
            LatticeScatteringModel.single_site(0.7, site=bad)

    def test_sites_follow_the_integer_gate(self):
        # Python and NumPy integers pass as ints; an integral float does not,
        # as the README's scalar rules and the CLI's site gate say
        m = LatticeScatteringModel((np.int64(-2), np.int32(3), 10**6), (1.0, 2.0, 3.0))
        assert m.sites == (-2, 3, 10**6)
        assert all(type(n) is int for n in m.sites)
        with pytest.raises(ValueError, match=re.escape("got sites[1]=3.0")):
            LatticeScatteringModel((-2, 3.0), (1.0, 2.0))

    @pytest.mark.parametrize("value", [1e307, -1e307, 1e308])
    def test_a_value_past_the_strength_rule_is_refused_by_name(self, value):
        # 1e307 used to end in a bare OverflowError inside the route, and
        # 1e308 in a ValueError that named neither the value nor the rule
        rule = "values[0] must be a finite number with 2 L |v| g 2**13 finite"
        with pytest.raises(ValueError, match=re.escape(rule) + ".*" + re.escape(f"={value!r}")):
            LatticeScatteringModel.single_site(value)

    def test_the_strength_rule_reads_the_sites_and_the_largest_gap(self):
        assert LatticeScatteringModel((0, 1), (1.0, 1e300)).values == (1.0, 1e300)
        with pytest.raises(ValueError, match=re.escape("L=2 sites, largest gap g=1099511627776")):
            LatticeScatteringModel((0, 2**40), (1.0, 1e300))
        # 2 L |v| 2**13 at L = 3: 1e304 passes alone and is refused among three
        LatticeScatteringModel.single_site(1e304)
        with pytest.raises(ValueError, match=re.escape("got values[1]=1e+304")):
            LatticeScatteringModel.centered([0.5, 1e304, 0.5])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_largest_admitted_value_keeps_the_identity(self, sign):
        # at the largest value the rule admits, the pivot recurrence stays
        # finite at the route's heights and the identity holds
        value = sign * sys.float_info.max / 2.0**14
        with pytest.raises(ValueError, match="values"):
            LatticeScatteringModel.single_site(float(np.nextafter(value, 2.0 * value)))
        record = birman_krein_point(LatticeScatteringModel.single_site(value), 0.5)
        assert math.isfinite(record.residual) and record.residual <= 1e-5

    def test_the_widest_site_pair_keeps_its_distance(self):
        # a site must be below 2**62 in magnitude, so the distance of the
        # widest pair fits an int64; (-2**62, 2**62) used to wrap to -2**63,
        # and w = 1/2 raised to it overflows where the true power underflows
        lo, hi = 1 - 2**62, 2**62 - 1
        g = scattering._support_green(LatticeScatteringModel((lo, hi), (1.0, 2.0)), 0.5)
        np.testing.assert_array_equal(g, np.diag([1.0 / (0.5 - 2.0)] * 2))

    def test_huge_values_of_both_signs_keep_the_identity(self):
        # the product of the pivot ratios overflowed here, in the walk that
        # read its phase: birman_krein_point raised at every band point
        model = LatticeScatteringModel.centered([3e303, -3e303, 3e303])
        for lam in (-1.9, -0.7, 0.3, 1.6):
            assert math.isfinite(abs(scattering_log_determinant(model, complex(lam, 2.0**-13))))
            record = birman_krein_point(model, lam)
            assert math.isfinite(record.residual) and record.residual <= 1e-5


# ---------------------------------------------------------------------------
# free resolvent


class TestFreeGreen:
    def test_root_solves_quadratic_inside_disk(self):
        rng = rng_from(111)
        for _ in range(50):
            z = complex(rng.uniform(-4, 4), rng.uniform(0.05, 3) * rng.choice([-1, 1]))
            w = scattering._lattice_root(z)
            assert abs(w) < 1.0
            assert w + 1.0 / w == pytest.approx(z, abs=1e-12)
        for z in (-3.0, 2.5, 4.0):
            w = scattering._lattice_root(z)
            assert abs(w) < 1.0
            assert w + 1.0 / w == pytest.approx(z, abs=1e-12)

    @pytest.mark.parametrize("size", [1e4, 1e8, 1e150, 1e300])
    def test_root_keeps_its_digits_far_from_the_band(self, size):
        # (z - sqrt(z^2 - 4)) / 2 lost the inner root to cancellation: its
        # relative error was 5.4e-9 at |z| = 1e4 and 0.34 at 1e8; past 1e154
        # z^2 overflowed
        eps = np.finfo(float).eps
        for angle in np.linspace(-np.pi, np.pi, 13):
            z = complex(size * np.cos(angle), size * np.sin(angle))
            w = scattering._lattice_root(z)
            assert abs(w) < 1.0
            assert abs(w + 1.0 / w - z) <= 4.0 * eps * abs(z), angle

    @pytest.mark.parametrize("value", [1e4, 1e150, 1e300, -1e300])
    def test_a_strong_site_keeps_the_identity(self, value):
        # at 1e150 the inner root rounded to 0 and the route's first
        # determinant divided by it; at 1e160 it came back as nan
        record = birman_krein_point(LatticeScatteringModel.single_site(value), 0.5)
        assert math.isfinite(record.residual) and record.residual <= 1e-5

    @pytest.mark.parametrize("z", [0.0, 1.0, -2.0, 2.0])
    def test_rejects_band_points(self, z):
        with pytest.raises(ValueError, match="band"):
            scattering._lattice_root(z)

    @pytest.mark.parametrize(
        "z", [complex("nan+nanj"), complex("nan+1j"), complex("inf+1j"), complex(1.0, -np.inf)]
    )
    def test_rejects_non_finite_point_naming_it(self, z):
        # such a point used to come back as nan+nanj
        with pytest.raises(ValueError, match=r"z must be finite, got z="):
            scattering._lattice_root(z)

    @pytest.mark.parametrize("n, m", [(1.5, 0), (0, 2.25), (True, 0), (np.array([0, 1.5]), 0)])
    def test_rejects_non_integer_sites(self, n, m):
        # the kernel reads only a model's sites, which are integers: a
        # fractional site used to give the value at a truncated distance
        match = r"sites\[[01]\] must be an integer, got sites\[[01]\]="
        with pytest.raises(ValueError, match=match):
            LatticeScatteringModel((n, m), (1.0, 1.0))

    def test_difference_equation(self):
        # (H0 - z) G = I row by row
        z = 0.4 + 0.9j
        g = _green(z, -3, 7)
        for n, m in [(0, 0), (1, 0), (-2, 3), (5, 5)]:
            i, j = n + 3, m + 3
            lhs = g[i + 1, j] + g[i - 1, j] - z * g[i, j]
            want = 1.0 if n == m else 0.0
            assert lhs == pytest.approx(want, abs=1e-12)

    def test_symmetry_and_broadcast(self):
        # symmetric, and a function of |n - m| alone: one value per diagonal
        g = _green(-0.3 + 0.7j, -3, 4)
        np.testing.assert_allclose(g, g.T, atol=1e-14)
        assert g.shape == (7, 7)
        for k in range(7):
            np.testing.assert_array_equal(np.diagonal(g, k), g[0, k])

    def test_matches_truncated_inverse(self):
        z = 0.5 + 0.5j
        l_trunc = 300
        h0 = _truncated_free(l_trunc)
        ginv = np.linalg.solve(h0 - z * np.eye(2 * l_trunc + 1), np.eye(2 * l_trunc + 1))
        g = _green(z, -4, 8)
        for n, m in [(0, 0), (2, -1), (-4, 5), (7, 7)]:
            got = g[n + 4, m + 4]
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
            s = s_matrix(model, float(lam))
            assert np.abs(s.conj().T @ s - np.eye(2)).max() < 1e-8

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
        with pytest.raises(ValueError, match=f"lam must be a finite number, got lam={lam!r}"):
            entry(LatticeScatteringModel.single_site(0.5), lam)


# ---------------------------------------------------------------------------
# perturbation determinant and spectral shift


def _default_potentials() -> list:
    return [suites._build_potential(s) for s in cli._SCHEMA["birman-krein"]["potentials"][0]]


def _adversarial_models(seed: int) -> list:
    """Strong, many-site, wide-gap and weak potentials, seeded."""
    rng = rng_from(seed)

    def chain(n_sites, gap_hi, scale):
        gaps = rng.integers(1, gap_hi + 1, size=n_sites - 1)
        sites = np.concatenate([[0], np.cumsum(gaps)]) - int(rng.integers(0, 10))
        values = scale * rng.uniform(-1.0, 1.0, size=n_sites)
        return LatticeScatteringModel(tuple(int(n) for n in sites), tuple(values))

    return [
        chain(int(rng.integers(1, 5)), 1, 20.0),
        chain(int(rng.integers(8, 12)), 3, 3.0),
        chain(int(rng.integers(2, 7)), 29, 5.0),
        chain(int(rng.integers(1, 4)), 2, 0.02),
    ]


def _phase_cases() -> list:
    """(model, lam) pairs: lam inside, below and above the band."""
    cases = [(m, lam) for m in _default_potentials() for lam in (-1.7, 0.3, 1.9, -2.6, 2.4)]
    for seed in (2701, 2702, 2703):
        rng = rng_from(seed)
        for model in _adversarial_models(seed):
            reach = 2.0 * max(map(abs, model.values)) + 1.0
            cases += [
                (model, float(rng.uniform(-1.9, 1.9))),
                (model, float(-2.01 - rng.uniform(0.0, reach))),
                (model, float(2.01 + rng.uniform(0.0, reach))),
            ]
    return cases


_PHASE_CASES = _phase_cases()


def _read_heights(model: LatticeScatteringModel) -> list:
    """The four heights the route extrapolates from, scaled by the largest gap."""
    gap = max((b - a for a, b in zip(model.sites, model.sites[1:])), default=1)
    return [2.0**-k / gap for k in (10, 11, 12, 13)]


def _case_id(case) -> str:
    model, lam = case
    return f"L{len(model.sites)}-s{max(map(abs, model.values)):.3g}-lam{lam:.3g}"


class TestScatteringDeterminant:
    """``exp`` of the pivot-log sum against the dense ``det(I + V G0_SS)``."""

    def test_matches_truncated_operator_determinant(self):
        model = LatticeScatteringModel.centered([0.4, -0.3, 0.2])
        z = 0.3 + 1.1j
        l_trunc = 300
        h0 = _truncated_free(l_trunc)
        g0 = np.linalg.solve(h0 - z * np.eye(2 * l_trunc + 1), np.eye(2 * l_trunc + 1))
        idx = [s + l_trunc for s in model.sites]
        v = np.asarray(model.values)
        small = np.eye(len(idx)) + v[:, None] * g0[np.ix_(idx, idx)]
        assert _determinant(model, z) == pytest.approx(
            complex(np.linalg.det(small)), abs=1e-8
        )

    def test_matches_free_green_determinant(self):
        model = LatticeScatteringModel((-3, 0, 1, 4), (0.7, -1.1, 0.4, 2.0))
        for z in (0.3 + 1e-3j, -1.9 + 0.2j, 2.5 + 1e-6j, -3.0 + 4.0j):
            want = _dense_determinant(model, z)
            assert _determinant(model, z) == pytest.approx(want, rel=1e-13)

    def test_gaps_inner_root_and_denominator_all_count(self):
        # unequal gaps, both signs, points near and off the band: fails if the
        # sites are taken as contiguous, if c and r_i come from the outer root
        # 1/w, or if the free determinant det(G0_SS^-1) is not divided out
        model = LatticeScatteringModel((-5, -2, -1, 3, 11), (0.9, -1.4, 0.3, 2.2, -0.6))
        zero = LatticeScatteringModel((-5, -2, -1, 3, 11), (0.0,) * 5)
        for lam in (-3.1, -1.7, -0.2, 0.9, 1.95, 2.6):
            for h in (1e-4, 0.05, 1.5):
                z = complex(lam, h)
                assert _determinant(model, z) == pytest.approx(
                    _dense_determinant(model, z), rel=1e-13
                )
                assert _determinant(zero, z) == pytest.approx(1.0, abs=1e-14)

    def test_far_apart_sites_cost_no_more_than_near_ones(self):
        gap = 10**6
        model = LatticeScatteringModel((0, gap), (0.7, -1.3))
        # heights where |w^gap| < 1e-200: the two sites decouple
        for z in (0.3 + 1e-3j, -2.5 + 0.5j, 1.9 + 1e-2j):
            assert _determinant(model, z) == pytest.approx(
                _dense_determinant(model, z), rel=1e-13
            )
        # heights where |w^gap| is 0.35-0.95: w^gap carries the rounding of w
        # amplified by the gap, in the oracle as in the recurrence
        for z in (-1.75 + 1e-6j, -0.5 + 1e-7j, 0.75 + 1e-6j, 1.75 + 1e-7j):
            assert _determinant(model, z) == pytest.approx(
                _dense_determinant(model, z), rel=gap * np.finfo(float).eps
            )
        t0 = time.perf_counter()
        for _ in range(1000):
            _determinant(model, 0.3 + 1e-6j)
        assert time.perf_counter() - t0 < 0.25

    @pytest.mark.parametrize("z", [0.3 - 0.5j, 3.0, -2.5 + 0j, 0.5 - 1e-12j, complex("nan+nanj")])
    def test_rejects_points_off_the_upper_half_plane(self, z):
        model = LatticeScatteringModel.centered([0.3, -0.2, 0.5])
        with pytest.raises(ValueError, match=r"needs Im z > 0, got z="):
            _determinant(model, z)

    def test_threads_sharing_a_model_agree_with_serial(self):
        # a frozen model holds only its sites, values and gaps: threads that
        # share one get the serial values
        model = LatticeScatteringModel.centered([0.3, -0.2, 0.5, 0.1, -0.4])
        zs = [complex(lam, h) for lam in np.linspace(-1.9, 1.9, 20) for h in (1e-3, 0.5)]
        serial = [_determinant(model, z) for z in zs]
        results = [None] * 6

        def work(i):
            results[i] = [_determinant(model, z) for z in zs for _ in range(5)]

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
        assert _determinant(model, 1j) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("case", _PHASE_CASES, ids=_case_id)
    def test_pivot_ratio_logs_sum_to_the_pivot_log_differences(self, case):
        # Arg of each pivot ratio is the difference of two pivot Args in the
        # open lower half plane, so Log f_k = Log(c q_k f_k) - Log(c q_k)
        model, lam = case
        for h in (1e-5, 2.0**-13, 0.01, 1.0):
            z = complex(lam, h)
            got = scattering_log_determinant(model, z)
            assert got == pytest.approx(_pivot_log_sum(model, z), rel=0.0, abs=1e-9), h

    @pytest.mark.parametrize("case", _PHASE_CASES, ids=_case_id)
    def test_phase_is_the_branch_walked_down_from_high_up(self, case):
        # the dense determinant, known only by value, walked down from a
        # height where |arg D| <= L arcsin(s / h) is tiny; Krein's trace
        # formula bounds |d arg D / d ln h| by L, so each step of ratio
        # exp(1 / (4L)) turns by at most 1/4
        model, lam = case
        heights = _read_heights(model)
        walked = walked_phases(
            lambda h: _dense_determinant(model, lam + 1j * h),
            1e3 * len(model.sites) * (1.0 + max(map(abs, model.values))),
            heights,
            max_ratio=math.exp(1.0 / (4.0 * len(model.sites))),
        )
        got = [scattering_log_determinant(model, lam + 1j * h).imag for h in heights]
        np.testing.assert_allclose(got, walked, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("case", _PHASE_CASES, ids=_case_id)
    def test_exponential_matches_the_dense_determinant(self, case):
        model, lam = case
        for h in (1e-5, *_read_heights(model), 0.01, 1.0):
            z = complex(lam, h)
            assert _determinant(model, z) == pytest.approx(_dense_determinant(model, z), rel=1e-13), h

    @pytest.mark.parametrize("case", _PHASE_CASES, ids=_case_id)
    def test_vanishes_high_up_within_the_resolvent_bound(self, case):
        # the eigenvalues mu_j of V G0_SS(z) have |mu_j| <= s / Im z < 1 on the
        # whole ray from z to +i inf, so the branch that vanishes there is
        # sum_j Log(1 + mu_j), of modulus at most -L log(1 - s / Im z); a branch
        # off by a turn, or a phase not summed from pivots, breaks the bound
        model, lam = case
        n_sites, strength = len(model.sites), max(map(abs, model.values))
        for ratio in (0.5, 0.125, 1e-6):
            got = scattering_log_determinant(model, complex(lam, strength / ratio))
            assert abs(got) <= -n_sites * math.log1p(-ratio) * (1.0 + 1e-12), ratio


class TestSsfScattering:
    def test_epsilon_halving_is_stable(self):
        # the route's four heights 2^-10 .. 2^-13, against the four halved
        model = LatticeScatteringModel.centered([0.3, -0.2, 0.5])
        halved = [2.0**-k for k in (11, 12, 13, 14)]
        for lam in (-1.2, 0.1, 1.4):
            phases = [scattering_log_determinant(model, lam + 1j * h).imag for h in halved]
            base = ssf_scattering(model, lam)
            assert abs(base - _boundary_value(phases, (1, 2, 3)) / np.pi) <= 1e-10

    @pytest.mark.parametrize("gap", [20, 100, 500])
    def test_far_apart_sites_keep_the_identity(self, gap):
        # with heights that ignored the gap the residual grew as gap^2:
        # 2.2e-5, 7.9e-4 and 2.1e-2 at these gaps
        model = LatticeScatteringModel((0, gap), (0.5, 0.3))
        grid = np.linspace(-1.9, 1.9, 9)
        assert max(birman_krein_point(model, float(lam)).residual for lam in grid) <= 1e-5

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_lambda(self, lam):
        model = LatticeScatteringModel.single_site(0.5)
        with pytest.raises(ValueError, match=f"lam must be a finite number, got lam={lam!r}"):
            ssf_scattering(model, lam)

    def test_below_band_counts_bound_states(self):
        # v = -1.5 binds one state at -sqrt(v^2 + 4) = -2.5
        model = LatticeScatteringModel.single_site(-1.5)
        assert ssf_scattering(model, -2.25) == pytest.approx(-1.0, abs=1e-6)
        assert ssf_scattering(model, -2.75) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("delta", [1e-2, -1e-2])
    def test_resolves_the_count_near_a_bound_state(self, delta):
        # 0.01 from the bound state at -2.5 the two-height line missed the
        # count by 1.2e-6; the table's odd powers off the band meet 1e-9
        model = LatticeScatteringModel.single_site(-1.5)
        lam = -2.5 + delta
        assert abs(ssf_scattering(model, lam) + bound_state_count_below(model, lam)) <= 1e-9

    def test_repulsive_potential_has_no_bound_state_below(self):
        model = LatticeScatteringModel.single_site(1.5)
        assert ssf_scattering(model, -2.25) == pytest.approx(0.0, abs=1e-6)

    def test_two_bound_states_below_leave_the_principal_range(self):
        # two deep wells bind two states below -2.5: the phase there is -2 pi,
        # which no principal value of D can give, only the sum of pivot logs
        model = LatticeScatteringModel.centered([-3.0, 0.5, -3.0])
        xi = ssf_scattering(model, -2.5)
        assert xi == pytest.approx(-2.0, abs=1e-6)
        assert xi == pytest.approx(-bound_state_count_below(model, -2.5), abs=1e-6)

    @pytest.mark.parametrize("case", _PHASE_CASES, ids=_case_id)
    def test_xi_meets_the_count_off_the_band_and_det_s_on_it(self, case):
        # below the band xi is minus the count of eigenvalues below lam; above
        # it, plus the count above lam, which is the count of H_{-V} below
        # -lam, since (-1)^n maps H_V to -H_{-V}; on the band det S is
        # exp(-2 pi i xi) within the suite's residual bound
        model, lam = case
        xi = ssf_scattering(model, lam)
        if lam < -2.0:
            assert xi == pytest.approx(-bound_state_count_below(model, lam), abs=1e-5)
        elif lam > 2.0:
            mirror = LatticeScatteringModel(model.sites, tuple(-v for v in model.values))
            assert xi == pytest.approx(bound_state_count_below(mirror, -lam), abs=1e-5)
        else:
            assert birman_krein_point(model, lam).residual <= 1e-5

    def test_reads_no_count_no_scattering_matrix_and_no_eigensolver(self, monkeypatch):
        # the route must stay independent of the two it is checked against:
        # the exact count below the band and the scattering matrix on it
        model = LatticeScatteringModel.centered([-3.0, 0.5, -3.0])
        lams = (-2.5, -1.1, 0.4, 2.3)
        want = [ssf_scattering(model, lam) for lam in lams]

        def forbidden(*args, **kwargs):
            raise AssertionError("the scattering route read another route")

        for owner, name in (
            (scattering, "bound_state_count_below"),
            (scattering, "s_matrix"),
            (scattering, "_s_matrices"),
            (spectral, "eig_hermitian"),
            (np.linalg, "eig"),
            (np.linalg, "eigh"),
            (np.linalg, "eigvals"),
            (np.linalg, "eigvalsh"),
            (scipy.linalg, "eig"),
            (scipy.linalg, "eigh"),
            (scipy.linalg, "eigvals"),
            (scipy.linalg, "eigvalsh"),
            (scipy.linalg, "eigh_tridiagonal"),
            (scipy.linalg, "eigvalsh_tridiagonal"),
        ):
            monkeypatch.setattr(owner, name, forbidden)
        assert [ssf_scattering(model, lam) for lam in lams] == want


def _chain_count(model: LatticeScatteringModel, lam: float) -> int:
    """Oracle: eigenvalues of the chain truncated at |n| <= 2000 strictly below ``lam``."""
    return int(np.searchsorted(truncated_eigenvalues(model, 2000), lam, side="left"))


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

    def test_counts_strictly_below(self):
        # the bound state of -1.5 sits at -2.5 exactly, where the last pivot is 0
        model = LatticeScatteringModel.single_site(-1.5)
        assert bound_state_count_below(model, -2.5) == 0
        assert bound_state_count_below(model, float(np.nextafter(-2.5, 0.0))) == 1

    @pytest.mark.parametrize(
        "values",
        [[-1.5], [1.5], [-0.8, -1.2, 0.5], [-3.0, 2.0, -2.5, 0.3], [2.5, -0.4, 3.0]],
    )
    def test_count_equals_full_spectrum_count(self, values):
        model = LatticeScatteringModel.centered(values)
        vals = truncated_eigenvalues(model, 2000)
        bound = vals[vals < -2.0]
        # just below and just above each bound state, where the count steps
        lams = [-2.0001, -2.05, -2.3, -2.9, -3.5, -5.0, *(bound - 1e-9), *(bound + 1e-9)]
        for lam in lams:
            want = int(np.searchsorted(vals, lam, side="left"))
            assert bound_state_count_below(model, lam) == want, lam

    def test_random_models_match_the_truncated_chain(self):
        # 1-11 sites with gaps, strengths 0.5-6 of either sign, below-band
        # points away from the oracle's eigenvalues
        rng = rng_from(11)
        for _ in range(100):
            n_sites = int(rng.integers(1, 12))
            sites = np.sort(rng.choice(np.arange(-60, 61), size=n_sites, replace=False))
            values = rng.uniform(0.5, 6.0, n_sites) * rng.choice([-1.0, 1.0], n_sites)
            model = LatticeScatteringModel(tuple(sites.tolist()), tuple(values.tolist()))
            vals = truncated_eigenvalues(model, 2000)
            for lam in rng.uniform(-9.0, -2.0001, 8):
                if np.all(np.abs(vals - lam) > 1e-7):
                    want = int(np.searchsorted(vals, lam, side="left"))
                    assert bound_state_count_below(model, float(lam)) == want, (model, lam)

    @pytest.mark.parametrize("v2", [-3.0, -0.7, 0.7, 3.0])
    def test_a_zero_pivot_counts_as_its_limit_from_below(self, v2):
        # at lam = -2.5 (w = -1/2, c = 3/2) the value -2 at a site one step
        # before the next gives the first pivot ratio 1 - (4/3)(3/4) = 0
        # exactly; it counts as positive and the next one as negative
        for model in (
            LatticeScatteringModel((0, 1), (-2.0, v2)),
            LatticeScatteringModel((0, 1, 3), (-2.0, v2, -1.0)),
        ):
            assert bound_state_count_below(model, -2.5) == _chain_count(model, -2.5)

    @pytest.mark.parametrize("site", [10, 10**6, 2**61])
    def test_far_site_counts_exactly(self, site):
        # no truncation: a site anywhere below 2**62 counts as one at 0 does
        model = LatticeScatteringModel.single_site(-1.5, site=site)
        assert bound_state_count_below(model, -2.25) == 1
        assert bound_state_count_below(model, -2.75) == 0

    def test_far_apart_sites_count_exactly(self):
        # two wells 10**6 apart bind two states, each at -2.5 to many digits
        model = LatticeScatteringModel((-(10**6), 10**6), (-1.5, -1.5))
        assert bound_state_count_below(model, -2.25) == 2
        assert bound_state_count_below(model, -2.6) == 0
        assert ssf_scattering(model, -2.25) == pytest.approx(-2.0, abs=1e-6)
        # each well alone binds at -2.5 exactly; coupled, the pair splits by
        # about 4^-(10^6), below any double, and the lower state is below -2.5:
        # the first pivot is exactly 0 there and its limit counts that state
        assert bound_state_count_below(model, -2.5) == 1
        assert bound_state_count_below(model, float(np.nextafter(-2.5, 0.0))) == 2

    @pytest.mark.parametrize(
        "values, want",
        [((5e303, -1.5), 1), ((-1.5, 5e303), 1), ((5e303, -0.5), 0), ((-5e303, -0.5), 1)],
    )
    def test_an_overflowing_pivot_ratio_keeps_its_sign(self, values, want):
        # 1e-10 below the band c is about 2e-5, so v / c overflows for
        # |v| = 5e303; a huge repulsive site walls off a half-line, where
        # -1.5 binds a state (at -1.5 - 1/1.5) and -0.5 does not
        model = LatticeScatteringModel((0, 1), values)
        assert bound_state_count_below(model, -2.0 - 1e-10) == want

    def test_count_rejects_band_points(self):
        with pytest.raises(ValueError, match="below the band"):
            bound_state_count_below(LatticeScatteringModel.single_site(-1.5), -2.0)

    @pytest.mark.parametrize("lam", [float("nan"), -float("inf")])
    def test_count_rejects_non_finite_lambda(self, lam):
        with pytest.raises(ValueError, match=f"lam must be a finite number, got lam={lam!r}"):
            bound_state_count_below(LatticeScatteringModel.single_site(-1.5), lam)


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

    @pytest.mark.parametrize(
        "model",
        _default_potentials()
        + [
            LatticeScatteringModel((0, 500), (0.6, -0.4)),
            LatticeScatteringModel.centered([3e303, -3e303, 3e303]),
        ],
        ids=["single+0.7", "single-0.7", "centered1", "centered2", "centered3", "gap500", "huge"],
    )
    @pytest.mark.parametrize("pieces", [False, True], ids=["one_batch", "pieces_of_3"])
    def test_sweep_is_the_point_record_at_each_grid_point(self, monkeypatch, model, pieces):
        # one code path: each sweep record is birman_krein_point's at its grid
        # point, bit for bit, also when the grid goes in pieces
        def bits(rec):
            parts = (rec.lam, rec.det_s.real, rec.det_s.imag, rec.xi, rec.residual, rec.unitarity)
            return tuple(float(x).hex() for x in parts)

        if pieces:
            monkeypatch.setattr(scattering, "_BATCH_ENTRIES", 3 * len(model.sites) ** 2)
        grid = np.linspace(-1.95, 1.95, 40)
        swept = band_sweep(model, 40, 0.05)
        assert [bits(rec) for rec in swept] == [
            bits(birman_krein_point(model, float(lam))) for lam in grid
        ]

    def test_sweep_runs_each_kernel_once_on_the_whole_grid(self, monkeypatch):
        model = LatticeScatteringModel.centered([0.3, -0.2, 0.5, 0.1, -0.4])
        shapes, read = [], []
        for name in ("_s_matrices", "_log_determinants"):
            kernel = getattr(scattering, name)

            def counted(model, points, kernel=kernel, name=name):
                shapes.append((name, points.shape))
                read.append(points)
                return kernel(model, points)

            monkeypatch.setattr(scattering, name, counted)
        band_sweep(model, 40, 0.05)
        assert shapes == [("_s_matrices", (40,)), ("_log_determinants", (40, 4))]
        # each point reads the four heights down to 2^-13 / g, the lowest the
        # strength rule keeps every pivot term finite at
        assert (read[1].imag == _read_heights(model)).all()

    def test_sweep_near_the_band_edges_meets_the_suite_bound(self):
        # at margin 0.01 the two-height line left residuals up to 9.3e-5 on
        # the suite's potentials, past the suite's 1e-5 bound
        for model in _default_potentials():
            assert max(rec.residual for rec in band_sweep(model, 20, 0.01)) <= 1e-5

    def test_band_sweep_validation(self):
        model = LatticeScatteringModel.single_site(0.4)
        with pytest.raises(ValueError, match="n_points must be an integer >= 1, got n_points=0"):
            band_sweep(model, 0)
        for bad in (2.5, "3", None):
            # 2.5 used to raise NumPy's TypeError from linspace
            with pytest.raises(ValueError, match="n_points"):
                band_sweep(model, bad)
        # 2 or more reverses the grid or leaves the band: 4.5 used to reach
        # the band-edge guard, 2.5 to sweep from 0.5 down to -0.5
        for bad in (BAND_EDGE_MARGIN, 2.0, 2.5, 4.5, float("nan")):
            with pytest.raises(ValueError, match="margin"):
                band_sweep(model, 3, margin=bad)
