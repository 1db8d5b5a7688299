"""Tests for spectral shift construction, trace identity and branch tracking."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import random_unitary

from ssflab import functions, spectral, ssf
from ssflab.spectral import SpectralDecomposition, eig_hermitian
from ssflab.ssf import (
    BranchTrackingError,
    PowerChangeOfVariable,
    StepFunction,
    default_eps_schedule,
    perturbation_determinant,
    ssf_counting,
    ssf_via_determinant,
    ssf_via_invariance,
    steps_equal,
    trace_formula_sides,
    track_determinant_phase,
)
from ssflab.utils import random_hermitian, random_rank_k_hermitian, rng_from


def _random_pair(rng, dim, scale=0.5):
    a0 = random_hermitian(rng, dim)
    v = random_hermitian(rng, dim, scale=scale)
    return eig_hermitian(a0), eig_hermitian(a0 + v), v


# ---------------------------------------------------------------------------
# step function semantics


class TestStepFunction:
    def test_right_continuity_and_interior_values(self):
        s = StepFunction([0.0, 1.0, 2.0], [0, 2, -1, 0])
        assert s(-5.0) == 0
        assert s(0.0) == 2  # jump point takes the right-hand value
        assert s(0.5) == 2
        assert s(1.0) == -1
        assert s(1.999) == -1
        assert s(2.0) == 0
        assert s(10.0) == 0

    def test_vector_call_matches_scalar(self):
        s = StepFunction([0.0, 1.0], [0, 3, 0])
        grid = np.array([-1.0, 0.0, 0.5, 1.0, 2.0])
        got = s(grid)
        assert got.dtype.kind == "i"
        np.testing.assert_array_equal(got, [s(float(x)) for x in grid])

    def test_jumps(self):
        s = StepFunction([0.0, 1.0, 2.0], [0, 2, -1, 0])
        np.testing.assert_array_equal(s.jumps(), [2, -3, 1])

    def test_nan_point_rejected_by_name(self):
        # a NaN used to read as the trailing value 0
        s = StepFunction([0.0, 1.0], [0, 3, 0])
        with pytest.raises(ValueError, match="x=nan"):
            s(float("nan"))
        with pytest.raises(ValueError, match="NaN"):
            s(np.array([0.5, np.nan]))
        d0 = eig_hermitian(np.diag([0.0, 1.0]))
        with pytest.raises(ValueError, match="NaN"):
            ssf_counting(d0, eig_hermitian(np.diag([0.5, 1.0])))(math.nan)
        # the infinities keep the zero tails
        assert s(np.inf) == 0 and s(-np.inf) == 0
        np.testing.assert_array_equal(s(np.array([-np.inf, 0.5, np.inf])), [0, 3, 0])

    def test_zero(self):
        z = StepFunction.zero()
        assert z.is_zero
        assert z(0.0) == 0
        assert not StepFunction([0.0, 1.0], [0, 1, 0]).is_zero

    @pytest.mark.parametrize(
        "bp, vals",
        [
            ([1.0, 0.0], [0, 1, 0]),  # not increasing
            ([0.0, 0.0], [0, 1, 0]),  # not strict
            ([0.0], [0, 0.5]),  # fractional value
            ([0.0, 1.0], [1, 2, 0]),  # nonzero left tail
            ([0.0, 1.0], [0, 2, 1]),  # nonzero right tail
            ([0.0, 1.0], [0, 1, 0, 0]),  # length mismatch
            ([0.0, np.inf], [0, 1, 0]),  # non-finite breakpoint
        ],
    )
    def test_rejects_malformed(self, bp, vals):
        with pytest.raises(ValueError):
            StepFunction(bp, vals)

    def test_frozen_arrays(self):
        s = StepFunction([0.0], [0, 0])
        with pytest.raises(ValueError):
            s.breakpoints[0] = 1.0


# ---------------------------------------------------------------------------
# counting construction


class TestCounting:
    def test_matches_brute_force_counts(self):
        rng = rng_from(101)
        for trial in range(20):
            dim = int(rng.integers(2, 12))
            d0, d, _ = _random_pair(rng, dim)
            xi = ssf_counting(d0, d)
            # probe at eigenvalues, between them, and outside the hull
            probes = np.concatenate(
                [
                    d0.eigenvalues,
                    d.eigenvalues,
                    rng.uniform(-6, 6, size=40),
                    [-100.0, 100.0],
                ]
            )
            for lam in probes:
                want = int(np.sum(d0.eigenvalues <= lam) - np.sum(d.eigenvalues <= lam))
                assert xi(float(lam)) == want

    def test_identical_pair_gives_zero(self):
        d0 = eig_hermitian(random_hermitian(rng_from(5), 6))
        assert ssf_counting(d0, d0).is_zero

    def test_shared_eigenvalues_cancel(self):
        d0 = eig_hermitian(np.diag([0.0, 1.0, 2.0]))
        d = eig_hermitian(np.diag([0.0, 1.5, 2.0]))
        xi = ssf_counting(d0, d)
        np.testing.assert_array_equal(xi.breakpoints, [1.0, 1.5])
        np.testing.assert_array_equal(xi.values, [0, 1, 0])

    def test_dimension_mismatch_rejected(self):
        d0 = eig_hermitian(np.eye(2))
        d = eig_hermitian(np.eye(3))
        with pytest.raises(ValueError, match="dimension"):
            ssf_counting(d0, d)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 8), rank=st.integers(1, 8))
    def test_psd_perturbation_gives_nonnegative_shift(self, seed, dim, rank):
        rng = rng_from(seed, 7)
        a0 = random_hermitian(rng, dim)
        v = random_rank_k_hermitian(rng, dim, min(rank, dim), psd=True)
        xi = ssf_counting(eig_hermitian(a0), eig_hermitian(a0 + v))
        assert np.all(xi.values >= 0)

    def test_rank_bound(self):
        rng = rng_from(202)
        for trial in range(20):
            dim = int(rng.integers(3, 10))
            rank = int(rng.integers(1, dim))
            a0 = random_hermitian(rng, dim)
            v = random_rank_k_hermitian(rng, dim, rank, scale=2.0)
            xi = ssf_counting(eig_hermitian(a0), eig_hermitian(a0 + v))
            assert np.max(np.abs(xi.values), initial=0) <= rank

    def test_additivity_along_a_chain(self):
        rng = rng_from(303)
        for trial in range(10):
            dim = int(rng.integers(2, 10))
            a0 = random_hermitian(rng, dim)
            v1 = random_hermitian(rng, dim, scale=0.4)
            v2 = random_hermitian(rng, dim, scale=0.4)
            d0 = eig_hermitian(a0)
            d1 = eig_hermitian(a0 + v1)
            d2 = eig_hermitian(a0 + v1 + v2)
            direct = ssf_counting(d0, d2)
            first = ssf_counting(d0, d1)
            second = ssf_counting(d1, d2)
            # every breakpoint of the three, the midpoints between them, and
            # a point on either side of all of them
            bps = np.unique(
                np.concatenate([s.breakpoints for s in (direct, first, second)])
            )
            pts = np.concatenate(
                [bps, 0.5 * (bps[1:] + bps[:-1]), [bps[0] - 1.0, bps[-1] + 1.0]]
            )
            np.testing.assert_array_equal(direct(pts), first(pts) + second(pts))

    def test_steps_equal_tolerance(self):
        a = StepFunction([0.0, 1.0], [0, 1, 0])
        b = StepFunction([1e-10, 1.0], [0, 1, 0])
        assert steps_equal(a, b, bp_tol=1e-9)
        assert not steps_equal(a, b)
        assert not steps_equal(a, StepFunction([0.0, 1.0], [0, 2, 0]), bp_tol=1.0)


# ---------------------------------------------------------------------------
# trace identity


class TestTraceFormula:
    @pytest.mark.parametrize(
        "f",
        [
            functions.polynomial([0.3, -1.0, 0.5, 0.2]),
            functions.gaussian_bump(0.2, 0.8, 1.5),
            functions.squared_lorentzian(),
            functions.resolvent_function(0.4 + 1.3j, m=2),
        ],
        ids=lambda f: f.name,
    )
    def test_sides_agree(self, f):
        rng = rng_from(11, hash(f.name) % 2**32)
        for trial in range(30):
            dim = int(rng.integers(2, 33))
            d0, d, _ = _random_pair(rng, dim, scale=0.4)
            lhs, rhs = trace_formula_sides(d0, d, f)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_residual_zero_for_identical_pair(self):
        d0 = eig_hermitian(random_hermitian(rng_from(1), 5))
        f = functions.polynomial([0.0, 1.0, 1.0])
        lhs, rhs = trace_formula_sides(d0, d0, f)
        assert abs(lhs - rhs) == 0.0

    def test_rank_one_shift_against_hand_sum(self):
        # single eigenvalue moves from 1 to 2: integral side is f(2) - f(1)
        d0 = eig_hermitian(np.diag([0.0, 1.0]))
        d = eig_hermitian(np.diag([0.0, 2.0]))
        f = functions.polynomial([1.0, 0.0, 0.0])
        lhs, rhs = trace_formula_sides(d0, d, f)
        assert lhs == pytest.approx(3.0, abs=1e-14)
        assert rhs == pytest.approx(3.0, abs=1e-14)


# ---------------------------------------------------------------------------
# monotone change of variable


_POWERS = (1, 3, 5, 7, 9)
_CUTOFFS = (0.5, 1.0, 2.0)


class TestPowerMap:
    """The closed-form map over the odd powers up to 9 and three window
    radii; the tests parametrized by the power alone loop over the radii."""

    @pytest.mark.parametrize("m", _POWERS)
    def test_matches_power_outside_window(self, m):
        for r in _CUTOFFS:
            phi = PowerChangeOfVariable(m, r)
            x = r * np.array([1.0, -1.0, 1.7, -2.5, 10.0])
            np.testing.assert_array_equal(phi(x), x**m)
            np.testing.assert_array_equal(phi.derivative(x), m * x ** (m - 1))

    @pytest.mark.parametrize("m", _POWERS)
    def test_odd_and_strictly_increasing(self, m):
        for r in _CUTOFFS:
            phi = PowerChangeOfVariable(m, r)
            grid = np.linspace(-3.0 * r, 3.0 * r, 20001)
            # numpy's x**m is odd only up to its own rounding
            np.testing.assert_allclose(phi(-grid), -phi(grid), rtol=1e-15, atol=0.0)
            assert np.min(phi.derivative(grid)) > 0

    @pytest.mark.parametrize("m", _POWERS)
    def test_smooth_across_cutoff(self, m):
        # one-sided differences at each window edge: a jump in the value,
        # slope or curvature shows as an O(1) gap, a C^2 join as an O(h) one
        for r in _CUTOFFS:
            phi = PowerChangeOfVariable(m, r)
            h = 1e-6 * r
            curvature = max(m * (m - 1), 1) * r ** (m - 2)
            for edge in (r, -r):
                inner, outer = edge - np.sign(edge) * h, edge + np.sign(edge) * h
                assert abs(phi(inner) - phi(outer)) <= 3.0 * h * phi.derivative(edge)
                d_in, d_edge, d_out = (phi.derivative(x) for x in (inner, edge, outer))
                assert abs(d_in - d_out) <= 3.0 * h * curvature
                gap = (d_edge - d_in) - (d_out - d_edge)
                assert abs(gap) / h <= 1e-4 * curvature

    @pytest.mark.parametrize("m", _POWERS)
    def test_inverse_roundtrip(self, m):
        phi = PowerChangeOfVariable(m, 1.0)
        for x in [-2.0, -0.9, -0.3, 0.0, 0.4, 0.99, 1.01, 3.0]:
            assert phi.inverse(phi(x)) == pytest.approx(x, abs=1e-10)

    @pytest.mark.parametrize("cutoff", _CUTOFFS)
    @pytest.mark.parametrize("m", _POWERS)
    def test_inverse_matches_bisection_reference(self, m, cutoff):
        phi = PowerChangeOfVariable(m, cutoff)

        def bisect(y):
            # bisection on the monotone map down to adjacent floats
            lo, hi = -cutoff, cutoff
            while True:
                mid = 0.5 * (lo + hi)
                if mid in (lo, hi):
                    return mid
                lo, hi = (mid, hi) if phi(mid) < y else (lo, mid)

        edge = cutoff**m
        rng = rng_from(251, m)
        ys = [0.0, edge, -edge, *rng.uniform(-edge, edge, size=40)]
        for y in ys:
            x = phi.inverse(y)
            assert -cutoff <= x <= cutoff
            assert x == pytest.approx(bisect(y), abs=1e-12)

    @pytest.mark.parametrize("cutoff", _CUTOFFS)
    def test_power_one_is_the_identity(self, cutoff):
        phi = PowerChangeOfVariable(1, cutoff)
        x = np.linspace(-3.0 * cutoff, 3.0 * cutoff, 601)
        np.testing.assert_array_equal(phi(x), x)
        np.testing.assert_array_equal(phi.derivative(x), np.ones_like(x))
        assert [phi.inverse(v) for v in x] == x.tolist()

    # a float or bool power is rejected too, not read as 3 or 1
    @pytest.mark.parametrize("m", [0, 2, 4, -1, 3.0, True])
    def test_rejects_even_or_nonpositive_power(self, m):
        with pytest.raises(ValueError, match="odd integer"):
            PowerChangeOfVariable(m, 1.0)

    def test_rejects_bad_cutoff(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="cutoff"):
                PowerChangeOfVariable(3, bad)


class TestInvariance:
    @pytest.mark.parametrize("m", [3, 5])
    def test_matches_counting(self, m):
        phi = PowerChangeOfVariable(m, 1.0)
        rng = rng_from(404, m)
        for trial in range(25):
            dim = int(rng.integers(2, 16))
            d0, d, _ = _random_pair(rng, dim)
            direct = ssf_counting(d0, d)
            mapped = ssf_via_invariance(d0, d, phi)
            assert steps_equal(direct, mapped, bp_tol=1e-9)

    def test_identity_map_recovers_breakpoints(self):
        # the pullback runs through scalar inversion, so exactness holds to
        # the inversion tolerance rather than bit for bit
        phi = PowerChangeOfVariable(1, 1.0)
        d0, d, _ = _random_pair(rng_from(9), 8)
        assert steps_equal(ssf_counting(d0, d), ssf_via_invariance(d0, d, phi), bp_tol=1e-9)


class TestClusteredSpectra:
    """V acts inside a 2-dim H0-invariant subspace: the other ten eigenvalues
    are shared by H0 and H and come back from eigh differing by rounding."""

    @staticmethod
    def _pair(cols):
        a0 = random_hermitian(np.random.default_rng(0), 12)
        d0 = eig_hermitian(a0)
        u = d0.eigenvectors[:, list(cols)]
        b = np.array([[0.4, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]])
        return d0, eig_hermitian(a0 + u @ b @ u.conj().T)

    @pytest.mark.parametrize("cols", [(3, 7), (0, 11), (5, 6)])
    def test_counting_merges_rounding_pairs(self, cols):
        d0, d = self._pair(cols)
        xi = ssf_counting(d0, d)
        assert xi.breakpoints.size <= 4, xi.breakpoints
        lam0, lam = d0.eigenvalues, d.eigenvalues
        spectra = np.concatenate([lam0, lam])
        probes = np.concatenate(
            [
                np.linspace(spectra.min() - 1.0, spectra.max() + 1.0, 2001),
                spectra - 1e-9,
                spectra + 1e-9,
            ]
        )
        far = np.min(np.abs(probes[:, None] - spectra[None, :]), axis=1) >= 1e-9
        assert far.sum() > 2000
        for x in probes[far]:
            assert xi(float(x)) == int(np.sum(lam0 <= x) - np.sum(lam <= x))

    @pytest.mark.parametrize("cols", [(3, 7), (0, 11), (5, 6)])
    @pytest.mark.parametrize("m", [3, 5])
    def test_invariance_agrees_with_counting(self, cols, m):
        d0, d = self._pair(cols)
        mapped = ssf_via_invariance(d0, d, PowerChangeOfVariable(m, 1.0))
        assert steps_equal(ssf_counting(d0, d), mapped, bp_tol=1e-9)

    def test_radius_sums_both_spectra_and_follows_phi(self):
        # a shared eigenvalue whose two computed copies sit 30 ulps apart at
        # 10: above 4^2 eps max|lambda| = 3.6e-14, within the summed radius
        # 4^2 eps (max|lambda0| + max|lambda|) = 7.1e-14
        lam0 = np.array([-1.5, 0.3, 2.0, 10.0])
        lam = np.array([-1.5, 0.7, 2.0, 10.0 + 30 * np.spacing(10.0)])
        d0 = SpectralDecomposition(lam0, np.eye(4))
        d = SpectralDecomposition(lam, np.eye(4))
        xi = ssf_counting(d0, d)
        np.testing.assert_array_equal(xi.breakpoints, [0.3, 0.7])
        np.testing.assert_array_equal(xi.values, [0, 1, 0])
        # x^m stretches that gap by m x^(m-1), past the radius of the mapped
        # spectra alone
        for m in (3, 5):
            mapped = ssf_via_invariance(d0, d, PowerChangeOfVariable(m, 1.0))
            assert steps_equal(xi, mapped, bp_tol=1e-9)

    @pytest.mark.parametrize("n", [2, 3])
    def test_rank_one_on_an_eigenvector_moves_one_eigenvalue(self, n):
        # H0 in a random unitary basis, V = c u0 u0* on one of its
        # eigenvectors: the other n - 1 eigenvalues are shared, and their two
        # computed copies differ by up to 3 eps (max|lambda0| + max|lambda|)
        # at n = 2 and 3, past a radius factor of n
        spurious = []
        for s in range(3000):
            rng = rng_from(9090, n, s)
            u = random_unitary(rng, n)
            a0 = (u * rng.standard_normal(n)) @ u.conj().T
            a0 = (a0 + a0.conj().T) / 2.0
            c = float(rng.standard_normal())
            d0 = eig_hermitian(a0)
            xi = ssf_counting(d0, eig_hermitian(a0 + c * np.outer(u[:, 0], u[:, 0].conj())))
            if xi.breakpoints.size != 2 or list(xi.values) != [0, int(np.sign(c)), 0]:
                spurious.append(s)
        assert spurious == []


# ---------------------------------------------------------------------------
# determinant route


class TestPerturbationDeterminant:
    def test_equals_ratio_of_characteristic_determinants(self):
        rng = rng_from(55)
        for trial in range(10):
            dim = int(rng.integers(2, 9))
            a0 = random_hermitian(rng, dim)
            v = random_hermitian(rng, dim, scale=0.5)
            z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 3))
            got = perturbation_determinant(eig_hermitian(a0), v, z)
            eye = np.eye(dim)
            want = np.linalg.det(a0 + v - z * eye) / np.linalg.det(a0 - z * eye)
            assert got == pytest.approx(want, rel=1e-9)

    def test_rejects_non_hermitian_perturbation(self):
        d0 = eig_hermitian(np.eye(3))
        v = np.zeros((3, 3))
        v[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            perturbation_determinant(d0, v, 1j)

    def test_rejects_shape_mismatch(self):
        d0 = eig_hermitian(np.eye(3))
        with pytest.raises(ValueError, match="shape"):
            perturbation_determinant(d0, np.eye(2), 1j)


def _determinant_case(kind, n):
    """``(d0, v)``: a random pair, an exactly degenerate H0, or V inside a
    2-dimensional H0-invariant subspace."""
    rng = rng_from(73, n, ("random", "degenerate", "invariant").index(kind))
    if kind == "degenerate":
        # each eigenvalue repeated, stored exactly as repeated
        vals = np.repeat(np.linspace(-2.0, 2.0, (n + 2) // 3), 3)[:n]
        d0 = SpectralDecomposition(vals, random_unitary(rng, n))
    else:
        d0 = eig_hermitian(random_hermitian(rng, n))
    if kind == "invariant":
        basis = d0.eigenvectors[:, :2]
        v = basis @ random_hermitian(rng, 2, scale=0.5) @ basis.conj().T
    else:
        v = random_hermitian(rng, n, scale=0.5)
    return d0, v


def _lambdas(d0, d):
    """The central breakpoint-interval midpoint farthest from both spectra,
    and one point on each side of the spectra."""
    both = np.sort(np.concatenate([d0.eigenvalues, d.eigenvalues]))
    mids = 0.5 * (both[:-1] + both[1:])
    mids = mids[mids.size // 4 : mids.size - mids.size // 4]
    gaps = [
        min(np.abs(d0.eigenvalues - m).min(), np.abs(d.eigenvalues - m).min()) for m in mids
    ]
    return [float(mids[int(np.argmax(gaps))]), float(both[0] - 0.7), float(both[-1] + 0.7)]


_DET_CASES = [("random", n) for n in (1, 2, 8, 32, 64)] + [
    (kind, n) for kind in ("degenerate", "invariant") for n in (2, 8, 32, 64)
]


class TestDeterminantOnVerticalLine:
    """The route's O(n) per-height value against the dense definitions."""

    @pytest.mark.parametrize("kind,n", _DET_CASES)
    def test_matches_dense_oracles(self, kind, n):
        d0, v = _determinant_case(kind, n)
        h0 = d0.reconstruct()
        h = h0 + v
        d = eig_hermitian(h)
        eye = np.eye(n)
        for lam in _lambdas(d0, d):
            log_det = ssf._determinant_on_vertical_line(d0, h, lam)
            for height in np.geomspace(1e-8, 1e3, 12):
                z = lam + 1j * height
                got = cmath.exp(log_det(height))
                assert got == pytest.approx(perturbation_determinant(d0, v, z), rel=1e-9)
                ratio = np.linalg.det(h - z * eye) / np.linalg.det(h0 - z * eye)
                assert got == pytest.approx(ratio, rel=1e-9)

    def test_phase_equals_the_tracked_phase_at_the_default_heights(self):
        # the tracker, fed only the principal values exp(log_det), rebuilds the
        # continuous branch from a ratio-capped ladder; winding speed is at
        # most (d0.dim + d.dim) / h, so the cap keeps each step under pi/4
        widest = 0.0
        for kind, n in _DET_CASES:
            d0, v = _determinant_case(kind, n)
            h = d0.reconstruct() + v
            d = eig_hermitian(h)
            h_start = 10.0 * max(np.abs(d0.eigenvalues).max(), np.abs(d.eigenvalues).max(), 1.0)
            ratio = math.exp(math.pi / (4.0 * 2 * n))
            for lam in _lambdas(d0, d):
                eps = default_eps_schedule(d0, d, lam)
                log_det = ssf._determinant_on_vertical_line(d0, h, lam)
                tracked = track_determinant_phase(
                    lambda t: cmath.exp(log_det(t)), h_start + abs(lam), eps, max_ratio=ratio
                )
                for e, want in zip(eps, tracked):
                    assert log_det(e).imag == pytest.approx(want, abs=1e-12), (kind, n, lam, e)
                    widest = max(widest, abs(want))
        # some point has |xi| >= 1 with its phase outside the principal range
        assert widest > math.pi

    def test_route_never_tracks(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("ssf_via_determinant called the phase tracker")

        monkeypatch.setattr(ssf, "track_determinant_phase", forbidden)
        d0, v = _determinant_case("degenerate", 32)
        d = eig_hermitian(d0.reconstruct() + v)
        lam = _lambdas(d0, d)[0]
        assert abs(ssf_via_determinant(d0, v, lam) - ssf_counting(d0, d)(lam)) < 1e-6

    def test_size_64_point_matches_counting(self):
        d0, v = _determinant_case("random", 64)
        d = eig_hermitian(d0.reconstruct() + v)
        lam = _lambdas(d0, d)[0]
        assert abs(ssf_via_determinant(d0, v, lam) - ssf_counting(d0, d)(lam)) < 1e-6

    def test_tracked_heights_never_use_the_eigenvalues_of_h(self, monkeypatch):
        d0, v = _determinant_case("random", 8)
        d = eig_hermitian(d0.reconstruct() + v)
        lam = _lambdas(d0, d)[0]
        expected = ssf_counting(d0, d)(lam)
        heights = []
        build = ssf._determinant_on_vertical_line

        def forbidden(*args, **kwargs):
            raise AssertionError("an eigensolver ran while the phase was read")

        def guarded(*args, **kwargs):
            # eigensolvers are forbidden from the closure's construction on
            for owner, name in (
                (spectral, "eig_hermitian"),
                (ssf, "eig_hermitian"),
                (np.linalg, "eigh"),
                (np.linalg, "eigvalsh"),
                (scipy.linalg, "eigh"),
                (scipy.linalg, "eigvalsh"),
            ):
                monkeypatch.setattr(owner, name, forbidden)
            log_det = build(*args, **kwargs)

            def logged(height):
                heights.append(height)
                return log_det(height)

            return logged

        monkeypatch.setattr(ssf, "_determinant_on_vertical_line", guarded)
        xi = ssf_via_determinant(d0, v, lam)
        assert heights == default_eps_schedule(d0, d, lam)
        assert abs(xi - expected) < 1e-6

    def test_route_validates_the_perturbation(self):
        d0 = eig_hermitian(np.diag([0.0, 1.0, 2.0]))
        v = np.zeros((3, 3))
        v[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            ssf_via_determinant(d0, v, 0.5)
        with pytest.raises(ValueError, match="shape"):
            ssf_via_determinant(d0, np.eye(2), 0.5)


class TestPhaseTracking:
    def test_tracks_full_turn_of_rational_factors(self):
        # the model det(h) = prod (a_j + ih) / (b_j + ih) is exactly the shape
        # a perturbation determinant takes on a vertical line; its continuous
        # phase is a sum of atan2 terms and approaches 2 pi here while the
        # principal value returns to ~0
        a = [-1.0, -2.0, 3.0]
        b = [1.0, 2.0, 3.0]

        def det_fn(h):
            out = 1.0 + 0.0j
            for aj, bj in zip(a, b):
                out *= (aj + 1j * h) / (bj + 1j * h)
            return out

        def expected(h):
            return sum(math.atan2(h, aj) - math.atan2(h, bj) for aj, bj in zip(a, b))

        targets = [5.0, 0.5, 1e-3, 1e-6]
        phases = track_determinant_phase(det_fn, 1e4, targets)
        for t, p in zip(targets, phases):
            assert p == pytest.approx(expected(t), abs=1e-9)
        assert phases[-1] == pytest.approx(2.0 * math.pi, abs=1e-5)
        assert abs(cmath.phase(det_fn(1e-6))) < 1e-5

    def test_tracks_many_turns_under_tight_ratio(self):
        # synthetic winding exp(i k / h) accelerates as h drops, so the step
        # ratio must be tightened by hand to keep raw increments principal
        k = 10.0
        det_fn = lambda h: cmath.exp(1j * k / h)
        phases = track_determinant_phase(det_fn, 100.0, [0.1], max_ratio=1.001)
        assert phases[0] == pytest.approx(k / 0.1, abs=1e-9)

    def test_targets_returned_in_input_order(self):
        det_fn = lambda h: cmath.exp(1j / h)
        out = track_determinant_phase(det_fn, 10.0, [0.5, 2.0, 1.0])
        assert out == pytest.approx([2.0, 0.5, 1.0], abs=1e-9)

    def test_rejects_target_above_start(self):
        with pytest.raises(ValueError, match="below"):
            track_determinant_phase(lambda h: 1.0, 1.0, [2.0])

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError, match="positive"):
            track_determinant_phase(lambda h: 1.0, 1.0, [0.0])

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError, match="max_ratio"):
            track_determinant_phase(lambda h: 1.0, 1.0, [0.5], max_ratio=1.0)

    def test_vanishing_determinant_raises(self):
        with pytest.raises(BranchTrackingError, match="vanished"):
            track_determinant_phase(lambda h: 0.0, 1.0, [0.5])

    def test_refinement_floor_raises(self):
        # phase moves by ~25 rad between heights 2 and 1; a coarse floor
        # forbids the subdivision needed to resolve it
        det_fn = lambda h: cmath.exp(50j / h)
        with pytest.raises(BranchTrackingError, match="floor"):
            track_determinant_phase(det_fn, 2.0, [1.0], min_step=1.0)


class TestDeterminantRoute:
    def test_matches_counting_away_from_jumps(self):
        rng = rng_from(66)
        checked = 0
        for trial in range(6):
            a0 = random_hermitian(rng, 6)
            v = random_hermitian(rng, 6, scale=0.5)
            d0 = eig_hermitian(a0)
            d = eig_hermitian(a0 + v)
            xi = ssf_counting(d0, d)
            both = np.sort(np.concatenate([d0.eigenvalues, d.eigenvalues]))
            mids = 0.5 * (both[:-1] + both[1:])
            for lam in mids:
                gap = min(np.min(np.abs(d0.eigenvalues - lam)), np.min(np.abs(d.eigenvalues - lam)))
                if gap < 1e-3:
                    continue
                val = ssf_via_determinant(d0, v, float(lam))
                assert abs(val - xi(float(lam))) < 1e-6
                checked += 1
        assert checked >= 20

    def test_rejects_jump_point(self):
        d0 = eig_hermitian(np.diag([0.0, 1.0]))
        v = np.diag([0.5, 0.0])
        with pytest.raises(ValueError, match="jump"):
            ssf_via_determinant(d0, v, 0.0)

    def test_rejects_non_decreasing_schedule(self):
        d0 = eig_hermitian(np.diag([0.0, 1.0]))
        v = np.diag([0.5, 0.0])
        with pytest.raises(ValueError, match="decreasing"):
            ssf_via_determinant(d0, v, 3.0, eps_schedule=[0.1, 0.2])
        with pytest.raises(ValueError, match="decreasing"):
            ssf_via_determinant(d0, v, 3.0, eps_schedule=[0.1, -0.2])
        # one height leaves nothing to extrapolate from
        for bad in ([], [0.1], [0.1, 0.1], [0.1, float("nan")], [float("nan"), 0.1]):
            with pytest.raises(ValueError, match="eps schedule"):
                ssf_via_determinant(d0, v, 3.0, eps_schedule=bad)
        sched = [0.1, 0.05, 0.025]
        assert ssf_via_determinant(d0, v, 3.0, eps_schedule=np.array(sched)) == (
            ssf_via_determinant(d0, v, 3.0, eps_schedule=sched)
        )

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("sched", [None, [0.1, 0.05]], ids=["default_eps", "given_eps"])
    def test_rejects_non_finite_lambda(self, lam, sched):
        d0 = eig_hermitian(np.diag([0.0, 1.0]))
        v = np.diag([0.5, 0.0])
        with pytest.raises(ValueError, match="lambda must be finite"):
            ssf_via_determinant(d0, v, lam, eps_schedule=sched)

    def test_default_schedule_is_gap_halving(self):
        d0 = eig_hermitian(np.diag([0.0, 2.0]))
        sched = default_eps_schedule(d0, d0, 0.5)
        assert sched == pytest.approx([0.5 / 2.0**k for k in range(1, 9)])

    def test_default_schedule_rejects_spectrum_point(self):
        d0 = eig_hermitian(np.diag([0.0, 2.0]))
        with pytest.raises(ValueError, match="spectrum"):
            default_eps_schedule(d0, d0, 2.0)


# ---------------------------------------------------------------------------
# the identities as properties of adversarial pairs


@st.composite
def _adversarial_pairs(draw):
    """``(d0, d, v)`` at n <= 16: H0 generic or exactly degenerate (each
    eigenvalue stored 2-4 times), V inside a 2-dimensional H0-invariant
    subspace (possibly within one eigenspace) or of rank k."""
    n = draw(st.integers(2, 16))
    rng = rng_from(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        mult = draw(st.integers(2, 4))
        vals = np.repeat(np.linspace(-2.0, 2.0, -(-n // mult)), mult)[:n]
        d0 = SpectralDecomposition(vals, random_unitary(rng, n))
    else:
        d0 = eig_hermitian(random_hermitian(rng, n))
    if draw(st.booleans()):
        basis = d0.eigenvectors[:, rng.choice(n, size=2, replace=False)]
        v = basis @ random_hermitian(rng, 2) @ basis.conj().T
    else:
        v = random_rank_k_hermitian(rng, n, draw(st.integers(1, n)))
    return d0, eig_hermitian(d0.reconstruct() + v), v


_PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


class TestAdversarialProperties:
    @_PROPERTY_SETTINGS
    @given(pair=_adversarial_pairs())
    def test_counting_equals_invariance(self, pair):
        d0, d, _ = pair
        direct = ssf_counting(d0, d)
        for m in (3, 5):
            mapped = ssf_via_invariance(d0, d, PowerChangeOfVariable(m, 1.0))
            assert steps_equal(direct, mapped, bp_tol=1e-9), m

    @_PROPERTY_SETTINGS
    @given(pair=_adversarial_pairs())
    def test_trace_formula_residual(self, pair):
        d0, d, _ = pair
        for f in (
            functions.gaussian_bump(0.2, 0.8, 1.5),
            functions.squared_lorentzian(),
            functions.resolvent_function(0.4 + 1.3j, m=2),
        ):
            lhs, rhs = trace_formula_sides(d0, d, f)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0), f.name

    @_PROPERTY_SETTINGS
    @given(pair=_adversarial_pairs())
    def test_determinant_matches_counting_at_breakpoint_midpoints(self, pair):
        d0, d, v = pair
        xi = ssf_counting(d0, d)
        bps = xi.breakpoints
        # a midpoint can land on an eigenvalue shared by H0 and H, which the
        # route refuses as a jump point (within its default 1e-6 margin)
        spectra = np.concatenate([d0.eigenvalues, d.eigenvalues])
        for lam in 0.5 * (bps[1:] + bps[:-1]):
            if np.abs(spectra - lam).min() >= 1e-6:
                assert abs(ssf_via_determinant(d0, v, float(lam)) - xi(lam)) <= 1e-6, lam
