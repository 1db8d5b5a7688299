"""Tests for spectral shift construction, trace identity and branch tracking."""

import cmath
import math
import re
import zlib

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
    StepFunction,
    compare_at_resolved_points,
    perturbation_determinant,
    ssf_counting,
    ssf_via_determinant,
    ssf_via_invariance,
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
        z = StepFunction([], [0])
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

    def test_comparison_reads_only_resolved_midpoints(self):
        a = StepFunction([0.0, 1.0], [0, 1, 0])
        b = StepFunction([0.0, 1.001], [0, 1, 0])
        # the union 0, 1, 1.001 has gaps 1 and 0.001: only the first is
        # resolved at radius 0.01, and both functions read 1 at its midpoint
        assert compare_at_resolved_points(a, b, 0.01) == (0, 1)
        # at radius 0 the midpoint 1.0005 counts too, where a is 0 and b is 1
        assert compare_at_resolved_points(a, b, 0.0) == (1, 2)
        assert compare_at_resolved_points(a, StepFunction([0.0, 1.0], [0, 2, 0]), 0.0) == (1, 1)
        zero = StepFunction([], [0])
        assert compare_at_resolved_points(zero, zero, 0.0) == (0, 0)


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
        # crc32, not hash(): str hashes are salted per process
        rng = rng_from(11, zlib.crc32(f.name.encode()))
        for trial in range(30):
            dim = int(rng.integers(2, 33))
            d0, d, _ = _random_pair(rng, dim, scale=0.4)
            lhs, rhs = trace_formula_sides(ssf_counting(d0, d), d0, d, f)
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_residual_zero_for_identical_pair(self):
        d0 = eig_hermitian(random_hermitian(rng_from(1), 5))
        f = functions.polynomial([0.0, 1.0, 1.0])
        lhs, rhs = trace_formula_sides(ssf_counting(d0, d0), d0, d0, f)
        assert abs(lhs - rhs) == 0.0

    def test_rank_one_shift_against_hand_sum(self):
        # single eigenvalue moves from 1 to 2: integral side is f(2) - f(1)
        d0 = eig_hermitian(np.diag([0.0, 1.0]))
        d = eig_hermitian(np.diag([0.0, 2.0]))
        f = functions.polynomial([1.0, 0.0, 0.0])
        lhs, rhs = trace_formula_sides(ssf_counting(d0, d), d0, d, f)
        assert lhs == pytest.approx(3.0, abs=1e-14)
        assert rhs == pytest.approx(3.0, abs=1e-14)


# ---------------------------------------------------------------------------
# invariance principle


def _matches_counting(h0, h, m):
    """``(mismatches, compared)`` of the invariance route against counting."""
    counting = ssf_counting(eig_hermitian(h0), eig_hermitian(h))
    [(xi, radius)] = ssf_via_invariance(h0, h, [m])
    return compare_at_resolved_points(counting, xi, radius)


class TestInvariance:
    @pytest.mark.parametrize("m", [3, 5])
    def test_matches_counting(self, m):
        rng = rng_from(404, m)
        for trial in range(25):
            dim = int(rng.integers(2, 16))
            h0 = random_hermitian(rng, dim)
            h = h0 + random_hermitian(rng, dim, scale=0.5)
            bad, compared = _matches_counting(h0, h, m)
            assert bad == 0 and compared >= 1

    @pytest.mark.parametrize("m", [1, 3, 5, 7, 9])
    def test_pullback_on_exact_degeneracy(self, m):
        # a triple and a double eigenvalue of a diagonal H0, one member of
        # each moved: the pulled-back breakpoints sit within the radius of
        # the exact ones
        lam0 = np.array([-1.3, -0.2, -0.2, -0.2, 0.25, 0.25, 0.9, 1.6])
        v = np.zeros((8, 8))
        v[1, 1] = v[4, 4] = 0.5
        [(xi, radius)] = ssf_via_invariance(np.diag(lam0), np.diag(lam0) + v, [m])
        np.testing.assert_array_equal(xi.values, [0, 1, 2, 1, 0])
        np.testing.assert_allclose(xi.breakpoints, [-0.2, 0.25, 0.3, 0.75], rtol=0, atol=radius)
        assert _matches_counting(np.diag(lam0), np.diag(lam0) + v, m) == (0, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 39),
        kind=st.sampled_from(["random", "rank-k", "invariant-subspace"]),
        seed=st.integers(0, 2**32 - 1),
        m=st.sampled_from([3, 5]),
    )
    def test_pullback_is_pointwise_counting(self, n, kind, seed, m):
        rng = rng_from(seed)
        a0 = random_hermitian(rng, n)
        if kind == "random":
            v = random_hermitian(rng, n, scale=0.5)
        elif kind == "rank-k":
            v = random_rank_k_hermitian(rng, n, int(rng.integers(1, n + 1)))
        else:
            basis = eig_hermitian(a0).eigenvectors[:, rng.choice(n, size=2, replace=False)]
            v = basis @ random_hermitian(rng, 2) @ basis.conj().T
        counting = ssf_counting(eig_hermitian(a0), eig_hermitian(a0 + v))
        [(xi, radius)] = ssf_via_invariance(a0, a0 + v, [m])
        bad, compared = compare_at_resolved_points(counting, xi, radius)
        assert bad == 0
        # a step of xi is a gap both routes must resolve
        assert compared >= 1 or counting.is_zero

    def test_reads_no_eigenvalue(self, monkeypatch):
        # the route's spectra come from eigvalsh of (H - a)^-m, and a from
        # row sums: an eigensolver call on H0 or H would be a second copy of
        # the counting route
        def forbidden(*args, **kwargs):
            raise AssertionError("an eigensolver ran on H0 or H")

        rng = rng_from(606)
        h0 = random_hermitian(rng, 12)
        h = h0 + random_hermitian(rng, 12, scale=0.4)
        want = _matches_counting(h0, h, 3)
        monkeypatch.setattr(spectral, "eig_hermitian", forbidden)
        monkeypatch.setattr(ssf, "eig_hermitian", forbidden)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        [(xi, radius)] = ssf_via_invariance(h0, h, [3])
        monkeypatch.undo()
        counting = ssf_counting(eig_hermitian(h0), eig_hermitian(h))
        assert compare_at_resolved_points(counting, xi, radius) == want
        assert want[0] == 0 and want[1] > 0

    @pytest.mark.parametrize("m", [1, 3, 5])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 32, 64, 128])
    def test_pulled_back_eigenvalues_lie_within_their_radius(self, n, m):
        # generic matrices, and diagonal ones with an eigenvalue at -10,
        # where the Gershgorin a is 1 below it and the condition number of
        # H - a is largest
        for s in range(20 if n <= 16 else 2):
            rng = rng_from(707, n, m, s)
            generic = random_hermitian(rng, n)
            diagonal = np.diag(np.concatenate([[-10.0], rng.uniform(-10.0, 10.0, n - 1)]))
            diagonal = diagonal + 1e-3 * random_hermitian(rng, n)
            for h in (generic, diagonal):
                a = ssf._gershgorin_shift(h, h)
                [(lam, radius)] = ssf._pulled_back_spectra(h, a, (m,))
                assert np.all(np.abs(lam - np.linalg.eigvalsh(h)) <= radius)

    def test_radius_is_never_below_counting(self):
        rng = rng_from(808)
        for n in (2, 8, 32):
            h0 = random_hermitian(rng, n)
            h = h0 + random_hermitian(rng, n, scale=0.4)
            d0, d = eig_hermitian(h0), eig_hermitian(h)
            for _, radius in ssf_via_invariance(h0, h, [1, 3, 5]):
                assert radius >= ssf._cluster_radius(d0.eigenvalues, d.eigenvalues)

    @pytest.mark.parametrize("powers", [(1, 3, 5), (5, 1, 3), (3, 3)], ids=str)
    def test_shared_powers_equal_one_call_per_power(self, powers):
        # trace-check takes m = 3 and 5 from one factorization per matrix;
        # each must be exactly what a call at that power alone gives, in the
        # order given, unsorted or repeated
        rng = rng_from(909)
        for n in (2, 8, 24):
            h0 = random_hermitian(rng, n)
            h = h0 + random_hermitian(rng, n, scale=0.4)
            shared = ssf_via_invariance(h0, h, list(powers))
            assert len(shared) == len(powers)
            for (xi, radius), m in zip(shared, powers):
                [(alone, alone_radius)] = ssf_via_invariance(h0, h, [m])
                assert radius == alone_radius
                np.testing.assert_array_equal(xi.breakpoints, alone.breakpoints)
                np.testing.assert_array_equal(xi.values, alone.values)

    def test_accepts_numpy_integer_powers(self):
        rng = rng_from(910)
        h0 = random_hermitian(rng, 6)
        h = h0 + random_hermitian(rng, 6, scale=0.4)
        got = ssf_via_invariance(h0, h, np.array([3, 5], dtype=np.int64))
        want = ssf_via_invariance(h0, h, [3, 5])
        assert [radius for _, radius in got] == [radius for _, radius in want]
        for (xi, _), (alone, _) in zip(got, want):
            np.testing.assert_array_equal(xi.breakpoints, alone.breakpoints)
            np.testing.assert_array_equal(xi.values, alone.values)

    def test_refuses_a_power_too_ill_conditioned_to_pull_back(self):
        # cond(H - a) = 2001: at m = 5 the smallest eigenvalue of
        # (H - a)^-5, 2001^-5 ~ 3e-17, is below its rounding error
        h = np.diag([-1000.0, 1000.0])
        with pytest.raises(ValueError, match="too ill-conditioned"):
            ssf_via_invariance(h, h, [5])
        # one power past the limit refuses the whole list
        with pytest.raises(ValueError, match=r"\(H - a\)\^-5"):
            ssf_via_invariance(h, h, [1, 5])
        [(xi, _)] = ssf_via_invariance(h, h, [1])
        assert xi.is_zero

    def test_rejects_shape_mismatch_naming_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 2\) and \(3, 3\)"):
            ssf_via_invariance(np.eye(2), np.eye(3), [3])
        # a stack of matrices passes the Hermitian gate, square over its
        # last two axes; it used to fail inside a broadcast naming neither
        stack = np.stack([np.eye(3), 2.0 * np.eye(3)])
        with pytest.raises(ValueError, match=r"\(2, 3, 3\) and \(2, 3, 3\)"):
            ssf_via_invariance(stack, stack, [3])

    def test_rejects_non_hermitian_input_by_name(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="h0 is not Hermitian"):
            ssf_via_invariance(bad, np.eye(2), [3])
        with pytest.raises(ValueError, match="h is not Hermitian"):
            ssf_via_invariance(np.eye(2), bad, [3])

    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_six_fold_cluster_at_inv_sqrt7(self, m):
        # H0 with a 6-fold eigenvalue at 1/sqrt(7) in a random unitary basis,
        # H = H0 + 0.3 w w*: the six copies come back a few ulps apart and in
        # no fixed order, and a pull-back must neither raise nor split them
        lam0 = np.array([-1.5, 1.5] + [1.0 / math.sqrt(7.0)] * 6)
        compared = 0
        for s in range(200):
            rng = rng_from(4242, s)
            u = random_unitary(rng, 8)
            h0 = (u * lam0) @ u.conj().T
            h0 = (h0 + h0.conj().T) / 2.0
            w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            w /= np.linalg.norm(w)
            bad, seen = _matches_counting(h0, h0 + 0.3 * np.outer(w, w.conj()), m)
            assert bad == 0, s
            compared += seen
        assert compared > 0


class TestClusteredSpectra:
    """V acts inside a 2-dim H0-invariant subspace: the other ten eigenvalues
    are shared by H0 and H and come back from eigh differing by rounding."""

    @staticmethod
    def _matrices(cols):
        a0 = random_hermitian(np.random.default_rng(0), 12)
        u = eig_hermitian(a0).eigenvectors[:, list(cols)]
        b = np.array([[0.4, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]])
        return a0, a0 + u @ b @ u.conj().T

    @classmethod
    def _pair(cls, cols):
        return tuple(eig_hermitian(m) for m in cls._matrices(cols))

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
        bad, compared = _matches_counting(*self._matrices(cols), m)
        assert bad == 0 and compared >= 1

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
        # the resolvent-power route merges the shared pair within its wider
        # radius, which grows like 1 / phi'
        for mapped, radius in ssf_via_invariance(np.diag(lam0), np.diag(lam), [3, 5]):
            assert radius >= 30 * np.spacing(10.0)
            np.testing.assert_array_equal(mapped.values, xi.values)
            np.testing.assert_allclose(mapped.breakpoints, xi.breakpoints, rtol=0, atol=radius)

    @pytest.mark.parametrize("m", [3, 5])
    def test_eight_fold_clusters_at_n64(self, m):
        # eight 8-fold H0 clusters spread by 1e-11 N(0, 1) and a generic V:
        # counting's radius (about 3e-12) splits the clusters, the invariance
        # radius merges them, so the two step functions differ and only the
        # points both resolve are compared
        compared = []
        for t in range(6):
            rng = rng_from(1212, t)
            u = random_unitary(rng, 64)
            lam0 = np.repeat(np.linspace(-2.0, 2.0, 8), 8) + 1e-11 * rng.standard_normal(64)
            h0 = (u * lam0) @ u.conj().T
            h0 = (h0 + h0.conj().T) / 2.0
            bad, seen = _matches_counting(h0, h0 + random_hermitian(rng, 64, 0.4), m)
            assert bad == 0, t
            compared.append(seen)
        print(f"m = {m}: midpoints compared per trial {compared}")
        assert min(compared) > 0

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

    def test_rejects_tiny_non_hermitian_perturbation(self):
        # the Hermiticity rule is relative at every scale; a V with
        # max|V| <= 1e-14 used to be exempt from it
        d0 = eig_hermitian(np.eye(3))
        v = np.zeros((3, 3))
        v[0, 1] = 1e-15
        with pytest.raises(ValueError, match="perturbation is not Hermitian"):
            perturbation_determinant(d0, v, 1j)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("route", [perturbation_determinant, ssf_via_determinant])
    def test_rejects_non_finite_perturbation_before_any_product(self, monkeypatch, bad, route):
        # an infinite entry makes the Hermiticity defect NaN, which used to
        # pass the check; the error then came from det_id_plus and named
        # neither V nor the entry
        def forbidden(*args, **kwargs):
            raise AssertionError("a product was formed before V was checked")

        d0 = eig_hermitian(np.diag([0.0, 1.0, 2.0]))
        for name in ("resolvent_power", "det_id_plus", "eig_hermitian"):
            monkeypatch.setattr(ssf, name, forbidden)
        monkeypatch.setattr(SpectralDecomposition, "reconstruct", forbidden)
        v = np.zeros((3, 3))
        v[1, 2] = v[2, 1] = bad
        point = 1j if route is perturbation_determinant else 0.5
        with pytest.raises(
            ValueError, match=r"perturbation has a non-finite entry at index \(1, 2\)"
        ):
            route(d0, v, point)


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


def _route_heights(d0, d, lam):
    """The heights the determinant route reads: the distance from ``lam`` to
    either spectrum, halved 1 to 8 times."""
    near = min(np.abs(d0.eigenvalues - lam).min(), np.abs(d.eigenvalues - lam).min())
    return [float(near) / 2.0**k for k in range(1, 9)]


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
                eps = _route_heights(d0, d, lam)
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
        assert heights == _route_heights(d0, d, lam)
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
        phases = track_determinant_phase(det_fn, 1e4, targets, 1.1)
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

    def test_target_at_the_start_height_costs_no_second_evaluation(self):
        heights = []

        def det_fn(h):
            heights.append(h)
            return cmath.exp(1j / h)

        out = track_determinant_phase(det_fn, 2.0, [2.0, 1.0], max_ratio=1.5)
        assert out == pytest.approx([0.5, 1.0], abs=1e-12)
        assert heights == [2.0, pytest.approx(2.0 ** 0.5), 1.0]

    def test_walks_equal_ratio_steps_down_each_segment(self):
        heights = []

        def det_fn(h):
            heights.append(h)
            return cmath.exp(0.1j / h)

        out = track_determinant_phase(det_fn, 10.0, [0.5, 0.5, 0.1], max_ratio=2.0)
        assert out == pytest.approx([0.2, 0.2, 1.0], abs=1e-12)
        # ceil(ln 20 / ln 2) = 5 steps to 0.5, none to 0.5 again, 3 to 0.1
        first = [10.0 * 0.05 ** (k / 5) for k in range(1, 6)]
        second = [first[-1] * (0.1 / first[-1]) ** (k / 3) for k in range(1, 4)]
        assert heights == [10.0] + first + second

    def test_rejects_rising_targets_by_name(self):
        with pytest.raises(ValueError, match=re.escape("h_targets[1]=2.0 above 1.0")):
            track_determinant_phase(lambda h: 1.0, 4.0, [1.0, 2.0], 1.5)
        with pytest.raises(ValueError, match=re.escape("h_targets[0]=2.0 above 1.0")):
            track_determinant_phase(lambda h: 1.0, 1.0, [2.0], 1.5)

    def test_rejects_nonpositive_target(self):
        with pytest.raises(ValueError, match="positive"):
            track_determinant_phase(lambda h: 1.0, 1.0, [0.0], 1.5)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError, match="max_ratio"):
            track_determinant_phase(lambda h: 1.0, 1.0, [0.5], max_ratio=1.0)

    def test_vanishing_determinant_raises(self):
        with pytest.raises(BranchTrackingError, match="vanished"):
            track_determinant_phase(lambda h: 0.0, 1.0, [0.5], 1.5)

    def test_coarse_step_raises_naming_height_and_ratio(self):
        # the phase moves by 2 rad between heights 2 and 1, in one step of
        # ratio 2; a move of a full turn or more would alias unseen instead
        heights = []

        def det_fn(h):
            heights.append(h)
            return cmath.exp(4j / h)

        with pytest.raises(BranchTrackingError, match=r"from height 2\.0 to 1\.0 .*max_ratio=2\.0"):
            track_determinant_phase(det_fn, 2.0, [1.0], max_ratio=2.0)
        assert heights == [2.0, 1.0]

    def test_step_just_past_a_quarter_turn_raises(self):
        # exp(i theta / h) turns by theta in the one step from 1 to 1/2
        below = math.pi / 2.0 - 1e-9
        out = track_determinant_phase(lambda h: cmath.exp(1j * below / h), 1.0, [0.5], 2.0)
        assert out == pytest.approx([2.0 * below], abs=1e-12)
        above = math.pi / 2.0 + 1e-9
        with pytest.raises(BranchTrackingError, match="pi/2"):
            track_determinant_phase(lambda h: cmath.exp(1j * above / h), 1.0, [0.5], 2.0)


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

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_lambda(self, lam):
        d0 = eig_hermitian(np.diag([0.0, 1.0]))
        v = np.diag([0.5, 0.0])
        with pytest.raises(ValueError, match=f"lam must be a finite number, got lam={lam!r}"):
            ssf_via_determinant(d0, v, lam)

    @pytest.mark.parametrize("margin", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("lam", [0.0, 0.25], ids=["on_jump", "off_jump"])
    def test_rejects_bad_jump_margin_naming_it(self, lam, margin):
        # on the jump point a margin of 0, -1 or NaN used to end in
        # ZeroDivisionError; off it, such a margin was taken
        d0 = eig_hermitian(np.diag([0.0, 1.0]))
        v = np.diag([0.5, 0.0])
        match = f"jump_margin must be a finite positive number, got jump_margin={margin!r}"
        with pytest.raises(ValueError, match=match):
            ssf_via_determinant(d0, v, lam, jump_margin=margin)

    def test_default_schedule_is_gap_halving(self, monkeypatch):
        # H0 = diag(0, 2) and V = diag(0, 1): the point 0.5 is 0.5 from both
        # spectra, so the route reads 0.5 / 2^k, k = 1..8
        d0 = eig_hermitian(np.diag([0.0, 2.0]))
        heights = []
        build = ssf._determinant_on_vertical_line

        def logged(*args):
            log_det = build(*args)
            return lambda height: heights.append(height) or log_det(height)

        monkeypatch.setattr(ssf, "_determinant_on_vertical_line", logged)
        assert ssf_via_determinant(d0, np.diag([0.0, 1.0]), 0.5) == pytest.approx(0.0, abs=1e-6)
        assert heights == [0.5 / 2.0**k for k in range(1, 9)]


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
        d0, d, v = pair
        direct = ssf_counting(d0, d)
        h0 = d0.reconstruct()
        for m, (xi, radius) in zip((3, 5), ssf_via_invariance(h0, h0 + v, [3, 5])):
            bad, compared = compare_at_resolved_points(direct, xi, radius)
            assert bad == 0, m
            assert compared >= 1 or direct.is_zero, m

    @_PROPERTY_SETTINGS
    @given(pair=_adversarial_pairs())
    def test_trace_formula_residual(self, pair):
        d0, d, _ = pair
        xi = ssf_counting(d0, d)
        for f in (
            functions.gaussian_bump(0.2, 0.8, 1.5),
            functions.squared_lorentzian(),
            functions.resolvent_function(0.4 + 1.3j, m=2),
        ):
            lhs, rhs = trace_formula_sides(xi, d0, d, f)
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
