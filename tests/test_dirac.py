"""Tests for the lattice Dirac operator, weights and Schatten machinery."""

import numpy as np
import pytest
import scipy.linalg

from ssflab import dirac, spectral
from ssflab.dirac import (
    DiracMatrices,
    LatticeModel,
    MatrixPotential,
    balanced_spacing,
    commutator_decay_report,
    commutator_decay_study,
    commutator_identity_residual,
    dirac_matrices,
    free_hamiltonian,
    free_resolvent_power,
    free_symbol,
    perturbed_hamiltonian,
    random_bounded_potential,
    random_decaying_potential,
    resolvent_power_difference,
    schatten_refinement_study,
    weight_diagonal,
    weighted_factorization_report,
    weighted_resolvent_schatten,
    zero_potential,
)
from ssflab.spectral import eig_hermitian, resolvent_power
from ssflab.utils import rng_from


def _model(d=1, n=32, h=None, mass=1.0):
    return LatticeModel(d=d, n=n, h=balanced_spacing(n) if h is None else h, mass=mass)


def _flipped_matrices():
    # a valid d = 1 set other than the standard one
    s1, s3 = dirac_matrices(1).alphas
    return DiracMatrices(1, 2, (-s1, s3))


# ---------------------------------------------------------------------------
# matrix sets and the symbol


class TestDiracMatrices:
    @pytest.mark.parametrize("d, spinor", [(1, 2), (2, 2), (3, 4)])
    def test_algebra(self, d, spinor):
        mats = dirac_matrices(d)
        assert mats.spinor_dim == spinor
        eye = np.eye(spinor)
        for a in mats.alphas:
            assert np.abs(a - a.conj().T).max() <= 1e-14
            assert np.abs(a @ a - eye).max() <= 1e-14
        for i, a in enumerate(mats.alphas):
            for b in mats.alphas[i + 1 :]:
                assert np.abs(a @ b + b @ a).max() <= 1e-14

    def test_kinetic_and_mass_split(self):
        mats = dirac_matrices(2)
        assert len(mats.kinetic) == 2
        np.testing.assert_array_equal(mats.mass_matrix, np.diag([1.0, -1.0]))

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            dirac_matrices(4)
        with pytest.raises(ValueError):
            dirac_matrices(0)

    def test_rejects_non_anticommuting_set(self):
        s1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="anticommute"):
            DiracMatrices(1, 2, (s1, s1))

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError, match="identity"):
            DiracMatrices(1, 2, (np.diag([1.0, -1.0]), 2.0 * np.eye(2)))

    def test_building_models_leaves_caller_arrays_writeable(self):
        owned = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        mats = DiracMatrices(1, 2, (owned, np.diag([1.0, -1.0])))
        for d in (1, 2, 3):
            LatticeModel(d=d, n=4, h=1.0, mass=1.0)
        for a in (dirac._SIGMA1, dirac._SIGMA2, dirac._SIGMA3, owned):
            assert a.flags.writeable
        # the model keeps a frozen copy of its own
        assert not mats.alphas[0].flags.writeable
        owned[0, 1] = 5.0
        assert mats.alphas[0][0, 1] == 1.0

    def test_signed_zero_entries_hash_equal(self):
        s1, s3 = dirac_matrices(1).alphas
        signed = np.array([[-0.0, 1.0], [1.0, -0.0]], dtype=complex)
        other = DiracMatrices(1, 2, (signed, s3))
        assert other == dirac_matrices(1)
        assert hash(other) == hash(dirac_matrices(1))


class TestSymbol:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_square_is_scalar(self, d):
        mats = dirac_matrices(d)
        mass = 0.7
        rng = rng_from(91, d)
        eye = np.eye(mats.spinor_dim)
        for _ in range(1000):
            xi = rng.uniform(-5, 5, size=d)
            a = free_symbol(mats, mass, xi)
            want = (float(xi @ xi) + mass**2) * eye
            assert np.abs(a @ a - want).max() < 1e-12

    def test_rejects_wrong_momentum_size(self):
        with pytest.raises(ValueError, match="components"):
            free_symbol(dirac_matrices(2), 1.0, [1.0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_diagonalization(self, d):
        # two branches -E and +E, each of multiplicity spinor_dim / 2
        mats = dirac_matrices(d)
        rng = rng_from(92, d)
        half = mats.spinor_dim // 2
        for _ in range(25):
            xi = rng.uniform(-3, 3, size=d)
            vals = np.linalg.eigvalsh(free_symbol(mats, 1.3, xi))
            e = np.sqrt(float(xi @ xi) + 1.3**2)
            np.testing.assert_allclose(vals[:half], -e, atol=1e-12)
            np.testing.assert_allclose(vals[half:], e, atol=1e-12)


# ---------------------------------------------------------------------------
# lattice model and the free operator


class TestLatticeModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            LatticeModel(d=1, n=5, h=1.0, mass=1.0)
        with pytest.raises(ValueError, match="even"):
            LatticeModel(d=1, n=0, h=1.0, mass=1.0)
        with pytest.raises(ValueError, match="spacing"):
            LatticeModel(d=1, n=4, h=0.0, mass=1.0)
        with pytest.raises(ValueError, match="mass"):
            LatticeModel(d=1, n=4, h=1.0, mass=0.0)
        with pytest.raises(ValueError, match="dimension"):
            LatticeModel(d=1, n=4, h=1.0, mass=1.0, matrices=dirac_matrices(2))

    def test_site_geometry(self):
        m = LatticeModel(d=1, n=6, h=0.5, mass=1.0)
        np.testing.assert_array_equal(m.site_vectors().ravel(), [-3, -2, -1, 0, 1, 2])
        np.testing.assert_allclose(m.site_distances(), [1.5, 1.0, 0.5, 0.0, 0.5, 1.0])
        assert m.n_sites == 6 and m.total_dim == 12

    def test_momentum_grid(self):
        m = LatticeModel(d=1, n=4, h=2.0, mass=1.0)
        np.testing.assert_allclose(
            m.momentum_vectors().ravel(), 2 * np.pi / 8.0 * np.array([-2, -1, 0, 1])
        )

    def test_balanced_spacing(self):
        assert balanced_spacing(32) == pytest.approx(np.sqrt(2 * np.pi / 32))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equal_models_hash_equal(self, d):
        a = LatticeModel(d=d, n=4, h=1.0, mass=1.0)
        b = LatticeModel(d=d, n=4, h=1.0, mass=1.0)
        assert a == b and hash(a) == hash(b)
        table = {a: "model"}
        assert table[b] == "model"
        assert LatticeModel(d=d, n=4, h=0.5, mass=1.0) not in table

    def test_equality_compares_the_matrices(self):
        # the d = 3 matrices are built afresh for every model
        a = LatticeModel(d=3, n=2, h=1.0, mass=1.0)
        assert a == LatticeModel(d=3, n=2, h=1.0, mass=1.0)
        assert a != LatticeModel(d=3, n=2, h=0.5, mass=1.0)
        assert LatticeModel(d=1, n=2, h=1.0, mass=1.0) != LatticeModel(
            d=1, n=2, h=1.0, mass=1.0, matrices=_flipped_matrices()
        )


class TestFreeHamiltonian:
    @pytest.mark.parametrize("d, n", [(1, 6), (2, 4)])
    def test_matches_fourier_sum_oracle(self, d, n):
        model = LatticeModel(d=d, n=n, h=0.7, mass=1.1)
        mats = model.matrices
        s = model.spinor_dim
        sites = model.site_vectors()
        momenta = model.momentum_vectors()
        got = np.asarray(free_hamiltonian(model).entries)
        dim = model.total_dim
        want = np.zeros((dim, dim), dtype=complex)
        for a in range(model.n_sites):
            for b in range(model.n_sites):
                block = np.zeros((s, s), dtype=complex)
                for xi in momenta:
                    phase = np.exp(1j * model.h * float(xi @ (sites[a] - sites[b])))
                    block += free_symbol(mats, model.mass, xi) * phase
                want[a * s : (a + 1) * s, b * s : (b + 1) * s] = block / model.n_sites
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("d, n", [(1, 16), (2, 6), (3, 4)])
    def test_spectrum_matches_symbol_branches(self, d, n):
        model = LatticeModel(d=d, n=n, h=0.9, mass=0.8)
        energies = np.sqrt(
            np.sum(model.momentum_vectors() ** 2, axis=1) + model.mass**2
        )
        half = model.spinor_dim // 2
        want = np.sort(np.concatenate([np.repeat(energies, half), np.repeat(-energies, half)]))
        got = eig_hermitian(free_hamiltonian(model)).eigenvalues
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_hermitian(self):
        h = np.asarray(free_hamiltonian(_model(n=8)).entries)
        assert np.abs(h - h.conj().T).max() < 1e-13


def _dense_resolvent_power(model, z, k):
    """Oracle: resolvent power through a dense eigendecomposition of H0."""
    return resolvent_power(eig_hermitian(free_hamiltonian(model)), z, k)


class TestFreeResolventPower:
    @pytest.mark.parametrize("d, n", [(1, 32), (2, 8), (3, 4)])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("z", [1j, 0.3 - 0.7j, 2 + 0.05j])
    def test_matches_dense_oracle(self, d, n, k, z):
        model = LatticeModel(d=d, n=n, h=0.9, mass=0.8)
        got = free_resolvent_power(model, z, k)
        want = _dense_resolvent_power(model, z, k)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize(
        "z, k, match",
        [
            (1.0, 1, r"z=\(1\+0j\)"),
            (complex(np.nan, 1.0), 1, "nan"),
            (1j, 0, "got 0"),
            (1j, 1.5, "got 1.5"),
            (1j, True, "got True"),
        ],
        ids=["real_z", "nan_z", "k0", "float_k", "bool_k"],
    )
    def test_argument_check(self, z, k, match):
        with pytest.raises(ValueError, match=match):
            free_resolvent_power(_model(n=4), z, k)


# ---------------------------------------------------------------------------
# weights and potentials


class TestWeights:
    def test_values_and_replication(self):
        model = LatticeModel(d=1, n=4, h=1.0, mass=1.0)
        w = weight_diagonal(model, 2.0)
        dist = model.site_distances()
        np.testing.assert_allclose(w, np.repeat(1.0 / (1.0 + dist**2), 2))

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError, match="positive"):
            weight_diagonal(_model(n=4), 0.0)


class TestMatrixPotential:
    def test_shape_and_hermiticity_validation(self):
        model = _model(n=4)
        s = model.spinor_dim
        with pytest.raises(ValueError, match="shape"):
            MatrixPotential(model, np.zeros((3, s, s)))
        bad = np.zeros((model.n_sites, s, s), dtype=complex)
        bad[0, 0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            MatrixPotential(model, bad)

    def test_decay_declaration(self):
        model = _model(n=8)
        s = model.spinor_dim
        mats = np.zeros((model.n_sites, s, s), dtype=complex)
        with pytest.raises(ValueError, match="both"):
            MatrixPotential(model, mats, decay_c=1.0)
        with pytest.raises(ValueError, match="positive"):
            MatrixPotential(model, mats, decay_c=-1.0, decay_rho=2.0)
        # a flat potential violates any declared decay at the far sites
        flat = np.tile(np.eye(s, dtype=complex), (model.n_sites, 1, 1))
        with pytest.raises(ValueError, match="violated"):
            MatrixPotential(model, flat, decay_c=1.0, decay_rho=4.0)

    def test_random_decaying_respects_bound(self):
        model = _model(n=16)
        v = random_decaying_potential(model, rng_from(1), c=1.0, rho=4.0)
        assert v.is_decaying
        assert v.achieved_ratio() <= 1.0 + 1e-9
        assert v.achieved_ratio() >= 0.5

    def test_random_bounded(self):
        model = _model(n=16)
        v = random_bounded_potential(model, rng_from(2), bound=0.3)
        assert not v.is_decaying
        tops = np.linalg.norm(v.site_matrices, ord=2, axis=(1, 2))
        assert tops.max() <= 0.3 + 1e-12
        assert tops.min() >= 0.2 * 0.3
        with pytest.raises(ValueError, match="decaying"):
            v.achieved_ratio()

    def test_to_operator_is_block_diagonal(self):
        model = _model(n=4)
        v = random_bounded_potential(model, rng_from(3), bound=1.0)
        op = v.to_operator()
        s = model.spinor_dim
        for i in range(model.n_sites):
            blk = op[i * s : (i + 1) * s, i * s : (i + 1) * s]
            np.testing.assert_array_equal(blk, v.site_matrices[i])
        off = op.copy()
        for i in range(model.n_sites):
            off[i * s : (i + 1) * s, i * s : (i + 1) * s] = 0
        assert np.abs(off).max() == 0.0

    def test_zero_potential(self):
        model = _model(n=4)
        assert np.abs(zero_potential(model).to_operator()).max() == 0.0

    def test_perturbed_hamiltonian_adds_blocks(self):
        model = _model(n=8)
        v = random_bounded_potential(model, rng_from(5), bound=0.5)
        h = perturbed_hamiltonian(model, v)
        h00 = np.asarray(free_hamiltonian(model).entries)
        np.testing.assert_allclose(h, h00 + v.to_operator(), atol=1e-14)
        other = _model(n=4)
        with pytest.raises(ValueError, match="lattice"):
            perturbed_hamiltonian(model, zero_potential(other))


# ---------------------------------------------------------------------------
# expansion and commutator identities


class TestPowerDifference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_expansion_residual_small(self, seed):
        model = _model(n=32)
        rng = rng_from(93, seed)
        v0 = random_bounded_potential(model, rng, bound=0.3)
        v = random_decaying_potential(model, rng, c=1.0, rho=4.0)
        rep = resolvent_power_difference(model, v0, v, 1j, 3)
        assert rep.relative_residual < 1e-9
        assert rep.trace_norm > 0

    def test_validation(self):
        model = _model(n=8)
        v0 = zero_potential(model)
        with pytest.raises(ValueError, match="odd"):
            resolvent_power_difference(model, v0, v0, 1j, 2)
        with pytest.raises(ValueError, match="Im z"):
            resolvent_power_difference(model, v0, v0, 1.0, 3)


class TestCommutatorIdentity:
    @pytest.mark.parametrize("r, k", [(1.0, 0), (1.0, 2), (2.0, 1), (3.0, 2)])
    def test_residual_tiny(self, r, k):
        model = _model(n=32)
        rng = rng_from(94, k)
        v0 = random_bounded_potential(model, rng, bound=0.3)
        v = random_decaying_potential(model, rng, c=1.0, rho=4.0)
        assert commutator_identity_residual(model, v0, v, r, k, 1j) < 1e-10

    def test_validation(self):
        model = _model(n=8)
        v0 = zero_potential(model)
        with pytest.raises(ValueError, match="k must"):
            commutator_identity_residual(model, v0, v0, 1.0, -1, 1j)
        with pytest.raises(ValueError, match="Im z"):
            commutator_identity_residual(model, v0, v0, 1.0, 1, 2.0)

    def test_weight_commutator_is_anti_hermitian(self):
        model = _model(n=16)
        h00 = np.asarray(free_hamiltonian(model).entries)
        w = weight_diagonal(model, 1.0)
        comm = h00 * w[None, :] - w[:, None] * h00
        assert np.abs(comm + comm.conj().T).max() < 1e-12


class TestForeignLattice:
    """A potential built on another lattice is refused by every identity."""

    MODEL = LatticeModel(d=1, n=32, h=1.0, mass=1.0)

    @pytest.fixture(
        params=[
            LatticeModel(d=1, n=32, h=0.5, mass=1.0),
            LatticeModel(d=1, n=16, h=1.0, mass=1.0),
            LatticeModel(d=1, n=32, h=1.0, mass=1.0, matrices=_flipped_matrices()),
        ],
        ids=["spacing", "size", "matrices"],
    )
    def foreign(self, request):
        return random_decaying_potential(request.param, rng_from(96), c=1.0, rho=4.0)

    def test_power_difference(self, foreign):
        home = zero_potential(self.MODEL)
        with pytest.raises(ValueError, match="lattice"):
            resolvent_power_difference(self.MODEL, home, foreign, 1j, 3)
        with pytest.raises(ValueError, match="lattice"):
            resolvent_power_difference(self.MODEL, foreign, home, 1j, 3)

    def test_commutator_identity(self, foreign):
        home = zero_potential(self.MODEL)
        with pytest.raises(ValueError, match="lattice"):
            commutator_identity_residual(self.MODEL, home, foreign, 1.0, 1, 1j)
        with pytest.raises(ValueError, match="lattice"):
            commutator_identity_residual(self.MODEL, foreign, home, 1.0, 1, 1j)

    def test_factorization(self, foreign):
        with pytest.raises(ValueError, match="lattice"):
            weighted_factorization_report(self.MODEL, foreign, 2, 3, 1j)


# ---------------------------------------------------------------------------
# schatten studies


class TestWeightedResolvent:
    def test_rejects_small_p(self):
        with pytest.raises(ValueError, match="p must"):
            weighted_resolvent_schatten(_model(n=8), 1.0, 1, 1j, [0.5])

    def test_rejects_nan_p_before_assembly(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("assembly or SVD ran before the p check")

        monkeypatch.setattr(dirac, "free_resolvent_power", forbidden)
        monkeypatch.setattr(dirac, "singular_values", forbidden)
        with pytest.raises(ValueError, match="nan"):
            weighted_resolvent_schatten(_model(n=8), 1.0, 1, 1j, [2.0, float("nan")])

    @pytest.mark.parametrize("r, k", [(1.0, 1), (2.0, 1)])
    def test_exponent_prediction(self, r, k):
        rep = weighted_resolvent_schatten(_model(n=64), r, k, 1j, [1.0, 2.0])
        assert rep.threshold_p == pytest.approx(1.0 / min(r, k))
        assert rep.exponent_ok, (rep.predicted_exponent, rep.fitted_exponent)

    def test_norms_ordered(self):
        # schatten norms are nonincreasing in p
        rep = weighted_resolvent_schatten(_model(n=32), 1.0, 1, 1j, [1.0, 1.5, 2.0])
        n1, n15, n2 = (rep.p_norms[p] for p in (1.0, 1.5, 2.0))
        assert n1 >= n15 >= n2

    def test_json_keys(self):
        rep = weighted_resolvent_schatten(_model(n=8), 1.0, 1, 1j, [1.0])
        assert rep.p_norms[1.0] > 0
        assert isinstance(rep.exponent_ok, bool)


class TestRefinementStudy:
    def test_needs_two_sizes(self):
        with pytest.raises(ValueError, match="two"):
            schatten_refinement_study(1, 1.0, 1, 1j, [1.0], [32])

    @pytest.mark.parametrize(
        "r, k",
        [(1.0, 1), (2.0, 1), (1.0, 2), (2.0, 3)],
        ids=["r1k1", "r2k1", "r1k2", "r2k3"],
    )
    def test_threshold_law_under_volume_refinement(self, r, k):
        # fixed spacing: above the summability threshold the norm settles,
        # at the threshold (when it is an admissible order) it keeps growing
        p_star = 1.0 / min(r, float(k))
        p_stab = max(1.0, 1.25 * p_star)
        study = schatten_refinement_study(
            1, r, k, 1j, [p_stab], [64, 128, 256], h=1.5
        )
        assert study.stabilized[p_stab], study.norms_by_p
        if p_star >= 1.0 and p_star != p_stab:
            growth = schatten_refinement_study(
                1, r, k, 1j, [p_star], [64, 128, 256], h=1.5
            )
            assert growth.grows[p_star], growth.norms_by_p

    def test_balanced_above_threshold_stabilizes(self):
        study = schatten_refinement_study(1, 2.0, 2, 1j, [1.5], [64, 128, 256])
        assert study.stabilized[1.5], study.norms_by_p

    def test_runs_without_dense_eigensolver(self, monkeypatch):
        # oracle norms first, through the dense eigendecomposition of H0
        z, r, k, p_list, n_list = 0.3 + 1j, 1.0, 2, [1.0, 2.0], [16, 32]
        want = {p: [] for p in p_list}
        for n in n_list:
            model = LatticeModel(d=1, n=n, h=balanced_spacing(n), mass=1.0)
            w = weight_diagonal(model, r)
            sv = spectral.singular_values(w[:, None] * _dense_resolvent_power(model, z, k))
            for p in p_list:
                want[p].append(spectral.schatten_norm(sv, p))

        def forbidden(*args, **kwargs):
            raise AssertionError("dense eigensolver called")

        for owner, name in [
            (spectral, "eig_hermitian"),
            (dirac, "eig_hermitian"),
            (np.linalg, "eigh"),
            (scipy.linalg, "eigh"),
        ]:
            monkeypatch.setattr(owner, name, forbidden)
        study = schatten_refinement_study(1, r, k, z, p_list, n_list)
        for p in p_list:
            np.testing.assert_allclose(study.norms_by_p[p], want[p], rtol=1e-12)


class TestFactorization:
    def _inputs(self, rho, seed=0, n=32):
        model = _model(n=n)
        v = random_decaying_potential(model, rng_from(95, seed), c=1.0, rho=rho)
        return model, v

    def test_strong_decay_is_feasible_and_holder_holds(self):
        model, v = self._inputs(4.0)
        rep = weighted_factorization_report(model, v, 2, 3, 1j)
        assert rep.feasible
        assert rep.budget > 1.0
        assert rep.holder_ok
        assert rep.factorization_residual / rep.direct_trace_norm < 1e-9
        # conjugate-exponent pairing
        assert 1.0 / rep.p1 + 1.0 / rep.p2 == pytest.approx(1.0, abs=1e-12)

    def test_holder_holds_across_seeds(self):
        for seed in range(5):
            model, v = self._inputs(4.0, seed=seed, n=16)
            rep = weighted_factorization_report(model, v, 1, 3, 1j)
            assert rep.feasible and rep.holder_ok

    def test_critical_decay_is_infeasible(self):
        # rho equal to the dimension makes the budget exactly one
        model, v = self._inputs(1.0)
        rep = weighted_factorization_report(model, v, 2, 3, 1j)
        assert rep.budget == pytest.approx(1.0, abs=1e-12)
        assert not rep.feasible
        assert rep.p1 is None and rep.holder_ok is None
        assert rep.factorization_residual / rep.direct_trace_norm < 1e-9

    def test_inverts_only_the_perturbed_operator(self, monkeypatch):
        model, v = self._inputs(4.0, n=16)
        inverted = []
        inverse_powers = dirac._inverse_powers

        def recording(h, z, kmax):
            inverted.append(np.array(h))
            return inverse_powers(h, z, kmax)

        monkeypatch.setattr(dirac, "_inverse_powers", recording)
        weighted_factorization_report(model, v, 2, 3, 1j)
        h00 = np.asarray(free_hamiltonian(model).entries)
        assert len(inverted) == 1
        np.testing.assert_array_equal(inverted[0], h00 + v.to_operator())

    @pytest.mark.parametrize("n", [16, 32])
    def test_direct_trace_norm_matches_dense_free_inverse(self, n):
        model, v = self._inputs(4.0, n=n)
        k, mpow, z = 2, 3, 1j
        rep = weighted_factorization_report(model, v, k, mpow, z)
        h00 = np.asarray(free_hamiltonian(model).entries)
        vop = v.to_operator()
        eye = np.eye(model.total_dim)
        rk = np.linalg.matrix_power(np.linalg.solve(h00 + vop - z * eye, eye), k)
        r0j = np.linalg.matrix_power(np.linalg.solve(h00 - z * eye, eye), mpow + 1 - k)
        want = spectral.schatten_norm(rk @ vop @ r0j, 1)
        assert rep.direct_trace_norm == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        model, v = self._inputs(4.0, n=8)
        with pytest.raises(ValueError, match="decay"):
            weighted_factorization_report(model, random_bounded_potential(model, rng_from(9), 0.1), 1, 3, 1j)
        with pytest.raises(ValueError, match="k must"):
            weighted_factorization_report(model, v, 4, 3, 1j)
        with pytest.raises(ValueError, match="Im z"):
            weighted_factorization_report(model, v, 1, 3, 0.5)


# ---------------------------------------------------------------------------
# commutator decay profiles


class TestCommutatorDecay:
    def test_zero_exponent_raises(self):
        with pytest.raises(ValueError, match="weight exponent"):
            commutator_decay_report(_model(n=16, h=1.5), 0.0)

    def test_raw_profile_decays(self):
        rep = commutator_decay_report(LatticeModel(d=1, n=64, h=1.5, mass=1.0), 1.0)
        assert rep.far_ratio < 0.5
        assert rep.decays
        assert rep.sup_constant > 0

    def test_near_field_constant_stable_under_volume_growth(self):
        sups, stable = commutator_decay_study(1, 1.0, [64, 128])
        assert stable, sups

    def test_study_needs_two_sizes(self):
        with pytest.raises(ValueError, match="at least two lattice sizes"):
            commutator_decay_study(1, 1.0, [64])

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="near_window"):
            commutator_decay_report(_model(n=8), 1.0, near_window=0.0)

    def test_json_keys(self):
        rep = commutator_decay_report(_model(n=16, h=1.5), 1.0)
        assert (rep.r, rep.n, rep.near_window) == (1.0, 16, 10.0)
        assert rep.sup_constant > 0
        assert 0.0 < rep.far_ratio <= 1.0
        assert isinstance(rep.decays, bool)
