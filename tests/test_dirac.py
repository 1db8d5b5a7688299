"""Tests for the lattice Dirac operator, weights and Schatten machinery."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from ssflab import dirac, spectral
from ssflab.dirac import (
    DIRAC_MATRICES,
    LatticeModel,
    MatrixPotential,
    balanced_spacing,
    commutator_decay_study,
    commutator_identity_residual,
    free_hamiltonian,
    free_resolvent_power,
    perturbed_hamiltonian,
    random_bounded_potential,
    random_decaying_potential,
    resolvent_power_difference,
    schatten_refinement_study,
    weighted_factorization_report,
    weighted_resolvent_schatten,
)
from ssflab.spectral import eig_hermitian, resolvent_power
from ssflab.utils import random_hermitian, rng_from

from helpers import potential_operator, zero_potential


def _model(d=1, n=32, h=None, mass=1.0):
    return LatticeModel(d=d, n=n, h=balanced_spacing(n) if h is None else h, mass=mass)


def _grid_momenta(model):
    """Momenta 2 pi k / (N h) of the symbol grid, FFT order on each axis: shape
    ``(n,)*d + (d,)``."""
    axis = 2.0 * np.pi * np.fft.fftfreq(model.n, d=model.h)
    return np.stack(np.meshgrid(*([axis] * model.d), indexing="ij"), axis=-1)


# ---------------------------------------------------------------------------
# matrix sets and the symbol


class TestDiracMatrices:
    @pytest.mark.parametrize("d, spinor", [(1, 2), (2, 2), (3, 4)])
    def test_algebra(self, d, spinor):
        mats = DIRAC_MATRICES[d]
        assert mats.shape == (d + 1, spinor, spinor)
        assert LatticeModel(d=d, n=2, h=1.0, mass=1.0).spinor_dim == spinor
        eye = np.eye(spinor)
        for a in mats:
            assert np.abs(a - a.conj().T).max() <= 1e-14
            assert np.abs(a @ a - eye).max() <= 1e-14
        for i, a in enumerate(mats):
            for b in mats[i + 1 :]:
                assert np.abs(a @ b + b @ a).max() <= 1e-14

    def test_kinetic_and_mass_split(self):
        # the d kinetic matrices first, the mass matrix last
        mats = DIRAC_MATRICES[2]
        np.testing.assert_array_equal(mats[:2], [dirac._SIGMA1, dirac._SIGMA2])
        np.testing.assert_array_equal(mats[2], np.diag([1.0, -1.0]))
        np.testing.assert_array_equal(DIRAC_MATRICES[3][3], np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_rejects_bad_dimension(self):
        for d in (0, 4, 2.0, True):
            match = re.escape(f"d must be an integer in 1..3, got d={d!r}")
            with pytest.raises(ValueError, match=match):
                LatticeModel(d=d, n=4, h=1.0, mass=1.0)

    def test_building_models_leaves_caller_arrays_writeable(self):
        for d in (1, 2, 3):
            LatticeModel(d=d, n=4, h=1.0, mass=1.0)
        for a in (dirac._SIGMA1, dirac._SIGMA2, dirac._SIGMA3):
            assert a.flags.writeable
        # the shared sets are frozen copies of their own
        for mats in DIRAC_MATRICES.values():
            assert not mats.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                mats[0, 0, 0] = 5.0


class TestSymbol:
    """The symbol blocks of ``_symbol_grid``, from which ``H0`` and ``R0^k`` are built."""

    MODELS = {1: (32, 0.3), 2: (8, 0.4), 3: (4, 0.5)}

    def _model(self, d, mass):
        n, h = self.MODELS[d]
        return LatticeModel(d=d, n=n, h=h, mass=mass)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_square_is_scalar(self, d):
        # the kinetic matrices carry the grid momenta and the mass matrix the
        # mass, so the block squares to (|xi|^2 + mass^2) I = E^2 I
        model = self._model(d, 0.7)
        symbol, energy = dirac._symbol_grid(model)
        xi = _grid_momenta(model)
        mats = DIRAC_MATRICES[d]
        want = np.einsum("...j,jab->...ab", xi, mats[:d]) + model.mass * mats[d]
        np.testing.assert_allclose(symbol, want, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(energy**2, np.sum(xi**2, axis=-1) + model.mass**2, rtol=1e-14)
        eye = np.eye(model.spinor_dim)
        square = symbol @ symbol
        assert np.abs(square - energy[..., None, None] ** 2 * eye).max() < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_diagonalization(self, d):
        # two branches -E and +E, each of multiplicity spinor_dim / 2
        model = self._model(d, 1.3)
        symbol, energy = dirac._symbol_grid(model)
        half = model.spinor_dim // 2
        vals = np.linalg.eigvalsh(symbol).reshape(-1, model.spinor_dim)
        branches = np.repeat([-1.0, 1.0], half) * energy.reshape(-1, 1)
        np.testing.assert_allclose(vals, branches, atol=1e-12)


# ---------------------------------------------------------------------------
# lattice model and the free operator


class TestLatticeModel:
    def test_validation(self):
        with pytest.raises(ValueError, match="even"):
            LatticeModel(d=1, n=5, h=1.0, mass=1.0)
        with pytest.raises(ValueError, match="even"):
            LatticeModel(d=1, n=0, h=1.0, mass=1.0)
        with pytest.raises(ValueError, match="h must be a finite positive number, got h=0.0"):
            LatticeModel(d=1, n=4, h=0.0, mass=1.0)
        with pytest.raises(ValueError, match="mass"):
            LatticeModel(d=1, n=4, h=1.0, mass=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("h", float("inf")),
            ("h", float("nan")),
            ("mass", float("inf")),
            ("mass", -float("inf")),
            ("n", 4.0),
            ("n", np.float64(4.0)),
        ],
        ids=["h_inf", "h_nan", "mass_inf", "mass_neg_inf", "n_float", "n_numpy_float"],
    )
    def test_rejects_field_by_name(self, field, value):
        # an infinite h used to reach _weight_diagonal (inf * 0 at the origin),
        # an infinite mass free_hamiltonian (NaN entries), n = 4.0 the grids
        fields = {"d": 1, "n": 4, "h": 1.0, "mass": 1.0, field: value}
        with pytest.raises(ValueError, match=re.escape(f"got {field}={value!r}")):
            LatticeModel(**fields)

    def test_site_geometry(self):
        m = LatticeModel(d=1, n=6, h=0.5, mass=1.0)
        np.testing.assert_array_equal(m.site_vectors().ravel(), [-3, -2, -1, 0, 1, 2])
        np.testing.assert_allclose(m.site_distances(), [1.5, 1.0, 0.5, 0.0, 0.5, 1.0])
        assert m.n_sites == 6 and m.total_dim == 12

    def test_momentum_grid(self):
        # the symbol's branch energy on the dual grid 2 pi k / (N h), FFT order
        m = LatticeModel(d=1, n=4, h=2.0, mass=1.0)
        _, energy = dirac._symbol_grid(m)
        xi = 2 * np.pi / 8.0 * np.array([0, 1, -2, -1])
        np.testing.assert_allclose(energy, np.sqrt(xi**2 + 1.0), rtol=1e-15)

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

    def test_equality_compares_the_fields(self):
        a = LatticeModel(d=3, n=2, h=1.0, mass=1.0)
        assert a == LatticeModel(d=3, n=2, h=1.0, mass=1.0)
        for other in [
            LatticeModel(d=2, n=2, h=1.0, mass=1.0),
            LatticeModel(d=3, n=4, h=1.0, mass=1.0),
            LatticeModel(d=3, n=2, h=0.5, mass=1.0),
            LatticeModel(d=3, n=2, h=1.0, mass=2.0),
        ]:
            assert a != other


class TestFreeHamiltonian:
    @pytest.mark.parametrize("d, n", [(1, 6), (2, 4)])
    def test_matches_fourier_sum_oracle(self, d, n):
        model = LatticeModel(d=d, n=n, h=0.7, mass=1.1)
        s = model.spinor_dim
        sites = model.site_vectors()
        symbol, _ = dirac._symbol_grid(model)
        momenta = _grid_momenta(model).reshape(-1, d)
        blocks = symbol.reshape(-1, s, s)
        got = free_hamiltonian(model)
        dim = model.total_dim
        want = np.zeros((dim, dim), dtype=complex)
        for a in range(model.n_sites):
            for b in range(model.n_sites):
                block = np.zeros((s, s), dtype=complex)
                for xi, sym in zip(momenta, blocks):
                    phase = np.exp(1j * model.h * float(xi @ (sites[a] - sites[b])))
                    block += sym * phase
                want[a * s : (a + 1) * s, b * s : (b + 1) * s] = block / model.n_sites
        np.testing.assert_allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("d, n", [(1, 16), (2, 6), (3, 4)])
    def test_spectrum_matches_symbol_branches(self, d, n):
        model = LatticeModel(d=d, n=n, h=0.9, mass=0.8)
        energies = np.sqrt(np.sum(_grid_momenta(model) ** 2, axis=-1).ravel() + model.mass**2)
        half = model.spinor_dim // 2
        want = np.sort(np.concatenate([np.repeat(energies, half), np.repeat(-energies, half)]))
        got = eig_hermitian(free_hamiltonian(model)).eigenvalues
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_hermitian(self):
        h = free_hamiltonian(_model(n=8))
        assert np.abs(h - h.conj().T).max() < 1e-13

    def test_returns_a_fresh_writeable_array(self):
        model = _model(n=8)
        a, b = free_hamiltonian(model), free_hamiltonian(model)
        assert isinstance(a, np.ndarray) and a.flags.writeable
        assert not np.shares_memory(a, b)


class TestBlockCirculant:
    @staticmethod
    def _symbols(model):
        symbol, energy = dirac._symbol_grid(model)
        scalar = (energy**2 + 1.0) ** -0.75
        return {"spinor": symbol, "scalar": scalar[..., None, None].astype(complex)}

    @pytest.mark.parametrize("d, n", [(1, 16), (2, 6), (3, 4)])
    @pytest.mark.parametrize("kind", ["spinor", "scalar"])
    def test_matches_site_difference_gather(self, d, n, kind):
        # oracle: index the kernel by the (N^d, N^d, d) site differences
        model = LatticeModel(d=d, n=n, h=0.9, mass=0.8)
        symbol = self._symbols(model)[kind]
        s = symbol.shape[-1]
        kernel = np.fft.ifftn(symbol, axes=tuple(range(d))).reshape(n**d, s, s)
        sites = model.site_vectors()
        delta = np.mod(sites[:, None, :] - sites[None, :, :], n)
        lin = np.ravel_multi_index(tuple(np.moveaxis(delta, -1, 0)), (n,) * d)
        want = kernel[lin].transpose(0, 2, 1, 3).reshape(n**d * s, n**d * s)
        np.testing.assert_array_equal(dirac._block_circulant(model, symbol), want)

    @pytest.mark.parametrize("kind", ["spinor", "scalar"])
    def test_peak_memory_near_the_result(self, kind):
        model = LatticeModel(d=2, n=32, h=0.9, mass=0.8)
        symbol = self._symbols(model)[kind]
        tracemalloc.start()
        try:
            out = dirac._block_circulant(model, symbol)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * out.nbytes


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
            (1j, 0, "got k=0"),
            (1j, 1.5, "got k=1.5"),
            (1j, True, "got k=True"),
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
        w = dirac._weight_diagonal(model, 2.0)
        dist = model.site_distances()
        np.testing.assert_allclose(w, np.repeat(1.0 / (1.0 + dist**2), 2))

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError, match="positive"):
            dirac._weight_diagonal(_model(n=4), 0.0)

    @pytest.mark.parametrize("r", [np.inf, np.nan])
    def test_rejects_non_finite_exponent_naming_it(self, r):
        with pytest.raises(ValueError, match=f"r must be a finite positive number, got r={r!r}"):
            dirac._weight_diagonal(_model(n=4), r)


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
        # a NaN constant used to pass every site's bound check
        for field in ("decay_c", "decay_rho"):
            for value in (np.nan, np.inf):
                fields = {"decay_c": 1.0, "decay_rho": 2.0, field: value}
                match = f"{field} must be a finite positive number, got {field}={value!r}"
                with pytest.raises(ValueError, match=match):
                    MatrixPotential(model, mats, **fields)
        # a flat potential violates any declared decay at the far sites
        flat = np.tile(np.eye(s, dtype=complex), (model.n_sites, 1, 1))
        with pytest.raises(ValueError, match="violated"):
            MatrixPotential(model, flat, decay_c=1.0, decay_rho=4.0)

    @pytest.mark.parametrize("scale, asymmetry, ok", [(1e4, 1e-9, True), (1e-6, 1e-15, False)])
    def test_hermiticity_rule_is_relative(self, scale, asymmetry, ok):
        # the rule of eig_hermitian on the embedded dense potential; the
        # absolute 1e-12 it replaces decided both cases the other way
        model = _model(n=4)
        s = model.spinor_dim
        rng = rng_from(31)
        mats = np.stack([random_hermitian(rng, s, scale=scale) for _ in range(model.n_sites)])
        mats[2, 0, 1] += asymmetry
        if ok:
            MatrixPotential(model, mats)
        else:
            with pytest.raises(ValueError, match="potential is not Hermitian"):
                MatrixPotential(model, mats)

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(1.0, -np.inf)])
    def test_rejects_non_finite_site_matrix_naming_the_site(self, bad):
        # a NaN entry used to pass the Hermiticity check and stop the SVD of
        # weighted_factorization_report from converging
        model = _model(n=4)
        mats = np.zeros((model.n_sites, model.spinor_dim, model.spinor_dim), dtype=complex)
        mats[3, 1, 1] = bad
        # the gate's index starts with the site
        match = re.escape("potential has a non-finite entry at index (3, 1, 1)")
        with pytest.raises(ValueError, match=match):
            MatrixPotential(model, mats)

    def test_random_decaying_respects_bound(self):
        model = _model(n=16)
        v = random_decaying_potential(model, rng_from(1), c=1.0, rho=4.0)
        assert v.is_decaying
        bound = (1.0 + model.site_distances()) ** -4.0
        ratio = np.linalg.norm(v.site_matrices, ord=2, axis=(1, 2)) / bound
        assert 0.5 <= ratio.max() <= 1.0 + 1e-9

    def test_random_bounded(self):
        model = _model(n=16)
        v = random_bounded_potential(model, rng_from(2), bound=0.3)
        assert not v.is_decaying
        tops = np.linalg.norm(v.site_matrices, ord=2, axis=(1, 2))
        assert tops.max() <= 0.3 + 1e-12
        assert tops.min() >= 0.2 * 0.3

    def test_to_operator_is_block_diagonal(self):
        model = _model(n=4)
        v = random_bounded_potential(model, rng_from(3), bound=1.0)
        op = potential_operator(v)
        s = model.spinor_dim
        for i in range(model.n_sites):
            blk = op[i * s : (i + 1) * s, i * s : (i + 1) * s]
            np.testing.assert_array_equal(blk, v.site_matrices[i])
        off = op.copy()
        for i in range(model.n_sites):
            off[i * s : (i + 1) * s, i * s : (i + 1) * s] = 0
        assert np.abs(off).max() == 0.0

    @pytest.mark.parametrize("d, n", [(1, 16), (2, 6), (3, 4)])
    def test_batched_norms_match_per_site_loop(self, d, n):
        # oracle: one spectral norm per site, drawn in the same order
        model = LatticeModel(d=d, n=n, h=0.9, mass=0.8)
        bounds = 1.5 * (1.0 + model.site_distances()) ** -3.0
        rng = rng_from(97, d)
        want = np.empty((model.n_sites, model.spinor_dim, model.spinor_dim), dtype=complex)
        for i in range(model.n_sites):
            a = random_hermitian(rng, model.spinor_dim)
            top = np.linalg.norm(a, ord=2)
            want[i] = a * (bounds[i] * rng.uniform(0.5, 1.0) / max(top, spectral.ABS_FLOOR))
        got = dirac._random_site_matrices(model, rng_from(97, d), bounds, 0.5)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("d, n", [(1, 32), (2, 6), (3, 4)])
    def test_site_block_product_matches_dense(self, d, n):
        model = LatticeModel(d=d, n=n, h=0.9, mass=0.8)
        rng = rng_from(98, d)
        v = random_bounded_potential(model, rng, bound=2.0)
        x = rng.standard_normal((model.total_dim, 7)) + 1j * rng.standard_normal(
            (model.total_dim, 7)
        )
        vop = potential_operator(v)
        got = dirac._apply_site_blocks(v.site_matrices, x)
        assert got.shape == x.shape
        tol = (
            model.total_dim
            * np.finfo(float).eps
            * np.linalg.norm(vop, ord=2)
            * np.linalg.norm(x, ord=2)
        )
        assert np.abs(got - vop @ x).max() <= tol

    def test_zero_potential(self):
        model = _model(n=4)
        assert np.abs(potential_operator(zero_potential(model))).max() == 0.0

    def test_perturbed_hamiltonian_adds_blocks(self):
        model = _model(n=8)
        v = random_bounded_potential(model, rng_from(5), bound=0.5)
        h = perturbed_hamiltonian(model, v)
        h00 = free_hamiltonian(model)
        np.testing.assert_allclose(h, h00 + potential_operator(v), atol=1e-14)
        other = _model(n=4)
        with pytest.raises(ValueError, match=r"lattice LatticeModel\(d=1, n=4, .* n=8,"):
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

    def test_inverts_up_to_the_power_it_reads(self, monkeypatch):
        # the expansion inverts H and H0 once each and applies V once per
        # power of R0 (Horner's rule), never as a dense matrix
        model = _model(n=8)
        v0 = random_bounded_potential(model, rng_from(93, 4), bound=0.3)
        v = random_decaying_potential(model, rng_from(93, 5), c=1.0, rho=4.0)
        inverted = []
        applied = []
        resolvent = dirac._resolvent
        apply_site_blocks = dirac._apply_site_blocks

        def recording_resolvent(h, z):
            inverted.append(np.array(h))
            return resolvent(h, z)

        def recording_blocks(blocks, x):
            applied.append(blocks)
            return apply_site_blocks(blocks, x)

        monkeypatch.setattr(dirac, "_resolvent", recording_resolvent)
        monkeypatch.setattr(dirac, "_apply_site_blocks", recording_blocks)
        rep = resolvent_power_difference(model, v0, v, 1j, 3)
        assert len(inverted) == 2
        np.testing.assert_array_equal(inverted[0], perturbed_hamiltonian(model, v0))
        np.testing.assert_array_equal(inverted[1], perturbed_hamiltonian(model, v0, v))
        assert len(applied) == 3
        assert all(blocks is v.site_matrices for blocks in applied)
        assert rep.relative_residual < 1e-9

    @pytest.mark.parametrize("mpow", [1, 3, 5])
    @pytest.mark.parametrize("d, n", [(1, 16), (2, 4), (3, 2)])
    def test_horner_sum_matches_term_by_term_sum(self, d, n, mpow):
        # oracle: the sum as it was written before, one dense term per k
        model = LatticeModel(d=d, n=n, h=0.9, mass=0.8)
        rng = rng_from(93, 6, d)
        v0 = random_bounded_potential(model, rng, bound=0.3)
        v = random_decaying_potential(model, rng, c=1.0, rho=4.0)
        z = 0.3 + 1j
        eye = np.eye(model.total_dim)
        res0 = np.linalg.solve(perturbed_hamiltonian(model, v0) - z * eye, eye)
        res = np.linalg.solve(perturbed_hamiltonian(model, v0, v) - z * eye, eye)
        vop = potential_operator(v)
        want = sum(
            np.linalg.matrix_power(res, k) @ vop @ np.linalg.matrix_power(res0, mpow + 1 - k)
            for k in range(1, mpow + 1)
        )
        inputs = (res.copy(), res0.copy())
        got = dirac._horner_expansion(res, res0, v.site_matrices, mpow)
        np.testing.assert_array_equal(res, inputs[0])
        np.testing.assert_array_equal(res0, inputs[1])
        # every term is bounded by |V| / |Im z|^(mpow+1), with |Im z| = 1
        tol = mpow * model.total_dim * np.finfo(float).eps * np.linalg.norm(vop, ord=2)
        assert np.abs(got - want).max() <= tol

    def test_validation(self):
        model = _model(n=8)
        v0 = zero_potential(model)
        # one odd-power rule for dirac and doi, naming the power it checks
        with pytest.raises(ValueError, match=r"mpow must be an odd integer >= 1, got mpow=2"):
            resolvent_power_difference(model, v0, v0, 1j, 2)
        with pytest.raises(ValueError, match="Im z"):
            resolvent_power_difference(model, v0, v0, 1.0, 3)

    @pytest.mark.parametrize("z", [1.0, complex("nan+1j"), complex("1+infj")])
    def test_rejects_bad_point_naming_it(self, z):
        model = _model(n=8)
        v0 = zero_potential(model)
        with pytest.raises(ValueError, match=r"finite with Im z != 0, got z="):
            resolvent_power_difference(model, v0, v0, z, 3)


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

    @pytest.mark.parametrize("k", [True, 1.5, 2.0, -1])
    def test_rejects_non_integer_k_naming_it(self, k):
        # a bool used to run as k = 1, and k = 1.5 was reported as "got 2.5"
        model = _model(n=8)
        v0 = zero_potential(model)
        with pytest.raises(ValueError, match=rf"k must be an integer >= 0, got k={k!r}"):
            commutator_identity_residual(model, v0, v0, 1.0, k, 1j)

    def test_accepts_numpy_integer_k(self):
        model = _model(n=8)
        v0 = random_bounded_potential(model, rng_from(2), 0.3)
        v = random_decaying_potential(model, rng_from(3), 1.0, 4.0)
        want = commutator_identity_residual(model, v0, v, 1.0, 2, 1j)
        assert commutator_identity_residual(model, v0, v, 1.0, np.int64(2), 1j) == want

    @pytest.mark.parametrize("z", [2.0, complex("nan+1j"), complex("1+infj")])
    def test_rejects_bad_point_naming_it(self, z):
        # a NaN point used to reach the SVD and fail there to converge
        model = _model(n=8)
        v0 = zero_potential(model)
        with pytest.raises(ValueError, match=r"finite with Im z != 0, got z="):
            commutator_identity_residual(model, v0, v0, 1.0, 1, z)

    def test_norms_are_counted_svds(self, monkeypatch):
        model = _model(n=8)
        v0 = random_bounded_potential(model, rng_from(2), 0.3)
        v = random_decaying_potential(model, rng_from(3), 1.0, 4.0)
        want = commutator_identity_residual(model, v0, v, 1.0, 2, 1j)
        calls = []
        singular_values = dirac.singular_values

        def recording(matrix):
            calls.append(np.shape(matrix))
            return singular_values(matrix)

        monkeypatch.setattr(dirac, "singular_values", recording)
        assert commutator_identity_residual(model, v0, v, 1.0, 2, 1j) == want
        assert calls == [(model.total_dim, model.total_dim)] * 2

    def test_builds_the_free_operator_once(self, monkeypatch):
        # the commutator is taken from the perturbed operator: the potentials'
        # site blocks commute with the weight, so no second free build is needed
        model = _model(n=8)
        v0 = random_bounded_potential(model, rng_from(2), 0.3)
        v = random_decaying_potential(model, rng_from(3), 1.0, 4.0)
        want = commutator_identity_residual(model, v0, v, 1.0, 2, 1j)
        builds = []
        build = dirac.free_hamiltonian

        def counted(m):
            builds.append(m)
            return build(m)

        monkeypatch.setattr(dirac, "free_hamiltonian", counted)
        assert commutator_identity_residual(model, v0, v, 1.0, 2, 1j) == want
        assert builds == [model]

    def test_weight_commutator_is_anti_hermitian(self):
        model = _model(n=16)
        h00 = free_hamiltonian(model)
        w = dirac._weight_diagonal(model, 1.0)
        comm = h00 * w[None, :] - w[:, None] * h00
        assert np.abs(comm + comm.conj().T).max() < 1e-12


class TestForeignLattice:
    """A potential built on another lattice is refused by every identity."""

    MODEL = LatticeModel(d=1, n=32, h=1.0, mass=1.0)

    @pytest.fixture(
        params=[
            LatticeModel(d=1, n=32, h=0.5, mass=1.0),
            LatticeModel(d=1, n=16, h=1.0, mass=1.0),
            LatticeModel(d=1, n=32, h=1.0, mass=2.0),
        ],
        ids=["spacing", "size", "mass"],
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


class TestIdentityMemory:
    """Peak traced memory of each identity check, in dense ``dim x dim`` matrices.

    The potential enters through its site blocks and every dense operator is
    dropped after its last use; multiplying by a dense ``V`` and holding every
    resolvent power took 15, 11 and 10.5 matrices.
    """

    MODEL = LatticeModel(d=1, n=128, h=balanced_spacing(128), mass=1.0)

    def _peak(self, call) -> float:
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / (16 * self.MODEL.total_dim**2)

    def _potentials(self):
        rng = rng_from(99)
        v0 = random_bounded_potential(self.MODEL, rng, bound=0.3)
        v = random_decaying_potential(self.MODEL, rng, c=1.0, rho=4.0)
        return v0, v

    def test_power_difference(self):
        v0, v = self._potentials()
        assert self._peak(lambda: resolvent_power_difference(self.MODEL, v0, v, 1j, 3)) <= 7.5

    def test_commutator_identity(self):
        v0, v = self._potentials()
        peak = self._peak(lambda: commutator_identity_residual(self.MODEL, v0, v, 1.0, 2, 1j))
        assert peak <= 5.5

    def test_factorization(self):
        _, v = self._potentials()
        peak = self._peak(lambda: weighted_factorization_report(self.MODEL, v, 2, 3, 1j))
        assert peak <= 5.5


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

    @pytest.mark.parametrize(
        "z", [complex(0.0, np.nan), 0.5, complex(0.0, np.inf)], ids=["nan", "real", "inf"]
    )
    def test_rejects_bad_point_before_assembly(self, monkeypatch, z):
        def forbidden(*args, **kwargs):
            raise AssertionError("assembly or SVD ran before the z check")

        for name in (
            "_symbol_grid",
            "_block_circulant",
            "_site_weights",
            "_weight_diagonal",
            "free_resolvent_power",
            "singular_values",
        ):
            monkeypatch.setattr(dirac, name, forbidden)
        with pytest.raises(ValueError, match=r"finite with Im z != 0, got z="):
            weighted_resolvent_schatten(_model(n=8), 1.0, 1, z, [1.0])

    @pytest.mark.parametrize("d, n", [(1, 32), (2, 8), (3, 4), (1, 6), (2, 6), (2, 2)])
    @pytest.mark.parametrize("r, k", [(1.0, 1), (1.5, 2), (2.0, 3)])
    @pytest.mark.parametrize("z", [1j, 2.5j, -0.7j])
    def test_imaginary_z_profile_matches_dense_svd(self, d, n, r, k, z):
        # at Re z = 0 the profile comes from the real parity-sector SVDs; the
        # oracle is the dense complex SVD, and the tolerance is the backward
        # error of the two SVDs
        model = LatticeModel(d=d, n=n, h=0.9, mass=0.8)
        got = dirac._weighted_resolvent_profile(model, r, k, z).values
        want = spectral.singular_values(
            dirac._weight_diagonal(model, r)[:, None] * free_resolvent_power(model, z, k)
        ).values
        assert got.shape == want.shape
        tol = 2 * model.total_dim * np.finfo(float).eps * want[0]
        assert np.abs(got - want).max() <= tol

    @pytest.mark.parametrize("d, n", [(3, 6), (3, 8), (2, 16)])
    def test_imaginary_z_profile_matches_the_site_matrix_svd(self, d, n):
        # at sizes where the dense complex SVD takes seconds (order 2048 at
        # d = 3, N = 8), the oracle is one real SVD of the dense N^d-site
        # matrix w C, each value repeated over the s spinor components
        model = LatticeModel(d=d, n=n, h=0.9, mass=0.8)
        got = dirac._weighted_resolvent_profile(model, 1.5, 2, 2.5j).values
        _, energy = dirac._symbol_grid(model)
        circulant = dirac._block_circulant(model, ((energy**2 + 6.25) ** -1.0)[..., None, None])
        site_matrix = dirac._site_weights(model, 1.5)[:, None] * circulant.real
        want = np.repeat(np.linalg.svd(site_matrix, compute_uv=False), model.spinor_dim)
        tol = 2 * model.total_dim * np.finfo(float).eps * want[0]
        assert np.abs(got - want).max() <= tol

    @pytest.mark.parametrize("d, n", [(1, 16), (2, 4), (3, 4), (2, 6), (2, 2)])
    def test_imaginary_z_svds_are_site_sized(self, monkeypatch, d, n):
        # one real SVD per parity sector, each at most (N/2 + 1)^d square,
        # the sector sizes summing to the N^d sites; no dense site matrix.
        # At N = 2 an odd axis has no representative, so only the even
        # sector remains
        model = _model(d=d, n=n)
        shapes = []
        singular_values = dirac.singular_values

        def recording(matrix):
            shapes.append(np.shape(matrix))
            assert np.isrealobj(matrix)
            return singular_values(matrix)

        def forbidden(*args, **kwargs):
            raise AssertionError("the dense block circulant was built")

        monkeypatch.setattr(dirac, "singular_values", recording)
        monkeypatch.setattr(dirac, "_block_circulant", forbidden)
        norms = weighted_resolvent_schatten(model, 1.0, 2, -1j, [1.0, 2.0])
        assert len(shapes) == (2 if n > 2 else 1) ** d
        assert all(rows == cols <= (n // 2 + 1) ** d for rows, cols in shapes)
        assert sum(rows for rows, _ in shapes) == model.n_sites
        if d == 1:
            assert sorted(shapes) == [(n // 2 - 1,) * 2, (n // 2 + 1,) * 2]
        assert norms[1.0] > norms[2.0] > 0

    @pytest.mark.parametrize("d, n", [(1, 6), (2, 4), (3, 4)])
    def test_parity_blocks_are_the_sector_compressions(self, d, n):
        # oracle: the dense w C on coordinates mod N, compressed onto the
        # orthonormal even/odd basis of each axis; the sectors' cross blocks
        # vanish, since every axis reflection commutes with w C
        model = _model(d=d, n=n)
        w = np.fft.ifftshift(dirac._site_weights(model, 1.5).reshape((n,) * d))
        _, energy = dirac._symbol_grid(model)
        kernel = np.fft.ifftn((energy**2 + 0.49) ** -1.0).real
        coords = np.stack(np.meshgrid(*([np.arange(n)] * d), indexing="ij"), -1).reshape(-1, d)
        diff = np.mod(coords[:, None, :] - coords[None, :, :], n)
        dense = w.reshape(-1, 1) * kernel[tuple(diff.transpose(2, 0, 1))]
        eye = np.eye(n)
        even = [eye[0]] + [(eye[a] + eye[-a]) / np.sqrt(2) for a in range(1, n // 2)] + [eye[n // 2]]
        odd = [(eye[a] - eye[-a]) / np.sqrt(2) for a in range(1, n // 2)]
        bases = []
        for signs in itertools.product((1, -1), repeat=d):
            basis = np.ones((1, 1))
            for sign in signs:
                basis = np.kron(basis, np.array(even if sign > 0 else odd).T)
            bases.append(basis)
        blocks = list(dirac._parity_blocks(kernel, w))
        assert len(blocks) == len(bases)
        tol = 8 * np.finfo(float).eps * np.abs(dense).max()
        for i, left in enumerate(bases):
            for j, right in enumerate(bases):
                want = left.T @ dense @ right
                got = blocks[i] if i == j else np.zeros_like(want)
                assert np.abs(got - want).max() <= tol, (i, j)

    @pytest.mark.parametrize("r, k", [(1.0, 1), (2.0, 1)])
    def test_exponent_prediction(self, r, k):
        # the singular values decay like j^-(min(r, k)/d): fit the log-log
        # slope over the 2%..40% window of their count, past the head and
        # before the lattice cutoff
        model = _model(n=64)
        sv = dirac._weighted_resolvent_profile(model, r, k, 1j).values
        lo, hi = int(0.02 * sv.size), int(0.4 * sv.size)
        index = np.arange(lo + 1, hi + 1)
        slope = np.polyfit(np.log(index), np.log(sv[lo:hi]), 1)[0]
        assert abs(-slope - min(r, k) / model.d) <= 0.5, slope

    def test_norms_ordered(self):
        # schatten norms are nonincreasing in p
        norms = weighted_resolvent_schatten(_model(n=32), 1.0, 1, 1j, [1.0, 1.5, 2.0])
        assert norms[1.0] >= norms[1.5] >= norms[2.0]

    def test_json_keys(self):
        norms = weighted_resolvent_schatten(_model(n=8), 1.0, 1, 1j, [1, 2.5])
        assert list(norms) == [1.0, 2.5]
        assert all(type(p) is float and norms[p] > 0 for p in norms)


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
            w = dirac._weight_diagonal(model, r)
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
        resolvent = dirac._resolvent

        def recording(h, z):
            inverted.append(np.array(h))
            return resolvent(h, z)

        monkeypatch.setattr(dirac, "_resolvent", recording)
        weighted_factorization_report(model, v, 2, 3, 1j)
        h00 = free_hamiltonian(model)
        assert len(inverted) == 1
        np.testing.assert_array_equal(inverted[0], h00 + potential_operator(v))

    @pytest.mark.parametrize("n", [16, 32])
    def test_direct_trace_norm_matches_dense_free_inverse(self, n):
        model, v = self._inputs(4.0, n=n)
        k, mpow, z = 2, 3, 1j
        rep = weighted_factorization_report(model, v, k, mpow, z)
        h00 = free_hamiltonian(model)
        vop = potential_operator(v)
        eye = np.eye(model.total_dim)
        rk = np.linalg.matrix_power(np.linalg.solve(h00 + vop - z * eye, eye), k)
        r0j = np.linalg.matrix_power(np.linalg.solve(h00 - z * eye, eye), mpow + 1 - k)
        want = spectral.schatten_norm(spectral.singular_values(rk @ vop @ r0j), 1)
        assert rep.direct_trace_norm == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("z", [1j, 0.3 + 1j], ids=["imaginary", "general"])
    def test_holder_factor_norms_match_dense(self, z):
        model, v = self._inputs(4.0, n=16)
        k, mpow = 2, 3
        rep = weighted_factorization_report(model, v, k, mpow, z)
        j = mpow + 1 - k
        w1 = dirac._weight_diagonal(model, rep.r1)
        w2 = dirac._weight_diagonal(model, rep.r2)
        comp = potential_operator(v) / (w1[:, None] * w2[None, :])
        right = w2[:, None] * free_resolvent_power(model, z, j)
        assert rep.norm_mid == pytest.approx(np.linalg.norm(comp, ord=2), rel=1e-12)
        want = spectral.schatten_norm(spectral.singular_values(right), rep.p2)
        assert rep.norm_right == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_unequal_weight_split_matches_dense(self, k):
        # at k = 2 of mpow = 3 the two weights coincide (r1 = r2), so only an
        # unequal split tells the left weight from the right one
        model, v = self._inputs(4.0, n=16)
        rep = weighted_factorization_report(model, v, k, 3, 1j)
        assert rep.r1 != rep.r2 and rep.feasible
        assert rep.factorization_residual / rep.direct_trace_norm < 1e-9
        w1 = dirac._weight_diagonal(model, rep.r1)
        w2 = dirac._weight_diagonal(model, rep.r2)
        comp = potential_operator(v) / (w1[:, None] * w2[None, :])
        assert rep.norm_mid == pytest.approx(np.linalg.norm(comp, ord=2), rel=1e-12)

    def test_validation(self):
        model, v = self._inputs(4.0, n=8)
        with pytest.raises(ValueError, match="decay"):
            weighted_factorization_report(model, random_bounded_potential(model, rng_from(9), 0.1), 1, 3, 1j)
        with pytest.raises(ValueError, match="k must"):
            weighted_factorization_report(model, v, 4, 3, 1j)
        with pytest.raises(ValueError, match="Im z"):
            weighted_factorization_report(model, v, 1, 3, 0.5)

    @pytest.mark.parametrize("k", [True, 2.0, 0, 4])
    def test_rejects_bad_k_naming_it(self, k):
        # a bool used to come back as the report's k, and 2.0 raised a bare
        # TypeError from list indexing
        model, v = self._inputs(4.0, n=8)
        with pytest.raises(ValueError, match=rf"k must be an integer in 1..3, got k={k!r}"):
            weighted_factorization_report(model, v, k, 3, 1j)

    def test_accepts_numpy_integer_k(self):
        model, v = self._inputs(4.0, n=8)
        rep = weighted_factorization_report(model, v, np.int64(2), 3, 1j)
        assert rep == weighted_factorization_report(model, v, 2, 3, 1j)

    @pytest.mark.parametrize("z", [0.5, complex("nan+1j"), complex("1+infj")])
    def test_rejects_bad_point_naming_it(self, z):
        model, v = self._inputs(4.0, n=8)
        with pytest.raises(ValueError, match=r"finite with Im z != 0, got z="):
            weighted_factorization_report(model, v, 1, 3, z)


# ---------------------------------------------------------------------------
# commutator decay profiles


class TestCommutatorDecay:
    def test_zero_exponent_raises(self):
        with pytest.raises(ValueError, match="r must be a finite positive number, got r=0.0"):
            dirac._commutator_near_constant(_model(n=16, h=1.5), 0.0)

    def test_near_field_constant_stable_under_volume_growth(self):
        sups, stable = commutator_decay_study(1, 1.0, [64, 128])
        assert stable, sups

    def test_study_needs_two_sizes(self):
        with pytest.raises(ValueError, match="at least two lattice sizes"):
            commutator_decay_study(1, 1.0, [64])

    def test_near_field_constant_is_positive(self):
        sup = dirac._commutator_near_constant(_model(n=16, h=1.5), 1.0)
        assert type(sup) is float and sup > 0

    @pytest.mark.parametrize(
        "d, n, r, near_sites",
        [(1, 64, 1.0, 13), (1, 128, 1.0, 13), (1, 16, 2.0, 7), (2, 12, 0.5, 37)],
    )
    def test_decomposes_only_the_near_column_blocks(self, monkeypatch, d, n, r, near_sites):
        # every site's column block used to be formed and decomposed (64 of
        # them at n = 64), though the constant reads only the near window's
        model = _model(d=d, n=n, h=1.5)
        want = _full_column_near_constant(model, r)
        shapes = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        got = dirac._commutator_near_constant(model, r)
        assert shapes == [(near_sites, model.total_dim, model.spinor_dim)]
        assert got == want


def _full_column_near_constant(model, r):
    """The near-window constant from every site's column block of the commutator."""
    h00 = dirac.free_hamiltonian(model)
    w = dirac._weight_diagonal(model, r)
    comm = h00 * w[None, :] - w[:, None] * h00
    dist = model.site_distances()
    blocks = comm.reshape(model.total_dim, model.n_sites, model.spinor_dim).transpose(1, 0, 2)
    weighted = np.linalg.svd(blocks, compute_uv=False)[:, 0] * (1.0 + dist**2) ** ((r + 1) / 2.0)
    near = dist <= min(10.0, 0.4 * float(dist.max()))
    return float(weighted[near].max())


@pytest.mark.parametrize(
    "study",
    [
        lambda n_list: commutator_decay_study(1, 1.0, n_list),
        lambda n_list: schatten_refinement_study(1, 1.0, 1, 1j, [1.0], n_list),
    ],
    ids=["commutator_decay", "schatten_refinement"],
)
@pytest.mark.parametrize("n_list, i", [([16, 16], 1), ([32, 16], 1), ([16, 32, 32], 2)])
def test_refinement_studies_refine(study, n_list, i):
    # a repeated or falling size used to be studied: [64, 64] passed every
    # stability flag with nothing refined
    with pytest.raises(ValueError, match=re.escape(f"got n_list[{i}]={n_list[i]} after")):
        study(n_list)
