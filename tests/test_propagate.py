import numpy as np
import pytest
import scipy.linalg

from spinbath import propagate
from spinbath.errors import ChebyshevOrderError, DimensionError, ModelError
from spinbath.hamiltonian import SpinModel, build_chain_model, build_ring_model, energy_bounds
from spinbath.propagate import (
    alternating_product_state,
    canonical_thermal_state,
    evolve_real_time,
    imaginary_time_plan,
    moment_check,
    normalization_diagnostic,
    projection_spectrum,
    random_state,
    real_time_plan,
)
from spinbath.spectrum import dense_matrix, diagonalize, thermo


def project(model, psi, beta, spectrum=None):
    """One column projected to one beta: (state, norm_sq)."""
    (states, norm_sq), = canonical_thermal_state(model, psi[:, None], [beta], spectrum)
    return states[:, 0], norm_sq[0]


def random_block(model, seeds):
    return np.column_stack([random_state(model.dim, seed) for seed in seeds])


class TestRandomState:
    def test_normalized_and_deterministic(self):
        a = random_state(64, 7)
        b = random_state(64, 7)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12
        assert np.array_equal(a, b)
        assert not np.array_equal(a, random_state(64, 8))

    def test_dim_one(self):
        a = random_state(1, 3)
        assert a.shape == (1,) and abs(abs(a[0]) - 1.0) < 1e-12

    def test_moments(self):
        mc = moment_check(16, 6000, 2718)
        assert max(mc.deviations()) < 3.0

    def test_moment_references(self):
        mc = moment_check(16, 10, 0)
        assert mc.ref_x == 1 / 16
        assert mc.ref_x2 == 2 / (16 * 17)
        assert mc.ref_xx == 1 / (16 * 17)


class TestCanonicalThermalState:
    def test_beta_zero_is_random_state(self):
        m = build_ring_model(2, 3, -1.0, 1, 2, 1.0)
        psi0 = random_block(m, (5, 6))
        for spectrum in (projection_spectrum(m, "exact"), None):
            (states, norm_sq), = canonical_thermal_state(m, psi0, [0.0], spectrum)
            assert states is psi0
            assert np.abs(norm_sq - 1.0).max() < 1e-14

    def test_matches_dense_projection(self):
        # N = 4 toy entirety at beta = 1 against scipy's dense exponential
        m = build_ring_model(2, 2, 1.0, 4, 6, 0.9)
        h = dense_matrix(m)
        psi0 = random_state(m.dim, 11)
        raw = scipy.linalg.expm(-0.5 * h) @ psi0
        oracle_state = raw / np.linalg.norm(raw)
        oracle_norm = float(np.linalg.norm(raw) ** 2)
        for method in ("exact", "chebyshev"):
            state, norm_sq = project(m, psi0, 1.0, projection_spectrum(m, method))
            assert np.abs(state - oracle_state).max() < 1e-10
            assert abs(norm_sq - oracle_norm) < 1e-10 * oracle_norm

    def test_methods_agree(self):
        m = build_ring_model(3, 4, -1.0, 2, 3, 1.0)   # N = 7
        psi0 = random_block(m, (17, 18, 19))
        betas = (0.0, 0.2, 3.0)
        exact = canonical_thermal_state(m, psi0, betas, projection_spectrum(m, "exact"))
        cheb = canonical_thermal_state(m, psi0, betas, projection_spectrum(m, "chebyshev"))
        for (se, ne), (sc, nc) in zip(exact, cheb, strict=True):
            assert se.shape == sc.shape == (m.dim, 3)
            assert np.abs(se - sc).max() < 1e-10
            assert np.abs(ne - nc).max() < 1e-10 * ne.max()

    def test_multi_beta_matches_single_beta(self):
        # the shared recurrence gives bit-identical states to one run per beta
        m = build_ring_model(2, 5, -1.0, 25, 17, 1.0)
        psi0 = random_block(m, (3, 4))
        betas = (0.3, 0.9, 2.0)
        shared = canonical_thermal_state(m, psi0, betas)
        for beta, (states, norm_sq) in zip(betas, shared, strict=True):
            (single, single_norm), = canonical_thermal_state(m, psi0, [beta])
            assert np.array_equal(states, single)
            assert np.array_equal(norm_sq, single_norm)

    def test_shared_recurrence_matvec_count(self, monkeypatch):
        m = build_ring_model(2, 5, -1.0, 25, 17, 1.0)
        betas = (0.3, 0.9, 2.0)
        orders = [imaginary_time_plan(energy_bounds(m), beta).order for beta in betas]
        calls = []
        apply = propagate.apply_hamiltonian

        def counted(*args):
            calls.append(args[2].shape)
            return apply(*args)

        monkeypatch.setattr(propagate, "apply_hamiltonian", counted)
        canonical_thermal_state(m, random_state(m.dim, 1)[:, None], betas)
        assert len(orders) == 3 and max(orders) < sum(orders)
        assert calls == [(m.dim,)] * max(orders)     # one vector per matvec

    def test_typicality_energy_estimate(self):
        # <psi_beta|H|psi_beta> approximates the canonical mean energy
        m = build_ring_model(2, 6, -1.0, 8, 9, 1.0)   # D = 256
        beta = 0.8
        tf = thermo(diagonalize(m, want_vectors=False))
        exact = tf.u(beta)
        from spinbath.hamiltonian import apply_hamiltonian

        psi0 = random_block(m, [(21, r) for r in range(50)])
        (states, _), = canonical_thermal_state(m, psi0, [beta], projection_spectrum(m, "exact"))
        vals = np.array([float(np.real(np.vdot(st, apply_hamiltonian(m, "FULL", st))))
                         for st in states.T])
        dev = abs(vals.mean() - exact) / (vals.std(ddof=1) / np.sqrt(len(vals)))
        assert dev < 4.0

    def test_semigroup(self):
        m = build_ring_model(2, 3, -1.0, 5, 6, 1.0)
        psi0 = random_state(m.dim, 4)
        s1, _ = project(m, psi0, 1.3)
        s12, _ = project(m, s1, 0.9)
        s2, _ = project(m, psi0, 2.2)
        assert np.abs(s12 - s2).max() < 1e-9

    def test_order_overflow_error(self):
        m = build_ring_model(2, 3, -1.0, 5, 6, 1.0)
        with pytest.raises(ChebyshevOrderError):
            imaginary_time_plan(energy_bounds(m), 50.0, max_order=8)

    def test_cancellation_guard(self):
        # random-coupling model whose ground state sits well inside the
        # spectral bounds: at huge beta the surviving amplitude falls below
        # machine epsilon and a single projection must refuse
        m = build_ring_model(2, 3, -1.0, 5, 6, 1.0)
        psi0 = random_state(m.dim, 1)
        with pytest.raises(ChebyshevOrderError):
            project(m, psi0, 500.0)

    def test_bound_saturating_ground_state_projects_at_huge_beta(self):
        # ferromagnetic chains saturate the Gershgorin lower bound exactly,
        # so the ground component keeps full precision at any beta
        m = build_chain_model(2, 6, 1.0, 1.0, 1.0, 1.0)
        psi0 = random_state(m.dim, 1)
        state, _ = project(m, psi0, 500.0)
        spec = diagonalize(m)
        ground = spec.eigenvectors[:, spec.eigenvalues - spec.eigenvalues[0]
                                   <= spec.degeneracy_tolerance]
        weight = np.linalg.norm(ground.conj().T @ state)
        assert abs(weight - 1.0) < 1e-9

    def test_rejects_bad_input(self):
        m = build_ring_model(2, 3, -1.0, 5, 6, 1.0)
        with pytest.raises(DimensionError):
            canonical_thermal_state(m, random_state(m.dim, 1), [1.0])
        with pytest.raises(ValueError):
            canonical_thermal_state(m, random_block(m, (1,)), [-1.0])
        with pytest.raises(ValueError):
            projection_spectrum(m, "dense")

    def test_auto_method_threshold(self):
        small = build_ring_model(2, 3, -1.0, 5, 6, 1.0)
        assert projection_spectrum(small, "auto").dim == small.dim
        assert projection_spectrum(small, "chebyshev") is None
        large = build_ring_model(2, 11, -1.0, 5, 6, 1.0)   # 2^13 > EXACT_AUTO_DIM
        assert projection_spectrum(large, "auto") is None


class TestEvolveRealTime:
    def test_t_zero_identity(self):
        m = build_ring_model(2, 2, 1.0, 1, 1, 1.0)
        psi = random_state(m.dim, 2)
        assert np.abs(evolve_real_time(m, psi, 0.0) - psi).max() < 1e-14

    def test_single_pair_zz_phases(self):
        # pure S^z I^z coupling: each basis amplitude picks up exp(-i t E_n)
        jz = 0.8
        m = SpinModel(1, 1, coupling_bonds=((1, 1, 0.0, 0.0, jz),))
        psi = random_state(4, 3)
        t = 2.5
        # diagonal energies: -jz * sz1 * sz2 over (up,up),(dn,up),(up,dn),(dn,dn)
        diag = -jz * np.array([0.25, -0.25, -0.25, 0.25])
        out = evolve_real_time(m, psi, t)
        assert np.abs(out - np.exp(-1j * t * diag) * psi).max() < 1e-12

    def test_norm_preserved_long_time(self):
        m = build_ring_model(4, 8, -1.0, 7, 8, 1.0)   # N = 12
        psi = random_state(m.dim, 6)
        out = evolve_real_time(m, psi, 100.0)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_composition(self):
        m = build_ring_model(2, 4, -1.0, 3, 9, 1.0)
        psi = random_state(m.dim, 8)
        a = evolve_real_time(m, evolve_real_time(m, psi, 1.7), 2.4)
        b = evolve_real_time(m, psi, 4.1)
        assert np.abs(a - b).max() < 1e-9

    def test_tolerance_self_consistency(self):
        m = build_ring_model(2, 4, -1.0, 3, 9, 1.0)
        psi = random_state(m.dim, 9)
        tol = 1e-9
        coarse = evolve_real_time(m, psi, 5.0, plan=real_time_plan(energy_bounds(m), 5.0, tolerance=tol))
        fine = evolve_real_time(m, psi, 5.0, plan=real_time_plan(energy_bounds(m), 5.0, tolerance=tol / 2))
        assert np.abs(coarse - fine).max() < tol

    def test_ensemble_time_translation_invariance(self):
        # sigma of the canonical ensemble is stationary under real-time
        # evolution up to fluctuation noise
        from spinbath.observe import measure_state
        from spinbath.spectrum import diagonalize as diag

        m = build_ring_model(4, 8, -1.0, 23, 29, 1.0)
        hs = diag(m, "S")
        s0, st_ = [], []
        psi0 = random_block(m, [("tti", r) for r in range(100)])
        (states, _), = canonical_thermal_state(m, psi0, [0.9])
        for st in states.T:
            s0.append(measure_state(st, 4, hs).sigma)
            st_.append(measure_state(evolve_real_time(m, st, 10.0), 4, hs).sigma)
        s0, st_ = np.array(s0), np.array(st_)
        se = np.sqrt(s0.var(ddof=1) + st_.var(ddof=1)) / np.sqrt(len(s0))
        assert abs(st_.mean() - s0.mean()) < 5 * se


class TestProductState:
    def test_alternating_pattern_and_norm(self):
        m = build_ring_model(4, 4, -1.0, 3, 5, 1.0)
        state = alternating_product_state(m, 0.9, 5)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12
        # tracing out the environment leaves the pure up-down-up-down state
        rho = state.reshape(-1, 16)
        pops = np.sum(np.abs(rho) ** 2, axis=0)
        assert abs(pops[0b1010] - 1.0) < 1e-12

    def test_needs_environment(self):
        m = SpinModel(2, 0, system_bonds=((1, 2, 1, 1, 1),))
        with pytest.raises(ModelError):
            alternating_product_state(m, 1.0, 0)


class TestNormalizationDiagnostic:
    def test_beta_zero_exact(self):
        m = build_ring_model(2, 4, -1.0, 2, 7, 0.0)
        diffs = normalization_diagnostic(m, 0.0, 5, 3)
        assert diffs.max() < 5e-15

    def test_deterministic(self):
        m = build_ring_model(2, 4, -1.0, 2, 7, 0.0)
        a = normalization_diagnostic(m, 1.0, 3, 3)
        b = normalization_diagnostic(m, 1.0, 3, 3)
        assert np.array_equal(a, b)

    def test_rejects_coupled_model(self):
        m = build_ring_model(2, 4, -1.0, 2, 7, 1.0)
        with pytest.raises(ModelError):
            normalization_diagnostic(m, 1.0, 3, 3)
