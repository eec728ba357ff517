import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath.errors import SizeLimitError
from spinbath.hamiltonian import SpinModel, build_chain_model, build_ring_model
from spinbath.spectrum import ThermoFunctions, dense_matrix, diagonalize, thermo


class TestDiagonalize:
    def test_two_spin_heisenberg(self):
        # H = -J S1.S2 with J = 1: triplet at -1/4, singlet at +3/4
        m = SpinModel(2, 0, system_bonds=((1, 2, 1.0, 1.0, 1.0),))
        spec = diagonalize(m, "S")
        assert np.allclose(spec.eigenvalues, [-0.25, -0.25, -0.25, 0.75], atol=1e-13)
        assert spec.ground_degeneracy == 3

    def test_zero_hamiltonian(self):
        m = SpinModel(3, 0)
        spec = diagonalize(m, "S")
        assert np.allclose(spec.eigenvalues, 0.0)
        assert spec.ground_degeneracy == 8

    def test_fig8_ground_degeneracies(self, fig8_model):
        assert diagonalize(fig8_model, "S").ground_degeneracy == 5
        assert diagonalize(fig8_model, "E").ground_degeneracy == 9

    def test_eigvector_relation(self):
        m = build_ring_model(2, 3, -1.0, 4, 9, 1.0)
        spec = diagonalize(m)
        h = dense_matrix(m)
        resid = np.abs(h @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues).max()
        assert resid < 1e-10 * max(spec.width, 1.0)

    def test_matches_oracle(self, oracle):
        m = build_ring_model(2, 2, 0.7, 1, 2, 0.4)
        for part in ("S", "E", "FULL"):
            ours = diagonalize(m, part, want_vectors=False).eigenvalues
            ref = np.linalg.eigvalsh(oracle(m, part))
            assert np.abs(ours - ref).max() < 1e-12

    def test_dim_cap(self):
        m = build_ring_model(2, 4, 1.0, 1, 1, 1.0)
        with pytest.raises(SizeLimitError):
            diagonalize(m, "FULL", dim_cap=16)

    def test_degenerate_gauge_is_canonical(self):
        # any solver gauge inside a degenerate block maps to the same basis
        from spinbath.spectrum import _canonical_gauge

        m = build_chain_model(4, 1, 1.0, 0.0, 0.0, 0.0)
        spec = diagonalize(m, "S")       # 5-fold degenerate ground multiplet
        g = spec.ground_degeneracy
        assert g == 5
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.normal(size=(g, g)))[0]
        rotated = spec.eigenvectors.copy()
        rotated[:, :g] = rotated[:, :g] @ q
        refixed = _canonical_gauge(spec.eigenvalues, rotated)
        assert np.abs(refixed - spec.eigenvectors).max() < 1e-12
        h = dense_matrix(m, "S")
        resid = np.abs(h @ refixed - refixed * spec.eigenvalues).max()
        assert resid < 1e-10 * max(spec.width, 1.0)


class TestThermo:
    def test_two_levels_beta_zero(self):
        t = ThermoFunctions(np.array([0.0, 1.0]), 1)
        assert t.log_z(0.0) == np.log(2.0)
        assert abs(t.u(0.0) - 0.5) < 1e-15
        assert abs(t.energy_variance(0.0) - 0.25) < 1e-15

    def test_z_at_zero_is_dim(self):
        m = build_chain_model(3, 1, 0.9, 0, 0, 0)
        t = thermo(diagonalize(m, "S", want_vectors=False))
        assert t.log_z(0.0) == np.log(8.0)

    def test_free_energy_low_t_asymptote(self):
        m = SpinModel(2, 0, system_bonds=((1, 2, 1.0, 1.0, 1.0),))
        t = thermo(diagonalize(m, "S", want_vectors=False))
        beta = 50.0
        e0, g = -0.25, 3
        # free energy -ln Z / beta -> E_0 - ln(g) / beta
        assert abs(-t.log_z(beta) / beta - (e0 - np.log(g) / beta)) < 1e-8

    def test_uncoupled_partition_function_factorizes(self):
        m = build_ring_model(2, 3, -1.0, 6, 8, 0.0)
        tf = thermo(diagonalize(m, "FULL", want_vectors=False))
        ts = thermo(diagonalize(m, "S", want_vectors=False))
        te = thermo(diagonalize(m, "E", want_vectors=False))
        for beta in (0.0, 0.3, 2.0, 20.0):
            lhs = tf.log_z(beta)
            rhs = ts.log_z(beta) + te.log_z(beta)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 30.0))
    def test_specific_heat_nonnegative(self, seed, beta):
        rng = np.random.default_rng(seed)
        t = ThermoFunctions(np.sort(rng.normal(size=12)), 1)
        assert t.energy_variance(beta) >= -1e-12    # C = beta^2 Var(E) >= 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 5.0))
    def test_dlnz_dbeta_is_minus_u(self, seed, beta):
        rng = np.random.default_rng(seed)
        t = ThermoFunctions(np.sort(rng.normal(size=10)), 1)
        h = 1e-6 * max(beta, 1.0)
        fd = (t.log_z(beta + h) - t.log_z(beta - h)) / (2 * h)
        assert abs(fd + t.u(beta)) < 1e-5 * max(1.0, abs(t.u(beta)))

    def test_z_ratio_log_domain_survives_large_beta(self):
        t = ThermoFunctions(np.array([-3.0, -1.0, 2.0]), 1)
        r = t.z_ratio(2, 400.0)
        assert np.isfinite(r) and r > 0


class TestGroundState:
    def test_ferromagnetic_chain_energy(self):
        m = build_chain_model(3, 2, 1.0, 1.0, 0.5, 1.0)
        spec = diagonalize(m)
        vec = spec.eigenvectors[:, 0]
        h = dense_matrix(m)
        e = float(np.real(np.vdot(vec, h @ vec)))
        assert abs(e - spec.eigenvalues[0]) < 1e-10
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_uncoupled_product_of_part_grounds(self):
        # antiferromagnetic two-spin parts have unique singlet ground states
        m = SpinModel(2, 2, system_bonds=((1, 2, -1.0, -1.0, -1.0),),
                      env_bonds=((1, 2, -1.3, -1.3, -1.3),), lam=0.0)
        gs_full = diagonalize(m).eigenvectors[:, 0]
        gs_s = diagonalize(m, "S").eigenvectors[:, 0]
        gs_e = diagonalize(m, "E").eigenvectors[:, 0]
        overlap = abs(np.vdot(gs_full, np.kron(gs_e, gs_s)))
        assert abs(overlap - 1.0) < 1e-10

