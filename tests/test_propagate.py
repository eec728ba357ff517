import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

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

from conftest import parity_models, small_models


def project(model, psi, beta, spectrum=None):
    """One column projected to one beta: (state, norm_sq)."""
    (states, norm_sq), = canonical_thermal_state(model, psi[:, None], [beta], spectrum)
    return states[:, 0], norm_sq[0]


def random_block(model, seeds):
    return np.column_stack([random_state(model.dim, seed) for seed in seeds])


def assert_sectors_match_full_basis(model):
    """The parity-sector projection against the full-basis (H,) one at betas 0, 0.7, 20."""
    psi0 = random_block(model, (41, 42, 43))
    betas = (0.0, 0.7, 20.0)
    factors = projection_spectrum(model, "exact")
    assert all(f.sectors is not None and f.eigenvectors is None for f in factors)
    sectors = canonical_thermal_state(model, psi0, betas, factors)
    full = canonical_thermal_state(model, psi0, betas, (diagonalize(model, "FULL"),))
    for (ss, ns), (sf, nf) in zip(sectors, full, strict=True):
        assert ss.shape == sf.shape == (model.dim, 3)
        assert np.abs(ss - sf).max() < 1e-12
        assert np.abs(ns / nf - 1.0).max() < 1e-10


def two_product_matmul(m, x):
    """The reference for real_matmul: separate real products of the real and imaginary parts."""
    return m @ np.ascontiguousarray(x.real) + 1j * (m @ np.ascontiguousarray(x.imag))


def dense_norm_sq(model, psi0, beta):
    """<psi_0| exp(-beta H) |psi_0> per column from the dense full-basis spectrum."""
    e, v = np.linalg.eigh(dense_matrix(model))
    weights = np.exp(-beta * (e - e[0]))[:, None] * np.abs(v.T @ psi0) ** 2
    return np.exp(-beta * e[0]) * weights.sum(axis=0)


class TestRealMatmul:
    @pytest.mark.parametrize("layout", ["vector", "C", "F", "column_slice", "row_slice",
                                        "vector_slice", "stack"])
    def test_view_path_matches_two_products(self, layout):
        # the float view runs one GEMM where the reference runs two (a vector
        # moves from gemv to gemm), so the two agree to rounding, not bitwise
        rng = np.random.default_rng(5)
        d = 64
        m = rng.standard_normal((d, d))
        full = rng.standard_normal((2 * d, 40)) + 1j * rng.standard_normal((2 * d, 40))
        x = {"vector": full[:d, 0], "C": full[:d], "F": np.asfortranarray(full[:d]),
             "column_slice": full[:d, ::3], "row_slice": full[::2],
             "vector_slice": full[::2, 5], "stack": full.reshape(2, d, 40)[:, :, 3:30]}[layout]
        got = propagate.real_matmul(m, x)
        ref = two_product_matmul(m, x)
        assert got.shape == ref.shape and got.dtype == complex
        bound = 2 * d * np.finfo(float).eps * (np.abs(m) @ (np.abs(x.real) + np.abs(x.imag)))
        assert np.all(np.abs(got - ref) <= bound)

    def test_exact_where_one_product_per_part(self):
        # with one nonzero entry per row of m each output is a single product
        rng = np.random.default_rng(6)
        m = np.diag(rng.standard_normal(32))[rng.permutation(32)]
        x = rng.standard_normal((32, 7)) + 1j * rng.standard_normal((32, 7))
        for block in (x, x[:, 0], np.asfortranarray(x), x[:, ::2]):
            assert np.array_equal(propagate.real_matmul(m, block), two_product_matmul(m, block))

    def test_real_and_complex_matrices_pass_through(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((8, 8))
        x = rng.standard_normal((8, 3))
        assert np.array_equal(propagate.real_matmul(m, x), m @ x)
        mc = m + 1j * m.T
        xc = x + 1j
        assert np.array_equal(propagate.real_matmul(mc, xc), mc @ xc)


class TestEigenbasisNorm:
    """Column norms read off in the eigenbasis against the projected columns and a dense oracle."""

    @staticmethod
    def check(model):
        psi0 = random_block(model, [("eig-norm", r) for r in range(5)])
        betas = (0.7, 20.0, 200.0)
        projected = canonical_thermal_state(model, psi0, betas,
                                            projection_spectrum(model, "exact"))
        for beta, (states, norm_sq) in zip(betas, projected, strict=True):
            assert np.abs(np.linalg.norm(states, axis=0) - 1.0).max() < 1e-13
            assert np.abs(norm_sq / dense_norm_sq(model, psi0, beta) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("name", sorted(parity_models()))
    def test_coupled_parity_models(self, name):
        model = parity_models()[name]
        assert len(projection_spectrum(model, "exact")) == (1 if model.coupling_bonds else 2)
        self.check(model)

    @pytest.mark.parametrize("model", [
        build_ring_model(2, 3, -1.0, 4, 9, 0.0),       # S even (P_x pairs), E odd
        build_ring_model(3, 4, -1.0, 2, 3, 0.0),       # S odd, E even
        build_chain_model(3, 5, 1.0, -0.7, 0.4, 0.0),  # both odd
        build_chain_model(2, 4, 1.0, 1.0, 1.0, 0.0),   # both even, degenerate
    ], ids=["S_even_E_odd", "S_odd_E_even", "both_odd", "both_even"])
    def test_factorized_models(self, model):
        assert len(projection_spectrum(model, "exact")) == 2
        self.check(model)


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
        canonical_thermal_state(m, random_block(m, (1, 2, 3)), betas)
        assert len(orders) == 3 and max(orders) < sum(orders)
        assert calls == [(m.dim, 3)] * max(orders)     # one block per matvec

    @pytest.mark.parametrize("model", [build_ring_model(2, 5, -1.0, 25, 17, 1.0),
                                       build_chain_model(3, 4, 1.0, 0.8, 0.5, 0.7)],
                             ids=["ring", "chain"])
    def test_block_matches_single_columns(self, model):
        # the block recurrence gives each column bitwise what it gets alone;
        # beta = 0 returns the block itself, whose squared norms are one
        # reduction over the block, so they agree only to rounding
        psi0 = random_block(model, range(5))
        betas = (0.0, 0.3, 0.9, 2.0)
        blocks = list(canonical_thermal_state(model, psi0, betas))
        for j in range(5):
            singles = canonical_thermal_state(model, psi0[:, j:j + 1], betas)
            for beta, (states, norm_sq), (single, single_norm) in zip(betas, blocks, singles,
                                                                      strict=True):
                assert np.array_equal(states[:, j:j + 1], single)
                if beta > 0.0:
                    assert np.array_equal(norm_sq[j:j + 1], single_norm)
                else:
                    assert abs(norm_sq[j] - single_norm[0]) < 1e-15 * single_norm[0]

    def test_in_place_recurrence_matches_expression_form(self):
        # the recurrence as written before it worked in place: same operations, same bits
        m = build_ring_model(2, 4, -1.0, 3, 5, 1.0)
        plans = [imaginary_time_plan(energy_bounds(m), beta) for beta in (0.4, 3.0)]
        psi0 = random_block(m, (5, 6, 7))
        a = 0.5 * (plans[0].e_max + plans[0].e_min)
        half = 0.5 * (plans[0].e_max - plans[0].e_min)

        def x_apply(v):
            return (propagate.apply_hamiltonian(m, "FULL", v) - a * v) / half

        t_prev = psi0.astype(complex)
        t_cur = x_apply(t_prev)
        accs = [p.coefficients[0] * t_prev + p.coefficients[1] * t_cur for p in plans]
        for k in range(2, max(p.order for p in plans) + 1):
            t_next = 2.0 * x_apply(t_cur) - t_prev
            for p, acc in zip(plans, accs):
                if k <= p.order:
                    acc += p.coefficients[k] * t_next
            t_prev, t_cur = t_cur, t_next
        got = propagate._apply_plan(m, plans, psi0)
        assert plans[0].order != plans[1].order
        assert all(np.array_equal(g, r) for g, r in zip(got, accs, strict=True))

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

    def test_order_overflow_error(self, monkeypatch):
        m = build_ring_model(2, 3, -1.0, 5, 6, 1.0)
        monkeypatch.setattr(propagate, "DEFAULT_MAX_ORDER", 8)
        with pytest.raises(ChebyshevOrderError):
            imaginary_time_plan(energy_bounds(m), 50.0)

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

    @pytest.mark.parametrize("model", [
        build_chain_model(2, 4, 1.0, -0.7, 0.4, 0.0),
        build_ring_model(3, 4, -1.0, 2, 3, 0.0),
    ], ids=["chain", "ring"])
    def test_factorized_matches_full(self, model):
        # exp(-beta H / 2) = exp(-beta H_E / 2) (x) exp(-beta H_S / 2) when uncoupled
        psi0 = random_block(model, (31, 32, 33))
        betas = (0.0, 0.7, 20.0)
        factors = projection_spectrum(model, "exact")
        assert len(factors) == 2
        product = canonical_thermal_state(model, psi0, betas, factors)
        full = canonical_thermal_state(model, psi0, betas, (diagonalize(model, "FULL"),))
        for (sp, np_), (sf, nf) in zip(product, full, strict=True):
            assert sp.shape == sf.shape == (model.dim, 3)
            assert np.abs(sp - sf).max() < 1e-12
            assert np.abs(np_ / nf - 1.0).max() < 1e-10

    @pytest.mark.parametrize("name", sorted(parity_models()))
    def test_sectors_match_full_basis(self, name):
        assert_sectors_match_full_basis(parity_models()[name])

    @settings(max_examples=15, deadline=None)
    @given(small_models())
    def test_sectors_match_full_basis_random_models(self, model):
        assert_sectors_match_full_basis(model)

    def test_fig8_sigma_matches_full_basis_factors(self, fig8_model):
        # sigma depends on the gauged H_S basis, not on the projection's
        # sector basis: beta = 50 sits on the g_S = 5 ground multiplet
        from spinbath.observe import reduce_to_system, sigma

        beta = 50.0
        hs = diagonalize(fig8_model, "S")
        assert hs.ground_degeneracy == 5
        psi0 = random_block(fig8_model, [("fig8", r) for r in range(8)])
        full_basis = (diagonalize(fig8_model, "E"), diagonalize(fig8_model, "S"))
        (ss, _), = canonical_thermal_state(fig8_model, psi0, [beta],
                                           projection_spectrum(fig8_model, "exact"))
        (sf, _), = canonical_thermal_state(fig8_model, psi0, [beta], full_basis)
        for a, b in zip(ss.T, sf.T, strict=True):
            sa = sigma(reduce_to_system(a, 4, hs))
            sb = sigma(reduce_to_system(b, 4, hs))
            assert abs(sa - sb) < 1e-12

    def test_rejects_bad_input(self):
        m = build_ring_model(2, 3, -1.0, 5, 6, 1.0)
        with pytest.raises(DimensionError):
            canonical_thermal_state(m, random_state(m.dim, 1), [1.0])
        with pytest.raises(ValueError):
            canonical_thermal_state(m, random_block(m, (1,)), [-1.0])
        with pytest.raises(ValueError):
            projection_spectrum(m, "dense")
        psi0 = random_block(m, (1,))
        for factors in ((diagonalize(m, "S"),), (diagonalize(m, "E"), diagonalize(m, "E")),
                        (diagonalize(m, "E"), diagonalize(m, "S", want_vectors=False))):
            with pytest.raises(ValueError):
                canonical_thermal_state(m, psi0, [1.0], factors)

    def test_auto_method_threshold(self):
        small = build_ring_model(2, 3, -1.0, 5, 6, 1.0)
        full, = projection_spectrum(small, "auto")
        assert full.dim == small.dim
        assert projection_spectrum(small, "chebyshev") is None
        large = build_ring_model(2, 11, -1.0, 5, 6, 1.0)   # 2^13 > EXACT_AUTO_DIM
        assert projection_spectrum(large, "auto") is None
        # two factors, (H_E, H_S), exactly when the model is uncoupled
        no_bonds = SpinModel(2, 3, system_bonds=((1, 2, 1.0, 1.0, 1.0),),
                             env_bonds=((1, 3, 0.5, 0.2, 0.1),))
        for m in (build_ring_model(2, 3, -1.0, 5, 6, 0.0), no_bonds):
            env, sys_ = projection_spectrum(m, "auto")
            assert (env.dim, sys_.dim) == (m.dim_env, m.dim_system)
        # "auto" still decides on model.dim alone
        assert projection_spectrum(build_ring_model(2, 11, -1.0, 5, 6, 0.0), "auto") is None


class TestTracedEnvironment:
    """traced_env=True leaves an uncoupled block's H_E axis in H_E's eigenbasis."""

    BETAS = (0.0, 0.5, 5.0, 50.0)

    @pytest.mark.parametrize("model", [build_chain_model(4, 8, 1.0, 1.0, 1.0, 0.0),
                                       build_ring_model(3, 5, -1.0, 7, 11, 0.0)],
                             ids=["chain4+8", "ring3+5"])
    @pytest.mark.filterwarnings("ignore:reduced density diagonal floored")
    def test_measures_unchanged(self, model):
        from spinbath.observe import measure_state

        factors = projection_spectrum(model, "exact")
        # even N_E pairs its sectors under P_x (gain 2), odd N_E does not (gain 1)
        assert propagate._pair_gain(factors[0]) == (1 if model.n_env % 2 else 2)
        hs = diagonalize(model, "S")
        psi0 = random_block(model, range(16))
        traced = canonical_thermal_state(model, psi0, self.BETAS, factors, traced_env=True)
        rotated = canonical_thermal_state(model, psi0, self.BETAS, factors)
        for beta, (st, nt), (sr, nr) in zip(self.BETAS, traced, rotated, strict=True):
            assert np.array_equal(nt, nr)
            assert np.abs(np.linalg.norm(st, axis=0) - 1.0).max() < 1e-13
            rt, rr = (measure_state(s, model.n_system, hs, beta_ref=beta) for s in (st, sr))
            assert np.abs(rt.sigma - rr.sigma).max() < 1e-12
            assert np.abs(rt.delta - rr.delta).max() < 1e-12
            if beta < 50.0:
                # at beta = 50 the excited populations lie below rounding (some
                # diagonal entries come out negative), so the fitted b is noise
                # on either path and is not compared
                assert np.abs(rt.b - rr.b).max() < 1e-11 * max(1.0, np.abs(rr.b).max())
                assert np.abs(rt.delta_fit - rr.delta_fit).max() < 1e-12

    def test_coupled_and_chebyshev_ignore_flag(self):
        m = build_ring_model(2, 4, -1.0, 3, 5, 0.35)
        psi0 = random_block(m, (1, 2, 3))
        betas = (0.0, 0.5, 2.0)
        for spectrum in (projection_spectrum(m, "exact"), None):
            traced = canonical_thermal_state(m, psi0, betas, spectrum, traced_env=True)
            plain = canonical_thermal_state(m, psi0, betas, spectrum)
            for (st, nt), (sp, np_) in zip(traced, plain, strict=True):
                assert np.array_equal(st, sp) and np.array_equal(nt, np_)


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

    def test_tolerance_self_consistency(self, monkeypatch):
        m = build_ring_model(2, 4, -1.0, 3, 9, 1.0)
        psi = random_state(m.dim, 9)
        tol = 1e-9
        monkeypatch.setattr(propagate, "DEFAULT_TOLERANCE", tol)
        coarse = evolve_real_time(m, psi, 5.0, plan=real_time_plan(energy_bounds(m), 5.0))
        monkeypatch.setattr(propagate, "DEFAULT_TOLERANCE", tol / 2)
        fine = evolve_real_time(m, psi, 5.0, plan=real_time_plan(energy_bounds(m), 5.0))
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

    def test_entirety_above_dense_cap(self):
        # 2^15 entirety whose parts (16 and 2048) fit the dense cap
        m = build_ring_model(4, 11, -1.0, 31, 37, 0.0)
        diffs = normalization_diagnostic(m, 1.0, 8, 5)
        assert diffs.shape == (8,) and np.all(np.isfinite(diffs))

    def test_deterministic(self):
        m = build_ring_model(2, 4, -1.0, 2, 7, 0.0)
        a = normalization_diagnostic(m, 1.0, 3, 3)
        b = normalization_diagnostic(m, 1.0, 3, 3)
        assert np.array_equal(a, b)

    def test_rejects_coupled_model(self):
        m = build_ring_model(2, 4, -1.0, 2, 7, 1.0)
        with pytest.raises(ModelError):
            normalization_diagnostic(m, 1.0, 3, 3)
