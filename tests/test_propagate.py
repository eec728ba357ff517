import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings

from spinbath import propagate
from spinbath.errors import ChebyshevOrderError, DimensionError, ModelError
from spinbath.hamiltonian import SpinModel, build_chain_model, build_ring_model, energy_bounds
from spinbath.propagate import (
    ChebyshevPlan,
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
from spinbath.spectrum import dense_matrix, diagonalize, diagonalize_sectors, thermo

from conftest import parity_models, small_models


def project(model, psi, beta, spectrum=None):
    """One column projected to one beta."""
    states, = canonical_thermal_state(model, psi[:, None], [beta], spectrum)
    return states[:, 0]


def random_block(model, seeds):
    return np.column_stack([random_state(model.dim, seed) for seed in seeds])


def assert_projection_matches_dense(model, seeds):
    """The exact backend against the dense full-basis oracle at betas 0, 0.7, 20."""
    psi0 = random_block(model, seeds)
    betas = (0.0, 0.7, 20.0)
    factors = projection_spectrum(model, "exact")
    assert all(f.sectors is not None and f.eigenvectors is None for f in factors)
    projected = canonical_thermal_state(model, psi0, betas, factors)
    for beta, states in zip(betas, projected, strict=True):
        assert states.shape == (model.dim, len(seeds))
        assert np.abs(states - dense_projection(model, psi0, beta)).max() < 1e-12


def term_by_term(model, plan, psi0):
    """The plan's sums in expression form: one recurrence, each term added to each row by itself."""
    a = 0.5 * (plan.e_max + plan.e_min)
    half = 0.5 * (plan.e_max - plan.e_min)

    def x_apply(v):
        return (propagate.apply_hamiltonian(model, "FULL", v) - a * v) / half

    columns = list(zip(plan.point_orders.tolist(), plan.coefficients.T))
    t_prev = psi0.astype(complex)
    t_cur = x_apply(t_prev)
    accs = [c[0] * t_prev + c[1] * t_cur for _, c in columns]
    for k in range(2, plan.order + 1):
        t_next = 2.0 * x_apply(t_cur) - t_prev
        for (order, c), acc in zip(columns, accs):
            if k <= order:
                acc += c[k] * t_next
        t_prev, t_cur = t_cur, t_next
    return accs


def two_product_matmul(m, x):
    """The reference for real_matmul: separate real products of the real and imaginary parts."""
    return m @ np.ascontiguousarray(x.real) + 1j * (m @ np.ascontiguousarray(x.imag))


def dense_propagator(model, part, beta):
    """exp(-beta (H - E_0) / 2) of a part from the dense full-basis spectrum."""
    e, v = np.linalg.eigh(dense_matrix(model, part))
    return (v * np.exp(-0.5 * beta * (e - e[0]))) @ v.T


def dense_projection(model, psi0, beta):
    """The normalized columns exp(-beta H / 2) psi0 from the dense full-basis spectrum."""
    raw = dense_propagator(model, "FULL", beta) @ psi0
    return raw / np.linalg.norm(raw, axis=0)


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
    """Column norms read off in the eigenbasis: unit-norm columns that match a dense oracle."""

    @staticmethod
    def check(model):
        psi0 = random_block(model, [("eig-norm", r) for r in range(5)])
        betas = (0.7, 20.0, 200.0)
        projected = canonical_thermal_state(model, psi0, betas,
                                            projection_spectrum(model, "exact"))
        for beta, states in zip(betas, projected, strict=True):
            assert np.abs(np.linalg.norm(states, axis=0) - 1.0).max() < 1e-13
            assert np.abs(states - dense_projection(model, psi0, beta)).max() < 1e-12

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


class TestEigenbasisTransforms:
    """_to_eigenbasis is orthonormal along its axis and _from_eigenbasis is its inverse."""

    @staticmethod
    def check(model):
        rng = np.random.default_rng(9)
        for part in ("S", "E", "FULL"):
            factor = diagonalize_sectors(model, part)
            x = rng.standard_normal((2, factor.dim, 3)) + 1j * rng.standard_normal((2, factor.dim, 3))
            c = propagate._to_eigenbasis(factor, x)
            assert np.abs(np.linalg.norm(c, axis=1) - np.linalg.norm(x, axis=1)).max() < 1e-13
            assert np.abs(propagate._from_eigenbasis(factor, c) - x).max() < 1e-13

    @pytest.mark.parametrize("name", sorted(parity_models()))
    def test_parity_models(self, name):
        # even N (P_x pairs), odd N, and the one-spin and zero-spin parts
        self.check(parity_models()[name])

    @settings(max_examples=15, deadline=None)
    @given(small_models())
    def test_random_models(self, model):
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
            states, = canonical_thermal_state(m, psi0, [0.0], spectrum)
            assert states is psi0

    def test_matches_dense_projection(self):
        # N = 4 toy entirety at beta = 1 against scipy's dense exponential
        m = build_ring_model(2, 2, 1.0, 4, 6, 0.9)
        h = dense_matrix(m)
        psi0 = random_state(m.dim, 11)
        raw = scipy.linalg.expm(-0.5 * h) @ psi0
        oracle_state = raw / np.linalg.norm(raw)
        for method in ("exact", "chebyshev"):
            state = project(m, psi0, 1.0, projection_spectrum(m, method))
            assert np.abs(state - oracle_state).max() < 1e-10

    def test_methods_agree(self):
        m = build_ring_model(3, 4, -1.0, 2, 3, 1.0)   # N = 7
        psi0 = random_block(m, (17, 18, 19))
        betas = (0.0, 0.2, 3.0)
        exact = canonical_thermal_state(m, psi0, betas, projection_spectrum(m, "exact"))
        cheb = canonical_thermal_state(m, psi0, betas, projection_spectrum(m, "chebyshev"))
        for se, sc in zip(exact, cheb, strict=True):
            assert se.shape == sc.shape == (m.dim, 3)
            assert np.abs(se - sc).max() < 1e-10

    def test_multi_beta_matches_single_beta(self):
        # the shared recurrence gives bit-identical states to one run per beta
        m = build_ring_model(2, 5, -1.0, 25, 17, 1.0)
        psi0 = random_block(m, (3, 4))
        betas = (0.3, 0.9, 2.0)
        shared = canonical_thermal_state(m, psi0, betas)
        for beta, states in zip(betas, shared, strict=True):
            single, = canonical_thermal_state(m, psi0, [beta])
            assert np.array_equal(states, single)

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
        # the block recurrence gives each column bitwise what it gets alone,
        # here where every order stays below both ring depths (51 vectors
        # for the block, 256 alone); beta = 0 returns the block itself
        psi0 = random_block(model, range(5))
        betas = (0.0, 0.3, 0.9, 2.0)
        blocks = list(canonical_thermal_state(model, psi0, betas))
        for j in range(5):
            singles = canonical_thermal_state(model, psi0[:, j:j + 1], betas)
            for states, single in zip(blocks, singles, strict=True):
                assert np.array_equal(states[:, j:j + 1], single)

    def test_in_place_recurrence_matches_expression_form(self):
        # the recurrence as written before it worked in place, each term added
        # one by one: the ring's GEMV sums group the terms differently, so the
        # rows agree to rounding, well within 1e-14 of each row's largest entry
        m = build_ring_model(2, 4, -1.0, 3, 5, 1.0)
        plan = imaginary_time_plan(energy_bounds(m), [0.4, 3.0])
        psi0 = random_block(m, (5, 6, 7))
        got = propagate._apply_plan(m, plan, psi0)
        assert plan.point_orders[0] < plan.point_orders[1] == plan.order
        assert got.shape == (2, *psi0.shape)
        for g, r in zip(got, term_by_term(m, plan, psi0), strict=True):
            assert np.abs(g - r).max() <= 1e-14 * np.abs(r).max()

    def test_typicality_energy_estimate(self):
        # <psi_beta|H|psi_beta> approximates the canonical mean energy
        m = build_ring_model(2, 6, -1.0, 8, 9, 1.0)   # D = 256
        beta = 0.8
        tf = thermo(diagonalize_sectors(m))
        exact = tf.u(beta)
        from spinbath.hamiltonian import apply_hamiltonian

        psi0 = random_block(m, [(21, r) for r in range(50)])
        states, = canonical_thermal_state(m, psi0, [beta], projection_spectrum(m, "exact"))
        vals = np.array([float(np.real(np.vdot(st, apply_hamiltonian(m, "FULL", st))))
                         for st in states.T])
        dev = abs(vals.mean() - exact) / (vals.std(ddof=1) / np.sqrt(len(vals)))
        assert dev < 4.0

    def test_semigroup(self):
        m = build_ring_model(2, 3, -1.0, 5, 6, 1.0)
        psi0 = random_state(m.dim, 4)
        s1 = project(m, psi0, 1.3)
        s12 = project(m, s1, 0.9)
        s2 = project(m, psi0, 2.2)
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
        state = project(m, psi0, 500.0)
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
        assert len(projection_spectrum(model, "exact")) == 2
        assert_projection_matches_dense(model, (31, 32, 33))

    @pytest.mark.parametrize("name", sorted(parity_models()))
    def test_sectors_match_full_basis(self, name):
        assert_projection_matches_dense(parity_models()[name], (41, 42, 43))

    @settings(max_examples=15, deadline=None)
    @given(small_models())
    def test_sectors_match_full_basis_random_models(self, model):
        assert_projection_matches_dense(model, (41, 42, 43))

    def test_fig8_sigma_matches_full_basis_factors(self, fig8_model):
        # sigma depends on the gauged H_S basis, not on the projection's
        # sector basis: beta = 50 sits on the g_S = 5 ground multiplet
        from spinbath.observe import reduce_to_system, sigma

        beta = 50.0
        hs = diagonalize(fig8_model, "S")
        assert hs.ground_degeneracy == 5
        psi0 = random_block(fig8_model, [("fig8", r) for r in range(8)])
        ss, = canonical_thermal_state(fig8_model, psi0, [beta],
                                      projection_spectrum(fig8_model, "exact"))
        # the dense oracle per part: exp(-beta H_E / 2) (x) exp(-beta H_S / 2)
        raw = np.einsum("ea,sb,abk->esk", dense_propagator(fig8_model, "E", beta),
                        dense_propagator(fig8_model, "S", beta),
                        psi0.reshape(fig8_model.dim_env, fig8_model.dim_system, -1)
                        ).reshape(psi0.shape)
        sf = raw / np.linalg.norm(raw, axis=0)
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
                        (diagonalize(m, "FULL"),)):
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
    """traced_env=True leaves an uncoupled block in the product eigenbasis, measured by traced_frame."""

    BETAS = (0.0, 0.5, 5.0, 50.0)

    @pytest.mark.parametrize("model", [build_chain_model(4, 8, 1.0, 1.0, 1.0, 0.0),
                                       build_ring_model(3, 5, -1.0, 7, 11, 0.0)],
                             ids=["chain4+8", "ring3+5"])
    @pytest.mark.filterwarnings("ignore:reduced density diagonal floored")
    def test_measures_unchanged(self, model):
        from spinbath.observe import measure_state

        factors = projection_spectrum(model, "exact")
        hs = diagonalize(model, "S")
        psi0 = random_block(model, range(16))
        frame = propagate.traced_frame(hs, factors)
        traced = canonical_thermal_state(model, psi0, self.BETAS, factors, traced_env=True)
        rotated = canonical_thermal_state(model, psi0, self.BETAS, factors)
        for beta, st, sr in zip(self.BETAS, traced, rotated, strict=True):
            assert np.abs(np.linalg.norm(st, axis=0) - 1.0).max() < 1e-13
            rt = measure_state(st, model.n_system, frame, beta_ref=beta)
            rr = measure_state(sr, model.n_system, hs, beta_ref=beta)
            assert np.abs(rt.sigma - rr.sigma).max() < 1e-12
            assert np.abs(rt.delta - rr.delta).max() < 1e-12
            if beta < 50.0:
                # at beta = 50 the excited populations lie below rounding (some
                # diagonal entries come out negative), so the fitted b is noise
                # on either path and is not compared
                assert np.abs(rt.b - rr.b).max() < 1e-11 * max(1.0, np.abs(rr.b).max())
                assert np.abs(rt.delta_fit - rr.delta_fit).max() < 1e-12

    def test_block_transpose_is_c_contiguous(self):
        # reduce_to_system then reads each realization's amplitudes without a copy
        m = build_chain_model(2, 4, 1.0, 1.0, 1.0, 0.0)
        psi0 = random_block(m, range(5))
        for states in canonical_thermal_state(m, psi0, self.BETAS, projection_spectrum(m, "exact"),
                                              traced_env=True):
            assert states.shape == psi0.shape and states.T.flags.c_contiguous

    def test_frame_only_for_uncoupled_spectra(self):
        m = build_ring_model(2, 4, -1.0, 3, 5, 0.0)
        hs = diagonalize(m, "S")
        frame = propagate.traced_frame(hs, projection_spectrum(m, "exact"))
        assert np.array_equal(frame.eigenvalues, hs.eigenvalues)
        w = frame.eigenvectors
        assert np.abs(w.T @ w - np.eye(m.dim_system)).max() < 1e-13
        coupled = build_ring_model(2, 4, -1.0, 3, 5, 0.35)
        for spectrum in (projection_spectrum(coupled, "exact"), None):
            assert propagate.traced_frame(hs, spectrum) is hs

    def test_coupled_and_chebyshev_ignore_flag(self):
        m = build_ring_model(2, 4, -1.0, 3, 5, 0.35)
        psi0 = random_block(m, (1, 2, 3))
        betas = (0.0, 0.5, 2.0)
        for spectrum in (projection_spectrum(m, "exact"), None):
            traced = canonical_thermal_state(m, psi0, betas, spectrum, traced_env=True)
            plain = canonical_thermal_state(m, psi0, betas, spectrum)
            for st, sp in zip(traced, plain, strict=True):
                assert np.array_equal(st, sp)


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

    def test_plan_for_other_times_refused(self):
        m = build_ring_model(2, 4, -1.0, 3, 9, 1.0)
        psi = random_state(m.dim, 10)
        bounds = energy_bounds(m)
        for t, plan in [(1.0, real_time_plan(bounds, 2.0)),
                        ([0.5, 1.0], real_time_plan(bounds, [0.5, 1.5])),
                        ([0.5], real_time_plan(bounds, 1.0)),
                        (0.5, real_time_plan(bounds, [0.5, 1.0]))]:
            with pytest.raises(ValueError, match="plan made for t"):
                evolve_real_time(m, psi, t, plan)
        # a float t and the one-point grid [t] are the same plan; t sets the shape
        alone = evolve_real_time(m, psi, 0.5)
        assert np.array_equal(evolve_real_time(m, psi, 0.5, real_time_plan(bounds, [0.5])), alone)
        assert np.array_equal(evolve_real_time(m, psi, [0.5], real_time_plan(bounds, 0.5)),
                              alone[:, None])

    def test_float_plan_is_one_point_grid(self):
        # every field has one type however the plan was made, and the orders
        # are read off the zero-padded coefficient grid
        bounds = energy_bounds(build_ring_model(2, 4, -1.0, 3, 9, 1.0))
        for make, x in ((real_time_plan, 2.0), (imaginary_time_plan, 0.9)):
            plan, grid = make(bounds, x), make(bounds, [x])
            assert plan.at.shape == plan.phase.shape == (1,)
            assert plan.coefficients.shape == (plan.order + 1, 1)
            for name in ("coefficients", "at", "phase"):
                assert np.array_equal(getattr(plan, name), getattr(grid, name))
            assert isinstance(plan.order, int) and plan.point_orders.tolist() == [plan.order]
            assert plan.coefficients[plan.order, 0] != 0.0
            padded = ChebyshevPlan(plan.e_min, plan.e_max,
                                   np.vstack([plan.coefficients, np.zeros((3, 1))]),
                                   plan.at, plan.phase)
            assert padded.order == plan.order + 3 and padded.point_orders.tolist() == [plan.order]

    def test_grid_plan_columns_match_single_point_plans(self):
        # each column of a grid plan, and of the states it evolves to, is
        # bitwise what the plan at that point alone gives
        m = build_ring_model(2, 4, -1.0, 3, 9, 1.0)
        bounds = energy_bounds(m)
        psi = random_state(m.dim, 11)
        times = 0.5 * np.arange(1, 17)
        for make, grid in ((real_time_plan, times), (imaginary_time_plan, [0.3, 0.9, 2.0])):
            plan = make(bounds, grid)
            assert plan.coefficients.shape == (plan.order + 1, len(grid))
            assert plan.order == max(plan.point_orders) and isinstance(plan.order, int)
            for j, x in enumerate(grid):
                single = make(bounds, float(x))
                assert single.coefficients.shape == (single.order + 1, 1)
                assert plan.point_orders[j] == single.order
                assert np.array_equal(plan.coefficients[: single.order + 1, j],
                                      single.coefficients[:, 0])
                assert not plan.coefficients[single.order + 1:, j].any()
                assert plan.phase[j] == single.phase[0]
        block = evolve_real_time(m, psi, times)
        assert block.shape == (m.dim, len(times))
        for j, t in enumerate(times):
            assert np.array_equal(block[:, j], evolve_real_time(m, psi, float(t)))

    def test_ensemble_time_translation_invariance(self):
        # sigma of the canonical ensemble is stationary under real-time
        # evolution up to fluctuation noise
        from spinbath.observe import measure_state
        from spinbath.spectrum import diagonalize as diag

        m = build_ring_model(4, 8, -1.0, 23, 29, 1.0)
        hs = diag(m, "S")
        s0, st_ = [], []
        psi0 = random_block(m, [("tti", r) for r in range(100)])
        states, = canonical_thermal_state(m, psi0, [0.9])
        for st in states.T:
            s0.append(measure_state(st, 4, hs).sigma)
            st_.append(measure_state(evolve_real_time(m, st, 10.0), 4, hs).sigma)
        s0, st_ = np.array(s0), np.array(st_)
        se = np.sqrt(s0.var(ddof=1) + st_.var(ddof=1)) / np.sqrt(len(s0))
        assert abs(st_.mean() - s0.mean()) < 5 * se


class TestRecurrenceRing:
    DEPTH = 4

    @staticmethod
    def cut(plan, orders):
        """A grid plan whose column j is the plan's first column cut at orders[j]."""
        grid = np.zeros((max(orders) + 1, len(orders)), dtype=plan.coefficients.dtype)
        for j, order in enumerate(orders):
            grid[: order + 1, j] = plan.coefficients[: order + 1, 0]
        n = len(orders)
        return ChebyshevPlan(plan.e_min, plan.e_max, grid, np.arange(n, dtype=float),
                             np.ones(n, dtype=complex))

    @pytest.mark.parametrize("orders", [[1, 2], [1, 3], [2, 3, 4], [3, 4, 8],
                                        [2, 3, 4, 8, 9, 13, 18]],
                             ids=["below", "depth-1", "depth", "2depth", "several"])
    @pytest.mark.parametrize("shape", [(), (3,)], ids=["vector", "block"])
    @pytest.mark.parametrize("make, x", [(real_time_plan, 12.0), (imaginary_time_plan, 9.0)],
                             ids=["real", "imaginary"])
    def test_flush_boundaries(self, make, x, shape, orders, monkeypatch):
        # a ring of DEPTH slots flushed every DEPTH orders: each row, cut below,
        # at or past a flush, is bitwise its single-point plan's and holds
        # every term of its sum, up to rounding of terms |c_k T_k| <= |c_k|
        # (a cut imaginary-time sum cancels far below its terms)
        m = build_ring_model(2, 4, -1.0, 3, 9, 1.0)
        state = random_block(m, range(3)) if shape else random_state(m.dim, 5)
        monkeypatch.setattr(propagate, "_RING_AMPLITUDES", self.DEPTH * state.size)
        base = make(energy_bounds(m), x)
        grid = self.cut(base, orders)
        assert grid.point_orders.tolist() == orders
        rows = propagate._apply_plan(m, grid, state)
        assert rows.shape == (len(orders), *state.shape)
        for row, ref, c, order in zip(rows, term_by_term(m, grid, state), grid.coefficients.T,
                                      orders, strict=True):
            assert np.array_equal(row, propagate._apply_plan(m, self.cut(base, [order]), state)[0])
            assert np.linalg.norm(row - ref) <= 1e-14 * np.abs(c).sum() * np.linalg.norm(state)

    def test_peak_memory_of_a_per_order_accumulation(self):
        # the rows plus four vectors, the peak of adding each order to each
        # row by itself: the recurrence pair, the matvec's result and its
        # scratch; from 2^14 amplitudes on the ring is that pair
        import tracemalloc

        m = build_ring_model(4, 10, -1.0, 25, 17, 1.0)
        plan = imaginary_time_plan(energy_bounds(m), [0.3, 0.9, 2.0])
        psi = random_state(m.dim, 3)[:, None]
        propagate.apply_hamiltonian(m, "FULL", psi)     # the model holds its kernel's matrices
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rows = propagate._apply_plan(m, plan, psi)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert rows.nbytes == len(plan.at) * psi.nbytes == 3 * 2**18
        assert peak <= (len(plan.at) + 4) * psi.nbytes + 2**14


RING_2_6 = (build_ring_model, (2, 6, -1.0, 5, 6))
CHAIN_4_6 = (build_chain_model, (4, 6, 1.0, 1.0, 1.0))


class TestSpectralBounds:
    @staticmethod
    def assert_valid(model, bounds):
        """The bounds contain H's dense spectrum and lie inside its Gershgorin bounds."""
        e = scipy.linalg.eigvalsh(dense_matrix(model))
        g_min, g_max = energy_bounds(model)
        assert g_min <= bounds[0] <= e[0] and e[-1] <= bounds[1] <= g_max

    @pytest.mark.parametrize("build, args", [RING_2_6, CHAIN_4_6], ids=["ring_2_6", "chain_4_6"])
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_projection_spectra(self, build, args, lam):
        # the full H's spectrum when coupled, the exact (H_E, H_S) sum at lam = 0
        m = build(*args, lam)
        spectrum = projection_spectrum(m, "exact")
        assert len(spectrum) == (2 if lam == 0.0 else 1)
        bounds = propagate.spectral_bounds(m, *spectrum)
        self.assert_valid(m, bounds)
        e = scipy.linalg.eigvalsh(dense_matrix(m))
        assert np.allclose(bounds, (e[0], e[-1]), rtol=0, atol=1e-7 * (e[-1] - e[0]))

    @pytest.mark.parametrize("build, args", [RING_2_6, CHAIN_4_6], ids=["ring_2_6", "chain_4_6"])
    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_coupled_parts_add_gershgorin_coupling(self, build, args, lam):
        # the product-state trace's form: E_E + E_S + lam * Gershgorin(H_SE)
        m = build(*args, lam)
        env, hs = diagonalize_sectors(m, "E"), diagonalize(m, "S")
        bounds = propagate.spectral_bounds(m, env, hs)
        self.assert_valid(m, bounds)
        c_min, c_max = energy_bounds(m, "SE")
        weyl = (env.eigenvalues[0] + hs.eigenvalues[0] + lam * c_min,
                env.eigenvalues[-1] + hs.eigenvalues[-1] + lam * c_max)
        assert bounds[0] <= weyl[0] and bounds[1] >= weyl[1]

    def test_tighter_than_gershgorin_on_rings(self):
        m = build_ring_model(4, 8, -1.0, 23, 29, 1.0)
        lo, hi = propagate.spectral_bounds(m, *projection_spectrum(m, "exact"))
        g_min, g_max = energy_bounds(m)
        assert hi - lo < 0.5 * (g_max - g_min)
        bounds = [(lo, hi), (g_min, g_max)]
        orders = [real_time_plan(b, 0.5 * np.arange(1, 17)).order for b in bounds]
        assert orders == [81, 141]

    def test_other_models_spectrum_refused(self, monkeypatch):
        ring = build_ring_model(2, 6, -1.0, 5, 6, 1.0)
        chain = build_chain_model(2, 6, 1.0, 1.0, 1.0, 1.0)
        ring_spectrum = projection_spectrum(ring, "exact")
        with pytest.raises(ValueError, match="another model"):
            propagate.spectral_bounds(chain, *ring_spectrum)
        with pytest.raises(ValueError, match="dimensions"):
            propagate.spectral_bounds(build_ring_model(2, 5, -1.0, 5, 6, 1.0), *ring_spectrum)
        with pytest.raises(ValueError, match="dimensions"):
            propagate.spectral_bounds(ring, *ring_spectrum, *ring_spectrum)
        # a time trace prepared on the wrong spectrum stops before it has a state
        from spinbath import bench

        monkeypatch.setattr(bench, "projection_spectrum", lambda model, method: ring_spectrum)
        monkeypatch.setattr(bench.observe, "trace_time_series",
                            lambda *a, **k: pytest.fail("traced on another model's bounds"))
        cfg = bench.ExperimentConfig(mode="time_trace", model="chain", j_iso=1.0, omega_iso=1.0,
                                     delta_iso=1.0, n_sys_list=(2,), n_env_list=(6,),
                                     lambda_list=(1.0,), beta_list=(0.9,), t_max=1.0, dt=0.5)
        with pytest.raises(ValueError, match="another model"):
            bench.run(cfg)

    def test_real_time_on_spectral_bounds_matches_dense(self):
        m = build_ring_model(2, 6, -1.0, 5, 6, 1.0)
        bounds = propagate.spectral_bounds(m, *projection_spectrum(m, "exact"))
        t = 100.0 / (bounds[1] - bounds[0])
        psi = random_state(m.dim, 12)
        out = evolve_real_time(m, psi, t, real_time_plan(bounds, t))
        ref = scipy.linalg.expm(-1j * t * dense_matrix(m)) @ psi
        assert np.abs(out - ref).max() < 1e-10


class TestProductState:
    def test_alternating_pattern_and_norm(self):
        m = build_ring_model(4, 4, -1.0, 3, 5, 1.0)
        state = alternating_product_state(m, 0.9, 5, diagonalize_sectors(m, "E"))
        assert abs(np.linalg.norm(state) - 1.0) < 1e-12
        # tracing out the environment leaves the pure up-down-up-down state
        rho = state.reshape(-1, 16)
        pops = np.sum(np.abs(rho) ** 2, axis=0)
        assert abs(pops[0b1010] - 1.0) < 1e-12

    def test_needs_environment(self):
        m = SpinModel(2, 0, system_bonds=((1, 2, 1, 1, 1),))
        with pytest.raises(ModelError):
            alternating_product_state(m, 1.0, 0, None)


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
