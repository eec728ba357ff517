import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from scipy.linalg import expm

from spinbath import theory
from spinbath.hamiltonian import SpinModel, build_chain_model, build_ring_model
from spinbath.spectrum import ThermoFunctions, diagonalize
from spinbath.theory import (
    PredictionInputs,
    _site_diagonals,
    delta2_full,
    delta2_leading,
    first_order_symmetry_trace,
    infinite_temperature_scaling,
    low_temperature_limits,
    prediction_inputs,
    sigma2_full,
    sigma2_leading,
)

from conftest import SX, SY, SZ, dense_oracle, site_operator


def two_level_inputs(e_s, e_e, beta):
    ts = ThermoFunctions(np.array([-e_s, e_s]))
    te = ThermoFunctions(np.array([-e_e, e_e]))
    return PredictionInputs(ts, te, beta)


class TestLeadingOrder:
    def test_beta_zero_reduction(self):
        inp = two_level_inputs(0.5, 0.8, 0.0)
        s_ref, d_ref = infinite_temperature_scaling(2, 2)
        assert abs(sigma2_leading(inp) - s_ref) < 1e-15
        assert abs(delta2_leading(inp) - d_ref) < 1e-15

    def test_two_level_symbolic(self):
        # hand-evaluated ratios for Z(x) = 2 cosh(x e)
        e_s, e_e, beta = 0.5, 0.8, 1.3
        rs = np.cosh(2 * beta * e_s) / (2 * np.cosh(beta * e_s) ** 2)
        re = np.cosh(2 * beta * e_e) / (2 * np.cosh(beta * e_e) ** 2)
        d = 4
        inp = two_level_inputs(e_s, e_e, beta)
        assert abs(sigma2_leading(inp) - d / (2 * (d + 1)) * (1 - rs) * re) < 1e-14
        assert abs(delta2_leading(inp) - d / (d + 1) * rs * (re - 1 / d)) < 1e-14

    def test_sigma_full_close_to_leading(self, fig8_model):
        # D = 2^12: the extra ratio terms are small corrections for beta|J| <= 2
        for beta in (0.0, 0.1, 0.5, 1.0, 2.0):
            inp = prediction_inputs(fig8_model, beta)
            s_lead, s_full = sigma2_leading(inp), sigma2_full(inp)
            assert abs(s_full - s_lead) <= 5e-2 * s_full

    def test_delta_full_close_to_leading_at_small_beta(self, fig8_model):
        for beta in (0.01, 0.02):
            inp = prediction_inputs(fig8_model, beta)
            d_lead, d_full = delta2_leading(inp), delta2_full(inp)
            assert abs(d_full - d_lead) <= 1e-3 * d_full


class TestFullOrder:
    def test_beta_zero_exact(self, fig8_model):
        inp = prediction_inputs(fig8_model, 0.0)
        s_ref, d_ref = infinite_temperature_scaling(16, 256)
        assert abs(sigma2_full(inp) - s_ref) < 1e-15
        assert abs(delta2_full(inp) - d_ref) < 1e-15

    def test_low_temperature_matches_degeneracy_limit(self, fig8_model):
        inp = prediction_inputs(fig8_model, 500.0)
        s_lim, d_lim = low_temperature_limits(5, 9, 16, 256)
        assert abs(sigma2_full(inp) - s_lim) < 1e-10 * s_lim
        assert abs(delta2_full(inp) - d_lim) < 1e-10 * d_lim

    def test_fig8_plateau_value(self):
        s_lim, _ = low_temperature_limits(5, 9, 16, 256)
        assert abs(np.sqrt(s_lim) - 0.21) < 0.005

    def test_delta_b_correction_finite_at_beta_zero(self):
        inp = two_level_inputs(0.5, 0.8, 0.0)
        base = delta2_full(inp, 0.0)
        corrected = delta2_full(inp, 0.1)
        # infinite-temperature energy variance of the two-level system is e^2
        expected = base + 0.5 * (0.5**2) * 0.1**2
        assert np.isfinite(corrected)
        assert abs(corrected - expected) < 1e-14

    def test_deterministic_pure_function(self, fig8_model):
        inp = prediction_inputs(fig8_model, 0.7)
        assert sigma2_full(inp) == sigma2_full(inp)


class TestLowTemperatureLimits:
    def test_nondegenerate_system_gives_zero(self):
        assert low_temperature_limits(1, 7, 16, 128) == (0.0, 0.0)

    def test_known_case(self):
        s2, d2 = low_temperature_limits(5, 9, 16, 256)
        assert abs(np.sqrt(s2) - 0.2085) < 5e-4
        assert abs(d2 - (5 - 1) / (25 * 9) * 4096 / 4097) < 1e-15

    def test_large_degeneracy_asymptote(self):
        s2, _ = low_temperature_limits(10**6, 9, 2, 2)
        assert abs(s2 - 1 / (2 * 9)) < 1e-5

    def test_validation(self):
        with pytest.raises(ValueError):
            low_temperature_limits(0, 1, 2, 2)


class TestInfiniteTemperature:
    def test_small_case(self):
        s2, d2 = infinite_temperature_scaling(2, 2)
        assert s2 == 1 / 10
        assert d2 == 1 / 10

    def test_env_scaling(self):
        s_a, _ = infinite_temperature_scaling(4, 2**8)
        s_b, _ = infinite_temperature_scaling(4, 2**9)
        assert abs(s_a / s_b - 2.0) < 1e-2

    def test_trivial_system(self):
        assert infinite_temperature_scaling(1, 64) == (0.0, 0.0)


class TestSymmetryTraces:
    def test_constructor_models_vanish(self):
        models = [
            build_ring_model(2, 4, -1.0, 7, 8, 1.0),
            build_chain_model(3, 3, 1.0, -0.6, 0.9, 1.0),
        ]
        for model in models:
            for tr in first_order_symmetry_trace(model, (0.0, 0.4, 1.5)):
                assert abs(tr.trace_a) <= 1e-10 * tr.scale_a
                assert abs(tr.trace_b) <= 1e-10 * tr.scale_b

    def test_beta_zero_traceless(self):
        model = build_ring_model(2, 3, -1.0, 1, 2, 1.0)
        tr, = first_order_symmetry_trace(model, [0.0])
        assert abs(tr.trace_a) <= 1e-12 * tr.scale_a

    def test_identity_shift_breaks_symmetry(self):
        model = build_ring_model(2, 3, -1.0, 1, 2, 1.0)
        tr, = first_order_symmetry_trace(model, [0.6], identity_shift=0.3)
        assert abs(tr.trace_a) > 1e-3 * tr.scale_a
        assert abs(tr.trace_b) > 1e-6 * tr.scale_b

    def test_entirety_above_dense_cap_with_small_parts(self):
        # 2^15 entirety, parts of 16 and 2048: only the parts are made dense
        model = build_chain_model(4, 11, 1.0, -0.7, 0.4, 1.0)
        tr, = first_order_symmetry_trace(model, [0.7])
        assert abs(tr.trace_a) < 1e-10 * tr.scale_a
        assert abs(tr.trace_b) < 1e-10 * tr.scale_b

    def test_zero_scale_reads_zero(self):
        # criterion 5's ring 4+2: every site diagonal of a non-degenerate
        # parity eigenvector is an exact zero, so both scales are 0
        tr, = first_order_symmetry_trace(build_ring_model(4, 2, -1.0, 537624, 232615, 1.0), [0.523])
        assert tr.scale_a == tr.scale_b == tr.trace_a == tr.trace_b == 0.0
        assert tr.relative == (0.0, 0.0)

    @pytest.mark.parametrize("shift", [0.0, 0.25])
    def test_relative_at_most_one(self, shift):
        models = [build_ring_model(4, 2, -1.0, 537624, 232615, 1.0),
                  build_ring_model(2, 4, -1.0, 3, 4, 1.0),
                  build_chain_model(3, 3, 1.0, -0.6, 0.9, 1.0),
                  SpinModel(2, 2, coupling_bonds=((1, 1, 0.3, 0.2, 0.1),))]
        for model in models:
            for tr in first_order_symmetry_trace(model, (0.0, 0.7), identity_shift=shift):
                assert all(0.0 <= r <= 1.0 for r in tr.relative)
        tr, = first_order_symmetry_trace(models[1], [0.7], identity_shift=0.25)
        assert tr.relative[0] > 0.5

    def test_shift_value_at_beta_zero(self):
        # at beta = 0 the shifted trace_a is exactly shift * D
        model = SpinModel(2, 2, coupling_bonds=((1, 1, 0.3, 0.2, 0.1),))
        tr, = first_order_symmetry_trace(model, [0.0], identity_shift=0.5)
        assert abs(tr.trace_a - 0.5 * 16) < 1e-12

    def test_dense_oracle_with_shift(self):
        # literal traces from dense expm of H_S and H_E on the full space
        # (system bits fastest), rescaled as the function scales them:
        # trace_a by exp(beta E0), trace_b by exp(2 beta E0), E0 = E0_S + E0_E
        model = SpinModel(2, 2, system_bonds=((1, 2, 0.8, -0.5, 1.1),),
                          env_bonds=((1, 2, -0.6, 0.9, 0.4),),
                          coupling_bonds=((1, 1, 0.3, 0.2, 0.1), (2, 2, -0.7, 0.5, 0.6)))
        beta, shift = 0.7, 0.25
        h_s = np.kron(np.eye(4), dense_oracle(model, "S"))
        h_e = np.kron(dense_oracle(model, "E"), np.eye(4))
        h_se = dense_oracle(model, "SE") + shift * np.eye(16)
        e0 = np.linalg.eigvalsh(h_s)[0] + np.linalg.eigvalsh(h_e)[0]
        zs = np.trace(expm(-beta * dense_oracle(model, "S"))).real
        lit_a = np.trace(h_se @ expm(-beta * h_e) @ expm(-beta * h_s)).real
        lit_b = (zs * np.trace(expm(-beta * h_s) @ expm(-2 * beta * h_e) @ h_se)
                 - np.trace(expm(-2 * beta * (h_s + h_e)) @ h_se)).real
        tr, = first_order_symmetry_trace(model, [beta], identity_shift=shift)
        assert abs(tr.trace_a - lit_a * np.exp(beta * e0)) <= 1e-12 * abs(tr.trace_a)
        assert abs(tr.trace_b - lit_b * np.exp(2 * beta * e0)) <= 1e-12 * abs(tr.trace_b)

    def test_beta_grid_matches_single_beta_with_one_solve_per_part(self, monkeypatch):
        model = build_chain_model(3, 4, 1.0, -0.6, 0.9, 1.0)
        betas = (0.0, 0.3, 0.7, 2.0)
        singles = [first_order_symmetry_trace(model, [beta], identity_shift=0.25)[0]
                   for beta in betas]
        parts = []
        solve = theory.diagonalize
        monkeypatch.setattr(theory, "diagonalize",
                            lambda m, part: parts.append(part) or solve(m, part))
        grid = first_order_symmetry_trace(model, betas, identity_shift=0.25)
        assert sorted(parts) == ["E", "S"]
        assert (np.array([astuple(t) for t in grid]).tobytes()
                == np.array([astuple(t) for t in singles]).tobytes())

    @pytest.mark.parametrize("beta", [-1.0, np.inf, np.nan])
    def test_invalid_beta(self, beta):
        with pytest.raises(ValueError):
            first_order_symmetry_trace(build_ring_model(2, 3, -1.0, 1, 2, 1.0), [0.5, beta])


class TestSiteDiagonals:
    @pytest.mark.parametrize("vectors", [
        # gauged part eigenvectors: their x diagonals are exact zeros
        diagonalize(build_ring_model(2, 3, -1.0, 1, 2, 1.0), "E").eigenvectors,
        diagonalize(build_chain_model(3, 4, 1.0, -0.6, 0.9, 1.0), "E").eigenvectors,
        # a real orthogonal basis, whose x diagonals are not
        np.linalg.qr(np.random.default_rng(5).standard_normal((16, 16)))[0],
    ], ids=["ring_E", "chain_E", "orthogonal"])
    def test_match_dense_site_operators(self, vectors):
        n_bits = vectors.shape[0].bit_length() - 1
        for site in range(1, n_bits + 1):
            x, z = _site_diagonals(vectors, site)
            for values, op in ((x, SX), (z, SZ)):
                dense = np.einsum("ij,ij->j", vectors, site_operator(n_bits, site - 1, op) @ vectors)
                assert np.abs(values - dense.real).max() <= 1e-15
            # a real vector's S^y diagonal is purely imaginary
            y = np.einsum("ij,ij->j", vectors, site_operator(n_bits, site - 1, SY) @ vectors)
            assert np.all(y.real == 0.0)

    def test_reads_views(self):
        # the two halves of the site's bit are views of V: no gathered copy
        # of V (1x) or weighted product (1x) is made, only the diagonals
        vectors = np.random.default_rng(7).standard_normal((2**12, 2**12))
        tracemalloc.start()
        try:
            for site in (1, 6, 12):
                tracemalloc.reset_peak()
                _site_diagonals(vectors, site)
                assert tracemalloc.get_traced_memory()[1] < 0.05 * vectors.nbytes
        finally:
            tracemalloc.stop()


class TestPredictionInputs:
    def test_dimension_validation(self):
        ts = ThermoFunctions(np.zeros(4))
        te = ThermoFunctions(np.zeros(8))
        inp = PredictionInputs(ts, te, 1.0)
        assert inp.dim == 32

    def test_reads_eigenvalues_only(self, fig8_model, monkeypatch):
        # every part block is solved without vectors, and the closed forms
        # match those of the sector eigenpairs to rounding
        import scipy.linalg

        from spinbath.spectrum import diagonalize_sectors, thermo

        solves = []
        eigh = scipy.linalg.eigh

        def recorded(a, *args, **kwargs):
            solves.append(kwargs.get("eigvals_only", False))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", recorded)
        inp = prediction_inputs(fig8_model, 0.9)
        assert solves and all(solves)
        pairs = PredictionInputs(thermo(diagonalize_sectors(fig8_model, "S")),
                                 thermo(diagonalize_sectors(fig8_model, "E")), 0.9)
        for f in (sigma2_full, delta2_full):
            assert f(inp) == pytest.approx(f(pairs), rel=1e-13)
