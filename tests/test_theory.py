import numpy as np
import pytest

from spinbath.hamiltonian import SpinModel, build_chain_model, build_ring_model
from spinbath.spectrum import ThermoFunctions
from spinbath.theory import (
    PredictionInputs,
    delta2_full,
    delta2_leading,
    first_order_symmetry_trace,
    infinite_temperature_scaling,
    low_temperature_limits,
    prediction_inputs,
    sigma2_full,
    sigma2_leading,
)


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
            for beta in (0.0, 0.4, 1.5):
                tr = first_order_symmetry_trace(model, beta)
                assert abs(tr.trace_a) <= 1e-10 * tr.scale_a
                assert abs(tr.trace_b) <= 1e-10 * tr.scale_b

    def test_beta_zero_traceless(self):
        model = build_ring_model(2, 3, -1.0, 1, 2, 1.0)
        tr = first_order_symmetry_trace(model, 0.0)
        assert abs(tr.trace_a) <= 1e-12 * tr.scale_a

    def test_identity_shift_breaks_symmetry(self):
        model = build_ring_model(2, 3, -1.0, 1, 2, 1.0)
        tr = first_order_symmetry_trace(model, 0.6, identity_shift=0.3)
        assert abs(tr.trace_a) > 1e-3 * tr.scale_a
        assert abs(tr.trace_b) > 1e-6 * tr.scale_b

    def test_entirety_above_dense_cap_with_small_parts(self):
        # 2^15 entirety, parts of 16 and 2048: only the parts are made dense
        model = build_chain_model(4, 11, 1.0, -0.7, 0.4, 1.0)
        tr = first_order_symmetry_trace(model, 0.7)
        assert abs(tr.trace_a) < 1e-10 * tr.scale_a
        assert abs(tr.trace_b) < 1e-10 * tr.scale_b

    def test_zero_scale_reads_zero(self):
        # criterion 5's ring 4+2: every site diagonal of a non-degenerate
        # parity eigenvector is an exact zero, so both scales are 0
        tr = first_order_symmetry_trace(build_ring_model(4, 2, -1.0, 537624, 232615, 1.0), 0.523)
        assert tr.scale_a == tr.scale_b == tr.trace_a == tr.trace_b == 0.0
        assert tr.relative == (0.0, 0.0)

    @pytest.mark.parametrize("shift", [0.0, 0.25])
    def test_relative_at_most_one(self, shift):
        models = [build_ring_model(4, 2, -1.0, 537624, 232615, 1.0),
                  build_ring_model(2, 4, -1.0, 3, 4, 1.0),
                  build_chain_model(3, 3, 1.0, -0.6, 0.9, 1.0),
                  SpinModel(2, 2, coupling_bonds=((1, 1, 0.3, 0.2, 0.1),))]
        for model in models:
            for beta in (0.0, 0.7):
                rel = first_order_symmetry_trace(model, beta, identity_shift=shift).relative
                assert all(0.0 <= r <= 1.0 for r in rel)
        assert first_order_symmetry_trace(models[1], 0.7, identity_shift=0.25).relative[0] > 0.5

    def test_shift_value_at_beta_zero(self):
        # at beta = 0 the shifted trace_a is exactly shift * D
        model = SpinModel(2, 2, coupling_bonds=((1, 1, 0.3, 0.2, 0.1),))
        tr = first_order_symmetry_trace(model, 0.0, identity_shift=0.5)
        assert abs(tr.trace_a - 0.5 * 16) < 1e-12


class TestPredictionInputs:
    def test_dimension_validation(self):
        ts = ThermoFunctions(np.zeros(4))
        te = ThermoFunctions(np.zeros(8))
        inp = PredictionInputs(ts, te, 1.0)
        assert inp.dim == 32
