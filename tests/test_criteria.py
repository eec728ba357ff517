"""Unit checks of the acceptance suite's bookkeeping (not the criteria themselves)."""

import time
from functools import cached_property

import pytest

from spinbath import acceptance, bench, cli

BUILD_S = 0.3


def _stub_fig8_table() -> bench.ResultTable:
    columns = ["n_sys", "n_env", "lam", "beta", "realization", "sigma", "delta"]
    rows = [(4, 8, 0.0, beta, r, 0.2 + 0.01 * r, 0.1)
            for beta in acceptance.BETA_GRID for r in range(3)]
    return bench.ResultTable(columns, rows)


class LazyStubContext(acceptance.Context):
    """A Context whose fig8 table takes BUILD_S to build on first access."""

    @cached_property
    def _fig8(self):
        time.sleep(BUILD_S)
        return _stub_fig8_table(), BUILD_S


def test_criterion_2_counts_the_table_build_once():
    ctx = LazyStubContext()
    t0 = time.perf_counter()
    result = acceptance.criterion_2(ctx)
    wall = time.perf_counter() - t0
    # build time plus check time: at least the build, at most the whole call
    # (counting the build twice would exceed the call's wall time)
    assert BUILD_S <= result.runtime <= wall


@pytest.mark.parametrize("number", [0, -1, len(acceptance.CRITERIA) + 1])
def test_check_rejects_unknown_criterion(number, capsys):
    # an out-of-range number runs nothing, which must not read as a pass
    assert cli.main(["check", "--criterion", str(number)]) == 2
    assert "--criterion must be between 1 and" in capsys.readouterr().err


def test_criterion_5_counts_models_with_a_first_order_scale(monkeypatch):
    # a relative trace is rounding over rounding where a model's scale is
    # itself at rounding level (ring 4+4, 4+2 and 3+2 here), so the printed
    # worst only says something through the models whose scale is not
    from spinbath import theory

    traces = []

    def recorded(model, betas, **kwargs):
        out = theory.first_order_symmetry_trace(model, betas, **kwargs)
        if not kwargs:                    # not the broken-symmetry control
            traces.extend(out)
        return out

    monkeypatch.setattr(acceptance, "first_order_symmetry_trace", recorded)
    assert acceptance.criterion_5(acceptance.Context()).passed
    assert len(traces) == 20
    assert sum(tr.scale_a > 1e-12 for tr in traces) >= 15
    assert all(rel < 1e-10 for tr in traces for rel in tr.relative)


def test_criterion_7_trace_equals_the_calls_it_runs_through_bench(monkeypatch):
    # the criterion's trace comes from bench.time_trace; the start and trace
    # written out call by call give the same rows bit for bit
    from spinbath import observe
    from spinbath.hamiltonian import SYSTEM, build_ring_model
    from spinbath.propagate import (canonical_thermal_state, eigenvalue_spectrum, random_state,
                                    spectral_bounds)
    from spinbath.spectrum import diagonalize

    traced, time_trace = [], bench.time_trace

    def recorded(config, seed):
        traced.append(time_trace(config, seed))
        return traced[-1]

    monkeypatch.setattr(bench, "time_trace", recorded)
    assert acceptance.criterion_7(acceptance.Context()).passed
    beta = 0.9
    model = build_ring_model(4, 8, -1.0, 23, 29, 1.0)
    hs = diagonalize(model, SYSTEM)
    psi0 = random_state(model.dim, (acceptance.MASTER_SEED, "c7", 0))[:, None]
    spectrum = eigenvalue_spectrum(model, "exact")
    states, = canonical_thermal_state(model, psi0, [beta], spectrum)
    oracle = observe.trace_time_series(model, states[:, 0], 300.0, 0.5, hs, beta_ref=beta,
                                       bounds=spectral_bounds(model, *spectrum))
    assert traced == [oracle]
