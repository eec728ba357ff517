import numpy as np
import pytest

from spinbath.errors import DimensionError, FitError
from spinbath.hamiltonian import build_chain_model, build_ring_model, energy_bounds
from spinbath.observe import (
    ReducedDensityMatrix,
    _TRACE_CHUNK,
    delta,
    fit_b,
    gibbs_weights,
    measure_state,
    reduce_to_system,
    sigma,
    trace_time_series,
)
from spinbath.propagate import (canonical_thermal_state, evolve_real_time, projection_spectrum,
                                random_state, real_time_plan)
from spinbath.spectrum import SpectrumSummary, diagonalize


def thermal_state(model, beta, seed, method="auto"):
    """One canonical thermal pure state drawn from ``seed``."""
    psi0 = random_state(model.dim, seed)[:, None]
    states, = canonical_thermal_state(model, psi0, [beta], projection_spectrum(model, method))
    return states[:, 0]


def _basis(energies, vectors=None):
    e = np.asarray(energies, dtype=float)
    v = np.eye(len(e)) if vectors is None else vectors
    return SpectrumSummary(e, v, 1e-8)


class TestReduce:
    def test_product_state_is_rank_one(self):
        m = build_ring_model(2, 3, -1.0, 1, 2, 1.0)
        hs = diagonalize(m, "S")
        sys = random_state(m.dim_system, 0)
        env = random_state(m.dim_env, 1)
        rdm = reduce_to_system(np.kron(env, sys), 2, hs)
        evals = np.linalg.eigvalsh(rdm.matrix)
        assert abs(evals[-1] - 1.0) < 1e-12 and np.abs(evals[:-1]).max() < 1e-12

    def test_maximally_mixed_average(self):
        m = build_ring_model(2, 2, -1.0, 1, 2, 1.0)
        hs = diagonalize(m, "S")
        acc = np.zeros((4, 4), dtype=complex)
        for n in range(m.dim):
            e = np.zeros(m.dim, dtype=complex)
            e[n] = 1.0
            acc += reduce_to_system(e, 2, hs).matrix
        acc /= m.dim
        assert np.abs(acc - np.eye(4) / 4).max() < 1e-12

    def test_invariants(self):
        m = build_ring_model(2, 4, -1.0, 3, 4, 1.0)
        hs = diagonalize(m, "S")
        st = thermal_state(m, 1.2, 5)
        rdm = reduce_to_system(st, 2, hs)
        assert abs(np.trace(rdm.matrix).real - 1.0) < 1e-12
        assert np.abs(rdm.matrix - rdm.matrix.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rdm.matrix).min() > -1e-10

    def test_gibbs_diagonal_at_lambda_zero(self):
        # ensemble mean of the diagonal approaches the system Gibbs weights
        m = build_ring_model(2, 8, -1.0, 3, 4, 0.0)
        beta = 1.0
        hs = diagonalize(m, "S")
        acc = np.zeros(4)
        n = 500
        psi0 = np.column_stack([random_state(m.dim, ("gibbs", r)) for r in range(n)])
        states, = canonical_thermal_state(m, psi0, [beta], projection_spectrum(m, "exact"))
        for st in states.T:
            acc += reduce_to_system(st, 2, hs).diagonal / n
        ref = gibbs_weights(hs.eigenvalues, beta)
        # spread of a single diagonal entry is O(1/sqrt(D_E)); 3 stderr band
        assert np.abs(acc - ref).max() < 3 * 0.5 / np.sqrt(m.dim_env * n)


class TestSigma:
    def test_diagonal_matrix_is_zero(self):
        rdm = ReducedDensityMatrix(np.diag([0.4, 0.6]).astype(complex))
        assert sigma(rdm) == 0.0

    def test_single_offdiagonal(self):
        rdm = ReducedDensityMatrix(np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex))
        assert abs(sigma(rdm) - 0.3) < 1e-15

    def test_zero_for_eigenvector_product(self):
        m = build_ring_model(2, 3, -1.0, 1, 2, 1.0)
        hs = diagonalize(m, "S")
        sys_vec = hs.eigenvectors[:, 2].astype(complex)
        env = random_state(m.dim_env, 4)
        rdm = reduce_to_system(np.kron(env, sys_vec), 2, hs)
        assert sigma(rdm) < 1e-12

    def test_gauge_permutation_invariance(self):
        # permuting eigenvectors within a degenerate block leaves sigma alone
        m = build_chain_model(2, 4, 1.0, 1.0, 1.0, 1.0)
        hs = diagonalize(m, "S")   # triplet ground block
        st = thermal_state(m, 0.7, 9)
        s_ref = sigma(reduce_to_system(st, 2, hs))
        v = hs.eigenvectors.copy()
        v[:, [0, 1, 2]] = v[:, [2, 0, 1]]   # shuffle the degenerate triplet
        hs_shuffled = SpectrumSummary(hs.eigenvalues, v, hs.degeneracy_tolerance)
        s_new = sigma(reduce_to_system(st, 2, hs_shuffled))
        assert abs(s_new - s_ref) < 1e-12

    def test_upper_bound_invariant(self):
        m = build_ring_model(2, 3, -1.0, 1, 2, 1.0)
        hs = diagonalize(m, "S")
        st = thermal_state(m, 0.5, 12)
        rdm = reduce_to_system(st, 2, hs)
        d = rdm.dim
        bound = np.sqrt(d * (d - 1) / 2) * np.abs(
            rdm.matrix[np.triu_indices(d, 1)]).max()
        assert sigma(rdm) <= bound + 1e-15


class TestFitB:
    def test_exact_gibbs_recovers_beta(self):
        energies = np.array([-1.0, -0.2, 0.4, 1.3])
        beta = 0.85
        rdm = ReducedDensityMatrix(np.diag(gibbs_weights(energies, beta)).astype(complex))
        assert abs(fit_b(rdm, _basis(energies)) - beta) < 1e-12

    def test_uniform_diagonal_gives_zero(self):
        energies = np.array([-1.0, 0.0, 2.0])
        rdm = ReducedDensityMatrix((np.eye(3) / 3).astype(complex))
        assert abs(fit_b(rdm, _basis(energies))) < 1e-14

    def test_all_energies_equal_is_undefined(self):
        rdm = ReducedDensityMatrix((np.eye(3) / 3).astype(complex))
        with pytest.raises(FitError):
            fit_b(rdm, _basis([1.0, 1.0, 1.0]))

    def test_floored_diagonal_warns(self):
        energies = np.array([0.0, 1.0])
        mat = np.diag([1.0, 0.0]).astype(complex)
        with pytest.warns(UserWarning):
            fit_b(ReducedDensityMatrix(mat), _basis(energies))


class TestDelta:
    def test_exact_gibbs_is_zero(self):
        energies = np.array([-1.0, 0.0, 0.7])
        p = gibbs_weights(energies, 1.1)
        rdm = ReducedDensityMatrix(np.diag(p).astype(complex))
        assert delta(rdm, _basis(energies), 1.1) < 1e-15

    def test_direct_formula_oracle(self):
        # cross-check against an independent evaluation of the definition
        m = build_ring_model(2, 3, -1.0, 5, 6, 1.0)
        hs = diagonalize(m, "S")
        st = thermal_state(m, 2.0, 3)
        rdm = reduce_to_system(st, 2, hs)
        b = fit_b(rdm, hs)
        e = hs.eigenvalues
        w = np.exp(-b * (e - e.min()))
        w /= w.sum()
        direct = np.sqrt(sum((rdm.diagonal[i] - w[i]) ** 2 for i in range(4)))
        assert abs(delta(rdm, hs, b) - direct) < 1e-14

    def test_range_invariant(self):
        m = build_ring_model(2, 3, -1.0, 5, 6, 1.0)
        hs = diagonalize(m, "S")
        for r in range(5):
            st = random_state(m.dim, r)
            rep = measure_state(st, 2, hs, beta_ref=0.0)
            assert 0.0 <= rep.delta <= np.sqrt(2.0)
            assert rep.sigma >= 0.0


class TestMeasureReport:
    def test_reference_vs_fitted_delta(self):
        m = build_ring_model(2, 4, -1.0, 2, 3, 0.0)
        hs = diagonalize(m, "S")
        st = thermal_state(m, 0.9, 21)
        rep = measure_state(st, 2, hs, beta_ref=0.9)
        assert rep.beta_ref == 0.9
        assert rep.delta == delta(reduce_to_system(st, 2, hs), hs, 0.9)
        assert rep.delta_fit == delta(reduce_to_system(st, 2, hs), hs, rep.b)
        rep2 = measure_state(st, 2, hs)
        assert rep2.delta == rep2.delta_fit


class TestBlockMeasure:
    """A (dim, k) block measured at once against its columns measured one by one."""

    @staticmethod
    def block_for(model, beta):
        psi0 = np.column_stack([random_state(model.dim, ("block", r)) for r in range(6)])
        states, = canonical_thermal_state(model, psi0, [beta], projection_spectrum(model, "exact"))
        return states

    @staticmethod
    def assert_matches(block, n_sys, hs, beta_ref):
        rep = measure_state(block, n_sys, hs, beta_ref)
        cols = [measure_state(col, n_sys, hs, beta_ref) for col in block.T]
        assert rep.beta_ref == beta_ref
        for name in ("sigma", "delta", "delta_fit"):
            values = getattr(rep, name)
            assert values.shape == (block.shape[1],)
            assert np.abs(values - [getattr(c, name) for c in cols]).max() < 1e-15
        b_cols = np.array([c.b for c in cols])
        assert np.abs(rep.b / b_cols - 1.0).max() < 1e-14

    @pytest.mark.parametrize("n_sys", [2, 3, 4])
    @pytest.mark.parametrize("beta_ref", [None, 0.8])
    def test_matches_columns(self, n_sys, beta_ref):
        model = build_ring_model(n_sys, 4, -1.0, 3, 4, 0.6)
        hs = diagonalize(model, "S")
        self.assert_matches(self.block_for(model, 0.8), n_sys, hs, beta_ref)

    @pytest.mark.parametrize("beta_ref", [None, 2.0])
    def test_degenerate_system_spectrum(self, beta_ref):
        model = build_chain_model(4, 3, 1.0, 1.0, 1.0, 0.0)
        hs = diagonalize(model, "S")
        assert hs.ground_degeneracy == 5
        self.assert_matches(self.block_for(model, 2.0), 4, hs, beta_ref)

    def test_one_system_spin(self):
        # H_S has no bonds: b is undefined for the block as for every column
        model = build_chain_model(1, 4, 1.0, 1.0, 1.0, 0.5)
        hs = diagonalize(model, "S")
        block = self.block_for(model, 0.8)
        rdm = reduce_to_system(block, 1, hs)
        assert rdm.matrix.shape == (6, 2, 2)
        for k, col in enumerate(block.T):
            single = reduce_to_system(col, 1, hs)
            assert np.abs(rdm.matrix[k] - single.matrix).max() < 1e-15
            assert abs(sigma(rdm)[k] - sigma(single)) < 1e-15
            assert abs(delta(rdm, hs, 0.8)[k] - delta(single, hs, 0.8)) < 1e-15
        with pytest.raises(FitError):
            measure_state(block, 1, hs, 0.8)

    def test_floored_column(self):
        # in the computational basis as the system basis, a system basis state
        # times an environment state has exact zeros on the diagonal
        model = build_ring_model(2, 3, -1.0, 1, 2, 0.0)
        hs = _basis(diagonalize(model, "S").eigenvalues)
        system = np.zeros(4, dtype=complex)
        system[1] = 1.0
        floored = np.kron(random_state(model.dim_env, 4), system)
        block = np.column_stack([self.block_for(model, 0.5)[:, :3], floored])
        with pytest.warns(UserWarning, match="floored") as caught:
            self.assert_matches(block, 2, hs, 0.5)
            assert np.isfinite(measure_state(block, 2, hs).b).all()
        # one warning for each block call and one for the floored column's own call
        assert len(caught) == 3

    def test_single_state_gives_floats(self):
        model = build_ring_model(2, 3, -1.0, 5, 6, 1.0)
        hs = diagonalize(model, "S")
        rep = measure_state(random_state(model.dim, 3), 2, hs, beta_ref=0.4)
        assert all(type(getattr(rep, name)) is float
                   for name in ("sigma", "delta", "b", "delta_fit"))
        one = measure_state(random_state(model.dim, 3)[:, None], 2, hs, beta_ref=0.4)
        assert one.sigma.shape == (1,) and one.sigma[0] == rep.sigma

    def test_block_reduction_matches_columns(self):
        model = build_ring_model(3, 4, -1.0, 7, 8, 1.0)
        hs = diagonalize(model, "S")
        block = self.block_for(model, 1.1)
        rdm = reduce_to_system(block, 3, hs)
        for k, col in enumerate(block.T):
            assert np.abs(rdm.matrix[k] - reduce_to_system(col, 3, hs).matrix).max() < 1e-15
        assert np.abs(rdm.diagonal - np.einsum("kii->ki", rdm.matrix).real).max() == 0.0

    @pytest.mark.parametrize("k", [1, 256])
    def test_matches_per_column_gram(self, k):
        # rho = M^dagger M per column, rotated to the H_S eigenbasis
        model = build_chain_model(4, 8, 1.0, 1.0, 1.0, 0.0)
        hs = diagonalize(model, "S")
        v = hs.eigenvectors
        rng = np.random.default_rng(k)
        block = rng.standard_normal((model.dim, k)) + 1j * rng.standard_normal((model.dim, k))
        rdm = reduce_to_system(block, 4, hs)
        for j in range(k):
            m = block[:, j].reshape(-1, 16)
            ref = v.T @ (m.conj().T @ m) @ v
            ref = 0.5 * (ref + ref.conj().T)
            assert np.abs(rdm.matrix[j] - ref).max() < 1e-13 * np.abs(ref).max()

    def test_rejects_three_dimensional_state(self):
        model = build_ring_model(2, 3, -1.0, 5, 6, 1.0)
        hs = diagonalize(model, "S")
        with pytest.raises(DimensionError):
            reduce_to_system(np.zeros((model.dim, 2, 2), dtype=complex), 2, hs)


class TestTraceTimeSeries:
    def test_t_max_zero_single_entry(self):
        m = build_ring_model(2, 3, -1.0, 5, 6, 1.0)
        hs = diagonalize(m, "S")
        st = thermal_state(m, 0.5, 2)
        rows = trace_time_series(m, st, 0.0, 0.5, hs, beta_ref=0.5)
        rep = measure_state(st, 2, hs, beta_ref=0.5)
        assert len(rows) == 1
        assert rows[0] == (0.0, rep.sigma, rep.delta, rep.b)

    @pytest.mark.parametrize("t_max, dt", [(float("inf"), 0.5), (-1.0, 0.5),
                                           (float("nan"), 0.5), (1e300, 1e-300)])
    def test_rejects_unbounded_step_count(self, t_max, dt, monkeypatch):
        import spinbath.observe

        m = build_ring_model(2, 3, -1.0, 5, 6, 1.0)
        hs = diagonalize(m, "S")
        st = thermal_state(m, 0.5, 2)

        def no_step(*args):
            raise AssertionError("stepped before rejecting t_max / dt")

        monkeypatch.setattr(spinbath.observe, "evolve_real_time", no_step)
        with pytest.raises(ValueError, match="t_max"):
            trace_time_series(m, st, t_max, dt, hs)

    @staticmethod
    def stepped_reference(m, st, t_max, dt, hs, beta_ref):
        """The trace by one scalar-time step and one single-state measurement per sample."""
        rows = []
        for k in range(int(round(t_max / dt)) + 1):
            rep = measure_state(st, m.n_system, hs, beta_ref)
            rows.append((k * dt, rep.sigma, rep.delta, rep.b))
            st = evolve_real_time(m, st, dt)
        return rows

    @staticmethod
    def counted_steps(monkeypatch):
        """Record the number of output times of every evolve_real_time call of a trace."""
        import spinbath.observe

        calls = []
        evolve = spinbath.observe.evolve_real_time

        def counted(model, state, t, plan):
            calls.append(len(t))
            return evolve(model, state, t, plan)

        monkeypatch.setattr(spinbath.observe, "evolve_real_time", counted)
        return calls

    @pytest.mark.parametrize("n_steps", [2 * _TRACE_CHUNK + _TRACE_CHUNK // 2, 6, 0],
                             ids=["remainder", "short", "zero"])
    def test_chunks_match_single_steps(self, n_steps, monkeypatch):
        m = build_ring_model(2, 4, -1.0, 5, 6, 1.0)
        hs = diagonalize(m, "S")
        st = thermal_state(m, 0.9, 17)
        t_max = 0.5 * n_steps
        ref = self.stepped_reference(m, st, t_max, 0.5, hs, 0.9)
        calls = self.counted_steps(monkeypatch)
        rows = trace_time_series(m, st, t_max, 0.5, hs, beta_ref=0.9)
        full, rest = divmod(n_steps, _TRACE_CHUNK)
        assert calls == [_TRACE_CHUNK] * full + [rest] * (rest > 0)
        assert len(rows) == len(ref)
        for row, r in zip(rows, ref):
            assert row[0] == r[0] and all(type(v) is float for v in row)
            assert max(abs(a - b) for a, b in zip(row[1:], r[1:])) < 1e-12

    def test_one_chunk_block_at_a_time(self):
        # the next chunk starts from a copy of the last column, so a chunked
        # trace peaks under one chunk's recurrence (its block and ring) plus
        # half a block, not two blocks
        import tracemalloc

        m = build_ring_model(2, 10, -1.0, 5, 6, 1.0)
        hs = diagonalize(m, "S")
        st = random_state(m.dim, 3)
        bounds = energy_bounds(m)
        plan = real_time_plan(bounds, 0.5 * np.arange(1, _TRACE_CHUNK + 1))
        n_steps = 2 * _TRACE_CHUNK + _TRACE_CHUNK // 2
        peaks = []
        for run in (lambda: evolve_real_time(m, st, plan.at, plan),
                    lambda: trace_time_series(m, st, 0.5 * n_steps, 0.5, hs, bounds=bounds)):
            run()                           # the model holds its kernel's matrices
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run()
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        one_chunk, trace = peaks
        assert one_chunk > _TRACE_CHUNK * st.nbytes
        assert trace < one_chunk + _TRACE_CHUNK * st.nbytes / 2

    def test_one_step_per_call_within_a_one_state_budget(self, monkeypatch):
        import spinbath.observe

        m = build_ring_model(2, 4, -1.0, 5, 6, 1.0)
        hs = diagonalize(m, "S")
        st = thermal_state(m, 0.9, 17)
        chunked = trace_time_series(m, st, 10.0, 0.5, hs, beta_ref=0.9)
        monkeypatch.setattr(spinbath.observe, "_TRACE_AMPLITUDES", m.dim)
        calls = self.counted_steps(monkeypatch)
        rows = trace_time_series(m, st, 10.0, 0.5, hs, beta_ref=0.9)
        assert calls == [1] * 20
        assert rows == self.stepped_reference(m, st, 10.0, 0.5, hs, 0.9)
        assert [r[0] for r in rows] == [r[0] for r in chunked]
        assert max(abs(a - b) for row, c in zip(rows, chunked) for a, b in zip(row, c)) < 1e-12

    def test_spectral_bounds_match_gershgorin_trace_in_fewer_matvecs(self, monkeypatch):
        import spinbath.propagate as propagate

        m = build_ring_model(4, 6, -1.0, 23, 29, 1.0)
        hs = diagonalize(m, "S")
        psi0 = random_state(m.dim, 41)[:, None]
        states, = canonical_thermal_state(m, psi0, [0.9], projection_spectrum(m, "exact"))
        bounds = propagate.lanczos_bounds(m, "exact")
        calls = []
        apply = propagate.apply_hamiltonian

        def counted(*args):
            calls.append(1)
            return apply(*args)

        monkeypatch.setattr(propagate, "apply_hamiltonian", counted)
        rows, n_calls = [], []
        for b in (None, bounds):
            calls.clear()
            rows.append(trace_time_series(m, states[:, 0], 40.0, 0.5, hs, beta_ref=0.9, bounds=b))
            n_calls.append(len(calls))
        gershgorin, spectral = rows
        assert [r[0] for r in spectral] == [r[0] for r in gershgorin]
        assert max(abs(a - b) for r, g in zip(spectral, gershgorin)
                   for a, b in zip(r[1:], g[1:])) < 1e-12
        assert n_calls[1] < 0.75 * n_calls[0]

    def test_x_state_stationary_small(self):
        m = build_ring_model(2, 4, -1.0, 5, 6, 1.0)
        hs = diagonalize(m, "S")
        st = thermal_state(m, 0.9, 31)
        rows = trace_time_series(m, st, 40.0, 0.5, hs, beta_ref=0.9)
        sig = np.array([r[1] for r in rows])
        assert np.abs(sig - sig.mean()).max() < 5 * sig.std(ddof=1)

    def test_ududy_relaxes_toward_stationary_value(self):
        # a product initial state decays toward a stationary sigma whose
        # late-time mean differs from the same-beta canonical (X) value
        import warnings

        from dataclasses import replace

        from spinbath.propagate import alternating_product_state, lanczos_bounds

        m = build_ring_model(4, 6, -1.0, 23, 29, 1.0)
        hs = diagonalize(m, "S")
        start = replace(m, system_bonds=(), coupling_bonds=())     # H_E (x) 1_S
        beta = 0.9
        ud0, = canonical_thermal_state(start, alternating_product_state(m, 7)[:, None], [beta],
                                       bounds=lanczos_bounds(start, "exact"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # early diagonals touch the log floor
            ud_rows = trace_time_series(m, ud0[:, 0], 200.0, 1.0, hs, beta_ref=beta)
        t = np.array([r[0] for r in ud_rows])
        sig = np.array([r[1] for r in ud_rows])
        late = sig[t > 120].mean()
        window = 20
        smooth = np.convolve(np.abs(sig - late), np.ones(window) / window, mode="valid")
        assert smooth[0] > 3 * smooth[-1]       # smoothed approach to the mean
        x0 = thermal_state(m, beta, 9, "exact")
        x_rows = trace_time_series(m, x0, 200.0, 1.0, hs, beta_ref=beta)
        x_late = np.array([r[1] for r in x_rows])[t > 120]
        # distinct long-time averages (well beyond the correlated-sample error)
        assert abs(late - x_late.mean()) > 0.005
