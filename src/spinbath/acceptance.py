"""Built-in acceptance suite: nine numbered criteria, one pass/fail line each.

Every criterion pins its seeds and parameter grids, so a run is fully
deterministic; `spinbath check` executes them all and exits nonzero on any
failure.  The pytest suite wraps the same functions.  Expensive artifacts
(Monte Carlo tables, spectra) are cached on a shared context and reused
across criteria.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import bench, observe, theory
from .hamiltonian import ENVIRONMENT, SYSTEM, build_chain_model, build_ring_model
from .propagate import (canonical_thermal_state, moment_check, normalization_diagnostic,
                        projection_spectrum, random_state)
from .seeds import spawn_rng
from .spectrum import diagonalize, part_eigenvalues
from .theory import first_order_symmetry_trace, infinite_temperature_scaling, low_temperature_limits

MASTER_SEED = 20160902

# twelve log-spaced temperatures T/J in [0.02, 10]
TEMPERATURE_GRID = tuple(float(t) for t in np.geomspace(0.02, 10.0, 12))
BETA_GRID = tuple(1.0 / t for t in TEMPERATURE_GRID)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    runtime: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} {status} ({self.runtime:.1f}s): {self.name}; {self.details}"


def _mc_stats(table: bench.ResultTable, column: str, square: bool = False):
    """Per-beta (mean, stderr, n) over sample rows of one-column data."""
    groups: dict[float, list[float]] = {}
    for row in table.dicts():
        if isinstance(row["realization"], (int, np.integer)):
            v = row[column]
            groups.setdefault(row["beta"], []).append(v * v if square else v)
    out = {}
    for beta, vals in groups.items():
        arr = np.asarray(vals)
        out[beta] = (float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(len(arr))), len(arr))
    return out


class Context:
    """Caches the expensive shared artifacts of the suite."""

    @cached_property
    def _fig8(self):
        """Ferromagnetic chain N_S=4, N_E=8, uncoupled, 1000 realizations."""
        cfg = bench.ExperimentConfig(
            mode="theory_overlay", model="chain",
            j_iso=1.0, omega_iso=1.0, delta_iso=1.0,
            n_sys_list=(4,), n_env_list=(8,),
            lambda_list=(0.0,), beta_list=BETA_GRID,
            n_realizations=1000, master_seed=MASTER_SEED, method="exact",
        )
        t0 = time.perf_counter()
        table = bench.run(cfg)
        return table, time.perf_counter() - t0

    @property
    def fig8_table(self) -> bench.ResultTable:
        return self._fig8[0]

    @property
    def fig8_runtime(self) -> float:
        return self._fig8[1]

    @cached_property
    def exponent_tables(self):
        """Ring N_S=2, N_E=10 sweeps: lambda axis at beta=0.9, beta axis at lam=1."""
        # coupling_seed 25 draws end bonds of typical-to-strong magnitude
        # (sum of squared components 6.5 vs distribution median 3.6), keeping
        # the coupling-induced shift above the sampling noise at this size
        base = dict(
            mode="static_measure", model="ring", j_system=-1.0,
            coupling_seed=25, env_seed=17,
            n_sys_list=(2,), n_env_list=(10,),
            n_realizations=3072, master_seed=MASTER_SEED, method="exact",
        )
        cfg_lam = bench.ExperimentConfig(
            lambda_list=(0.0, 0.2, 0.35, 0.5, 0.7), beta_list=(0.9,), **base)
        cfg_beta = bench.ExperimentConfig(
            lambda_list=(0.0, 1.0), beta_list=(0.15, 0.3, 0.45, 0.6, 0.9), **base)
        return bench.run(cfg_lam), bench.run(cfg_beta)


def criterion_1(ctx: Context) -> CriterionResult:
    """Infinite-temperature exact ensemble values of sigma^2 and delta^2."""
    t0 = time.perf_counter()
    n_states = 2000
    worst = 0.0
    details = []
    for n_sys in (2, 3):
        for n_env in (6, 8):
            model = build_chain_model(n_sys, n_env, 1.0, 1.0, 1.0, 0.0)
            hs = diagonalize(model, SYSTEM)
            s2 = np.empty(n_states)
            d2 = np.empty(n_states)
            for start in range(0, n_states, 500):
                stop = min(start + 500, n_states)
                block = np.column_stack([
                    random_state(model.dim, (MASTER_SEED, "c1", n_sys, n_env, r))
                    for r in range(start, stop)])
                rep = observe.measure_state(block, n_sys, hs, beta_ref=0.0)
                s2[start:stop] = rep.sigma**2
                d2[start:stop] = rep.delta**2
            ref_s, ref_d = infinite_temperature_scaling(model.dim_system, model.dim_env)
            dev_s = abs(s2.mean() - ref_s) / (s2.std(ddof=1) / np.sqrt(n_states))
            dev_d = abs(d2.mean() - ref_d) / (d2.std(ddof=1) / np.sqrt(n_states))
            worst = max(worst, dev_s, dev_d)
            details.append(f"({n_sys},{n_env}): {dev_s:.2f}/{dev_d:.2f} se")
    elapsed = time.perf_counter() - t0
    passed = worst < 3.0 and elapsed < 60.0
    return CriterionResult(1, "infinite-temperature ensemble values", passed,
                           f"worst deviation {worst:.2f} se [" + ", ".join(details) + "]",
                           elapsed)


def _closed_form_deviation(table: bench.ResultTable, column: str, closed_form):
    """Worst deviation, in standard errors, of the fig8 table's mean column^2
    from closed_form over BETA_GRID; also the per-beta stats, the fig8 model
    and its prediction inputs."""
    model = build_chain_model(4, 8, 1.0, 1.0, 1.0, 0.0)
    stats = _mc_stats(table, column, square=True)
    inputs = theory.prediction_inputs(model, 0.0)    # part spectra do not depend on beta
    worst = max(abs(stats[beta][0] - closed_form(replace(inputs, beta=beta))) / stats[beta][1]
                for beta in BETA_GRID)
    return worst, stats, model, inputs


def criterion_2(ctx: Context) -> CriterionResult:
    """Monte Carlo sigma^2 matches the full closed form on the chain model."""
    table = ctx.fig8_table           # built lazily; its build time is fig8_runtime
    t0 = time.perf_counter()
    worst, stats, _, _ = _closed_form_deviation(table, "sigma", theory.sigma2_full)
    plateau = float(np.sqrt(stats[max(BETA_GRID)][0]))
    elapsed = time.perf_counter() - t0 + ctx.fig8_runtime
    passed = worst < 3.0 and abs(plateau - 0.21) < 0.01 and elapsed < 600.0
    return CriterionResult(2, "sigma^2 closed-form reproduction (12 temperatures)", passed,
                           f"worst deviation {worst:.2f} se; low-T plateau sqrt = {plateau:.4f}",
                           elapsed)


def criterion_3(ctx: Context) -> CriterionResult:
    """Monte Carlo delta^2 matches the full closed form; degeneracy limit."""
    t0 = time.perf_counter()
    worst, _, model, inputs = _closed_form_deviation(ctx.fig8_table, "delta", theory.delta2_full)
    # converged evaluation of the closed form against the degeneracy limit
    g_s = part_eigenvalues(model, SYSTEM).ground_degeneracy
    g_e = part_eigenvalues(model, ENVIRONMENT).ground_degeneracy
    _, lim = low_temperature_limits(g_s, g_e, model.dim_system, model.dim_env)
    val = theory.delta2_full(replace(inputs, beta=500.0))
    rel = abs(val - lim) / lim
    passed = worst < 3.0 and rel < 0.01 and (g_s, g_e) == (5, 9)
    return CriterionResult(3, "delta^2 closed-form reproduction and low-T limit", passed,
                           f"worst deviation {worst:.2f} se; limit rel err {rel:.2e} (g_S={g_s}, g_E={g_e})",
                           time.perf_counter() - t0)


def criterion_4(ctx: Context) -> CriterionResult:
    """Non-degenerate system ground state: sigma collapses at low temperature."""
    t0 = time.perf_counter()
    model = build_chain_model(4, 8, -1.0, 1.0, 1.0, 0.0)
    hs = diagonalize(model, SYSTEM)
    g_s = hs.ground_degeneracy
    block = np.column_stack([random_state(model.dim, (MASTER_SEED, "c4", r)) for r in range(200)])
    report, = observe.thermal_measures(model, block, [50.0], projection_spectrum(model, "exact"), hs)
    mean = float(np.mean(report.sigma))
    passed = mean < 1e-3 and g_s == 1
    return CriterionResult(4, "g_S=1 low-temperature sigma collapse", passed,
                           f"mean sigma = {mean:.2e} at beta|J|=50 (g_S={g_s})",
                           time.perf_counter() - t0)


def criterion_5(ctx: Context) -> CriterionResult:
    """First-order symmetry traces vanish for constructor models."""
    t0 = time.perf_counter()
    rng = spawn_rng(MASTER_SEED, "c5")
    worst = 0.0
    n_models = 0
    for k in range(12):
        n_sys = int(rng.integers(2, 5))
        n_env = int(rng.integers(2, 9 - n_sys))
        beta = float(rng.uniform(0.05, 2.0))
        model = build_ring_model(n_sys, n_env, -1.0, int(rng.integers(1, 10**6)),
                                 int(rng.integers(1, 10**6)), 1.0)
        tr, = first_order_symmetry_trace(model, [beta])
        worst = max(worst, *tr.relative)
        n_models += 1
    for k in range(8):
        n_sys = int(rng.integers(1, 5))
        n_env = int(rng.integers(1, 9))
        beta = float(rng.uniform(0.05, 2.0))
        model = build_chain_model(n_sys, n_env, float(rng.uniform(-2, 2)),
                                  float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), 1.0)
        tr, = first_order_symmetry_trace(model, [beta])
        worst = max(worst, *tr.relative)
        n_models += 1
    broken, = first_order_symmetry_trace(
        build_ring_model(2, 4, -1.0, 3, 4, 1.0), [0.7], identity_shift=0.25)
    broken_rel = broken.relative[0]
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-10 and broken_rel > 1e-3 and elapsed < 60.0
    return CriterionResult(5, "first-order symmetry traces vanish", passed,
                           f"worst relative trace {worst:.2e} over {n_models} models; "
                           f"broken-symmetry control {broken_rel:.2e}",
                           elapsed)


def criterion_6(ctx: Context) -> CriterionResult:
    """Chebyshev propagators match dense exponentials up to width*t = 100."""
    import scipy.linalg

    from .hamiltonian import energy_bounds
    from .propagate import evolve_real_time
    from .spectrum import dense_matrix

    t0 = time.perf_counter()
    worst_real = worst_imag = worst_norm = 0.0
    cases = [
        build_ring_model(2, 6, -1.0, 11, 13, 1.0),        # N=8
        build_chain_model(4, 6, 1.0, -0.7, 0.4, 0.8),     # N=10
    ]
    for model in cases:
        h = dense_matrix(model)
        lo, hi = energy_bounds(model)
        width = hi - lo
        e, v = np.linalg.eigh(h)
        psi0 = random_state(model.dim, (MASTER_SEED, "c6", model.n_spins))
        for factor in (0.1, 1.0, 100.0):
            t = factor / width
            oracle = v @ (np.exp(-1j * t * e) * (v.conj().T @ psi0))
            out = evolve_real_time(model, psi0, t)
            worst_real = max(worst_real, float(np.abs(out - oracle).max()))
            worst_norm = max(worst_norm, abs(np.linalg.norm(out) - 1.0))
            beta = factor / width
            raw = v @ (np.exp(-0.5 * beta * e) * (v.conj().T @ psi0))
            oracle_state = raw / np.linalg.norm(raw)
            states, = canonical_thermal_state(model, psi0[:, None], [beta])
            worst_imag = max(worst_imag, float(np.abs(states[:, 0] - oracle_state).max()))
    # one cross-check against an independent dense exponential routine
    small = cases[0]
    h = dense_matrix(small)
    psi0 = random_state(small.dim, (MASTER_SEED, "c6", "expm"))
    t = 3.7
    worst_real = max(worst_real, float(np.abs(
        evolve_real_time(small, psi0, t) - scipy.linalg.expm(-1j * t * h) @ psi0).max()))
    passed = worst_real < 1e-10 and worst_imag < 1e-10 and worst_norm < 1e-12
    return CriterionResult(6, "propagator oracle equivalence", passed,
                           f"max |cheb - dense|: real {worst_real:.2e}, imag {worst_imag:.2e}; "
                           f"norm drift {worst_norm:.2e}",
                           time.perf_counter() - t0)


def criterion_7(ctx: Context) -> CriterionResult:
    """Stationarity of canonical thermal states; b fit recovers beta."""
    t0 = time.perf_counter()
    beta = 0.9
    config = bench.ExperimentConfig(
        mode="time_trace", model="ring", j_system=-1.0, coupling_seed=23, env_seed=29,
        n_sys_list=(4,), n_env_list=(8,), lambda_list=(1.0,), beta_list=(beta,),
        initial_state="x", method="exact", t_max=300.0, dt=0.5)
    sig = np.array([r[1] for r in bench.time_trace(config, (MASTER_SEED, "c7", 0))])
    ratio = float(np.abs(sig - sig.mean()).max()) / sig.std(ddof=1)
    # fitted b over an uncoupled ensemble
    model0 = config.build_model(4, 8, 0.0)
    hs0 = diagonalize(model0, SYSTEM)
    block = np.column_stack([random_state(model0.dim, (MASTER_SEED, "c7b", r)) for r in range(100)])
    report, = observe.thermal_measures(model0, block, [beta],
                                       projection_spectrum(model0, "chebyshev"), hs0)
    bs = report.b
    b_dev = abs(bs.mean() - beta) / (bs.std(ddof=1) / np.sqrt(len(bs)))
    passed = ratio < 5.0 and b_dev < 3.0
    return CriterionResult(7, "X-state stationarity and b fit", passed,
                           f"max |sigma(t) - mean| = {ratio:.2f} std; "
                           f"b = {bs.mean():.4f} ({b_dev:.2f} se from beta = {beta})",
                           time.perf_counter() - t0)


def criterion_8(ctx: Context) -> CriterionResult:
    """Coupling-induced sigma^2 shift scales as lambda^2 and beta^3."""
    t0 = time.perf_counter()
    table_lam, table_beta = ctx.exponent_tables
    merged = bench.ResultTable(table_lam.columns, table_lam.rows + table_beta.rows)
    excess = bench.sigma2_excess(merged)
    lam_pts = sorted((lam, *excess[(2, 10, 0.9, lam)][:2])
                     for lam in (0.2, 0.35, 0.5, 0.7, 1.0))
    k_lam, n_lam = bench.fit_power_law([p[0] for p in lam_pts], [p[1] for p in lam_pts],
                                       [p[2] for p in lam_pts])
    beta_pts = sorted((beta, *excess[(2, 10, beta, 1.0)][:2])
                      for beta in (0.15, 0.3, 0.45, 0.6, 0.9))
    k_beta, n_beta = bench.fit_power_law([p[0] for p in beta_pts], [p[1] for p in beta_pts],
                                         [p[2] for p in beta_pts])
    passed = abs(k_lam - 2.0) < 0.5 and abs(k_beta - 3.0) < 0.8
    return CriterionResult(8, "coupled-regime exponents", passed,
                           f"lambda exponent {k_lam:.2f} ({n_lam} pts), "
                           f"beta exponent {k_beta:.2f} ({n_beta} pts)",
                           time.perf_counter() - t0)


def criterion_9(ctx: Context) -> CriterionResult:
    """Random-state moments and the normalization diagnostic trend."""
    t0 = time.perf_counter()
    mc = moment_check(16, 10000, (MASTER_SEED, "c9"))
    devs = mc.deviations()
    medians = []
    for n_env in (2, 4, 6, 8, 10):
        model = build_ring_model(4, n_env, -1.0, 31, 37, 0.0)
        diffs = normalization_diagnostic(model, 1.0, 32, (MASTER_SEED, "c9", n_env))
        medians.append(float(np.median(diffs)))
    monotone = all(a > b for a, b in zip(medians, medians[1:]))
    passed = max(devs) < 3.0 and monotone
    med_txt = ", ".join(f"{m:.1e}" for m in medians)
    return CriterionResult(9, "moment and normalization diagnostics", passed,
                           f"moment deviations {[f'{d:.2f}' for d in devs]} se; "
                           f"median diff over D=2^6..2^14: [{med_txt}]",
                           time.perf_counter() - t0)


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9]


def run_all(only: int | None = None, out=print) -> list[CriterionResult]:
    """Run the acceptance criteria (or a single one) and print one line each."""
    ctx = Context()
    results = []
    for k, fn in enumerate(CRITERIA, start=1):
        if only is not None and k != only:
            continue
        result = fn(ctx)
        results.append(result)
        out(result.line())
    return results
