"""Random and thermal pure states, real and imaginary time propagation.

A canonical thermal pure state at inverse temperature beta is

    |psi_beta> = exp(-beta H / 2) |psi_0> / <psi_0| exp(-beta H) |psi_0>^(1/2)

with |psi_0> drawn uniformly from the unit sphere (complex Gaussian
amplitudes via Box-Muller).  ``canonical_thermal_state(model, psi0, betas,
spectrum=None)`` is the one projection: it takes a (dim, k) block of
initial states and a list of betas and has two backends.

- exact: given the full-H spectrum, project in the eigenbasis, one beta's
  block at a time;
- Chebyshev: without a spectrum, run one recurrence T_k(X)|psi_0> per
  column up to the largest order and accumulate every beta's expansion
  from it (the shared-vector scheme of Dobrovitski & De Raedt, PRE 67,
  056702 (2003)), so the cost is the largest order, not the sum.

``projection_spectrum`` maps a method ("auto", "exact", "chebyshev") to
that spectrum or None; "auto" is exact up to EXACT_AUTO_DIM.  Real time
exp(-i t H) uses the same recurrence with a single plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ive, jv

from .errors import ChebyshevOrderError, DimensionError, ModelError, SizeLimitError
from .hamiltonian import ENVIRONMENT, FULL, SpinModel, apply_hamiltonian, energy_bounds
from .seeds import spawn_rng
from .spectrum import DEFAULT_DIM_CAP, SpectrumSummary, diagonalize

DEFAULT_TOLERANCE = 1e-15      # relative truncation threshold for coefficients
DEFAULT_MAX_ORDER = 200_000
EXACT_AUTO_DIM = 2**12         # "auto" projects exactly up to this dimension


def _sub_seed(seed, *extra) -> tuple:
    return (*(seed if isinstance(seed, tuple) else (seed,)), *extra)


def random_state(dim: int, seed) -> np.ndarray:
    """Haar-random state: Box-Muller Gaussian amplitudes, normalized.

    ``seed`` may be an int or a tuple of ints/strings; the draw is
    deterministic per seed (Philox stream).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = spawn_rng(*(seed if isinstance(seed, tuple) else (seed,)))
    u = rng.random((2, dim))
    radius = np.sqrt(-2.0 * np.log1p(-u[0]))   # 1 - u in (0, 1], so log is finite
    d = radius * np.cos(2.0 * np.pi * u[1]) + 1j * radius * np.sin(2.0 * np.pi * u[1])
    return d / np.linalg.norm(d)


@dataclass
class ChebyshevPlan:
    """Retained expansion coefficients for one propagator.

    kind "real" expands exp(-i t H), kind "imag" expands exp(-beta H / 2);
    the spectrum is mapped onto [-1, 1] via (e_min, e_max).  ``coefficients``
    carry the full term weights (2 - delta_k0 and the i^k / sign factors);
    the scalar prefactor exp(log_prefactor) * phase is applied at the end.
    """

    e_min: float
    e_max: float
    order: int
    coefficients: np.ndarray
    tolerance: float
    kind: str
    parameter: float
    log_prefactor: float = 0.0
    phase: complex = 1.0 + 0j

    def __post_init__(self):
        if self.e_max <= self.e_min:
            raise ValueError("need e_max > e_min")
        if self.order < 1:
            raise ValueError("order must be >= 1")


def _pad_bounds(bounds):
    e_min, e_max = float(bounds[0]), float(bounds[1])
    if e_max <= e_min:
        # zero-width spectrum (e.g. empty bond lists); widen so the affine
        # map is defined, the expansion then reduces to the exact scalar
        e_min, e_max = e_min - 0.5, e_max + 0.5
    return e_min, e_max


def _truncate(coeffs: np.ndarray, tolerance: float):
    """Index of the last retained coefficient under the two-in-a-row rule."""
    mags = np.abs(coeffs)
    thr = tolerance * mags.max()
    small = mags < thr
    for k in range(1, len(coeffs) - 1):
        if small[k] and small[k + 1]:
            return k
    return None


def real_time_plan(bounds, t, tolerance=DEFAULT_TOLERANCE, max_order=DEFAULT_MAX_ORDER):
    """Plan for exp(-i t H) with spectrum inside ``bounds``."""
    e_min, e_max = _pad_bounds(bounds)
    a = 0.5 * (e_max + e_min)
    half = 0.5 * (e_max - e_min)
    z = t * half
    n = int(abs(z) + 20 + 12 * abs(z) ** (1.0 / 3.0))
    while True:
        k = np.arange(n + 2)
        bessel = jv(k, z)
        coeffs = np.where(k == 0, 1.0, 2.0) * (-1j) ** k * bessel
        order = _truncate(coeffs, tolerance)
        if order is not None:
            break
        if n > max_order:
            order = None
            break
        n = int(n * 1.6) + 16
    if order is None or order > max_order:
        raise ChebyshevOrderError(
            f"exp(-itH) expansion needs order > {max_order} for t*width = {2 * z:.3g}; "
            "raise max_order"
        )
    return ChebyshevPlan(
        e_min, e_max, order, coeffs[: order + 1], tolerance,
        kind="real", parameter=float(t), phase=np.exp(-1j * t * a),
    )


def imaginary_time_plan(bounds, beta, tolerance=DEFAULT_TOLERANCE, max_order=DEFAULT_MAX_ORDER):
    """Plan for exp(-beta H / 2) with spectrum inside ``bounds``."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    e_min, e_max = _pad_bounds(bounds)
    a = 0.5 * (e_max + e_min)
    half = 0.5 * (e_max - e_min)
    z = 0.5 * beta * half
    n = int(z + 20 + 9 * np.sqrt(z))
    while True:
        k = np.arange(n + 2)
        # scaled modified Bessel ive(k, z) = I_k(z) exp(-z) avoids overflow;
        # the missing exp(z) joins the prefactor in the log domain
        bessel = ive(k, z)
        coeffs = np.where(k == 0, 1.0, 2.0) * (-1.0) ** k * bessel
        order = _truncate(coeffs, tolerance)
        if order is not None:
            break
        if n > max_order:
            order = None
            break
        n = int(n * 1.6) + 16
    if order is None or order > max_order:
        raise ChebyshevOrderError(
            f"exp(-bH/2) expansion needs order > {max_order} for beta*width = "
            f"{beta * (e_max - e_min):.3g}; raise max_order"
        )
    return ChebyshevPlan(
        e_min, e_max, order, coeffs[: order + 1], tolerance,
        kind="imag", parameter=float(beta), log_prefactor=z - 0.5 * beta * a,
    )


def _apply_plan(model: SpinModel, plans: list[ChebyshevPlan], state: np.ndarray) -> list[np.ndarray]:
    """Clenshaw-free forward recurrence: sum_k c_k T_k(X) |state> for each plan.

    The plans must share one spectral map (the first plan's bounds are
    used); T_k(X)|state> is computed once up to the largest order and each
    plan's sum stops at its own order.
    """
    if state.shape[0] != model.dim:
        raise DimensionError(f"state dimension {state.shape[0]} != model dimension {model.dim}")
    a = 0.5 * (plans[0].e_max + plans[0].e_min)
    half = 0.5 * (plans[0].e_max - plans[0].e_min)

    def x_apply(v):
        return (apply_hamiltonian(model, FULL, v) - a * v) / half

    t_prev = state.astype(complex)
    accs = [p.coefficients[0] * t_prev for p in plans]
    t_cur = x_apply(t_prev)
    for p, acc in zip(plans, accs):
        acc += p.coefficients[1] * t_cur
    for k in range(2, max(p.order for p in plans) + 1):
        t_next = 2.0 * x_apply(t_cur) - t_prev
        for p, acc in zip(plans, accs):
            if k <= p.order:
                acc += p.coefficients[k] * t_next
        t_prev, t_cur = t_cur, t_next
    return accs


def evolve_real_time(model: SpinModel, state: np.ndarray, t: float, plan=None,
                     tolerance=DEFAULT_TOLERANCE, max_order=DEFAULT_MAX_ORDER) -> np.ndarray:
    """Return exp(-i t H) |state| via the Chebyshev expansion (norm preserving).

    A cached ``plan`` built by real_time_plan for the same t may be supplied
    to avoid recomputing coefficients (e.g. when stepping a time trace).
    """
    if plan is None:
        plan = real_time_plan(energy_bounds(model), t, tolerance, max_order)
    return plan.phase * _apply_plan(model, [plan], state)[0]


def real_matmul(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x without upcasting a real matrix to complex (two real products).

    The real and imaginary parts are copied contiguously so both products
    stay on the BLAS fast path.
    """
    if np.iscomplexobj(x) and not np.iscomplexobj(m):
        re = m @ np.ascontiguousarray(x.real)
        im = m @ np.ascontiguousarray(x.imag)
        return re + 1j * im
    return m @ x


def _unprojected(psi0: np.ndarray):
    """The beta = 0 result: the block itself and its squared column norms."""
    return psi0, np.linalg.norm(psi0, axis=0) ** 2


def _exact_projections(spectrum: SpectrumSummary, psi0: np.ndarray, betas):
    """Exact backend: project in the eigenbasis, yielding one beta's block at a time."""
    e = spectrum.eigenvalues
    v = spectrum.eigenvectors
    coeff0 = real_matmul(v.T, psi0)
    for beta in betas:
        if beta == 0.0:
            yield _unprojected(psi0)
            continue
        coeff = coeff0 * np.exp(-0.5 * beta * (e - e[0]))[:, None]
        raw = real_matmul(v, coeff)
        raw_norm = np.linalg.norm(raw, axis=0)
        raw /= raw_norm
        with np.errstate(over="ignore", under="ignore"):
            norm_sq = raw_norm**2 * np.exp(-beta * e[0])
        yield raw, norm_sq


def _chebyshev_projections(model: SpinModel, psi0: np.ndarray, betas) -> list:
    """Chebyshev backend: one shared recurrence per column for every beta > 0."""
    bounds = energy_bounds(model)
    plans = [imaginary_time_plan(bounds, beta) for beta in betas if beta > 0.0]
    if not plans:
        return [_unprojected(psi0) for _ in betas]
    states = [np.empty(psi0.shape, dtype=complex) for _ in plans]
    norm_sq = np.empty((len(plans), psi0.shape[1]))
    for j in range(psi0.shape[1]):
        column = psi0[:, j]
        for i, (plan, raw) in enumerate(zip(plans, _apply_plan(model, plans, column))):
            raw_norm = np.linalg.norm(raw)
            # The scaled series sums to exp(-z(x - x_min)) profiles with terms
            # of order one; once the surviving amplitude falls near machine
            # epsilon the single-shot projection has cancelled away all
            # precision.
            if not raw_norm > 1e-12 * np.linalg.norm(column):
                raise ChebyshevOrderError(
                    "beta * spectral width too large for a single double-precision "
                    "Chebyshev projection; use the exact backend or compose shorter "
                    "imaginary-time projections"
                )
            states[i][:, j] = raw / raw_norm
            with np.errstate(over="ignore", under="ignore"):
                norm_sq[i, j] = np.exp(2.0 * (np.log(raw_norm) + plan.log_prefactor))
    projected = iter(zip(states, norm_sq))
    return [next(projected) if beta > 0.0 else _unprojected(psi0) for beta in betas]


def canonical_thermal_state(model: SpinModel, psi0: np.ndarray, betas,
                            spectrum: SpectrumSummary | None = None):
    """Project a (dim, k) block of initial states to every inverse temperature in ``betas``.

    Returns an iterable of one (states, norm_sq) pair per beta, in order:
    ``states`` holds the normalized columns exp(-beta H / 2)|psi_0>, and
    ``norm_sq`` per column <psi_0| exp(-beta H) |psi_0> (it may overflow to
    inf or underflow to 0 at extreme beta * |E|, while the states stay
    exact).  beta = 0 returns ``psi0`` itself with its squared column norms.

    Given the full-H ``spectrum`` (see projection_spectrum) the block is
    projected exactly and lazily, so only one beta's block is held at a
    time; without it a single Chebyshev recurrence per column serves every
    beta and never builds a dense matrix.
    """
    psi0 = np.asarray(psi0)
    if psi0.ndim != 2 or psi0.shape[0] != model.dim:
        raise DimensionError(f"psi0 must be a ({model.dim}, k) block, got shape {psi0.shape}")
    betas = [float(beta) for beta in betas]
    if not all(np.isfinite(beta) and beta >= 0.0 for beta in betas):
        raise ValueError("betas must be finite and >= 0")
    if spectrum is None:
        return _chebyshev_projections(model, psi0, betas)
    if spectrum.eigenvectors is None or spectrum.dim != model.dim:
        raise ValueError("the exact backend needs the full-H spectrum with eigenvectors")
    return _exact_projections(spectrum, psi0, betas)


def projection_spectrum(model: SpinModel, method: str) -> SpectrumSummary | None:
    """The ``spectrum`` argument of canonical_thermal_state for a method.

    "exact" diagonalizes the full H (dense, so capped by the dense size
    limit), "chebyshev" gives None, and "auto" is exact up to EXACT_AUTO_DIM.
    """
    if method not in ("auto", "exact", "chebyshev"):
        raise ValueError(f"unknown method {method!r}")
    if method == "chebyshev" or (method == "auto" and model.dim > EXACT_AUTO_DIM):
        return None
    return diagonalize(model, FULL)


def alternating_product_state(model: SpinModel, beta: float, seed) -> np.ndarray:
    """Product initial state: system up-down-up-... , environment thermal.

    The system factor is the basis state with site 1 up, site 2 down and so
    on; the environment factor is a canonical thermal state of H_E alone at
    inverse temperature beta (drawn per seed).  This is the relaxation
    starting point used alongside canonical thermal states of the entirety.
    """
    if model.n_env < 1:
        raise ModelError("product state needs an environment")
    sys_index = 0
    for site in range(2, model.n_system + 1, 2):
        sys_index |= 1 << (site - 1)
    sys_vec = np.zeros(model.dim_system, dtype=complex)
    sys_vec[sys_index] = 1.0
    env_spec = diagonalize(model, ENVIRONMENT)
    env0 = random_state(model.dim_env, seed)[:, None]
    (env_vec, _), = _exact_projections(env_spec, env0, [beta])
    return np.kron(env_vec[:, 0], sys_vec)


def normalization_diagnostic(model: SpinModel, beta: float, n_realizations: int, seed) -> np.ndarray:
    """Per-realization | sum_k |d_k|^2 p_k - 1/D | for an uncoupled model.

    p_k are exact Boltzmann weights assembled from the part spectra
    (p_i^S * p_p^E); d are the random-state amplitudes in the product
    eigenbasis.  Exact zero (up to rounding) at beta = 0; the spread shrinks
    with growing D.
    """
    if model.coupling_bonds and model.lam != 0.0:
        raise ModelError("normalization diagnostic is defined for uncoupled models (lam = 0)")
    if model.dim > DEFAULT_DIM_CAP:
        raise SizeLimitError(f"dimension {model.dim} exceeds {DEFAULT_DIM_CAP}")
    es = diagonalize(model, "S", want_vectors=False).eigenvalues
    ee = diagonalize(model, "E", want_vectors=False).eigenvalues
    ws = np.exp(-beta * (es - es.min()))
    we = np.exp(-beta * (ee - ee.min()))
    p = np.kron(we / we.sum(), ws / ws.sum())     # index n = s + dim_S * e
    d = 1.0 / model.dim
    diffs = np.empty(n_realizations)
    for r in range(n_realizations):
        amp = random_state(model.dim, _sub_seed(seed, "norm-diag", r))
        diffs[r] = abs(float(np.sum(np.abs(amp) ** 2 * p)) - d)
    return diffs


@dataclass
class MomentCheck:
    """Sample moments of |d_k|^2 for random states against the exact values."""

    dim: int
    n_draws: int
    mean_x: float
    stderr_x: float
    mean_x2: float
    stderr_x2: float
    mean_xx: float
    stderr_xx: float
    ref_x: float = field(init=False)
    ref_x2: float = field(init=False)
    ref_xx: float = field(init=False)

    def __post_init__(self):
        d = self.dim
        self.ref_x = 1.0 / d
        self.ref_x2 = 2.0 / (d * (d + 1))
        self.ref_xx = 1.0 / (d * (d + 1))

    def deviations(self) -> tuple[float, float, float]:
        """|estimate - reference| in units of the standard error."""
        return (
            abs(self.mean_x - self.ref_x) / self.stderr_x,
            abs(self.mean_x2 - self.ref_x2) / self.stderr_x2,
            abs(self.mean_xx - self.ref_xx) / self.stderr_xx,
        )


def moment_check(dim: int, n_draws: int, seed) -> MomentCheck:
    """Estimate E(x), E(x^2), E(x_i x_j) over random-state draws.

    x_k = |d_k|^2.  Per draw: x of the first amplitude, the average of x^2
    over k, and the average of x_i x_j over ordered pairs i != j (computed
    from the normalization constraint).  Standard errors are over draws.
    """
    if n_draws < 2:
        raise ValueError("need at least 2 draws")
    a = np.empty(n_draws)
    b = np.empty(n_draws)
    c = np.empty(n_draws)
    for r in range(n_draws):
        x = np.abs(random_state(dim, _sub_seed(seed, "moments", r))) ** 2
        a[r] = x[0]
        sum_x2 = float(np.sum(x * x))
        b[r] = sum_x2 / dim
        c[r] = (1.0 - sum_x2) / (dim * (dim - 1)) if dim > 1 else 0.0
    se = lambda v: float(np.std(v, ddof=1) / np.sqrt(n_draws))
    return MomentCheck(dim, n_draws, float(a.mean()), se(a), float(b.mean()), se(b),
                       float(c.mean()), se(c))
