"""Random and thermal pure states, real and imaginary time propagation.

A canonical thermal pure state at inverse temperature beta is

    |psi_beta> = exp(-beta H / 2) |psi_0> / <psi_0| exp(-beta H) |psi_0>^(1/2)

with |psi_0> drawn uniformly from the unit sphere (complex Gaussian
amplitudes via Box-Muller).  ``canonical_thermal_state(model, psi0, betas,
spectrum=None)`` is the one projection: it takes a (dim, k) block of
initial states and a list of betas and has two backends.

- exact: given a tuple of factor spectra, highest bits first, project in
  their product eigenbasis, one beta's block at a time.  A coupled model
  has one factor, the full H; an uncoupled one has (H_E, H_S), because
  exp(-beta H / 2) then splits into exp(-beta H_E / 2) (x) exp(-beta H_S / 2)
  and the 2^N-dimensional H is never built.  A factor's eigenpairs come by
  parity sector (see spectrum): each factor axis is gathered sector by
  sector, one gather per P_x pair giving both sectors' sum and difference,
  transformed with that sector's eigenvectors and assigned straight back,
  so no full eigenvector matrix is formed.  A plain full-basis spectrum is
  a valid factor too.  The block keeps its layout: for factor axis i it is
  viewed as (before, d_i, after) and multiplied along the middle axis by
  real GEMMs on its float view (real_matmul).  Each column is normalized
  through its weights in the eigenbasis, where its norm is a weighted sum
  of squares.  A caller that only traces E out passes ``traced_env=True``,
  and an uncoupled block then skips the H_E back transform;
- Chebyshev: without a spectrum, run one recurrence T_k(X)|psi_0> on the
  whole block up to the largest order and accumulate every beta's expansion
  from it (the shared-vector scheme of Dobrovitski & De Raedt, PRE 67,
  056702 (2003)), so the cost is the largest order, not the sum.

``projection_spectrum`` maps a method ("auto", "exact", "chebyshev") to
those factors or None; "auto" is exact up to EXACT_AUTO_DIM.  Real time
exp(-i t H) uses the same recurrence with a single plan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ive, jv

from .errors import ChebyshevOrderError, DimensionError, ModelError
from .hamiltonian import ENVIRONMENT, FULL, SYSTEM, SpinModel, apply_hamiltonian, energy_bounds
from .seeds import spawn_rng
from .spectrum import SpectrumSummary, diagonalize, diagonalize_sectors

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
    """Retained expansion coefficients for one propagator, exp(-i t H) or exp(-beta H / 2).

    The spectrum is mapped onto [-1, 1] via (e_min, e_max).  ``coefficients``
    carry the full term weights (2 - delta_k0 and the i^k / sign factors);
    the scalar prefactor exp(log_prefactor) * phase is applied at the end.
    """

    e_min: float
    e_max: float
    order: int
    coefficients: np.ndarray
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


def _truncate(coeffs: np.ndarray):
    """Index of the last retained coefficient: two in a row below DEFAULT_TOLERANCE of the largest."""
    mags = np.abs(coeffs)
    thr = DEFAULT_TOLERANCE * mags.max()
    small = mags < thr
    for k in range(1, len(coeffs) - 1):
        if small[k] and small[k + 1]:
            return k
    return None


def _retained(series, n: int, expansion: str) -> np.ndarray:
    """The coefficients series(k), k = 0, 1, ..., up to the last one _truncate keeps.

    The series is evaluated at k = 0..n+1, with n grown by 1.6x until the
    truncation rule fires; past DEFAULT_MAX_ORDER the expansion is refused.
    """
    while True:
        coeffs = series(np.arange(n + 2))
        order = _truncate(coeffs)
        if order is not None or n > DEFAULT_MAX_ORDER:
            break
        n = int(n * 1.6) + 16
    if order is None or order > DEFAULT_MAX_ORDER:
        raise ChebyshevOrderError(f"{expansion} needs order > {DEFAULT_MAX_ORDER}; "
                                  "use the exact method or shorter propagation steps")
    return coeffs[: order + 1]


def real_time_plan(bounds, t):
    """Plan for exp(-i t H) with spectrum inside ``bounds``."""
    e_min, e_max = _pad_bounds(bounds)
    a = 0.5 * (e_max + e_min)
    half = 0.5 * (e_max - e_min)
    z = t * half
    coeffs = _retained(lambda k: np.where(k == 0, 1.0, 2.0) * (-1j) ** k * jv(k, z),
                       int(abs(z) + 20 + 12 * abs(z) ** (1.0 / 3.0)),
                       f"exp(-itH) expansion for t*width = {2 * z:.3g}")
    return ChebyshevPlan(e_min, e_max, len(coeffs) - 1, coeffs, phase=np.exp(-1j * t * a))


def imaginary_time_plan(bounds, beta):
    """Plan for exp(-beta H / 2) with spectrum inside ``bounds``."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    e_min, e_max = _pad_bounds(bounds)
    a = 0.5 * (e_max + e_min)
    half = 0.5 * (e_max - e_min)
    z = 0.5 * beta * half
    # scaled modified Bessel ive(k, z) = I_k(z) exp(-z) avoids overflow;
    # the missing exp(z) joins the prefactor in the log domain
    coeffs = _retained(lambda k: np.where(k == 0, 1.0, 2.0) * (-1.0) ** k * ive(k, z),
                       int(z + 20 + 9 * np.sqrt(z)),
                       f"exp(-bH/2) expansion for beta*width = {beta * (e_max - e_min):.3g}")
    return ChebyshevPlan(e_min, e_max, len(coeffs) - 1, coeffs, log_prefactor=z - 0.5 * beta * a)


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
        # in place on the fresh matvec result: (H v - a v) / half, bit for bit
        y = apply_hamiltonian(model, FULL, v)
        y -= a * v
        y /= half
        return y

    t_prev = state.astype(complex)
    accs = [p.coefficients[0] * t_prev for p in plans]
    t_cur = x_apply(t_prev)
    for p, acc in zip(plans, accs):
        acc += p.coefficients[1] * t_cur
    for k in range(2, max(p.order for p in plans) + 1):
        t_next = x_apply(t_cur)
        t_next *= 2.0
        t_next -= t_prev
        for p, acc in zip(plans, accs):
            if k <= p.order:
                acc += p.coefficients[k] * t_next
        t_prev, t_cur = t_cur, t_next
    return accs


def evolve_real_time(model: SpinModel, state: np.ndarray, t: float, plan=None) -> np.ndarray:
    """Return exp(-i t H) |state| via the Chebyshev expansion (norm preserving).

    A cached ``plan`` built by real_time_plan for the same t may be supplied
    to avoid recomputing coefficients (e.g. when stepping a time trace).
    """
    if plan is None:
        plan = real_time_plan(energy_bounds(model), t)
    return plan.phase * _apply_plan(model, [plan], state)[0]


def real_matmul(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x without upcasting a real matrix to complex: one real product on x's float view.

    A complex x, a vector or a stack of (d, n) blocks, is read as reals with
    each entry's real and imaginary part side by side, so a row of n complex
    entries is a row of 2n reals.  m acts on those rows in one real GEMM per
    block, and the product reads back as complex without a copy.  x is copied
    only when its last axis is strided; a vector is viewed as (d, 2).
    """
    if np.iscomplexobj(x) and not np.iscomplexobj(m):
        if x.strides[-1] != x.itemsize:
            x = np.ascontiguousarray(x)
        dtype = np.result_type(m, x)
        if x.ndim == 1:
            return (m @ x.view(x.real.dtype).reshape(-1, 2)).view(dtype)[:, 0]
        return (m @ x.view(x.real.dtype)).view(dtype)
    return m @ x


def _unprojected(psi0: np.ndarray):
    """The beta = 0 result: the block itself and its squared column norms."""
    return psi0, np.linalg.norm(psi0, axis=0) ** 2


def _to_eigenbasis(factor: SpectrumSummary, x: np.ndarray) -> np.ndarray:
    """Coordinates of the (A, d, B) block x in a factor's eigenbasis, along axis 1.

    Rows follow the factor's eigenpairs in sector order.  A P_x pair's two
    sectors take the sum and the difference of one gather; the 1/sqrt(2) of
    that pair basis is left out here and on the way back (see _pair_gain).
    """
    if factor.sectors is None:
        return real_matmul(factor.eigenvectors.T, x)
    parts = []
    for s in factor.sectors:
        if s.partners is None:
            v = x[:, s.reps]
        elif s.sign > 0:
            a, b = x[:, s.reps], x[:, s.partners]
            v, minus = a + b, a - b
        else:
            v = minus
        parts.append(real_matmul(s.eigenvectors.T, v))
    return np.concatenate(parts, axis=1)


def _from_eigenbasis(factor: SpectrumSummary, c: np.ndarray) -> np.ndarray:
    """Computational-basis rows from eigenbasis rows along axis 1.

    This undoes _to_eigenbasis up to the factor _pair_gain(factor).
    """
    if factor.sectors is None:
        return real_matmul(factor.eigenvectors, c)
    out = np.empty_like(c)
    start = 0
    for s in factor.sectors:
        stop = start + s.eigenvalues.shape[0]
        y = real_matmul(s.eigenvectors, c[:, start:stop])
        start = stop
        if s.partners is None:
            out[:, s.reps] = y
        elif s.sign > 0:
            plus = y
        else:
            out[:, s.reps] = plus + y
            plus -= y
            out[:, s.partners] = plus
    return out


def _pair_gain(factor: SpectrumSummary) -> int:
    """2 for a factor whose sectors pair indices under P_x, else 1.

    Both transforms leave out the pair basis' 1/sqrt(2), so
    _from_eigenbasis(c) has squared norm gain * |c|^2, and
    _from_eigenbasis(_to_eigenbasis(x)) = gain * x.
    """
    paired = factor.sectors is not None and factor.sectors[0].partners is not None
    return 2 if paired else 1


def _coefficient_energies(factor: SpectrumSummary) -> np.ndarray:
    """The factor's eigenvalues in the row order of _to_eigenbasis."""
    if factor.sectors is None:
        return factor.eigenvalues
    return np.concatenate([s.eigenvalues for s in factor.sectors])


def _along_axis(transform, factor: SpectrumSummary, x: np.ndarray, axis: int) -> np.ndarray:
    """Apply a factor transform to ``axis`` of the contiguous x, viewed as (before, d, after)."""
    view = x.reshape(math.prod(x.shape[:axis]), x.shape[axis], -1)
    return transform(factor, view).reshape(x.shape)


def _exact_projections(factors, psi0: np.ndarray, betas, traced_env: bool):
    """Exact backend: project in the product eigenbasis, yielding one beta's block at a time.

    The block is viewed as (d_1, ..., d_m, k), factor i acting on axis i;
    exp(-beta/2 * sum_i eps_i) weights each product eigenvector, with every
    factor's ground energy (its lowest sorted eigenvalue) shifted out.  The
    back transforms are orthogonal up to the gain G of _pair_gain, so the
    squared norm of a projected column is sum w^2 |coeff0|^2 / G, read off
    in the eigenbasis; the weights w / (G * norm) then give normalized
    columns straight out of the back transforms.

    With ``traced_env`` and two factors (H_E, H_S) the H_E back transform
    is left out, so the environment axis stays in H_E's eigenbasis; its
    gain G_E leaves with it, and the weights w / (G * norm / sqrt(G_E))
    keep the columns normalized.
    """
    shape = tuple(f.dim for f in factors) + psi0.shape[1:]
    coeff0 = psi0.reshape(shape)
    for axis, f in enumerate(factors):
        coeff0 = _along_axis(_to_eigenbasis, f, coeff0, axis)
    coeff0 = coeff0.reshape(psi0.shape)
    shifted = functools.reduce(np.add.outer, [_coefficient_energies(f) - f.eigenvalues[0]
                                              for f in factors]).ravel()
    e0 = sum(f.eigenvalues[0] for f in factors)
    gain = math.prod(_pair_gain(f) for f in factors)
    first_back = 1 if traced_env and len(factors) == 2 else 0
    skipped_gain = _pair_gain(factors[0]) if first_back else 1
    for beta in betas:
        if beta == 0.0:
            yield _unprojected(psi0)
            continue
        w = np.exp(-0.5 * beta * shifted)
        w_sq = w * w
        # sum w^2 |coeff0|^2 per column, with no temporary block
        raw_norm_sq = (np.einsum("i,ij,ij->j", w_sq, coeff0.real, coeff0.real)
                       + np.einsum("i,ij,ij->j", w_sq, coeff0.imag, coeff0.imag)) / gain
        raw = coeff0 * np.multiply.outer(w, 1.0 / (gain * np.sqrt(raw_norm_sq / skipped_gain)))
        raw = raw.reshape(shape)
        for axis in range(first_back, len(factors)):
            raw = _along_axis(_from_eigenbasis, factors[axis], raw, axis)
        with np.errstate(over="ignore", under="ignore"):
            norm_sq = raw_norm_sq * np.exp(-beta * e0)
        yield raw.reshape(psi0.shape), norm_sq


def _chebyshev_projections(model: SpinModel, psi0: np.ndarray, betas) -> list:
    """Chebyshev backend: one shared recurrence on the whole block for every beta > 0."""
    bounds = energy_bounds(model)
    plans = [imaginary_time_plan(bounds, beta) for beta in betas if beta > 0.0]
    if not plans:
        return [_unprojected(psi0) for _ in betas]
    raws = _apply_plan(model, plans, psi0)
    # each column's norm as a vector's, so no column's result depends on its block
    psi0_norm, *raw_norms = (np.array([np.linalg.norm(c) for c in x.T]) for x in (psi0, *raws))
    # The scaled series sums to exp(-z(x - x_min)) profiles with terms of
    # order one; once the surviving amplitude falls near machine epsilon the
    # single-shot projection has cancelled away all precision.
    if not all(np.all(raw_norm > 1e-12 * psi0_norm) for raw_norm in raw_norms):
        raise ChebyshevOrderError(
            "beta * spectral width too large for a single double-precision "
            "Chebyshev projection; use the exact backend or compose shorter "
            "imaginary-time projections"
        )
    projected = []
    for plan, raw, raw_norm in zip(plans, raws, raw_norms):
        raw /= raw_norm
        with np.errstate(over="ignore", under="ignore"):
            projected.append((raw, np.exp(2.0 * (np.log(raw_norm) + plan.log_prefactor))))
    projected = iter(projected)
    return [next(projected) if beta > 0.0 else _unprojected(psi0) for beta in betas]


def canonical_thermal_state(model: SpinModel, psi0: np.ndarray, betas,
                            spectrum: tuple[SpectrumSummary, ...] | None = None, *,
                            traced_env: bool = False):
    """Project a (dim, k) block of initial states to every inverse temperature in ``betas``.

    Returns an iterable of one (states, norm_sq) pair per beta, in order:
    ``states`` holds the normalized columns exp(-beta H / 2)|psi_0>, and
    ``norm_sq`` per column <psi_0| exp(-beta H) |psi_0> (it may overflow to
    inf or underflow to 0 at extreme beta * |E|, while the states stay
    exact).  beta = 0 returns ``psi0`` itself with its squared column norms.

    Given ``spectrum``, a tuple of factor spectra with eigenvectors (full
    basis or parity sectors), highest bits first, whose dimensions multiply
    to model.dim (see projection_spectrum), the block is projected exactly
    and lazily, so only one beta's block is held at a time; without it a
    single Chebyshev recurrence on the whole block serves every beta and
    never builds a dense matrix.

    ``traced_env=True`` is for callers that only trace the environment out
    (reduce_to_system): with an uncoupled (H_E, H_S) spectrum, each beta > 0
    block then keeps its environment axis in H_E's eigenbasis and skips
    that back transform.  Tr_E does not see a unitary on E, so the reduced
    density matrix is the same; the states are not, and must not be
    evolved or embedded.  Coupled spectra, the Chebyshev backend and
    beta = 0 ignore the flag.
    """
    psi0 = np.asarray(psi0)
    if psi0.ndim != 2 or psi0.shape[0] != model.dim:
        raise DimensionError(f"psi0 must be a ({model.dim}, k) block, got shape {psi0.shape}")
    betas = [float(beta) for beta in betas]
    if not all(np.isfinite(beta) and beta >= 0.0 for beta in betas):
        raise ValueError("betas must be finite and >= 0")
    if spectrum is None:
        return _chebyshev_projections(model, psi0, betas)
    if any(f.eigenvectors is None and f.sectors is None for f in spectrum) \
            or math.prod(f.dim for f in spectrum) != model.dim:
        raise ValueError("the exact backend needs factor spectra with eigenvectors "
                         "whose dimensions multiply to the model dimension")
    return _exact_projections(spectrum, psi0, betas, traced_env)


def projection_spectrum(model: SpinModel, method: str) -> tuple[SpectrumSummary, ...] | None:
    """The ``spectrum`` argument of canonical_thermal_state for a method.

    "exact" gives the factor spectra: (H_E, H_S) when the model is
    uncoupled (lam = 0 or no coupling bonds), else (H,).  Each is
    diagonalized by parity sector (diagonalize_sectors), up to four dense
    blocks of a quarter of the factor's dimension, sliced from the kernel's
    sparse matrix, with each factor capped at the dense cap; the sector
    vectors carry no gauge fixing, which the projection does not need.
    "chebyshev" gives None, and "auto" is exact up to EXACT_AUTO_DIM.
    """
    if method not in ("auto", "exact", "chebyshev"):
        raise ValueError(f"unknown method {method!r}")
    if method == "chebyshev" or (method == "auto" and model.dim > EXACT_AUTO_DIM):
        return None
    if model.lam == 0.0 or not model.coupling_bonds:
        return (diagonalize_sectors(model, ENVIRONMENT), diagonalize_sectors(model, SYSTEM))
    return (diagonalize_sectors(model, FULL),)


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
    env_spec = diagonalize_sectors(model, ENVIRONMENT)
    env0 = random_state(model.dim_env, seed)[:, None]
    (env_vec, _), = _exact_projections((env_spec,), env0, [beta], traced_env=False)
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
