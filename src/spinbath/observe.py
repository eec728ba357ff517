"""Reduced density matrix of the system and the scalar measures.

sigma is the root-sum-square of the off-diagonal elements of the reduced
density matrix written in the eigenbasis of H_S (zero means full
decoherence).  delta is the Euclidean distance between its diagonal and a
Boltzmann distribution at inverse temperature b, where b may be either the
log-ratio fit extracted from the diagonal itself or an externally supplied
reference.  Closed-form ensemble predictions (see `theory`) correspond to
the reference choice b = beta; the fitted b absorbs part of the sample
fluctuation and systematically lowers delta for small system dimensions,
so reports carry both values.

Every measure takes one state or a (dim, k) block of column states.  A
block is reduced to a (k, D_S, D_S) stack with one batched product and one
batched rotation, and sigma, fit_b and delta reduce the stacked matrices
and diagonals along their last axis, so a block of realizations is measured
without a per-column loop.  A single state is the one-column case and
gives floats.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FitError
from .hamiltonian import SYSTEM, SpinModel, energy_bounds
from .propagate import (_checked, _exact_projections, _traced_frame, _transposed,
                        canonical_thermal_state, evolve_real_time, real_time_plan)
from .spectrum import SpectrumSummary, diagonalize, gibbs_weights

LOG_FLOOR = 1e-300          # diagonal entries are clipped here before log
# output times per Chebyshev recurrence of a time trace: a 600-step ring 4+8
# trace on spectral bounds (2 vCPUs, one BLAS thread, medians of 7 rounds)
# took 1.18/0.94/0.79/0.86 s with 8/16/32/64 times per recurrence, once each
# point's sum grew by one GEMV per ring of recurrence vectors (_apply_plan)
_TRACE_CHUNK = 32
_TRACE_AMPLITUDES = 2**20   # amplitudes in one chunk's block of output times


@dataclass
class ReducedDensityMatrix:
    """D_S x D_S density matrix of the system in the H_S eigenbasis, or a (k, D_S, D_S) stack."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def diagonal(self) -> np.ndarray:
        return self.matrix.real.diagonal(axis1=-2, axis2=-1)


@dataclass
class MeasureReport:
    """Scalar measures of one state, or (k,) arrays of them for a block of k states.

    ``delta`` is evaluated at the reference inverse temperature ``beta_ref``
    when one is given (the quantity the closed-form ensemble predictions
    describe) and at the fitted ``b`` otherwise; ``delta_fit`` is always the
    fitted-b value.
    """

    sigma: float | np.ndarray
    delta: float | np.ndarray
    b: float | np.ndarray
    beta_ref: float | None
    delta_fit: float | np.ndarray


def _float_or_array(values: np.ndarray):
    """A float for one matrix's reduction, the (k,) array for a stack's."""
    return float(values) if values.ndim == 0 else values


def reduce_to_system(state: np.ndarray, n_system: int,
                     hs_eigenbasis: SpectrumSummary) -> ReducedDensityMatrix:
    """Trace out the environment, then rotate to the H_S eigenbasis.

    ``state`` is a vector or a (dim, k) block of column states; a block
    gives a (k, D_S, D_S) stack.  The product-basis layout (system on the
    low bits) makes the trace a reshape: each column's amplitudes form a
    (dim_E, dim_S) matrix M with rho = M^dagger M, and the k products and
    rotations each run as one batched matmul.  M^dagger M is a real Gram
    product on M's float view, whose columns interleave Re and Im of each
    system index, so no conjugate copy is made.
    """
    state = np.asarray(state)
    dim_s = 2**n_system
    if state.ndim not in (1, 2) or state.shape[0] % dim_s:
        raise DimensionError(f"state of dimension {state.shape} does not hold {n_system} system spins")
    v = hs_eigenbasis.eigenvectors
    if v is None or v.shape[0] != dim_s:
        raise DimensionError("hs_eigenbasis must carry eigenvectors of dimension 2**n_system")
    # (k, dim_E, dim_S), every M contiguous
    m = _transposed(state.astype(complex, copy=False)).reshape(-1, state.shape[0] // dim_s, dim_s)
    r = m.view(m.real.dtype)
    gram = r.swapaxes(1, 2) @ r
    re_rows, im_rows = gram[:, 0::2], gram[:, 1::2]
    rho = np.empty(m.shape[:1] + (dim_s, dim_s), dtype=m.dtype)
    rho.real = re_rows[:, :, 0::2] + im_rows[:, :, 1::2]
    rho.imag = re_rows[:, :, 1::2] - im_rows[:, :, 0::2]
    rho = v.conj().T @ rho @ v
    rho = 0.5 * (rho + rho.conj().swapaxes(1, 2))
    return ReducedDensityMatrix(rho if state.ndim == 2 else rho[0])


def sigma(rdm: ReducedDensityMatrix) -> float | np.ndarray:
    """Root-sum-square of the strictly upper-triangular moduli."""
    i, j = np.triu_indices(rdm.dim, 1)
    return _float_or_array(np.sqrt(np.sum(np.abs(rdm.matrix[..., i, j]) ** 2, axis=-1)))


def fit_b(rdm: ReducedDensityMatrix, hs_spectrum: SpectrumSummary) -> float | np.ndarray:
    """Fitted inverse temperature: average log-ratio over distinct-energy pairs.

    Two energies are distinct when they differ by more than the spectrum's
    degeneracy_tolerance, the rule ground_degeneracy counts with.
    Diagonal entries are floored at 1e-300 before the logarithm, with one
    warning per call (per stack, not per matrix); with all system energies
    equal the fit is undefined.
    """
    e = hs_spectrum.eigenvalues
    i, j = np.triu_indices(len(e), 1)
    distinct = np.abs(e[i] - e[j]) > hs_spectrum.degeneracy_tolerance
    i, j = i[distinct], j[distinct]
    if len(i) == 0:
        raise FitError("all system energies are equal; b is undefined")
    diag = rdm.diagonal
    if np.any(diag < LOG_FLOOR):
        warnings.warn("reduced density diagonal floored before log; b fit is degenerate",
                      stacklevel=2)
    ln = np.log(np.clip(diag, LOG_FLOOR, None))
    return _float_or_array(np.mean((ln[..., i] - ln[..., j]) / (e[j] - e[i]), axis=-1))


def delta(rdm: ReducedDensityMatrix, hs_spectrum: SpectrumSummary, b) -> float | np.ndarray:
    """Euclidean distance of the diagonal from the Boltzmann profile at b (per matrix and b)."""
    if not np.isfinite(b).all():
        raise ValueError("b must be finite")
    p = gibbs_weights(hs_spectrum.eigenvalues, b)
    return _float_or_array(np.sqrt(np.sum((rdm.diagonal - p) ** 2, axis=-1)))


def measure_state(state: np.ndarray, n_system: int, hs_spectrum: SpectrumSummary,
                  beta_ref: float | None = None) -> MeasureReport:
    """Reduce a state, or a (dim, k) block of them, and package sigma, delta and the fitted b."""
    rdm = reduce_to_system(state, n_system, hs_spectrum)
    s = sigma(rdm)
    b = fit_b(rdm, hs_spectrum)
    d_fit = delta(rdm, hs_spectrum, b)
    d = delta(rdm, hs_spectrum, beta_ref) if beta_ref is not None else d_fit
    return MeasureReport(sigma=s, delta=d, b=b, beta_ref=beta_ref, delta_fit=d_fit)


def thermal_measures(model: SpinModel, psi0: np.ndarray, betas,
                     spectrum: tuple[SpectrumSummary, ...] | None, hs_spectrum: SpectrumSummary):
    """Measure the canonical thermal states of a (dim, k) block at every beta in ``betas``.

    Returns an iterator of one MeasureReport of (k,) arrays per beta, with
    beta_ref = beta.  ``spectrum`` is canonical_thermal_state's and
    ``hs_spectrum`` is diagonalize(model, SYSTEM).  An uncoupled (H_E, H_S)
    spectrum's blocks stay in the product eigenbasis, with no back
    transform, and are measured in hs_spectrum re-expressed there; any
    other spectrum, or None, gives canonical_thermal_state's blocks, and a
    beta that its Chebyshev backend refuses raises ChebyshevOrderError when
    the iterator reaches it, the next beta's report still to come.  Each
    block is dropped before the next one is made.
    """
    if spectrum is not None and len(spectrum) == 2 and all(f.sectors for f in spectrum):
        psi0, betas = _checked(model, psi0, betas, spectrum)
        blocks = _exact_projections(spectrum, psi0, betas, in_eigenbasis=True)
        hs_spectrum = _traced_frame(hs_spectrum, spectrum[1])
    else:
        betas = list(betas)
        blocks = canonical_thermal_state(model, psi0, betas, spectrum)
    # map, not zip, whose reused result tuple would keep the last beta's
    # block alive while the next one is made
    return map(lambda beta, states: measure_state(states, model.n_system, hs_spectrum, beta_ref=beta),
               betas, blocks)


def trace_time_series(model: SpinModel, initial_state: np.ndarray, t_max: float, dt: float,
                      hs_spectrum: SpectrumSummary | None = None,
                      beta_ref: float | None = None, *,
                      bounds: tuple[float, float] | None = None):
    """Evolve in chunks of fixed steps and measure at every step.

    Returns a list of (t, sigma, delta, b) tuples at t = k * dt for
    k = 0..round(t_max / dt); delta follows the measure_state convention
    for beta_ref.  Each chunk runs one Chebyshev recurrence from the state
    at its start to the next m times (a real_time_plan over the grid dt,
    2 dt, ..., m dt) and measures the (dim, m) block in one measure_state
    call; that block is the view of a points-major recurrence block, so its
    transpose is C-contiguous and the reduction copies nothing.  The next
    chunk starts from a copy of the chunk's last column, and the block is
    dropped before that chunk's recurrence runs.  m is
    _TRACE_CHUNK, fewer when m * dim would pass _TRACE_AMPLITUDES, and the
    last chunk may be shorter; each grid length is planned once.

    ``bounds`` must contain H's spectrum, as propagate.lanczos_bounds does,
    and None expands on the Gershgorin bounds energy_bounds(model).  A chunk's
    order grows with m * dt times the width, so on ring 4+8 (width 10.5
    against Gershgorin's 22.9) a 32-step chunk of dt = 0.5 takes 133
    matvecs, 4.2 per sample, instead of 245.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if not (np.isfinite(t_max) and t_max >= 0):
        raise ValueError(f"t_max must be finite and >= 0, got {t_max!r}")
    if not np.isfinite(t_max / dt):
        raise ValueError(f"t_max / dt = {t_max!r} / {dt!r} is not a finite step count")
    if hs_spectrum is None:
        hs_spectrum = diagonalize(model, SYSTEM)
    n_steps = int(round(t_max / dt))
    chunk = min(_TRACE_CHUNK, max(1, _TRACE_AMPLITUDES // model.dim))
    state = np.asarray(initial_state, dtype=complex)
    rep = measure_state(state, model.n_system, hs_spectrum, beta_ref)
    rows = [(0 * dt, rep.sigma, rep.delta, rep.b)]
    if bounds is None and n_steps > 0:
        bounds = energy_bounds(model)
    plans = {}
    for start in range(0, n_steps, chunk):
        m = min(chunk, n_steps - start)
        if m not in plans:
            plans[m] = real_time_plan(bounds, dt * np.arange(1, m + 1))
        block = evolve_real_time(model, state, plans[m].at, plans[m])
        rep = measure_state(block, model.n_system, hs_spectrum, beta_ref)
        times = [k * dt for k in range(start + 1, start + m + 1)]
        rows.extend(zip(times, rep.sigma.tolist(), rep.delta.tolist(), rep.b.tolist()))
        state = block[:, -1].copy()
        del block
    return rows
