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

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, FitError
from .hamiltonian import SYSTEM, SpinModel, energy_bounds
from .propagate import ChebyshevPlan, evolve_real_time, real_time_plan
from .spectrum import SpectrumSummary, diagonalize

LOG_FLOOR = 1e-300          # diagonal entries are clipped here before log
ENERGY_TOL_FACTOR = 1e-9    # relative tolerance deciding E_i != E_j in the fit


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


_TILE_ROWS = 64     # rows per tile of _transposed: 64 x 256 complex columns is 256 KiB


def _transposed(state: np.ndarray) -> np.ndarray:
    """state.T as a C-contiguous array, copied tile by tile so each tile stays in cache."""
    if state.ndim == 1 or state.T.flags.c_contiguous:
        return np.ascontiguousarray(state.T)
    out = np.empty(state.shape[::-1], dtype=state.dtype)
    for start in range(0, state.shape[0], _TILE_ROWS):
        out[:, start:start + _TILE_ROWS] = state[start:start + _TILE_ROWS].T
    return out


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


@functools.lru_cache(maxsize=8)
def _upper_pairs(dim: int):
    """Read-only row and column indices of the strict upper triangle, once per dimension."""
    i, j = np.triu_indices(dim, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def sigma(rdm: ReducedDensityMatrix) -> float | np.ndarray:
    """Root-sum-square of the strictly upper-triangular moduli."""
    i, j = _upper_pairs(rdm.dim)
    return _float_or_array(np.sqrt(np.sum(np.abs(rdm.matrix[..., i, j]) ** 2, axis=-1)))


@functools.lru_cache(maxsize=8)
def _distinct_pairs(energy_bytes: bytes, width: float):
    """Index pairs i < j of distinct energies, once per spectrum (keyed by its float64 bytes)."""
    energies = np.frombuffer(energy_bytes)
    tol = ENERGY_TOL_FACTOR * (width if width > 0 else 1.0)
    i, j = _upper_pairs(len(energies))
    keep = np.abs(energies[i] - energies[j]) > tol
    i, j = i[keep], j[keep]
    i.flags.writeable = j.flags.writeable = False
    return i, j


def fit_b(rdm: ReducedDensityMatrix, hs_spectrum: SpectrumSummary) -> float | np.ndarray:
    """Fitted inverse temperature: average log-ratio over distinct-energy pairs.

    Diagonal entries are floored at 1e-300 before the logarithm, with one
    warning per call (per stack, not per matrix); with all system energies
    equal the fit is undefined.
    """
    e = hs_spectrum.eigenvalues
    i, j = _distinct_pairs(np.asarray(e, dtype=float).tobytes(), hs_spectrum.width)
    if len(i) == 0:
        raise FitError("all system energies are equal; b is undefined")
    diag = rdm.diagonal
    if np.any(diag < LOG_FLOOR):
        warnings.warn("reduced density diagonal floored before log; b fit is degenerate",
                      stacklevel=2)
    ln = np.log(np.clip(diag, LOG_FLOOR, None))
    return _float_or_array(np.mean((ln[..., i] - ln[..., j]) / (e[j] - e[i]), axis=-1))


def gibbs_weights(energies: np.ndarray, b) -> np.ndarray:
    """Boltzmann weights at b, one row per entry of b when b is an array."""
    w = np.exp(-np.multiply.outer(b, energies - energies.min()))
    return w / w.sum(axis=-1, keepdims=True)


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
    return measure_rdm(rdm, hs_spectrum, beta_ref)


def measure_rdm(rdm: ReducedDensityMatrix, hs_spectrum: SpectrumSummary,
                beta_ref: float | None = None) -> MeasureReport:
    s = sigma(rdm)
    b = fit_b(rdm, hs_spectrum)
    d_fit = delta(rdm, hs_spectrum, b)
    d = delta(rdm, hs_spectrum, beta_ref) if beta_ref is not None else d_fit
    return MeasureReport(sigma=s, delta=d, b=b, beta_ref=beta_ref, delta_fit=d_fit)


def trace_time_series(model: SpinModel, initial_state: np.ndarray, t_max: float, dt: float,
                      hs_spectrum: SpectrumSummary | None = None,
                      beta_ref: float | None = None):
    """Evolve in fixed steps and measure at every step.

    Returns a list of (t, sigma, delta, b) tuples, including t = 0; delta
    follows the measure_state convention for beta_ref.  The step propagator
    is planned once and reused.
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
    plan: ChebyshevPlan | None = None
    if n_steps > 0:
        plan = real_time_plan(energy_bounds(model), dt)
    rows = []
    state = np.asarray(initial_state, dtype=complex)
    for k in range(n_steps + 1):
        t = k * dt
        rep = measure_state(state, model.n_system, hs_spectrum, beta_ref)
        rows.append((t, rep.sigma, rep.delta, rep.b))
        if k < n_steps:
            state = evolve_real_time(model, state, dt, plan)
    return rows

