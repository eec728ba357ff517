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
"""

from __future__ import annotations

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
    """D_S x D_S density matrix of the system in the H_S eigenbasis."""

    matrix: np.ndarray
    basis: SpectrumSummary

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def diagonal(self) -> np.ndarray:
        return self.matrix.real.diagonal()


@dataclass
class MeasureReport:
    """Scalar measures of one state.

    ``delta`` is evaluated at the reference inverse temperature ``beta_ref``
    when one is given (the quantity the closed-form ensemble predictions
    describe) and at the fitted ``b`` otherwise; ``delta_fit`` is always the
    fitted-b value.
    """

    sigma: float
    delta: float
    b: float
    beta_ref: float | None
    delta_fit: float


def reduce_to_system(state: np.ndarray, n_system: int,
                     hs_eigenbasis: SpectrumSummary) -> ReducedDensityMatrix:
    """Trace out the environment, then rotate to the H_S eigenbasis.

    The product-basis layout (system on the low bits) makes the trace a
    reshape: amplitudes form a (dim_E, dim_S) matrix M with rho = M^dagger M.
    """
    state = np.asarray(state)
    dim_s = 2**n_system
    if state.ndim != 1 or state.shape[0] % dim_s:
        raise DimensionError(f"state of dimension {state.shape} does not hold {n_system} system spins")
    v = hs_eigenbasis.eigenvectors
    if v is None or v.shape[0] != dim_s:
        raise DimensionError("hs_eigenbasis must carry eigenvectors of dimension 2**n_system")
    m = state.reshape(-1, dim_s)
    rho = m.conj().T @ m
    rho = v.conj().T @ rho @ v
    rho = 0.5 * (rho + rho.conj().T)
    return ReducedDensityMatrix(rho, hs_eigenbasis)


def sigma(rdm: ReducedDensityMatrix) -> float:
    """Root-sum-square of the strictly upper-triangular moduli."""
    iu = np.triu_indices(rdm.dim, 1)
    return float(np.sqrt(np.sum(np.abs(rdm.matrix[iu]) ** 2)))


def _distinct_pairs(energies: np.ndarray, width: float):
    tol = ENERGY_TOL_FACTOR * (width if width > 0 else 1.0)
    i, j = np.triu_indices(len(energies), 1)
    keep = np.abs(energies[i] - energies[j]) > tol
    return i[keep], j[keep]


def fit_b(rdm: ReducedDensityMatrix, hs_spectrum: SpectrumSummary) -> float:
    """Fitted inverse temperature: average log-ratio over distinct-energy pairs.

    Diagonal entries are floored at 1e-300 before the logarithm (flagged with
    a warning); with all system energies equal the fit is undefined.
    """
    e = hs_spectrum.eigenvalues
    i, j = _distinct_pairs(e, hs_spectrum.width)
    if len(i) == 0:
        raise FitError("all system energies are equal; b is undefined")
    diag = rdm.diagonal
    if np.any(diag < LOG_FLOOR):
        warnings.warn("reduced density diagonal floored before log; b fit is degenerate",
                      stacklevel=2)
    ln = np.log(np.clip(diag, LOG_FLOOR, None))
    return float(np.mean((ln[i] - ln[j]) / (e[j] - e[i])))


def gibbs_weights(energies: np.ndarray, b: float) -> np.ndarray:
    w = np.exp(-b * (energies - energies.min()))
    return w / w.sum()


def delta(rdm: ReducedDensityMatrix, hs_spectrum: SpectrumSummary, b: float) -> float:
    """Euclidean distance of the diagonal from the Boltzmann profile at b."""
    if not np.isfinite(b):
        raise ValueError("b must be finite")
    p = gibbs_weights(hs_spectrum.eigenvalues, b)
    return float(np.sqrt(np.sum((rdm.diagonal - p) ** 2)))


def measure_state(state: np.ndarray, n_system: int, hs_spectrum: SpectrumSummary,
                  beta_ref: float | None = None) -> MeasureReport:
    """Reduce a state and package sigma, delta and the fitted b."""
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

