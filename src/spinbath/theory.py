"""Closed-form ensemble predictions for the squared measures.

For an uncoupled entirety prepared in a canonical thermal pure state, the
expectation values of sigma^2 and delta^2 over the random-state ensemble
reduce to combinations of partition-function ratios

    R(n, beta) = Z(n beta) / Z(beta)^n

of the system and environment alone.  All ratios are evaluated in the log
domain with ground-energy shifting, so the formulas remain finite in double
precision down to very low temperatures (the low-T plateau values are set by
the ground state degeneracies g_S and g_E).  A first-order perturbation term
in the coupling strength exists but its traces vanish identically for spin
Hamiltonians whose interaction is odd under reversal of the system (or
environment) spin components; `first_order_symmetry_trace` evaluates those
traces for any concrete model on a grid of beta, from one gauged solve of
each part.  The site diagonals are read off the real eigenvectors through
views of the two halves of the site's bit; a real eigenvector's S^y
diagonal is purely imaginary, so the y components add exact zeros and are
skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import ENVIRONMENT, SYSTEM, SpinModel
from .spectrum import ThermoFunctions, diagonalize, part_eigenvalues, thermo


@dataclass
class PredictionInputs:
    """Thermodynamic data of the two parts at the requested temperature."""

    thermo_s: ThermoFunctions
    thermo_e: ThermoFunctions
    beta: float

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")

    @property
    def dim(self) -> int:
        return self.thermo_s.dim * self.thermo_e.dim


def prediction_inputs(model: SpinModel, beta: float) -> PredictionInputs:
    """Convenience constructor from a model's part spectra, eigenvalues only."""
    ts = thermo(part_eigenvalues(model, SYSTEM))
    te = thermo(part_eigenvalues(model, ENVIRONMENT))
    return PredictionInputs(ts, te, beta)


def sigma2_leading(inputs: PredictionInputs) -> float:
    """Leading-order E(sigma^2): D/(2(D+1)) (1 - R_S(2)) R_E(2)."""
    d = inputs.dim
    rs2 = inputs.thermo_s.z_ratio(2, inputs.beta)
    re2 = inputs.thermo_e.z_ratio(2, inputs.beta)
    return d / (2.0 * (d + 1)) * (1.0 - rs2) * re2


def sigma2_full(inputs: PredictionInputs) -> float:
    """Complete second-order E(sigma^2) (three ratio terms)."""
    d = inputs.dim
    beta = inputs.beta
    rs2 = inputs.thermo_s.z_ratio(2, beta)
    rs3 = inputs.thermo_s.z_ratio(3, beta)
    re2 = inputs.thermo_e.z_ratio(2, beta)
    re3 = inputs.thermo_e.z_ratio(3, beta)
    return (
        0.5 * re2 * (1.0 - rs2)
        - 2.0 * d / (d + 1) * re3 * (rs2 - rs3)
        + 1.5 * d / (d + 1) * re2 * re2 * rs2 * (1.0 - rs2)
    )


def delta2_leading(inputs: PredictionInputs) -> float:
    """Leading-order E(delta^2): D/(D+1) R_S(2) (R_E(2) - 1/D)."""
    d = inputs.dim
    rs2 = inputs.thermo_s.z_ratio(2, inputs.beta)
    re2 = inputs.thermo_e.z_ratio(2, inputs.beta)
    return d / (d + 1.0) * rs2 * (re2 - 1.0 / d)


def delta2_full(inputs: PredictionInputs, delta_b: float = 0.0) -> float:
    """Complete second-order E(delta^2) including the (b - beta)^2 term.

    delta_b = 0 describes the uncoupled ensemble (where the mean fitted b
    equals beta); for coupled comparisons pass the empirically fitted shift.
    The correction factor C_S(2 beta)/(4 beta^2) is evaluated directly as the
    energy variance at 2 beta, which is its finite beta -> 0 limit as well.
    """
    d = inputs.dim
    beta = inputs.beta
    ts = inputs.thermo_s
    rs2 = ts.z_ratio(2, beta)
    rs3 = ts.z_ratio(3, beta)
    re2 = inputs.thermo_e.z_ratio(2, beta)
    value = d / (d + 1.0) * re2 * (rs2 - 2.0 * rs3 + rs2 * rs2)
    if delta_b != 0.0:
        du = ts.u(2 * beta) - ts.u(beta)
        value += rs2 * (ts.energy_variance(2 * beta) + du * du) * delta_b**2
    return value


def low_temperature_limits(g_s: int, g_e: int, dim_s: int, dim_e: int):
    """beta -> infinity limits of (E(sigma^2), E(delta^2)).

    Controlled entirely by the ground state degeneracies: both vanish iff
    g_S = 1; for g_S >> 1 the sigma^2 limit approaches 1/(2 g_E).
    """
    if g_s < 1 or g_e < 1 or dim_s < 1 or dim_e < 1:
        raise ValueError("degeneracies and dimensions must be >= 1")
    d = dim_s * dim_e
    sigma2 = (g_s - 1) / (2.0 * g_s * g_e) * (1.0 - d / ((d + 1.0) * g_s * g_e))
    delta2 = (g_s - 1) / (g_s**2 * g_e) * d / (d + 1.0)
    return sigma2, delta2


def infinite_temperature_scaling(dim_s: int, dim_e: int):
    """Exact beta = 0 ensemble values (E(sigma^2), E(delta^2))."""
    d = dim_s * dim_e
    return (dim_s - 1) / (2.0 * (d + 1)), (dim_s - 1) / (dim_s * (d + 1.0))


@dataclass
class SymmetryTraces:
    """First-order perturbation traces and their natural magnitude scales.

    Both traces vanish (to rounding) whenever reversing the system spin
    components flips the sign of the interaction while leaving H_S and H_E
    unchanged; ``scale_a``/``scale_b`` accumulate the absolute values of the
    summed terms, giving the denominator for a relative zero test.
    """

    trace_a: float
    trace_b: float
    scale_a: float
    scale_b: float

    @property
    def relative(self) -> tuple[float, float]:
        """|trace_a| / scale_a and |trace_b| / scale_b, each read as 0 where its scale is 0.

        A scale bounds its trace term by term, so a zero scale means an
        exactly zero trace (a non-degenerate parity eigenvector's site
        diagonals are exact zeros).
        """
        return tuple(abs(t) / s if s else 0.0
                     for t, s in ((self.trace_a, self.scale_a), (self.trace_b, self.scale_b)))


def _site_diagonals(vectors: np.ndarray, site: int) -> tuple[np.ndarray, np.ndarray]:
    """<n|S^x|n> and <n|S^z|n> of 1-based ``site`` over the real columns |n> of ``vectors``.

    The rows split into views of the two halves of the site's bit, |i> with
    bit 0 and its partner |i ^ (1 << bit)> with bit 1; no row is copied.
    """
    low, high = vectors.reshape(-1, 2, 2 ** (site - 1), vectors.shape[1]).transpose(1, 0, 2, 3)
    x = np.einsum("abj,abj->j", low, high)
    z = 0.5 * (np.einsum("abj,abj->j", low, low) - np.einsum("abj,abj->j", high, high))
    return x, z


def first_order_symmetry_trace(model: SpinModel, betas, identity_shift: float = 0.0) -> list[SymmetryTraces]:
    """Evaluate Tr(H_SE e^{-beta H_E} e^{-beta H_S}) and the numerator pair at each beta of ``betas``.

    trace_a is the denominator trace; trace_b is
    Z_S(beta) Tr(e^{-beta H_S} e^{-2 beta H_E} H_SE)
    - Tr(e^{-2 beta (H_S + H_E)} H_SE).
    Both factorize over the coupling bonds into products of single-site
    thermal expectation values in the part eigenbases.  ``identity_shift``
    adds a multiple of the identity to H_SE, deliberately breaking the
    reversal symmetry (the traces then pick up partition-function terms).
    Each part is solved once and each coupled site's diagonals are formed
    once for the whole grid; one SymmetryTraces is returned per beta, in
    order.  A negative or non-finite beta raises ValueError.

    The diagonals <n|S^a|n> come from the gauged eigenvectors V and the
    site's bit: S^z is the diagonal 1/2 - bit, S^x maps |i> to
    |i ^ (1 << bit)> / 2, so both are sums over the rows of V with the bit
    clear (V_0) and set (V_1): <S^z> = (|V_0|^2 - |V_1|^2) / 2 and
    <S^x> = V_0 . V_1.  V is real, so <n|S^y|n> is purely imaginary and
    its real part is an exact (signed) zero: the y terms add nothing to
    either trace or scale and are not formed.

    Traces are evaluated with the part ground energies shifted out, i.e.
    trace_a carries a factor exp(beta (E0_S + E0_E)) relative to the literal
    trace and trace_b its square; the zero test is unaffected since the
    scales carry the same factors.
    """
    betas = list(betas)
    if not all(np.isfinite(beta) and beta >= 0.0 for beta in betas):
        raise ValueError(f"betas must be finite and >= 0, got {betas}")
    spec_s = diagonalize(model, SYSTEM)
    spec_e = diagonalize(model, ENVIRONMENT)
    bonds = model.coupling_bonds
    sys_diag = {si: _site_diagonals(spec_s.eigenvectors, si) for si in {b[0] for b in bonds}}
    env_diag = {ej: _site_diagonals(spec_e.eigenvectors, ej) for ej in {b[1] for b in bonds}}
    out = []
    for beta in betas:
        ws1 = np.exp(-beta * (spec_s.eigenvalues - spec_s.eigenvalues[0]))
        ws2 = ws1 * ws1
        we1 = np.exp(-beta * (spec_e.eigenvalues - spec_e.eigenvalues[0]))
        we2 = we1 * we1
        zs1 = float(ws1.sum())
        trace_a = trace_b = 0.0
        scale_a = scale_b = 0.0
        for (si, ej, dx, _, dz) in bonds:
            for comp, s, e in zip((dx, dz), sys_diag[si], env_diag[ej]):
                # H_SE = -sum Delta S^a I^a, so each term enters with -comp
                trace_a += -comp * float(s @ ws1) * float(e @ we1)
                scale_a += abs(comp) * float(np.abs(s) @ ws1) * float(np.abs(e) @ we1)
                t_num = float(s @ ws1) * float(e @ we2)
                t_den = float(s @ ws2) * float(e @ we2)
                trace_b += -comp * (zs1 * t_num - t_den)
                scale_b += abs(comp) * (
                    zs1 * float(np.abs(s) @ ws1) * float(np.abs(e) @ we2)
                    + float(np.abs(s) @ ws2) * float(np.abs(e) @ we2)
                )
        if identity_shift != 0.0:
            ze1, ze2 = float(we1.sum()), float(we2.sum())
            zs2 = float(ws2.sum())
            trace_a += identity_shift * zs1 * ze1
            scale_a += abs(identity_shift) * zs1 * ze1
            trace_b += identity_shift * (zs1 * zs1 * ze2 - zs2 * ze2)
            scale_b += abs(identity_shift) * (zs1 * zs1 * ze2 + zs2 * ze2)
        out.append(SymmetryTraces(trace_a, trace_b, scale_a, scale_b))
    return out
