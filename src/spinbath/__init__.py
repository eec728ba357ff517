"""Finite-temperature decoherence and thermalization of spin-1/2 system+bath models.

Library layout:

- ``hamiltonian``: coupling-table models, sparse H|psi>, spectral bounds
- ``spectrum``: exact diagonalization of parts, thermodynamics from spectra
- ``propagate``: random / canonical thermal pure states, Chebyshev propagation
- ``observe``: reduced density matrix, the measures sigma, delta and the b fit
- ``theory``: closed-form ensemble predictions and symmetry traces
- ``bench``: declarative sweep runner, CSV and gnuplot export (CLI: spinbath)
"""

from .hamiltonian import (
    SpinModel,
    apply_hamiltonian,
    build_chain_model,
    build_ring_model,
    energy_bounds,
)
from .observe import MeasureReport, ReducedDensityMatrix, delta, fit_b, measure_state, reduce_to_system, sigma, thermal_measures, trace_time_series
from .propagate import (
    ChebyshevPlan,
    alternating_product_state,
    canonical_thermal_state,
    evolve_real_time,
    lanczos_bounds,
    moment_check,
    normalization_diagnostic,
    projection_spectrum,
    random_state,
)
from .spectrum import SpectrumSummary, ThermoFunctions, diagonalize, part_eigenvalues, thermo
from .theory import (
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

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
