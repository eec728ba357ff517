"""Exact diagonalization of model parts and thermodynamics from spectra.

All Boltzmann sums are evaluated with the ground energy subtracted before
exponentiating (log-domain where needed), so partition-function ratios stay
finite in double precision down to very low temperatures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SizeLimitError
from .hamiltonian import FULL, SpinModel, _applier

DEFAULT_DIM_CAP = 2**14
DEGENERACY_TOL_FACTOR = 1e-8  # default tolerance = factor * spectral width


@dataclass
class SpectrumSummary:
    """Sorted eigenvalues of one Hamiltonian part, optionally with vectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    degeneracy_tolerance: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def width(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    @property
    def ground_degeneracy(self) -> int:
        e = self.eigenvalues
        return int(np.sum(e - e[0] <= self.degeneracy_tolerance))


def dense_matrix(model: SpinModel, part: str = FULL, dim_cap: int = DEFAULT_DIM_CAP) -> np.ndarray:
    """Dense real-symmetric matrix of a part, scattered from the kernel's bond arrays.

    Row n holds the diagonal energy and, per bond, one off-diagonal element
    at the bond's flipped index, so the build costs O(dim x bonds).
    """
    applier = _applier(model, part)
    if applier.dim > dim_cap:
        raise SizeLimitError(f"dimension {applier.dim} exceeds dense cap {dim_cap}")
    diag, offdiag = applier.arrays()
    h = np.diag(diag)
    idx = np.arange(applier.dim)
    for flip, coeff in offdiag:
        h[idx, flip] += coeff
    return h


_GAUGE_TOL_FACTOR = 1e-12  # block tolerance for gauge canonicalization


def _canonical_gauge(eigenvalues: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Fix the basis inside (numerically exact) degenerate blocks.

    Within each block the vectors are replaced by the Gram-Schmidt
    orthonormalization of the block projector applied to the computational
    basis in index order.  The result depends only on the projector, so any
    solver gauge maps to the same basis and gauge-sensitive quantities
    become reproducible.  Blocks are grouped at 1e-12 of the spectral width,
    much tighter than the degeneracy-counting tolerance: mixing merely
    near-degenerate vectors would spoil the eigenvector residual.
    """
    width = float(eigenvalues[-1] - eigenvalues[0])
    if width <= 0:
        return vectors
    tol = _GAUGE_TOL_FACTOR * width
    out = vectors.copy()
    start = 0
    n = len(eigenvalues)
    for stop in range(1, n + 1):
        if stop < n and eigenvalues[stop] - eigenvalues[stop - 1] <= tol:
            continue
        g = stop - start
        if g > 1:
            block = vectors[:, start:stop]
            coords = block.conj().T        # g coordinates of each basis vector
            picked = []
            for j in range(block.shape[0]):
                v = coords[:, j].copy()
                for u in picked:
                    v -= (u.conj() @ v) * u
                norm = np.linalg.norm(v)
                if norm > 1e-8:
                    picked.append(v / norm)
                    if len(picked) == g:
                        break
            if len(picked) == g:
                out[:, start:stop] = block @ np.column_stack(picked)
        start = stop
    return out


def diagonalize(
    model: SpinModel,
    part: str = FULL,
    want_vectors: bool = True,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> SpectrumSummary:
    """Full spectrum of the selected Hermitian part (eigenvalues ascending).

    Eigenvectors (columns of a real orthogonal matrix) are returned on
    request, with the basis inside degenerate blocks canonicalized against
    the computational basis order so repeated runs and different solver
    gauges agree.
    """
    h = dense_matrix(model, part, dim_cap)
    if want_vectors:
        eigenvalues, eigenvectors = scipy.linalg.eigh(h)
        eigenvectors = _canonical_gauge(eigenvalues, eigenvectors)
    else:
        eigenvalues = scipy.linalg.eigvalsh(h)
        eigenvectors = None
    width = float(eigenvalues[-1] - eigenvalues[0])
    tol = DEGENERACY_TOL_FACTOR * (width if width > 0 else 1.0)
    return SpectrumSummary(eigenvalues, eigenvectors, tol)


class ThermoFunctions:
    """ln Z, U and Var(E) as functions of the (total) inverse temperature x = n*beta.

    Built from a spectrum; all callables accept x >= 0.  ln Z(0) is the log
    of the dimension; g is the ground state degeneracy.
    """

    def __init__(self, eigenvalues: np.ndarray, ground_degeneracy: int):
        self.eigenvalues = np.sort(np.asarray(eigenvalues, dtype=float))
        self.g = int(ground_degeneracy)
        self._e0 = float(self.eigenvalues[0])
        self._shifted = self.eigenvalues - self._e0

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def log_z(self, x: float) -> float:
        if x < 0:
            raise ValueError("inverse temperature must be >= 0")
        return float(-x * self._e0 + np.log(np.sum(np.exp(-x * self._shifted))))

    def z_ratio(self, n: int, beta: float) -> float:
        """Z(n*beta) / Z(beta)^n, evaluated in the log domain."""
        return float(np.exp(self.log_z(n * beta) - n * self.log_z(beta)))

    def _weights(self, x: float) -> np.ndarray:
        w = np.exp(-x * self._shifted)
        return w / np.sum(w)

    def u(self, x: float) -> float:
        """Mean energy at inverse temperature x."""
        return float(np.sum(self.eigenvalues * self._weights(x)))

    def energy_variance(self, x: float) -> float:
        w = self._weights(x)
        mean = np.sum(self.eigenvalues * w)
        return float(np.sum(w * (self.eigenvalues - mean) ** 2))


def thermo(spec: SpectrumSummary) -> ThermoFunctions:
    if spec.dim == 0:
        raise ValueError("empty spectrum")
    return ThermoFunctions(spec.eigenvalues, spec.ground_degeneracy)
