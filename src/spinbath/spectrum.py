"""Exact diagonalization of model parts and thermodynamics from spectra.

Every bond term -c_a S^a_i S^a_j commutes with the global parities
P_z = prod sigma^z and P_x = prod sigma^x, so each part's H is block
diagonal by parity (standard exact-diagonalization practice, Sandvik, AIP
Conf. Proc. 1297, 135 (2010)).  ``diagonalize_sectors`` slices the blocks
out of the part's CSR matrix (``part_matrix``), so only the blocks are
ever dense, solves them one by one and keeps the eigenpairs in a sector
layout: for N bits the P_z sectors hold the indices of even and odd
popcount; for even N >= 2 each splits again into P_x = +1 and -1 halves
spanned by (|n> +- |n ^ mask>)/sqrt(2), 4 sectors of 2^N/4 in all; for odd
N, P_x maps one P_z sector onto the other, so only the even one is solved.
Everything that does not depend on the basis chosen inside degenerate
levels reads that layout: projections (exp(-beta H / 2) is basis-free),
eigenvalues for the closed forms, degeneracy counts and Boltzmann weights.
``diagonalize`` returns full-basis eigenvectors with that basis
canonicalized; only measurement in the H_S eigenbasis and the symmetry
traces need it.

The dense cap DEFAULT_DIM_CAP is checked in one place, ``_part_matrix``, on
the part whose matrix or sector blocks become dense; an entirety above the
cap is fine as long as the parts actually solved fit.

All Boltzmann sums are evaluated with the ground energy subtracted before
exponentiating (log-domain where needed), so partition-function ratios stay
finite in double precision down to very low temperatures.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import SizeLimitError
from .hamiltonian import ENVIRONMENT, FULL, SYSTEM, SpinModel, part_matrix

DEFAULT_DIM_CAP = 2**14
DEGENERACY_TOL_FACTOR = 1e-8  # default tolerance = factor * spectral width


@dataclass(frozen=True)
class Sector:
    """Eigenpairs of H in one parity sector.

    The sector basis is |r> over ``reps`` when ``partners`` is None, and
    otherwise (|r> + sign |p>)/sqrt(2) over the pairs r, p = r ^ mask; a
    sign -1 sector directly follows its sign +1 twin and shares its index
    arrays.  ``eigenvectors`` holds each eigenvector's amplitudes on
    ``reps`` as a column; on ``partners`` they are ``sign`` times those.
    """

    reps: np.ndarray
    partners: np.ndarray | None
    sign: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass
class SpectrumSummary:
    """Sorted eigenvalues of one Hamiltonian part with its eigenvectors.

    The vectors are either gauged full-basis columns (``eigenvectors``, from
    ``diagonalize``) or a parity sector layout (``sectors``, from
    ``diagonalize_sectors``), never both.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    degeneracy_tolerance: float
    sectors: tuple[Sector, ...] | None = None

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


def _part_matrix(model: SpinModel, part: str):
    """hamiltonian.part_matrix, refused above the dense cap before any kernel is built."""
    dim = {SYSTEM: model.dim_system, ENVIRONMENT: model.dim_env}.get(part, model.dim)
    if dim > DEFAULT_DIM_CAP:
        raise SizeLimitError(f"dimension {dim} exceeds dense cap {DEFAULT_DIM_CAP}")
    return part_matrix(model, part)


def dense_matrix(model: SpinModel, part: str = FULL) -> np.ndarray:
    """Dense real-symmetric matrix of a part, scattered from its CSR matrix (``_part_matrix``).

    Row n holds the diagonal energy and, per bond, one off-diagonal element
    at the bond's flipped index, so the build costs O(dim x bonds).
    """
    return _part_matrix(model, part).toarray()


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


def _parity_sectors(h) -> list[Sector]:
    """The parity sectors of the CSR matrix h, each block sliced out and solved densely.

    Only the blocks are ever dense.
    """
    dim = h.shape[0]
    n_bits = dim.bit_length() - 1
    idx = np.arange(dim)
    parity = np.zeros(dim, dtype=idx.dtype)
    for bit in range(n_bits):
        parity ^= (idx >> bit) & 1
    mask = dim - 1

    def solve(reps, partners, sign, block):
        # divide and conquer, into the fresh block's own memory: the block
        # is symmetric, so its transpose is the Fortran-ordered block LAPACK
        # overwrites without a copy
        eigenvalues, eigenvectors = scipy.linalg.eigh(block.T, driver="evd", overwrite_a=True)
        if partners is not None:
            eigenvectors /= np.sqrt(2.0)
        return Sector(reps, partners, sign, eigenvalues, eigenvectors)

    if n_bits % 2 or n_bits == 0:
        # P_z only; for odd N the odd sector is P_x of the even one
        reps = idx[parity == 0]
        even = solve(reps, None, 1.0, h[reps][:, reps].toarray())
        return [even, replace(even, reps=reps ^ mask)] if n_bits else [even]
    sectors = []
    for p in (0, 1):
        reps = idx[(parity == p) & (idx <= mask >> 1)]
        partners = reps ^ mask
        rows = h[reps]
        same, crossed = rows[:, reps].toarray(), rows[:, partners].toarray()
        sectors.append(solve(reps, partners, 1.0, same + crossed))
        sectors.append(solve(reps, partners, -1.0, same - crossed))
    return sectors


def _summary(eigenvalues, eigenvectors=None, sectors=None) -> SpectrumSummary:
    width = float(eigenvalues[-1] - eigenvalues[0])
    tol = DEGENERACY_TOL_FACTOR * (width if width > 0 else 1.0)
    return SpectrumSummary(eigenvalues, eigenvectors, tol, sectors)


def diagonalize(model: SpinModel, part: str = FULL) -> SpectrumSummary:
    """Full spectrum of the selected Hermitian part with full-basis eigenvectors.

    The eigenvalues ascend and the eigenvectors are the columns of a real
    orthogonal matrix, with the basis inside degenerate blocks
    canonicalized against the computational basis order so repeated runs
    and different solver gauges agree.  This is the form for work that
    depends on the basis: measurement in the H_S eigenbasis and the
    symmetry traces.  Everything else reads ``diagonalize_sectors``.
    """
    eigenvalues, eigenvectors = scipy.linalg.eigh(dense_matrix(model, part))
    return _summary(eigenvalues, _canonical_gauge(eigenvalues, eigenvectors))


def diagonalize_sectors(model: SpinModel, part: str = FULL) -> SpectrumSummary:
    """Spectrum of a part with its eigenpairs in the parity sector layout.

    Each block, H[reps][:, reps] +- H[reps][:, partners], is sliced from
    the part's CSR matrix; the 2^N x 2^N dense matrix is never built, but
    parts above DEFAULT_DIM_CAP are still refused with SizeLimitError.
    ``eigenvalues`` is the sorted union of the sector spectra and
    ``eigenvectors`` is None; the sector eigenvectors carry no gauge fixing,
    which nothing basis-free (projection, closed-form eigenvalues,
    degeneracy counts, Boltzmann weights) needs.
    """
    sectors = tuple(_parity_sectors(_part_matrix(model, part)))
    return _summary(np.sort(np.concatenate([s.eigenvalues for s in sectors])), sectors=sectors)


class ThermoFunctions:
    """ln Z, U and Var(E) as functions of the (total) inverse temperature x = n*beta.

    Built from a spectrum; all callables accept x >= 0.  ln Z(0) is the log
    of the dimension.
    """

    def __init__(self, eigenvalues: np.ndarray):
        self.eigenvalues = np.sort(np.asarray(eigenvalues, dtype=float))
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
    return ThermoFunctions(spec.eigenvalues)
