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
The exact projection reads that layout (exp(-beta H / 2) does not depend
on the basis chosen inside degenerate levels); the closed forms' eigenvalues,
degeneracy counts and Boltzmann weights read no basis at all.
``diagonalize`` solves the same sectors, from the part's dense matrix,
and returns their eigenvectors as full-basis columns with the basis inside
degenerate levels canonicalized; only measurement in the H_S eigenbasis and
the symmetry traces need it.  It holds that basis in one array: each
sector's vectors are scattered straight into their sorted columns and the
gauge works on those columns in place.  ``part_eigenvalues`` solves the
same sectors for their eigenvalues alone.  ``_parity_sectors`` is the only
eigensolver; it slices every block as ``h[np.ix_(rows, cols)]``, one
expression for a CSR and a dense h.

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
import scipy.sparse

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
    It is None when only the eigenvalues were solved.
    """

    reps: np.ndarray
    partners: np.ndarray | None
    sign: float
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None


@dataclass
class SpectrumSummary:
    """Sorted eigenvalues of one Hamiltonian part, with or without its eigenvectors.

    The vectors are either gauged full-basis columns (``eigenvectors``, from
    ``diagonalize``) or a parity sector layout (``sectors``, from
    ``diagonalize_sectors``), never both; ``part_eigenvalues`` holds neither.
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


def _canonical_gauge(eigenvalues: np.ndarray, vectors: np.ndarray) -> None:
    """Fix the basis inside (numerically exact) degenerate blocks of ``vectors``, in place.

    Within each block the vectors are replaced by the Gram-Schmidt
    orthonormalization of the block projector applied to the computational
    basis in index order.  The result depends only on the projector, so any
    solver gauge maps to the same basis and gauge-sensitive quantities
    become reproducible.  Blocks are grouped at 1e-12 of the spectral width,
    much tighter than the degeneracy-counting tolerance: mixing merely
    near-degenerate vectors would spoil the eigenvector residual.

    A block of g vectors keeps the residual coordinates of every basis
    vector (g x dim); each step picks the first residual whose norm is
    above 1e-8, normalizes it and subtracts its projection from all
    residuals at once.
    """
    tol = _GAUGE_TOL_FACTOR * float(eigenvalues[-1] - eigenvalues[0])
    edges = [0, *(np.flatnonzero(np.diff(eigenvalues) > tol) + 1), len(eigenvalues)]
    for start, stop in zip(edges, edges[1:]):
        g = stop - start
        if g > 1:
            residuals = vectors[:, start:stop].T.copy()
            picked = np.empty((g, g))
            for k in range(g):
                norms = np.sqrt(np.einsum("ij,ij->j", residuals, residuals))
                j = np.argmax(norms > 1e-8)
                if norms[j] <= 1e-8:
                    break
                u = residuals[:, j] / norms[j]
                residuals -= np.outer(u, u @ residuals)
                picked[:, k] = u
            else:
                vectors[:, start:stop] = vectors[:, start:stop] @ picked


def _parity_sectors(h, eigvals_only: bool = False) -> list[Sector]:
    """The parity sectors of h, a CSR matrix or a dense array, each block sliced out and solved densely.

    With ``eigvals_only`` the blocks are solved for their eigenvalues alone
    and every sector's ``eigenvectors`` is None.

    Every block is the outer-index slice ``h[np.ix_(rows, cols)]`` of h, so
    a dense h is never gathered beyond the block.  A CSR h is dense only in
    its blocks, one at a time: a P_x pair's two blocks are each one
    toarray() of the sparse sum or difference of the two slices, which adds
    the same pairs of floats as the dense sum does, so both forms of one
    matrix give bitwise equal sectors.
    """
    dim = h.shape[0]
    n_bits = dim.bit_length() - 1
    idx = np.arange(dim)
    parity = np.zeros(dim, dtype=idx.dtype)
    for bit in range(n_bits):
        parity ^= (idx >> bit) & 1
    mask = dim - 1

    def solve(reps, partners, sign, block):
        if scipy.sparse.issparse(block):
            block = block.toarray()
        # divide and conquer, into the fresh block's own memory: the block
        # is symmetric, so its transpose is the Fortran-ordered block LAPACK
        # overwrites without a copy
        if eigvals_only:
            eigenvalues = scipy.linalg.eigh(block.T, eigvals_only=True, driver="evd",
                                            overwrite_a=True)
            return Sector(reps, partners, sign, eigenvalues, None)
        eigenvalues, eigenvectors = scipy.linalg.eigh(block.T, driver="evd", overwrite_a=True)
        if partners is not None:
            eigenvectors /= np.sqrt(2.0)
        return Sector(reps, partners, sign, eigenvalues, eigenvectors)

    if n_bits % 2 or n_bits == 0:
        # P_z only; for odd N the odd sector is P_x of the even one
        reps = idx[parity == 0]
        even = solve(reps, None, 1.0, h[np.ix_(reps, reps)])
        return [even, replace(even, reps=reps ^ mask)] if n_bits else [even]
    sectors = []
    for p in (0, 1):
        reps = idx[(parity == p) & (idx <= mask >> 1)]
        partners = reps ^ mask
        same, crossed = h[np.ix_(reps, reps)], h[np.ix_(reps, partners)]
        sectors.append(solve(reps, partners, 1.0, same + crossed))
        sectors.append(solve(reps, partners, -1.0, same - crossed))
    return sectors


def _full_basis(sectors, columns=None) -> np.ndarray:
    """The sector eigenvectors as full-basis columns, eigenvector k of the sector order in column ``columns[k]``.

    A sector's column is its eigenvector on ``reps`` and ``sign`` times it
    on ``partners``.  Without ``columns`` the columns keep the sector order.
    """
    dim = sum(s.eigenvalues.shape[0] for s in sectors)
    columns = np.arange(dim) if columns is None else columns
    out = np.zeros((dim, dim))
    start = 0
    for s in sectors:
        stop = start + s.eigenvalues.shape[0]
        # evd's vectors are Fortran-ordered; the scatter walks them by rows
        vectors = np.ascontiguousarray(s.eigenvectors)
        out[np.ix_(s.reps, columns[start:stop])] = vectors
        if s.partners is not None:
            out[np.ix_(s.partners, columns[start:stop])] = s.sign * vectors
        start = stop
    return out


def _summary(eigenvalues, eigenvectors=None, sectors=None) -> SpectrumSummary:
    width = float(eigenvalues[-1] - eigenvalues[0])
    tol = DEGENERACY_TOL_FACTOR * (width if width > 0 else 1.0)
    return SpectrumSummary(eigenvalues, eigenvectors, tol, sectors)


def diagonalize(model: SpinModel, part: str = FULL) -> SpectrumSummary:
    """Full spectrum of the selected Hermitian part with full-basis eigenvectors.

    The eigenvalues ascend and the eigenvectors are the columns of a real
    orthogonal matrix, with the basis inside degenerate blocks
    canonicalized against the computational basis order so repeated runs
    and different solver gauges agree; a part with one level is a single
    block, gauged to the computational basis.  This is the form for work
    that depends on the basis: measurement in the H_S eigenbasis and the
    symmetry traces.  Projections read ``diagonalize_sectors``, and callers
    that need eigenvalues alone ``part_eigenvalues``.

    The part's dense matrix is solved by parity sector (``_parity_sectors``,
    the solver of ``diagonalize_sectors``, so the two give bitwise equal
    eigenvalues).  Each sector's vectors are scattered straight into the
    full-basis columns of their place in the stable sort by eigenvalue; the
    sectors are then dropped and the columns gauged in place, so the basis
    is never copied.
    """
    sectors = _parity_sectors(dense_matrix(model, part))
    eigenvalues = np.concatenate([s.eigenvalues for s in sectors])
    order = np.argsort(eigenvalues, kind="stable")
    vectors = _full_basis(sectors, np.argsort(order))   # each vector's sorted column
    del sectors
    eigenvalues = eigenvalues[order]
    _canonical_gauge(eigenvalues, vectors)
    return _summary(eigenvalues, vectors)


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


def part_eigenvalues(model: SpinModel, part: str = FULL) -> SpectrumSummary:
    """Sorted eigenvalues of a part alone, for callers that read no basis.

    The blocks of ``diagonalize_sectors`` are solved for their eigenvalues
    only, which costs about half an eigenpair solve and holds no vectors;
    the dense cap still applies.  The summary has neither ``eigenvectors``
    nor ``sectors``: it serves the closed forms, degeneracy counts and
    Boltzmann weights, and canonical_thermal_state reads it as the bounds
    of a Chebyshev projection (propagate.spectral_bounds).
    """
    sectors = _parity_sectors(_part_matrix(model, part), eigvals_only=True)
    return _summary(np.sort(np.concatenate([s.eigenvalues for s in sectors])))


def gibbs_weights(energies: np.ndarray, b) -> np.ndarray:
    """Boltzmann weights at b, one row per entry of b when b is an array."""
    w = np.exp(-np.multiply.outer(b, energies - energies.min()))
    return w / w.sum(axis=-1, keepdims=True)


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

    def u(self, x: float) -> float:
        """Mean energy at inverse temperature x."""
        return float(np.sum(self.eigenvalues * gibbs_weights(self.eigenvalues, x)))

    def energy_variance(self, x: float) -> float:
        w = gibbs_weights(self.eigenvalues, x)
        mean = np.sum(self.eigenvalues * w)
        return float(np.sum(w * (self.eigenvalues - mean) ** 2))


def thermo(spec: SpectrumSummary) -> ThermoFunctions:
    if spec.dim == 0:
        raise ValueError("empty spectrum")
    return ThermoFunctions(spec.eigenvalues)
