"""Random and thermal pure states, real and imaginary time propagation.

A canonical thermal pure state at inverse temperature beta is

    |psi_beta> = exp(-beta H / 2) |psi_0> / <psi_0| exp(-beta H) |psi_0>^(1/2)

with |psi_0> drawn uniformly from the unit sphere (complex Gaussian
amplitudes via Box-Muller).  ``canonical_thermal_state(model, psi0, betas,
spectrum=None)`` is the one projection: it takes a (dim, k) block of
initial states and a list of betas and has two backends, chosen by the
form of ``spectrum``.

- exact: given a tuple of factor spectra, highest bits first, project in
  their product eigenbasis, one beta's block at a time.  A coupled model
  has one factor, the full H; an uncoupled one has (H_E, H_S), because
  exp(-beta H / 2) then splits into exp(-beta H_E / 2) (x) exp(-beta H_S / 2)
  and the 2^N-dimensional H is never built.  A factor's eigenpairs come by
  parity sector (see spectrum): each factor axis is gathered sector by
  sector, one gather per P_x pair giving both sectors' sum and difference,
  transformed with that sector's eigenvectors and assigned straight back,
  so no full eigenvector matrix is formed.  The block keeps its layout:
  for factor axis i it is viewed as (before, d_i, after) and multiplied
  along the middle axis by real GEMMs on its float view (real_matmul).
  Each column is normalized through its weights in the eigenbasis, where
  its norm is one GEMV of the squared weights against |coefficients|^2;
- Chebyshev: plan the whole beta grid at once and run one recurrence
  T_k(X)|psi_0> on the whole block up to the grid's largest order, every
  beta's expansion summed from it (the shared-vector scheme of Dobrovitski
  & De Raedt, PRE 67, 056702 (2003)), so the cost is the largest order,
  not the sum.  The recurrence vectors fill a ring, and each beta's row
  gains a full ring's terms in place by one GEMV.  The expansion runs on
  Gershgorin bounds or on ``bounds`` the caller passes, such as
  ``lanczos_bounds``, which lie within about SPECTRAL_PAD of the width of
  H's exact extremes.  Its error, about 1e-16 exp(beta (E_0 - e_min) / 2),
  is then at rounding level for any beta, so a few columns, such as a time
  trace's start, are projected without any eigenvectors.  A beta whose
  columns cancel below the guard is refused alone: its block raises
  ChebyshevOrderError when reached, and the other betas' blocks stand.

``projection_spectrum`` maps a method (one of METHODS: "auto", "exact",
"chebyshev") to those factors or None; "auto" is exact while the largest
matrix the exact path solves, model.dim for a coupled model's one factor
and max(dim_E, dim_S) for an uncoupled pair, is at most EXACT_AUTO_DIM, so
an uncoupled entirety above it whose parts are small is projected exactly.
``lanczos_bounds`` follows the same rule: where the method is exact it
encloses H's spectrum by two Lanczos runs of a few hundred matvecs on
each of those factors, with no dense solve and no dimension cap.
Real time exp(-i t H) (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984))
runs the same recurrence, on Gershgorin bounds or on the tighter
``lanczos_bounds``.  Every
ChebyshevPlan is a grid of points, one coefficient column each; a float t
or beta is the one-point grid.  The recurrence fills one points-major
(points, *state.shape) block, each row stopping at its point's own order,
so a time grid t_1..t_m gives every exp(-i t_j H)|psi> from one
recurrence, and the beta rows are normalized in place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.blas import dgemv, zgemv

from .errors import ChebyshevOrderError, DimensionError, ModelError
from .hamiltonian import ENVIRONMENT, FULL, SYSTEM, SpinModel, apply_hamiltonian, energy_bounds
from .seeds import spawn_rng
from .spectrum import (SpectrumSummary, _full_basis, diagonalize_sectors, gibbs_weights,
                       part_eigenvalues)
from .spectrum import diagonalize  # noqa: F401  (a binding benchmark/tracer.py expects)

DEFAULT_TOLERANCE = 1e-15      # relative truncation threshold for coefficients
DEFAULT_MAX_ORDER = 200_000
METHODS = ("auto", "exact", "chebyshev")
EXACT_AUTO_DIM = 2**12         # "auto" projects exactly while no factor is larger
SPECTRAL_PAD = 1e-8            # relative pad of lanczos_bounds, past their residuals
LANCZOS_TOL = 1e-12            # eigsh's relative tolerance on the extreme Ritz values
_LANCZOS_KEY = ("lanczos-bounds",)  # random_state key of the Lanczos start: no realization's
# amplitudes per column in _apply_plan's ring of recurrence vectors: 8
# vectors at 2^12, from 2^14 on the recurrence pair alone, whose peak a
# deeper ring would pass; also the slice of its in-place a * v subtraction
_RING_AMPLITUDES = 2**15


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
    angle = 2.0 * np.pi * u[1]
    d = np.empty(dim, dtype=complex)
    np.multiply(radius, np.cos(angle), out=d.real)
    np.multiply(radius, np.sin(angle), out=d.imag)
    d /= np.linalg.norm(d)
    return d


@dataclass
class ChebyshevPlan:
    """Retained expansion coefficients of exp(-i t H) or exp(-beta H / 2) on a grid of points.

    The spectrum is mapped onto [-1, 1] via (e_min, e_max).  ``at`` is the
    1-D grid of t or beta the plan expands; a plan made at one float is the
    one-point grid.  ``coefficients`` is an (order + 1, len(at)) array with
    one column per point, zero past that point's own order; ``order`` and
    ``point_orders`` are read off it.  The coefficients carry the full term
    weights (2 - delta_k0 and the i^k / sign factors); the scalar ``phase``,
    one entry per point, is applied at the end.
    """

    e_min: float
    e_max: float
    coefficients: np.ndarray
    at: np.ndarray
    phase: np.ndarray

    def __post_init__(self):
        if self.e_max <= self.e_min:
            raise ValueError("need e_max > e_min")
        if self.coefficients.ndim != 2 or self.coefficients.shape[0] < 2:
            raise ValueError("coefficients must be an (order + 1, points) grid with order >= 1")

    @property
    def order(self) -> int:
        """The largest point order: the recurrence's length."""
        return self.coefficients.shape[0] - 1

    @property
    def point_orders(self) -> np.ndarray:
        """Each point's order: the index of its column's last nonzero coefficient."""
        return self.order - np.argmax(self.coefficients[::-1] != 0, axis=0)


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


def _plan(bounds, at, column) -> ChebyshevPlan:
    """The plan at every point of a float ``at`` (a one-point grid) or a non-empty 1-D grid.

    ``column(a, half, x)`` gives one point's (coefficients, phase) for a
    spectrum of centre a and half-width half, so each grid column is bitwise
    the plan of its point alone.
    """
    e_min, e_max = float(bounds[0]), float(bounds[1])
    if e_max <= e_min:
        # zero-width spectrum (e.g. empty bond lists); widen so the affine
        # map is defined, the expansion then reduces to the exact scalar
        e_min, e_max = e_min - 0.5, e_max + 0.5
    a = 0.5 * (e_max + e_min)
    half = 0.5 * (e_max - e_min)
    points = np.atleast_1d(np.asarray(at, dtype=float))
    if points.ndim > 1 or points.size == 0:
        raise ValueError(f"a plan is made at a float or a non-empty 1-D grid, got shape {np.shape(at)}")
    coeffs, phases = zip(*(column(a, half, float(x)) for x in points))
    grid = np.zeros((max(len(c) for c in coeffs), len(coeffs)), dtype=np.result_type(*coeffs))
    for j, c in enumerate(coeffs):
        grid[: len(c), j] = c
    return ChebyshevPlan(e_min, e_max, grid, points, np.array(phases))


def real_time_plan(bounds, t):
    """Plan for exp(-i t H) with spectrum inside ``bounds``, at a time t or a 1-D grid of times."""
    from scipy.special import jv    # here, not at import: exact-only processes never load it

    def column(a, half, t):
        z = t * half
        coeffs = _retained(lambda k: np.where(k == 0, 1.0, 2.0) * (-1j) ** k * jv(k, z),
                           int(abs(z) + 20 + 12 * abs(z) ** (1.0 / 3.0)),
                           f"exp(-itH) expansion for t*width = {2 * z:.3g}")
        return coeffs, np.exp(-1j * t * a)

    return _plan(bounds, t, column)


def imaginary_time_plan(bounds, beta):
    """Plan for exp(-beta H / 2) with spectrum inside ``bounds``, at a beta or a 1-D grid of betas."""
    from scipy.special import ive   # here, not at import: exact-only processes never load it

    if np.any(np.asarray(beta) < 0):
        raise ValueError("beta must be >= 0")

    def column(a, half, beta):
        z = 0.5 * beta * half
        # scaled modified Bessel ive(k, z) = I_k(z) exp(-z) avoids overflow;
        # the missing scalar exp(z - beta a / 2) goes with the normalization
        coeffs = _retained(lambda k: np.where(k == 0, 1.0, 2.0) * (-1.0) ** k * ive(k, z),
                           int(z + 20 + 9 * np.sqrt(z)),
                           f"exp(-bH/2) expansion for beta*width = {2 * beta * half:.3g}")
        return coeffs, 1.0 + 0j

    return _plan(bounds, beta, column)


def _apply_plan(model: SpinModel, plan: ChebyshevPlan, state: np.ndarray) -> np.ndarray:
    """Clenshaw-free forward recurrence: sum_k c_k T_k(X) |state> for each point of the plan.

    T_k(X)|state> is computed once, up to plan.order, and each point's sum
    stops at its own order.  Returns the points-major (len(plan.at),
    *state.shape) block whose row j is point j's sum.

    T_k is held in slot k % depth of a ring of depth >= 2 state-sized
    vectors, depth set by the column dimension and plan.order alone
    (_RING_AMPLITUDES, a deeper ring than the orders only flushes the same
    slices once), so a (dim, k) block has its lone columns' depth.  A
    block runs in chunks of columns, each through its own ring, that hold
    at most max(2 states, _RING_AMPLITUDES) amplitudes.  Before a slot is
    overwritten, every depth orders, the ring is flushed: each point's row
    gains, in place, one GEMV (dgemv on float views for real coefficients,
    else zgemv) of the ring's Fortran-ordered view against that point's
    contiguous coefficient slice, cut at its own order.  No row depends on
    the other points, so a grid plan's row is bitwise its single-point
    plan's, and the FULL product gives each column bitwise its lone result,
    so a block's column is bitwise its lone run.  Each matvec's fresh
    result is the recurrence's scratch vector, and a * v is subtracted from
    it in _RING_AMPLITUDES slices, so at depth 2 the peak is that of adding
    each order to each row by itself.
    """
    if state.shape[0] != model.dim:
        raise DimensionError(f"state dimension {state.shape[0]} != model dimension {model.dim}")
    depth = max(2, min(plan.order + 1, _RING_AMPLITUDES // model.dim))
    chunk = max(2 * state.size, _RING_AMPLITUDES) // (depth * model.dim)
    if state.ndim == 1 or chunk >= state.shape[1]:
        return _recurrence(model, plan, state, depth)
    block = np.empty((len(plan.at), *state.shape), dtype=complex)
    for start in range(0, state.shape[1], chunk):
        block[:, :, start:start + chunk] = _recurrence(model, plan, state[:, start:start + chunk], depth)
    return block


def _recurrence(model: SpinModel, plan: ChebyshevPlan, state: np.ndarray, depth: int) -> np.ndarray:
    """_apply_plan's rows for one chunk of columns, through a ring of ``depth`` states."""
    a = 0.5 * (plan.e_max + plan.e_min)
    half = 0.5 * (plan.e_max - plan.e_min)

    def x_apply(v, gain=1.0):
        # gain * (H v - a v) / half, in place on the fresh matvec result's float
        # view, a slice at a time so a * v never takes a state-sized temporary:
        # a real product by gain / half costs a fraction of a complex
        # division, which numpy 2.4 also does as a product by the reciprocal
        y = apply_hamiltonian(model, FULL, v)
        f, g = y.view(float).reshape(-1), v.view(float).reshape(-1)
        for start in range(0, f.size, _RING_AMPLITUDES):
            part = f[start:start + _RING_AMPLITUDES]
            part -= a * g[start:start + _RING_AMPLITUDES]
            part *= gain / half
        return y

    size = state.size
    ring = np.empty((depth, *state.shape), dtype=complex)
    block = np.zeros((len(plan.at), *state.shape), dtype=complex)
    slots, rows = ring.reshape(depth, size), block.reshape(len(block), size)
    gemv = zgemv if np.iscomplexobj(plan.coefficients) else dgemv
    if gemv is dgemv:
        slots, rows = slots.view(float), rows.view(float)
    points = [(row, np.ascontiguousarray(c[: order + 1]))
              for row, c, order in zip(rows, plan.coefficients.T, plan.point_orders.tolist())]

    def flush(start, stop):
        # slot i holds T_{start + i}: start is a multiple of depth
        for row, c in points:
            cut = c[start:stop]
            if cut.size:
                gemv(1.0, slots[:cut.size].T, cut, beta=1.0, y=row, overwrite_y=True)

    ring[0] = state
    ring[1] = x_apply(ring[0])
    for k in range(2, plan.order + 1):
        if k % depth == 0:
            flush(k - depth, k)
        t_next = x_apply(ring[(k - 1) % depth], 2.0)
        np.subtract(t_next, ring[(k - 2) % depth], out=ring[k % depth])
        del t_next      # the next matvec's result takes its place
    flush(plan.order - plan.order % depth, plan.order + 1)
    return block


def evolve_real_time(model: SpinModel, state: np.ndarray, t: float | np.ndarray,
                     plan: ChebyshevPlan | None = None) -> np.ndarray:
    """Return exp(-i t H) |state> via the Chebyshev expansion (norm preserving).

    ``t`` is a time or a 1-D grid of times; a grid appends one axis, so a
    vector state gives the (dim, len(t)) block of the states at every t,
    all from one recurrence.  A ``plan`` built by real_time_plan for the
    same times may be supplied to avoid recomputing coefficients (e.g. when
    stepping a time trace); a float t and the one-point grid [t] share a
    plan, and a plan made for other times is refused.
    """
    if plan is None:
        plan = real_time_plan(energy_bounds(model), t)
    elif not np.array_equal(plan.at, np.atleast_1d(t)):
        raise ValueError(f"plan made for t = {plan.at}, not for t = {t}")
    block = _apply_plan(model, plan, state)
    for row, phase in zip(block, plan.phase):
        # phase first: numpy's complex product is not bitwise symmetric in its operands
        np.multiply(phase, row, out=row)
    return block[0] if np.ndim(t) == 0 else np.moveaxis(block, 0, -1)


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


# rows per tile of _transposed (64 x 256 complex columns is 256 KiB) and of
# the exact backend's row-by-row scratch
_TILE_ROWS = 64


def _transposed(state: np.ndarray) -> np.ndarray:
    """state.T as a C-contiguous array, copied tile by tile so each tile stays in cache."""
    if state.ndim == 1 or state.T.flags.c_contiguous:
        return np.ascontiguousarray(state.T)
    out = np.empty(state.shape[::-1], dtype=state.dtype)
    for start in range(0, state.shape[0], _TILE_ROWS):
        out[:, start:start + _TILE_ROWS] = state[start:start + _TILE_ROWS].T
    return out


def _to_eigenbasis(factor: SpectrumSummary, x: np.ndarray) -> np.ndarray:
    """Coordinates of the (A, d, B) block x in a factor's eigenbasis, along axis 1.

    Rows follow the factor's eigenpairs in sector order, each sector's
    product written straight into the one output block.  A P_x pair's two
    sectors take the sum and the difference of one gather (the difference
    first, then the sum in the gather's own memory), against eigenvectors
    that hold the pair basis' 1/sqrt(2) (see spectrum.Sector), so the
    transform is orthonormal and _from_eigenbasis is its inverse.
    """
    out = np.empty_like(x)
    start = 0
    for s in factor.sectors:
        stop = start + s.eigenvalues.shape[0]
        if s.partners is None:
            v = x[:, s.reps]
        elif s.sign > 0:
            v, b = x[:, s.reps], x[:, s.partners]
            minus = v - b
            v += b
            del b
        else:
            v = minus
            del minus
        out[:, start:stop] = real_matmul(s.eigenvectors.T, v)
        del v
        start = stop
    return out


def _from_eigenbasis(factor: SpectrumSummary, c: np.ndarray) -> np.ndarray:
    """Computational-basis rows from eigenbasis rows along axis 1.

    This is the inverse of _to_eigenbasis, and its transpose.  A P_x pair's
    sum is scattered a few rows at a time and its difference formed in
    place, so a pair holds its two sector products and no third.
    """
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
            for r in range(0, len(s.reps), _TILE_ROWS):
                tile = slice(r, r + _TILE_ROWS)
                out[:, s.reps[tile]] = plus[:, tile] + y[:, tile]
            plus -= y
            out[:, s.partners] = plus
            del plus
        del y
    return out


def _coefficient_energies(factor: SpectrumSummary) -> np.ndarray:
    """The factor's eigenvalues in the row order of _to_eigenbasis."""
    return np.concatenate([s.eigenvalues for s in factor.sectors])


def _along_axis(transform, factor: SpectrumSummary, x: np.ndarray, axis: int) -> np.ndarray:
    """Apply a factor transform to ``axis`` of the contiguous x, viewed as (before, d, after)."""
    view = x.reshape(math.prod(x.shape[:axis]), x.shape[axis], -1)
    return transform(factor, view).reshape(x.shape)


def _exact_projections(factors, psi0: np.ndarray, betas, in_eigenbasis: bool = False):
    """Exact backend: project in the product eigenbasis, yielding one beta's block at a time.

    The block is viewed as (d_1, ..., d_m, k), factor i acting on axis i;
    exp(-beta/2 * sum_i eps_i) weights each product eigenvector, with every
    factor's ground energy (its lowest sorted eigenvalue) shifted out.  The
    transforms are orthonormal, so the squared norm of a weighted column is
    sum w^2 |coeff0|^2, read off in the eigenbasis by one GEMV of w^2
    against |coeff0|^2, which is formed once, C-ordered and
    realization-major.  The weights w / norm then give normalized columns
    straight out of the back transforms.  Squares and weights are formed
    _TILE_ROWS rows at a time into their one output, so besides the
    coefficients a beta holds |coeff0|^2 and the block it yields, plus the
    back transforms' scratch; the block is not referenced here once yielded.

    With ``in_eigenbasis`` and an uncoupled (H_E, H_S) spectrum there are
    no back transforms: the coefficients are held as one C-ordered (k, dim)
    array, each beta weights it by w / norm, and the yielded (dim, k) block
    is that array's transpose, beta = 0 included.  Such blocks are not
    computational-basis states; only observe.thermal_measures reads them,
    since Tr_E does not see a unitary on E and rho_S is measured in the
    H_S eigenbasis re-expressed in their coordinates (_traced_frame).
    """
    shape = tuple(f.dim for f in factors) + psi0.shape[1:]
    coeff0 = psi0.reshape(shape)
    for axis, f in enumerate(factors):
        coeff0 = _along_axis(_to_eigenbasis, f, coeff0, axis)
    coeff0 = coeff0.reshape(psi0.shape)
    if in_eigenbasis:
        coeff0 = _transposed(coeff0)
    # C-ordered (k, dim) on both paths, so their GEMVs give bitwise equal norms
    rows = coeff0 if in_eigenbasis else coeff0.T
    abs_sq = np.empty(rows.shape)
    for r in range(0, len(rows), _TILE_ROWS):
        tile = rows[r:r + _TILE_ROWS]
        abs_sq[r:r + _TILE_ROWS] = tile.real ** 2 + tile.imag ** 2
    shifted = functools.reduce(np.add.outer, [_coefficient_energies(f) - f.eigenvalues[0]
                                              for f in factors]).ravel()

    def weighted(beta):
        w = np.exp(-0.5 * beta * shifted)
        scale = 1.0 / np.sqrt(abs_sq @ (w * w))
        # (k, dim) in the eigenbasis, else (dim, k): row factors, then column factors
        row_f, col_f = (scale, w) if in_eigenbasis else (w, scale)
        out = np.empty_like(coeff0)
        for r in range(0, len(out), _TILE_ROWS):
            tile = slice(r, r + _TILE_ROWS)
            np.multiply(coeff0[tile], np.multiply.outer(row_f[tile], col_f), out=out[tile])
        if in_eigenbasis:
            return out.T
        raw = out.reshape(shape)
        del out
        for axis, f in enumerate(factors):
            raw = _along_axis(_from_eigenbasis, f, raw, axis)
        return raw.reshape(psi0.shape)

    for beta in betas:
        if beta == 0.0:
            yield coeff0.T if in_eigenbasis else psi0
        else:
            yield weighted(beta)


def _chebyshev_projections(model: SpinModel, psi0: np.ndarray, betas, bounds) -> list:
    """Chebyshev backend: one shared recurrence on ``bounds`` for the whole block and every beta > 0.

    Returns one entry per beta: its normalized block, or a
    ChebyshevOrderError where a column's survival fell below the guard.
    """
    positive = [beta for beta in betas if beta > 0.0]
    if not positive:
        return [psi0 for _ in betas]
    plan = imaginary_time_plan(bounds, positive)
    raws = _apply_plan(model, plan, psi0)    # one (dim, k) row per beta, normalized in place
    # each column's norm as a vector's, so the norms add no dependence on the block
    psi0_norm, *raw_norms = (np.array([np.linalg.norm(c) for c in x.T]) for x in (psi0, *raws))
    # The scaled series sums to exp(-z(x - x_min)) profiles with terms of
    # order one; once the surviving amplitude falls near machine epsilon the
    # single-shot projection has cancelled away all precision.
    projected = []
    for beta, raw, raw_norm in zip(positive, raws, raw_norms):
        if np.all(raw_norm > 1e-12 * psi0_norm):
            raw /= raw_norm
            projected.append(raw)
        else:
            projected.append(ChebyshevOrderError(
                f"beta = {beta:g} times the spectral width is too large for a single "
                "double-precision Chebyshev projection; use the exact backend or compose "
                "shorter imaginary-time projections"))
    projected = iter(projected)
    return [next(projected) if beta > 0.0 else psi0 for beta in betas]


def _unrefused(block):
    """A projected block; a ChebyshevOrderError left in its place is raised."""
    if isinstance(block, ChebyshevOrderError):
        raise block
    return block


def _checked(model: SpinModel, psi0, betas, spectrum) -> tuple[np.ndarray, list[float]]:
    """psi0 as a (dim, k) array and betas as finite floats >= 0; a spectrum the exact backend takes."""
    psi0 = np.asarray(psi0)
    if psi0.ndim != 2 or psi0.shape[0] != model.dim:
        raise DimensionError(f"psi0 must be a ({model.dim}, k) block, got shape {psi0.shape}")
    betas = [float(beta) for beta in betas]
    if not all(np.isfinite(beta) and beta >= 0.0 for beta in betas):
        raise ValueError("betas must be finite and >= 0")
    if spectrum is not None and (
            not all(f.sectors for f in spectrum) or math.prod(f.dim for f in spectrum) != model.dim):
        raise ValueError("the exact backend needs parity-sector factor spectra (projection_spectrum "
                         "or diagonalize_sectors) whose dimensions multiply to the model dimension")
    return psi0, betas


def canonical_thermal_state(model: SpinModel, psi0: np.ndarray, betas,
                            spectrum: tuple[SpectrumSummary, ...] | None = None, *,
                            bounds: tuple[float, float] | None = None):
    """Project a (dim, k) block of initial states to every inverse temperature in ``betas``.

    Returns an iterator of one (dim, k) block per beta, in order, holding
    the normalized columns exp(-beta H / 2)|psi_0>; beta = 0 returns
    ``psi0`` itself.

    ``spectrum`` selects the backend:

    - a tuple of parity-sector factor spectra (diagonalize_sectors),
      highest bits first, whose dimensions multiply to model.dim (see
      projection_spectrum): the block is projected exactly and lazily; the
      iterator keeps no block it has yielded, so a caller that drops each
      block before taking the next holds one beta's block at a time;
      ``bounds`` must then be None;
    - None: a single Chebyshev recurrence serves every beta, on ``bounds``,
      which must contain H's spectrum (lanczos_bounds hugs its extremes,
      so the projection is exact to rounding at any beta), or on the
      Gershgorin bounds energy_bounds(model).  The recurrence runs in this
      call.  A beta whose columns cancel below the guard raises
      ChebyshevOrderError when the iterator reaches it, and the iterator
      then goes on to the next beta.

    Any other spectrum, full-basis (diagonalize) or eigenvalue-only
    (part_eigenvalues), is refused with ValueError.
    """
    psi0, betas = _checked(model, psi0, betas, spectrum)
    if spectrum is None:
        blocks = _chebyshev_projections(model, psi0, betas,
                                        energy_bounds(model) if bounds is None else bounds)
        return map(_unrefused, blocks)
    if bounds is not None:
        raise ValueError("the exact backend takes no bounds")
    return _exact_projections(spectrum, psi0, betas)


def _traced_frame(hs_spectrum: SpectrumSummary, system: SpectrumSummary) -> SpectrumSummary:
    """H_S's eigenbasis in the coordinates of blocks left in the eigenbasis of H_S's factor ``system``.

    ``hs_spectrum`` is diagonalize(model, SYSTEM), whose gauged eigenvectors
    V are computational-basis columns; the blocks hold coordinates along
    Q, the factor's sector eigenvectors scattered to full-basis columns in
    sector order (the columns of _from_eigenbasis), so V is re-expressed
    there as Q^T V and measuring costs a D_S x D_S rotation of rho_S, not a
    pass over the block.
    """
    q = _full_basis(system.sectors)
    return replace(hs_spectrum, eigenvectors=q.T @ hs_spectrum.eigenvectors)


def _uncoupled(model: SpinModel) -> bool:
    """Whether H = H_E (x) 1 + 1 (x) H_S: lam = 0 or no coupling bonds."""
    return model.lam == 0.0 or not model.coupling_bonds


def _factor_parts(model: SpinModel, method: str) -> tuple[str, ...] | None:
    """The parts whose spectra a method projects on, or None for Gershgorin Chebyshev.

    "exact" gives (H_E, H_S) when the model is uncoupled, else (H,);
    "chebyshev" gives None, and "auto" is exact while the largest factor,
    max(dim_E, dim_S) or model.dim, is at most EXACT_AUTO_DIM.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    uncoupled = _uncoupled(model)
    largest = max(model.dim_env, model.dim_system) if uncoupled else model.dim
    if method == "chebyshev" or (method == "auto" and largest > EXACT_AUTO_DIM):
        return None
    return (ENVIRONMENT, SYSTEM) if uncoupled else (FULL,)


def projection_spectrum(model: SpinModel, method: str) -> tuple[SpectrumSummary, ...] | None:
    """The ``spectrum`` argument of canonical_thermal_state for a method, for the exact backend.

    An exact method gives the factor spectra of ``_factor_parts``, each
    diagonalized by parity sector (diagonalize_sectors), up to four dense
    blocks of a quarter of the factor's dimension, sliced from the kernel's
    sparse matrix, with each factor capped at the dense cap; the sector
    vectors carry no gauge fixing, which the projection does not need.
    They pay for themselves when many columns or betas reuse them, as in a
    static sweep; a Chebyshev method gives None.
    """
    parts = _factor_parts(model, method)
    return None if parts is None else tuple(diagonalize_sectors(model, p) for p in parts)


def lanczos_bounds(model: SpinModel, method: str) -> tuple[float, float] | None:
    """Bounds on H's spectrum from Lanczos runs, or None where a method projects on Gershgorin.

    None where _factor_parts gives None, as projection_spectrum does, so
    the caller falls back to energy_bounds(model).  Otherwise each factor
    of _factor_parts, H alone when coupled and H_E, H_S when not, gets the
    ends of _lanczos_ends on its own space, and H's ends are their sums
    (H = H_E (x) 1 + 1 (x) H_S adds the factors' extremes), padded by
    SPECTRAL_PAD of the width and clipped to energy_bounds(model), which
    contains the spectrum too.  No matrix is built, so there is no dense
    cap; a few hundred matvecs in all on ring 4+8.
    """
    parts = _factor_parts(model, method)
    if parts is None:
        return None
    lo, hi = np.sum([_lanczos_ends(model, part) for part in parts], axis=0)
    pad, (g_min, g_max) = SPECTRAL_PAD * (hi - lo), energy_bounds(model)
    return max(float(lo - pad), g_min), min(float(hi + pad), g_max)


def _lanczos_ends(model: SpinModel, part: str) -> tuple[float, float]:
    """A part's lowest and highest eigenvalue, each widened by its Ritz residual.

    scipy's eigsh (ARPACK's implicitly restarted Lanczos) finds the lowest
    and the highest Ritz pair (theta, v), k = 1 and tol LANCZOS_TOL, through
    apply_hamiltonian.  The lowest Ritz value lies above the part's lowest
    eigenvalue and, converged to it, within its residual norm
    ||H v - theta v|| of it (the highest likewise).  The start vector is the
    real part of random_state(dim, _LANCZOS_KEY): ARPACK's own start
    changes from call to call, and this one depends on the model alone and
    draws from no realization's stream (Kaniel-Paige: the extremes
    converge first).
    """
    gershgorin = energy_bounds(model, part)
    if gershgorin[0] == gershgorin[1]:
        return gershgorin     # no bonds: a multiple of the identity, on which ARPACK fails
    from scipy.sparse.linalg import LinearOperator, eigsh    # here, not at import: only traces need it

    dim = {FULL: model.dim, ENVIRONMENT: model.dim_env, SYSTEM: model.dim_system}[part]
    h = LinearOperator((dim, dim), dtype=float, matvec=lambda v: apply_hamiltonian(model, part, v))
    v0 = random_state(dim, _LANCZOS_KEY).real

    def end(which, sign):
        (theta,), v = eigsh(h, k=1, which=which, tol=LANCZOS_TOL, v0=v0)
        return theta + sign * np.linalg.norm(apply_hamiltonian(model, part, v[:, 0]) - theta * v[:, 0])

    return end("SA", -1.0), end("LA", 1.0)


def alternating_product_state(model: SpinModel, seed) -> np.ndarray:
    """Unprojected product start: a random environment state (x) the system's up-down-up-... state.

    The system factor is the basis state with site 1 up, site 2 down and so
    on; the environment factor is random_state(dim_E, seed).  Projecting it
    at beta with H_E (x) 1_S, the model without system and coupling bonds,
    makes the environment a canonical thermal state of H_E alone: the
    relaxation starting point used alongside canonical thermal states of
    the entirety.
    """
    if model.n_env < 1:
        raise ModelError("product state needs an environment")
    sys_vec = np.zeros(model.dim_system, dtype=complex)
    sys_vec[sum(1 << (site - 1) for site in range(2, model.n_system + 1, 2))] = 1.0    # even sites down
    return np.kron(random_state(model.dim_env, seed), sys_vec)


def normalization_diagnostic(model: SpinModel, beta: float, n_realizations: int, seed) -> np.ndarray:
    """Per-realization | sum_k |d_k|^2 p_k - 1/D | for an uncoupled model.

    p_k are exact Boltzmann weights assembled from the part spectra
    (p_i^S * p_p^E); d are the random-state amplitudes in the product
    eigenbasis.  Exact zero (up to rounding) at beta = 0; the spread shrinks
    with growing D.
    """
    if not _uncoupled(model):
        raise ModelError("normalization diagnostic is defined for uncoupled models (lam = 0)")
    es = part_eigenvalues(model, SYSTEM).eigenvalues
    ee = part_eigenvalues(model, ENVIRONMENT).eigenvalues
    p = np.kron(gibbs_weights(ee, beta), gibbs_weights(es, beta))     # index n = s + dim_S * e
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
