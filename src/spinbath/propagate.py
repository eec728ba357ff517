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
  so no full eigenvector matrix is formed.  The block keeps its layout:
  for factor axis i it is viewed as (before, d_i, after) and multiplied
  along the middle axis by real GEMMs on its float view (real_matmul).
  Each column is normalized through its weights in the eigenbasis, where
  its norm is one GEMV of the squared weights against |coefficients|^2.  A
  caller that only traces E out and measures passes ``traced_env=True``:
  an uncoupled block then stays in the product eigenbasis on both axes,
  held realization-major so each beta is one weighting of one array, and
  is measured in the H_S eigenbasis that ``traced_frame`` re-expresses in
  H_S's sector-eigenbasis coordinates;
- Chebyshev: without a spectrum, plan the whole beta grid at once and run
  one recurrence T_k(X)|psi_0> on the whole block up to the grid's largest
  order, every beta's expansion summed from it (the shared-vector scheme of
  Dobrovitski & De Raedt, PRE 67, 056702 (2003)), so the cost is the
  largest order, not the sum.  The recurrence vectors fill a ring, and
  each beta's row gains a full ring's terms in place by one GEMV.

``projection_spectrum`` maps a method ("auto", "exact", "chebyshev") to
those factors or None; "auto" is exact up to EXACT_AUTO_DIM.  Real time
exp(-i t H) (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)) runs the
same recurrence, on Gershgorin bounds or, where spectra were solved anyway,
on the tighter ``spectral_bounds`` they give.  Every ChebyshevPlan is a
grid of points, one coefficient column each; a float t or beta is the
one-point grid.  The recurrence fills one points-major (points,
*state.shape) block, each row stopping at its point's own order, so a time
grid t_1..t_m gives every exp(-i t_j H)|psi> from one recurrence, and the
beta rows are normalized in place.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.blas import dgemv, zgemv
from scipy.special import ive, jv

from .errors import ChebyshevOrderError, DimensionError, ModelError
from .hamiltonian import (COUPLING, ENVIRONMENT, FULL, SYSTEM, SpinModel, apply_hamiltonian,
                          energy_bounds)
from .seeds import spawn_rng
from .spectrum import SpectrumSummary, diagonalize_sectors
from .spectrum import diagonalize  # noqa: F401  (a binding benchmark/tracer.py expects)

DEFAULT_TOLERANCE = 1e-15      # relative truncation threshold for coefficients
DEFAULT_MAX_ORDER = 200_000
EXACT_AUTO_DIM = 2**12         # "auto" projects exactly up to this dimension
SPECTRAL_PAD = 1e-8            # relative pad of spectral_bounds (eigh errs by about 1e-12)
# amplitudes held in one block of states: a projection's realizations, a
# time trace's output times (256 columns at 2^12, one column from 2^20 on)
_BLOCK_AMPLITUDES = 2**20
# amplitudes in _apply_plan's ring of recurrence vectors: 8 vectors at 2^12,
# from 2^14 on the recurrence pair alone, whose peak a deeper ring would pass
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
    d = radius * np.cos(2.0 * np.pi * u[1]) + 1j * radius * np.sin(2.0 * np.pi * u[1])
    return d / np.linalg.norm(d)


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


def _pad_bounds(bounds):
    e_min, e_max = float(bounds[0]), float(bounds[1])
    if e_max <= e_min:
        # zero-width spectrum (e.g. empty bond lists); widen so the affine
        # map is defined, the expansion then reduces to the exact scalar
        e_min, e_max = e_min - 0.5, e_max + 0.5
    return e_min, e_max


def spectral_bounds(model: SpinModel, *spectra: SpectrumSummary) -> tuple[float, float]:
    """Bounds on H's spectrum from spectra already solved, for expansions that hold them.

    ``spectra`` is the full H's (one factor of dimension model.dim) or the
    (H_E, H_S) pair, as projection_spectrum gives them; only their extreme
    eigenvalues are read.  The extremes add (Weyl: the lowest eigenvalue of
    a sum is at least the sum of the lowest ones), and a coupled model given
    only its parts adds lam times the Gershgorin bounds of H_SE.  The result
    is padded by SPECTRAL_PAD of its width, far past eigh's rounding and
    too little to move an expansion's order, and clipped to the Gershgorin
    bounds energy_bounds(model), which contain the spectrum as well.
    Extremes outside their own part's Gershgorin bounds belong to another
    model and raise ValueError.
    """
    dims = tuple(s.dim for s in spectra)
    if dims == (model.dim,):
        parts = (FULL,)
    elif dims == (model.dim_env, model.dim_system):
        parts = (ENVIRONMENT, SYSTEM)
    else:
        raise ValueError(f"spectra of dimensions {dims} are neither H's ({model.dim},) "
                         f"nor the (H_E, H_S) pair ({model.dim_env}, {model.dim_system})")
    full = energy_bounds(model)
    lo = hi = 0.0
    for part, s in zip(parts, spectra):
        e_min, e_max = float(s.eigenvalues[0]), float(s.eigenvalues[-1])
        g_min, g_max = full if part == FULL else energy_bounds(model, part)
        if e_min < g_min or e_max > g_max:
            raise ValueError(f"spectrum ({e_min:.6g}, {e_max:.6g}) lies outside the Gershgorin "
                             f"bounds ({g_min:.6g}, {g_max:.6g}) of part {part}: another model's")
        lo, hi = lo + e_min, hi + e_max
    if parts != (FULL,) and model.lam != 0.0 and model.coupling_bonds:
        c_min, c_max = sorted(model.lam * b for b in energy_bounds(model, COUPLING))
        lo, hi = lo + c_min, hi + c_max
    pad = SPECTRAL_PAD * (hi - lo)
    return max(lo - pad, full[0]), min(hi + pad, full[1])


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
    e_min, e_max = _pad_bounds(bounds)
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
    def column(a, half, t):
        z = t * half
        coeffs = _retained(lambda k: np.where(k == 0, 1.0, 2.0) * (-1j) ** k * jv(k, z),
                           int(abs(z) + 20 + 12 * abs(z) ** (1.0 / 3.0)),
                           f"exp(-itH) expansion for t*width = {2 * z:.3g}")
        return coeffs, np.exp(-1j * t * a)

    return _plan(bounds, t, column)


def imaginary_time_plan(bounds, beta):
    """Plan for exp(-beta H / 2) with spectrum inside ``bounds``, at a beta or a 1-D grid of betas."""
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
    vectors, depth set by the state's size alone (_RING_AMPLITUDES).  Before
    a slot is overwritten, every depth orders, the ring is flushed: each
    point's row gains, in place, one GEMV (dgemv on float views for real
    coefficients, else zgemv) of the ring's Fortran-ordered view against
    that point's contiguous coefficient slice, cut at its own order.  No
    row depends on the other points, so a grid plan's row is bitwise its
    single-point plan's.  The columns of a (dim, k) state share the
    block's depth, so a column is bitwise its lone run only where both
    depths agree: always from 2^14 amplitudes per column on, else while
    the point orders stay below both.  Each matvec's fresh result is the
    recurrence's scratch vector, so at depth 2 the peak is that of adding
    each order to each row by itself.
    """
    if state.shape[0] != model.dim:
        raise DimensionError(f"state dimension {state.shape[0]} != model dimension {model.dim}")
    a = 0.5 * (plan.e_max + plan.e_min)
    half = 0.5 * (plan.e_max - plan.e_min)

    def x_apply(v, gain=1.0):
        # gain * (H v - a v) / half, in place on the fresh matvec result's float
        # view: a real product by gain / half costs a fraction of a complex
        # division, which numpy 2.4 also does as a product by the reciprocal
        y = apply_hamiltonian(model, FULL, v)
        f = y.view(float)
        f -= a * v.view(float)
        f *= gain / half
        return y

    size = state.size
    depth = max(2, _RING_AMPLITUDES // size)
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


_TILE_ROWS = 64     # rows per tile of _transposed: 64 x 256 complex columns is 256 KiB


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

    Rows follow the factor's eigenpairs in sector order.  A P_x pair's two
    sectors take the sum and the difference of one gather, against
    eigenvectors that hold the pair basis' 1/sqrt(2) (see spectrum.Sector),
    so the transform is orthonormal and _from_eigenbasis is its inverse.
    """
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

    This is the inverse of _to_eigenbasis, and its transpose.
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
            out[:, s.reps] = plus + y
            plus -= y
            out[:, s.partners] = plus
    return out


def _coefficient_energies(factor: SpectrumSummary) -> np.ndarray:
    """The factor's eigenvalues in the row order of _to_eigenbasis."""
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
    transforms are orthonormal, so the squared norm of a weighted column is
    sum w^2 |coeff0|^2, read off in the eigenbasis by one GEMV of w^2
    against |coeff0|^2, which is formed once and realization-major.  The
    weights w / norm then give normalized columns straight out of the back
    transforms.

    With ``traced_env`` and two factors (H_E, H_S) there are no back
    transforms: the coefficients are held as one C-ordered (k, dim) array,
    each beta weights it by w / norm, and the yielded (dim, k) block is
    that array's transpose, beta = 0 included.
    """
    shape = tuple(f.dim for f in factors) + psi0.shape[1:]
    coeff0 = psi0.reshape(shape)
    for axis, f in enumerate(factors):
        coeff0 = _along_axis(_to_eigenbasis, f, coeff0, axis)
    coeff0 = coeff0.reshape(psi0.shape)
    in_eigenbasis = traced_env and len(factors) == 2
    if in_eigenbasis:
        coeff0 = _transposed(coeff0)
    # C-ordered (k, dim) on both paths, so their GEMVs give bitwise equal norms
    rows = coeff0 if in_eigenbasis else coeff0.T
    abs_sq = np.ascontiguousarray(rows.real ** 2 + rows.imag ** 2)
    shifted = functools.reduce(np.add.outer, [_coefficient_energies(f) - f.eigenvalues[0]
                                              for f in factors]).ravel()
    for beta in betas:
        if beta == 0.0:
            yield coeff0.T if in_eigenbasis else psi0
            continue
        w = np.exp(-0.5 * beta * shifted)
        scale = 1.0 / np.sqrt(abs_sq @ (w * w))
        if in_eigenbasis:
            yield (coeff0 * np.multiply.outer(scale, w)).T
            continue
        raw = (coeff0 * np.multiply.outer(w, scale)).reshape(shape)
        for axis, f in enumerate(factors):
            raw = _along_axis(_from_eigenbasis, f, raw, axis)
        yield raw.reshape(psi0.shape)


def _chebyshev_projections(model: SpinModel, psi0: np.ndarray, betas) -> list:
    """Chebyshev backend: one shared recurrence on the whole block for every beta > 0."""
    positive = [beta for beta in betas if beta > 0.0]
    if not positive:
        return [psi0 for _ in betas]
    plan = imaginary_time_plan(energy_bounds(model), positive)
    raws = _apply_plan(model, plan, psi0)    # one (dim, k) row per beta, normalized in place
    # each column's norm as a vector's, so the norms add no dependence on the block
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
    for raw, raw_norm in zip(raws, raw_norms):
        raw /= raw_norm
    projected = iter(raws)
    return [next(projected) if beta > 0.0 else psi0 for beta in betas]


def canonical_thermal_state(model: SpinModel, psi0: np.ndarray, betas,
                            spectrum: tuple[SpectrumSummary, ...] | None = None, *,
                            traced_env: bool = False):
    """Project a (dim, k) block of initial states to every inverse temperature in ``betas``.

    Returns an iterable of one (dim, k) block per beta, in order, holding
    the normalized columns exp(-beta H / 2)|psi_0>; beta = 0 returns
    ``psi0`` itself.

    Given ``spectrum``, a tuple of parity-sector factor spectra
    (diagonalize_sectors), highest bits first, whose dimensions multiply
    to model.dim (see projection_spectrum), the block is projected exactly
    and lazily, so only one beta's block is held at a time; without it a
    single Chebyshev recurrence on the whole block serves every beta and
    never builds a dense matrix.

    ``traced_env=True`` is for callers that only trace the environment out
    and measure (reduce_to_system, measure_state): with an uncoupled
    (H_E, H_S) spectrum, every block, beta = 0 included, is then left in
    the product eigenbasis on both factor axes, as the coordinates
    _to_eigenbasis gives them, and no back transform runs.  Tr_E does not
    see a unitary on E, and rho_S is measured in the H_S eigenbasis
    re-expressed in those coordinates, which traced_frame gives; the states
    themselves are not computational-basis states and must not be evolved
    or embedded.  Each block is the transpose of a C-contiguous (k, dim)
    array, so the reduction copies nothing.  Coupled spectra and the
    Chebyshev backend ignore the flag.
    """
    psi0 = np.asarray(psi0)
    if psi0.ndim != 2 or psi0.shape[0] != model.dim:
        raise DimensionError(f"psi0 must be a ({model.dim}, k) block, got shape {psi0.shape}")
    betas = [float(beta) for beta in betas]
    if not all(np.isfinite(beta) and beta >= 0.0 for beta in betas):
        raise ValueError("betas must be finite and >= 0")
    if spectrum is None:
        return _chebyshev_projections(model, psi0, betas)
    if not all(f.sectors for f in spectrum) or math.prod(f.dim for f in spectrum) != model.dim:
        raise ValueError("the exact backend needs parity-sector factor spectra (projection_spectrum "
                         "or diagonalize_sectors) whose dimensions multiply to the model dimension")
    return _exact_projections(spectrum, psi0, betas, traced_env)


def traced_frame(hs_spectrum: SpectrumSummary,
                 spectrum: tuple[SpectrumSummary, ...] | None) -> SpectrumSummary:
    """H_S's eigenbasis in the coordinates of canonical_thermal_state(..., traced_env=True) blocks.

    ``hs_spectrum`` is diagonalize(model, SYSTEM), whose gauged eigenvectors
    V are computational-basis columns.  Given an uncoupled (H_E, H_S)
    spectrum, the traced blocks hold their system axis in the coordinates
    of H_S's sector eigenbasis Q = _from_eigenbasis(1), so the same
    spectrum is returned with V re-expressed there as Q^T V: measuring in
    it costs a D_S x D_S rotation of rho_S, not a pass over the block.  Any other spectrum leaves the blocks in the computational
    basis, and hs_spectrum is returned as it is.
    """
    if spectrum is None or len(spectrum) != 2:
        return hs_spectrum
    system = spectrum[1]
    q = _from_eigenbasis(system, np.eye(system.dim)[None])[0]
    return replace(hs_spectrum, eigenvectors=q.T @ hs_spectrum.eigenvectors)


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


def alternating_product_state(model: SpinModel, beta: float, seed,
                              env_spectrum: SpectrumSummary) -> np.ndarray:
    """Product initial state: system up-down-up-... , environment thermal.

    The system factor is the basis state with site 1 up, site 2 down and so
    on; the environment factor is a canonical thermal state of H_E alone at
    inverse temperature beta (drawn per seed), projected on
    ``env_spectrum``, H_E's diagonalize_sectors, which the caller keeps for
    the trace's bounds.  This is the relaxation starting point used
    alongside canonical thermal states of the entirety.
    """
    if model.n_env < 1:
        raise ModelError("product state needs an environment")
    sys_index = 0
    for site in range(2, model.n_system + 1, 2):
        sys_index |= 1 << (site - 1)
    sys_vec = np.zeros(model.dim_system, dtype=complex)
    sys_vec[sys_index] = 1.0
    env0 = random_state(model.dim_env, seed)[:, None]
    env_vec, = _exact_projections((env_spectrum,), env0, [beta], traced_env=False)
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
    es = diagonalize_sectors(model, SYSTEM).eigenvalues
    ee = diagonalize_sectors(model, ENVIRONMENT).eigenvalues
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
