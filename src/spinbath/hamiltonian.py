"""Spin-1/2 Hamiltonians built from bond tables and applied as sparse matrices.

The entirety is split into a system of ``n_system`` spins and an environment
of ``n_env`` spins,

    H = H_S + H_E + lam * H_SE,

where each part is a sum of two-spin terms ``-sum_a c_a S_i^a S_j^a`` over
bonds (a in {x, y, z}, spin-1/2 operators S^a = sigma^a / 2, units
hbar = k_B = 1; note the overall minus sign, so positive isotropic couplings
are ferromagnetic).

Basis convention: amplitudes are indexed by the integer n in [0, 2^N); bit k
of n carries the state of site k+1 of the entirety, with the system occupying
the low ``n_system`` bits so the partial trace over the environment is a
contiguous reshape.  Bit value 0 means spin up.  Bond tables use 1-based site
labels within their own part.

Every reader takes a bond from one table (_terms): (bit_i, bit_j, zz,
same, crossed), the bond's diagonal term and its two flip coefficients,
with lam already folded into FULL's coupling bonds.  The CSR kernels,
FULL's h and its apart bonds, the bounds and ``part_matrix`` all read it.

Each of S, E and SE is held once, by its model, as one real
``scipy.sparse`` CSR matrix (the diagonal, then one flipped index per
bond, exact zeros dropped).  FULL is never held as one matrix of all the
bonds: ``apply_hamiltonian`` composes it as (H_E (x) 1_S) x, H_E's own
matrix on the block's real (2^{n_E}, 2^{n_S} * 2k) view, plus (1 (x) h) x,
h one dense operator of the system and lam-scaled coupling bonds on the
system bits and the coupled environment bits next to them or on top,
applied as GEMMs that add into H_E's product; a coupling bond to any other
environment bit, or a system bond past h's 8 bits, adds its terms
elementwise.  So FULL's kernels take O(2^{n_E} * bonds) bytes plus h's
(at most 256 x 256 floats), not O(2^N * bonds).  The Gershgorin
``energy_bounds`` stream exact per-row values from the bond tables, one
row block at a time (FULL's from H_E's rows and those pieces);
``part_matrix`` assembles the FULL matrix, which ``spectrum`` reads for
its dense matrix and parity sector blocks, from H_E's matrix and the
other bonds' table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from scipy.linalg.blas import dgemm

from .errors import DimensionError, ModelError, SizeLimitError
from .seeds import spawn_rng

# part selectors for apply_hamiltonian / diagonalize
SYSTEM = "S"
ENVIRONMENT = "E"
COUPLING = "SE"
FULL = "FULL"
_PARTS = (SYSTEM, ENVIRONMENT, COUPLING, FULL)

DEFAULT_SIZE_CAP = 28        # 4 GiB per complex vector at N = 28
_KERNEL_BYTES = 3 * 2**30    # upper bound on one part's CSR values and indices
_H_BITS = 8                  # bits of FULL's dense h, 256 x 256 floats; other bonds stay apart
_ROW_BLOCK = 4096            # rows per pass of the CSR build and the bounds
_BOND_SLABS = 16             # an apart bond's slabs per block (_add_bond)
_BOND_FLOATS = 2**10         # and its least slab
_BOND_BUFFER = 256           # numpy's ufunc buffer, in elements, for _add_bond's strided products

COUPLING_RANGE = 4.0 / 3.0   # random couplings are uniform on [-4/3, 4/3]

Bond = tuple[int, int, float, float, float]


def _check_bonds(bonds, n_sites, n_sites_j, label, cross):
    seen = set()
    for bond in bonds:
        if len(bond) != 5:
            raise ModelError(f"{label}: bond {bond!r} must be (i, j, cx, cy, cz)")
        i, j = int(bond[0]), int(bond[1])
        if cross:
            if not (1 <= i <= n_sites and 1 <= j <= n_sites_j):
                raise ModelError(f"{label}: sites {(i, j)} out of range")
        else:
            if not (1 <= i < j <= n_sites):
                raise ModelError(f"{label}: need 1 <= i < j <= {n_sites}, got {(i, j)}")
        if (i, j) in seen:
            raise ModelError(f"{label}: duplicate bond {(i, j)}")
        if not all(np.isfinite(float(c)) for c in bond[2:]):
            raise ModelError(f"{label}: bond {(i, j)} has a non-finite coupling")
        seen.add((i, j))


@dataclass(frozen=True)
class SpinModel:
    """Immutable coupling tables defining H_S, H_E and H_SE.

    ``system_bonds``/``env_bonds`` hold (i, j, cx, cy, cz) with 1 <= i < j
    inside the respective part; ``coupling_bonds`` hold (system site,
    environment site, dx, dy, dz).  ``lam`` is the global system-environment
    coupling strength.
    """

    n_system: int
    n_env: int
    system_bonds: tuple[Bond, ...] = ()
    env_bonds: tuple[Bond, ...] = ()
    coupling_bonds: tuple[Bond, ...] = ()
    lam: float = 1.0
    _appliers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_system < 1 or self.n_env < 0:
            raise ModelError("need n_system >= 1 and n_env >= 0")
        if self.n_spins > DEFAULT_SIZE_CAP:
            raise ModelError(f"N = {self.n_spins} exceeds the size cap {DEFAULT_SIZE_CAP}")
        if not np.isfinite(self.lam):
            raise ModelError(f"lam must be finite, got {self.lam}")
        _check_bonds(self.system_bonds, self.n_system, None, "system_bonds", cross=False)
        _check_bonds(self.env_bonds, self.n_env, None, "env_bonds", cross=False)
        _check_bonds(self.coupling_bonds, self.n_system, self.n_env, "coupling_bonds", cross=True)
        for name in ("system_bonds", "env_bonds", "coupling_bonds"):
            object.__setattr__(self, name, tuple(
                (int(b[0]), int(b[1]), float(b[2]), float(b[3]), float(b[4]))
                for b in getattr(self, name)
            ))

    @property
    def n_spins(self) -> int:
        return self.n_system + self.n_env

    @property
    def dim(self) -> int:
        return 2**self.n_spins

    @property
    def dim_system(self) -> int:
        return 2**self.n_system

    @property
    def dim_env(self) -> int:
        return 2**self.n_env


def build_ring_model(n_system, n_env, j_system, coupling_seed, env_seed, lam) -> SpinModel:
    """Chain system + fully connected random environment, closed into a ring.

    The system chain carries isotropic bonds (j_system, j_system, j_system).
    Every environment pair gets a bond with each component drawn uniformly
    from [-4/3, 4/3] (independently per component).  Two coupling bonds join
    the chain ends: system site 1 to environment site n_env and system site
    n_system to environment site 1, with components from the same range.
    Deterministic given the two seeds.
    """
    if n_system < 2 or n_env < 2:
        raise ModelError("ring model needs n_system >= 2 and n_env >= 2")
    sys_bonds = tuple((i, i + 1, j_system, j_system, j_system) for i in range(1, n_system))
    env_rng = spawn_rng("env-couplings", env_seed)
    env_bonds = tuple(
        (i, j, *env_rng.uniform(-COUPLING_RANGE, COUPLING_RANGE, 3))
        for i in range(1, n_env + 1)
        for j in range(i + 1, n_env + 1)
    )
    cpl_rng = spawn_rng("ring-couplings", coupling_seed)
    cpl_bonds = tuple(
        (si, ej, *cpl_rng.uniform(-COUPLING_RANGE, COUPLING_RANGE, 3))
        for (si, ej) in ((1, n_env), (n_system, 1))
    )
    return SpinModel(n_system, n_env, sys_bonds, env_bonds, cpl_bonds, lam)


def build_chain_model(n_system, n_env, j_iso, omega_iso, delta_iso, lam) -> SpinModel:
    """Two isotropic nearest-neighbor chains joined end to end by one bond.

    The single coupling bond connects system site n_system to environment
    site 1 with all three components equal to delta_iso.
    """
    if n_system < 1 or n_env < 1:
        raise ModelError("chain model needs n_system >= 1 and n_env >= 1")
    sys_bonds = tuple((i, i + 1, j_iso, j_iso, j_iso) for i in range(1, n_system))
    env_bonds = tuple((i, i + 1, omega_iso, omega_iso, omega_iso) for i in range(1, n_env))
    cpl_bonds = ((n_system, 1, delta_iso, delta_iso, delta_iso),)
    return SpinModel(n_system, n_env, sys_bonds, env_bonds, cpl_bonds, lam)


def _terms(bonds, shift, scale=1.0):
    """The bond table: (bit_i, bit_j, zz, same, crossed) of each bond (i, j, cx, cy, cz).

    Site i sits on bit i - 1 and site j on bit j - 1 + shift.  With s the
    bond's scale (lam for FULL's coupling bonds, else 1), zz = -s cz / 4 is
    the bond's diagonal term where its two spins are parallel (-zz where
    they are not), and same = -s (cx - cy) / 4 and crossed = -s (cx + cy) / 4
    are the coefficients of its flip of both spins from parallel and from
    antiparallel spins.  Every kernel, bound and matrix reads this table.
    """
    return [(i - 1, j - 1 + shift, -scale * cz / 4.0, -scale * (cx - cy) / 4.0,
             -scale * (cx + cy) / 4.0) for (i, j, cx, cy, cz) in bonds]


def _local_terms(model: SpinModel, part: str):
    """The local spin count and bond table (_terms) of S, E or SE.

    Parts S and E are expressed on their own 2^{n_part} space (environment
    site j sits on local bit j-1); SE lives on the full 2^N space.  FULL is
    composed (see _Composed) and has no table of its own.
    """
    parts = {SYSTEM: (model.n_system, model.system_bonds, 0),
             ENVIRONMENT: (model.n_env, model.env_bonds, 0),
             COUPLING: (model.n_spins, model.coupling_bonds, model.n_system)}
    if part not in parts:
        raise ValueError(f"part must be one of {_PARTS}, got {part!r}")
    n_bits, bonds, shift = parts[part]
    return n_bits, _terms(bonds, shift)


def _kept(terms):
    """The terms of the bonds with a nonzero flip coefficient."""
    return [term for term in terms if term[3] != 0.0 or term[4] != 0.0]


def _row_blocks(n_bits: int, terms):
    """(rows, diagonal, bonds) per block of _ROW_BLOCK consecutive rows of a part.

    ``diagonal`` adds each bond's +zz where its two bits are parallel and
    -zz where they are not, in ``terms`` order; ``bonds`` yields one
    (flipped index, coefficient) pair of arrays per kept bond (a bond whose
    two flip coefficients are not both zero), also in ``terms`` order: each
    flips both bits with coefficient ``same`` from parallel spins and
    ``crossed`` from antiparallel ones.  Only the bits the terms read are
    extracted, once per block, so the scratch does not grow with dim.
    """
    kept = _kept(terms)
    read = {b for term in terms for b in term[:2]}
    dim = 2**n_bits
    for start in range(0, dim, _ROW_BLOCK):
        idx = np.arange(start, min(start + _ROW_BLOCK, dim), dtype=np.int32)
        bits = {b: ((idx >> b) & 1).astype(np.uint8) for b in read}
        diag = np.zeros(idx.shape[0])
        for (bi, bj, zz, _, _) in terms:
            diag += np.where(bits[bi] == bits[bj], zz, -zz)
        yield slice(start, start + idx.shape[0]), diag, _flips(idx, bits, kept)


def _flips(idx, bits, kept):
    """(flipped index, coefficient) arrays of the kept bonds, one bond at a time."""
    for (bi, bj, _, same, crossed) in kept:
        yield idx ^ ((1 << bi) | (1 << bj)), np.where(bits[bi] == bits[bj], same, crossed)


def _contiguous(state) -> np.ndarray:
    """state as a C-ordered float or complex array, copied only when it is not one already."""
    return np.ascontiguousarray(state, dtype=np.result_type(state, float))


def _float_view(state: np.ndarray, rows: int) -> np.ndarray:
    """The C-ordered state as a real (rows, m) matrix, without a copy.

    A complex entry becomes two adjacent columns (real, imaginary), so one
    real product serves both parts, and the result views back as complex.
    """
    x = state.reshape(rows, state.size // rows)
    return x.view(x.real.dtype) if np.iscomplexobj(x) else x


class _Applier:
    """Kernel for S, E or SE: one real CSR matrix.

    Its rows hold the diagonal, then one entry per kept bond in ``terms``
    order (see _row_blocks), with the exact zeros dropped: 12 bytes
    (float64 value, int32 column) per stored entry.  The arrays are
    read-only, so no ``scipy.sparse`` operation can reorder the layout in
    place.  ``product`` takes a real C-ordered (dim, m) matrix, so one pass
    over the matrix serves every column, and a complex block's real and
    imaginary parts alike.
    """

    def __init__(self, n_bits: int, terms):
        """Build the matrix in arrays of dim * (1 + kept bonds) entries, then shrink them to fit.

        A bound past _KERNEL_BYTES is refused before anything is allocated,
        which also keeps every index within int32.
        """
        self.dim = 2**n_bits
        width = 1 + len(_kept(terms))
        if 12 * self.dim * width > _KERNEL_BYTES:
            raise SizeLimitError(
                f"{self.dim} rows of {width} entries pass the kernel budget, {_KERNEL_BYTES} B")
        data = np.empty(self.dim * width)
        indices = np.empty(self.dim * width, dtype=np.int32)
        indptr = np.zeros(self.dim + 1, dtype=np.int32)
        for rows, diag, bonds in _row_blocks(n_bits, terms):
            _write_block(data, indices, indptr, rows, diag, bonds, width)
        data.resize(indptr[-1], refcheck=False)
        indices.resize(indptr[-1], refcheck=False)
        data.flags.writeable = indices.flags.writeable = False
        self.matrix = scipy.sparse.csr_array((data, indices, indptr), shape=(self.dim, self.dim))

    def product(self, state: np.ndarray) -> np.ndarray:
        """H x on the C-ordered state's real (dim, m) view (a row's columns are independent)."""
        return self.matrix @ _float_view(state, self.dim)


def _write_block(data, indices, indptr, rows, diag, bonds, width):
    """Fill a row block full width from indptr[rows.start] on, then move its nonzeros down to there."""
    start = indptr[rows.start]      # at most rows.start * width, so the block fits below the bound
    values = data[start:start + (rows.stop - rows.start) * width].reshape(-1, width)
    columns = indices[start:start + values.size].reshape(-1, width)
    values[:, 0] = diag
    columns[:, 0] = np.arange(rows.start, rows.stop)
    for col, (flip, coeff) in enumerate(bonds, start=1):
        columns[:, col] = flip
        values[:, col] = coeff
    stored = values != 0.0
    ends = indptr[rows.start + 1:rows.stop + 1]
    np.cumsum(np.count_nonzero(stored, axis=1), out=ends)
    ends += start
    data[start:ends[-1]] = values[stored]
    indices[start:ends[-1]] = columns[stored]


class _Composed:
    """FULL as (H_E (x) 1_S) x + (1 (x) h) x + the other bonds, with no matrix of 2^N rows.

    H_E's own kernel multiplies the whole block, viewed as one real
    (2^{n_E}, 2^{n_S} * m) matrix.  h is dense on ``bits``: the low block
    (the system bits and the coupled environment bits right above them,
    ``low`` bits) and the top bit if it is coupled (the ring), at most
    _H_BITS bits.  It holds the system bonds and the lam-scaled coupling
    bonds on those bits, its entries the row sums of a full-space matrix
    of them.  Each nonzero 2^low-square block of h is one GEMM on a slab
    of ``span`` rows (one on the chain, four on the ring, split at the top
    bit), a state column at a time, adding into H_E's product.  Each other
    bond (``apart``: a coupling bond to another environment bit, or a
    system bond past _H_BITS) adds its zz and flip terms to the whole
    block elementwise, O(1) per amplitude, a slab at a time (_add_bond).
    """

    def __init__(self, env: _Applier, model: SpinModel):
        ns, top = model.n_system, model.n_spins - 1
        coupled = {ns + j - 1 for (_, j, *_) in model.coupling_bonds}
        self.low = min(ns, _H_BITS)
        while self.low in coupled and self.low < _H_BITS:
            self.low += 1
        split = top in coupled and top >= self.low and self.low < _H_BITS
        self.bits = list(range(self.low)) + [top] * split
        if 40 * 4**len(self.bits) > _KERNEL_BYTES:
            raise SizeLimitError(f"h on {len(self.bits)} bits and its GEMM copies pass "
                                 f"the kernel budget, {_KERNEL_BYTES} B")
        local = {b: i for i, b in enumerate(self.bits)}
        self.terms = _terms(model.system_bonds, 0) + _terms(model.coupling_bonds, ns, model.lam)
        self.h = _Applier(len(self.bits), [(bi, local[bj], *rest) for (bi, bj, *rest) in self.terms
                                           if bj in local]).matrix.toarray()
        self.h.flags.writeable = False
        self.apart = [term for term in self.terms if term[1] not in local]
        self.env, self.dim, self.n_system, self.n_spins = env, model.dim, ns, model.n_spins
        self.span, size, n = 2**top if split else self.dim, 2**self.low, 1 + split
        # each block as kron(block, 1_2), a complex column's (real, imaginary) pairs
        self.blocks = [(t * self.span, u * self.span, np.asfortranarray(np.kron(block, np.eye(2))))
                       for u in range(n) for t in range(n)
                       if (block := self.h[u * size:(u + 1) * size, t * size:(t + 1) * size]).any()]
        off = np.abs(self.h)
        np.fill_diagonal(off, 0.0)
        self.row_ends = (np.diag(self.h) - off.sum(axis=1), np.diag(self.h) + off.sum(axis=1))

    def product(self, state: np.ndarray) -> np.ndarray:
        """H x on the C-ordered state's real (dim, m) view.

        H_E and the apart bonds take the whole block; h's GEMMs go a state
        column at a time, so each column's result is bitwise its lone
        product, and a lone column allocates only its result.
        """
        x = _float_view(state, self.dim)
        out = self.env.product(x).reshape(x.shape)
        if state.size == self.dim:
            self._add_h(x, out)
        else:
            columns, results = state.reshape(self.dim, -1), out.view(state.dtype)
            column, result = np.empty(self.dim, state.dtype), np.empty(self.dim, state.dtype)
            for j in range(columns.shape[1]):
                column[:], result[:] = columns[:, j], results[:, j]
                self._add_h(_float_view(column, self.dim), _float_view(result, self.dim))
                results[:, j] = result
        for bond in self.apart:
            _add_bond(out, x, *bond)
        return out

    def _add_h(self, x, out):
        """out += (1 (x) h) x for one state column's C-ordered (dim, 1 or 2) float view x."""
        for src, dst, gemm in self.blocks:
            if x.shape[1] == 1:
                gemm = gemm[::2, ::2]       # a real column's block
            a = x[src:src + self.span].reshape(-1, gemm.shape[0])
            c = out[dst:dst + self.span].reshape(-1, gemm.shape[0])
            dgemm(1.0, gemm, a.T, beta=1.0, c=c.T, overwrite_c=True)

    def row_extremes(self, env_rows):
        """Least and greatest Gershgorin row ends of h and the apart bonds over each env row's system rows."""
        low, high = np.full(env_rows.size, np.inf), np.full(env_rows.size, -np.inf)
        step, stop = max(1, _ROW_BLOCK // env_rows.size), 2**self.n_system
        for start in range(0, stop, step):
            rows = (env_rows[:, None] << self.n_system) | np.arange(start, min(start + step, stop))
            index = sum(((rows >> b) & 1) << i for i, b in enumerate(self.bits))
            ends = self.row_ends[0][index], self.row_ends[1][index]
            for (bi, bj, zz, same, crossed) in self.apart:
                parallel = ((rows >> bi) & 1) == ((rows >> bj) & 1)
                diag, flip = np.where(parallel, zz, -zz), np.abs(np.where(parallel, same, crossed))
                ends = ends[0] + (diag - flip), ends[1] + (diag + flip)
            np.minimum(low, ends[0].min(axis=1), out=low)
            np.maximum(high, ends[1].max(axis=1), out=high)
        return low, high

    @property
    def matrix(self) -> scipy.sparse.csr_array:
        """kron(H_E, 1_S) plus a full-space CSR of the system and lam-scaled coupling bonds."""
        eye = scipy.sparse.identity(self.dim // self.env.dim, format="csr")
        narrow = _Applier(self.n_spins, self.terms).matrix
        return scipy.sparse.kron(self.env.matrix, eye, format="csr") + narrow


def _add_bond(out, x, bi, bj, zz, same, crossed):
    """out += one bond's zz and flip terms, on bits bi < bj, for C-ordered real (dim, m) views.

    Viewed as (a, 2, b, 2, c), axes 1 and 3 the two bits, the zz term
    weighs each quadrant by +-zz and the flip term adds the quadrant with
    both bits flipped (axes 1 and 3 reversed), weighed by ``same`` or
    ``crossed``.  Both go a slab of the a and b axes at a time, each slab at
    most 1/_BOND_SLABS of the block but no less than _BOND_FLOATS floats,
    so each product's temporary is at most a slab.  The views' contiguous
    runs are only c floats long, so numpy buffers them; its buffers are
    held to _BOND_BUFFER elements (the default, 8192, would add up to three
    64 KiB buffers per product) and restored on return.
    """
    shape = (-1, 2, 2**(bj - bi - 1), 2, 2**bi * x.shape[1])
    x, out = x.reshape(shape), out.reshape(shape)
    n_a, _, n_b, _, c = x.shape
    slab = max(_BOND_FLOATS, x.size // _BOND_SLABS)
    rows, cols = (slab // (4 * n_b * c), n_b) if 4 * n_b * c <= slab else (1, max(1, slab // (4 * c)))
    signed = np.array([[zz, -zz], [-zz, zz]]).reshape(2, 1, 2, 1)
    flips = np.array([[same, crossed], [crossed, same]]).reshape(2, 1, 2, 1)
    buffer = np.setbufsize(_BOND_BUFFER)
    try:
        for a in range(0, n_a, rows):
            for b in range(0, n_b, cols):
                xs, target = x[a:a + rows, :, b:b + cols], out[a:a + rows, :, b:b + cols]
                if zz:
                    target += signed * xs
                if same or crossed:
                    target += flips * xs[:, ::-1, :, ::-1]
    finally:
        np.setbufsize(buffer)


def _applier(model: SpinModel, part: str):
    """The part's kernel, built on first use and held by the model.

    FULL composes the ENVIRONMENT kernel with h, so the model holds H_E's
    matrix and h, and no matrix of all the bonds.
    """
    applier = model._appliers.get(part)
    if applier is None:
        if part == FULL:
            kernel = _Composed(_applier(model, ENVIRONMENT), model)
        else:
            kernel = _Applier(*_local_terms(model, part))
        applier = model._appliers.setdefault(part, kernel)
    return applier


def part_matrix(model: SpinModel, part: str) -> scipy.sparse.csr_array:
    """The real CSR matrix of a part, on the same space as apply_hamiltonian(part).

    S, E and SE are their kernels' own matrices.  FULL, which no kernel
    holds, is assembled as kron(H_E, 1_S) plus a full-space CSR of the
    system and lam-scaled coupling bonds, built from the bond tables apart
    from h, so FULL's product is checked against an independent matrix.
    """
    return _applier(model, part).matrix


def apply_hamiltonian(model: SpinModel, part: str, state: np.ndarray) -> np.ndarray:
    """Return H_part @ state through the part's kernel (never a dense matrix of the part).

    ``part`` is one of "S", "E", "SE", "FULL"; S and E act on their local
    2^{n_part}-dimensional spaces, SE and FULL on the full 2^N space (FULL
    includes the factor lam on the coupling part, SE does not).  ``state``
    may be a vector or a (dim, k) batch of columns, in any memory order (a
    block that is not C-ordered is copied once); the result has the dtype
    ``result_type(state, float)`` and is not normalized (the map is linear).
    The kernels' ``product`` works on the block's real (dim, m) float view.
    """
    kernel = _applier(model, part)
    state = _contiguous(np.asarray(state))
    if state.shape[0] != kernel.dim:
        raise DimensionError(f"state dimension {state.shape[0]} != {kernel.dim}")
    return kernel.product(state).view(state.dtype).reshape(state.shape)


def energy_bounds(model: SpinModel, part: str = FULL) -> tuple[float, float]:
    """Gershgorin bounds containing the spectrum of the selected part.

    Each kept bond contributes one off-diagonal element per row, so a row's
    radius is the sum of that row's bond magnitudes, accumulated bond by
    bond in ``terms`` order.  The rows are streamed _ROW_BLOCK at a time
    from the bond table, with no matrix built.  FULL's rows are H_E's plus
    those of h and the apart bonds (_Composed), which share no
    off-diagonal column with H_E's (each of theirs flips a system bit, none
    of H_E's does), so FULL streams H_E's 2^{n_E} rows, each met by the
    extremes of the others over its 2^{n_S} system rows.  Empty bond lists
    give (0, 0); the spectrum is always contained.
    """
    full = _applier(model, FULL) if part == FULL else None
    lo, hi = np.inf, -np.inf
    streamed = part if full is None else ENVIRONMENT
    for rows, diag, bonds in _row_blocks(*_local_terms(model, streamed)):
        radius = np.zeros(diag.shape[0])
        for _, coeff in bonds:
            radius += np.abs(coeff)
        low, high = diag - radius, diag + radius
        if full is not None:
            extra = full.row_extremes(np.arange(rows.start, rows.stop))
            low, high = low + extra[0], high + extra[1]
        lo = min(lo, float(np.min(low)))
        hi = max(hi, float(np.max(high)))
    if lo == hi == 0.0:
        return (0.0, 0.0)
    # eigenvalues can saturate the mathematical bound; pad past the dense
    # solver's rounding so the guarantee survives floating point
    pad = 1e-11 * max(1.0, abs(lo), abs(hi))
    return (lo - pad, hi + pad)
