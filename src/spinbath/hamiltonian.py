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

Each of S, E and SE is held once, by its model, as one real
``scipy.sparse`` CSR matrix (the diagonal, then one flipped index per
bond, exact zeros dropped).  FULL is never held as one matrix of all the
bonds: ``apply_hamiltonian`` composes it as (H_E (x) 1_S) x, H_E's own
matrix on the block's real (2^{n_E}, 2^{n_S} * 2k) view, plus one narrow
full-space matrix of the system and lam-scaled coupling bonds.  The
Gershgorin ``energy_bounds`` stream exact per-row values from the bond
tables, one row block at a time, at every size; ``part_matrix`` assembles
the FULL matrix, which ``spectrum`` reads for its dense matrix and parity
sector blocks, from the same two pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .errors import DimensionError, ModelError, SizeLimitError
from .seeds import spawn_rng

# part selectors for apply_hamiltonian / diagonalize
SYSTEM = "S"
ENVIRONMENT = "E"
COUPLING = "SE"
FULL = "FULL"
_PARTS = (SYSTEM, ENVIRONMENT, COUPLING, FULL)
_NARROW = "S+lamSE"          # FULL's full-space kernel: system and lam-scaled coupling bonds

DEFAULT_SIZE_CAP = 28        # 4 GiB per complex vector at N = 28
_KERNEL_BYTES = 3 * 2**30    # upper bound on one part's CSR values and indices
_ROW_BLOCK = 4096            # rows per pass of the CSR build and the bounds

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


def _local_terms(model: SpinModel, part: str):
    """Bond terms as (bit_i, bit_j, cx, cy, cz, scale) plus the local spin count.

    Parts S and E are expressed on their own 2^{n_part} space (environment
    site j sits on local bit j-1); SE, FULL and _NARROW (FULL's system and
    lam-scaled coupling bonds) live on the full 2^N space.
    """
    ns = model.n_system
    if part == SYSTEM:
        terms = [(i - 1, j - 1, cx, cy, cz, 1.0) for (i, j, cx, cy, cz) in model.system_bonds]
        return model.n_system, terms
    if part == ENVIRONMENT:
        terms = [(i - 1, j - 1, cx, cy, cz, 1.0) for (i, j, cx, cy, cz) in model.env_bonds]
        return model.n_env, terms
    if part == COUPLING:
        terms = [(i - 1, ns + j - 1, cx, cy, cz, 1.0) for (i, j, cx, cy, cz) in model.coupling_bonds]
        return model.n_spins, terms
    if part in (FULL, _NARROW):
        system = [(i - 1, j - 1, cx, cy, cz, 1.0) for (i, j, cx, cy, cz) in model.system_bonds]
        env = [(ns + i - 1, ns + j - 1, cx, cy, cz, 1.0) for (i, j, cx, cy, cz) in model.env_bonds]
        coupling = [
            (i - 1, ns + j - 1, cx, cy, cz, model.lam)
            for (i, j, cx, cy, cz) in model.coupling_bonds
        ]
        return model.n_spins, system + (env if part == FULL else []) + coupling
    raise ValueError(f"part must be one of {_PARTS}, got {part!r}")


def _kept(terms):
    """(bit_i, bit_j, parallel coeff, antiparallel coeff) of the bonds with a nonzero flip coefficient."""
    kept = []
    for (bi, bj, cx, cy, cz, scale) in terms:
        same, crossed = -scale * (cx - cy) / 4.0, -scale * (cx + cy) / 4.0
        if same != 0.0 or crossed != 0.0:
            kept.append((bi, bj, same, crossed))
    return kept


def _row_blocks(n_bits: int, terms):
    """(rows, diagonal, bonds) per block of _ROW_BLOCK consecutive rows of a part.

    For each bond the off-diagonal (xx + yy) piece flips both bits; the
    source-dependent coefficient is -(cx - cy)/4 for parallel spins and
    -(cx + cy)/4 for antiparallel ones.  ``diagonal`` accumulates the zz
    pieces of all bonds in ``terms`` order; ``bonds`` yields one (flipped
    index, coefficient) pair of arrays per kept bond (a bond whose two flip
    coefficients are not both zero), also in ``terms`` order.  Only the bits
    the terms read are extracted, once per block, so the scratch does not grow with dim.
    """
    kept = _kept(terms)
    read = {b for term in terms for b in term[:2]}
    dim = 2**n_bits
    for start in range(0, dim, _ROW_BLOCK):
        idx = np.arange(start, min(start + _ROW_BLOCK, dim), dtype=np.int32)
        bits = {b: ((idx >> b) & 1).astype(np.uint8) for b in read}
        diag = np.zeros(idx.shape[0])
        for (bi, bj, cx, cy, cz, scale) in terms:
            diag -= scale * cz * (0.5 - bits[bi]) * (0.5 - bits[bj])
        yield slice(start, start + idx.shape[0]), diag, _flips(idx, bits, kept)


def _flips(idx, bits, kept):
    """(flipped index, coefficient) arrays of the kept bonds, one bond at a time."""
    for (bi, bj, same, crossed) in kept:
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
    """Kernel for S, E, SE or FULL's narrow part: one real CSR matrix.

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

    def product(self, x: np.ndarray) -> np.ndarray:
        """H x for a real C-ordered (dim, m) matrix x."""
        return self.matrix @ x


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
    """FULL as (H_E (x) 1_S) x + (1_E (x) H_S + lam H_SE) x, with no matrix of all the bonds.

    The environment occupies the high bits, so H_E's own 2^{n_E} kernel
    multiplies the block viewed as one real (2^{n_E}, 2^{n_S} * m) matrix;
    the narrow full-space kernel, whose rows hold 1 + system + coupling
    entries, adds the system and coupling bonds.  Each row is the sum
    (H_E row) + (narrow row).
    """

    def __init__(self, env: _Applier, narrow: _Applier):
        self.env, self.narrow = env, narrow
        self.dim = narrow.dim

    def product(self, x: np.ndarray) -> np.ndarray:
        """H x for a real C-ordered (dim, m) matrix x."""
        out = self.env.product(x.reshape(self.env.dim, -1))
        out += self.narrow.product(x).reshape(out.shape)
        return out.reshape(x.shape)


def _applier(model: SpinModel, part: str):
    """The part's kernel, built on first use and held by the model.

    FULL composes the ENVIRONMENT kernel with the _NARROW one, so the model
    holds those two matrices and no matrix of all the bonds.
    """
    applier = model._appliers.get(part)
    if applier is None:
        if part == FULL:
            kernel = _Composed(_applier(model, ENVIRONMENT), _applier(model, _NARROW))
        else:
            kernel = _Applier(*_local_terms(model, part))
        applier = model._appliers.setdefault(part, kernel)
    return applier


def part_matrix(model: SpinModel, part: str) -> scipy.sparse.csr_array:
    """The real CSR matrix of a part, on the same space as apply_hamiltonian(part).

    S, E and SE are their kernels' own matrices.  FULL, which no kernel
    holds, is assembled as kron(H_E, 1_S) + narrow from the two matrices
    its product composes, so its entries are the product's, sum for sum.
    """
    applier = _applier(model, part)
    if part == FULL:
        eye = scipy.sparse.identity(model.dim_system, format="csr")
        return scipy.sparse.kron(applier.env.matrix, eye, format="csr") + applier.narrow.matrix
    return applier.matrix


def apply_hamiltonian(model: SpinModel, part: str, state: np.ndarray) -> np.ndarray:
    """Return H_part @ state through the part's sparse kernel (never a dense matrix).

    ``part`` is one of "S", "E", "SE", "FULL"; S and E act on their local
    2^{n_part}-dimensional spaces, SE and FULL on the full 2^N space (FULL
    includes the factor lam on the coupling part, SE does not).  ``state``
    may be a vector or a (dim, k) batch of columns, in any memory order (a
    block that is not C-ordered is copied once); the result has the dtype
    ``result_type(state, float)`` and is not normalized (the map is linear).
    The kernels' ``product`` only sees the block's real (dim, m) float view.
    """
    kernel = _applier(model, part)
    state = _contiguous(np.asarray(state))
    if state.shape[0] != kernel.dim:
        raise DimensionError(f"state dimension {state.shape[0]} != {kernel.dim}")
    return kernel.product(_float_view(state, kernel.dim)).view(state.dtype).reshape(state.shape)


def apply_site_operator(model: SpinModel, part: str, site: int, axis: str, state: np.ndarray):
    """Apply the single-site spin operator S^axis at 1-based ``site`` of a part.

    The operator acts on the same local space as apply_hamiltonian(part):
    part "S"/"E" on 2^{n_part}, "FULL" on 2^N.
    """
    if part not in _PARTS:
        raise ValueError(f"part must be one of {_PARTS}, got {part!r}")
    n_bits = {SYSTEM: model.n_system, ENVIRONMENT: model.n_env}.get(part, model.n_spins)
    if not 1 <= site <= n_bits:
        raise ModelError(f"site {site} out of range for part {part}")
    bit = site - 1
    state = np.asarray(state)
    if state.shape[0] != 2**n_bits:
        raise DimensionError(f"state dimension {state.shape[0]} != {2**n_bits}")
    idx = np.arange(2**n_bits)
    bits = (idx >> bit) & 1
    if axis == "z":
        w = 0.5 - bits
        return (w[:, None] if state.ndim > 1 else w) * state
    flip = idx ^ (1 << bit)
    if axis == "x":
        return 0.5 * state[flip]
    if axis == "y":
        w = 0.5j * (2 * bits - 1)
        return (w[:, None] if state.ndim > 1 else w) * state[flip]
    raise ValueError(f"axis must be x, y or z, got {axis!r}")


def energy_bounds(model: SpinModel, part: str = FULL) -> tuple[float, float]:
    """Gershgorin bounds containing the spectrum of the selected part.

    Each kept bond contributes one off-diagonal element per row, so a row's
    radius is the sum of that row's bond magnitudes, accumulated bond by
    bond in ``terms`` order.  The rows are streamed _ROW_BLOCK at a time
    from the bond table, with no matrix built, so the bounds are the same
    exact per-row ones at every size.  Empty bond lists give (0, 0); the
    spectrum is always contained.
    """
    lo, hi = np.inf, -np.inf
    for _, diag, bonds in _row_blocks(*_local_terms(model, part)):
        radius = np.zeros(diag.shape[0])
        for _, coeff in bonds:
            radius += np.abs(coeff)
        lo = min(lo, float(np.min(diag - radius)))
        hi = max(hi, float(np.max(diag + radius)))
    if lo == hi == 0.0:
        return (0.0, 0.0)
    # eigenvalues can saturate the mathematical bound; pad past the dense
    # solver's rounding so the guarantee survives floating point
    pad = 1e-11 * max(1.0, abs(lo), abs(hi))
    return (lo - pad, hi + pad)
