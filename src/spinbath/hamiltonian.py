"""Spin-1/2 Hamiltonians built from bond tables and applied matrix-free.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ModelError
from .seeds import spawn_rng

# part selectors for apply_hamiltonian / diagonalize
SYSTEM = "S"
ENVIRONMENT = "E"
COUPLING = "SE"
FULL = "FULL"
_PARTS = (SYSTEM, ENVIRONMENT, COUPLING, FULL)

DEFAULT_SIZE_CAP = 28        # 4 GiB per complex vector at N = 28
_CACHE_DIM_LIMIT = 2**20     # above this, bond index arrays are streamed

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
    size_cap: int = field(default=DEFAULT_SIZE_CAP, compare=False)

    def __post_init__(self):
        if self.n_system < 1 or self.n_env < 0:
            raise ModelError("need n_system >= 1 and n_env >= 0")
        if self.n_spins > self.size_cap:
            raise ModelError(
                f"N = {self.n_spins} exceeds the size cap {self.size_cap}; "
                "raise size_cap explicitly if you have the memory"
            )
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
    site j sits on local bit j-1); SE and FULL live on the full 2^N space.
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
    if part == FULL:
        terms = [(i - 1, j - 1, cx, cy, cz, 1.0) for (i, j, cx, cy, cz) in model.system_bonds]
        terms += [(ns + i - 1, ns + j - 1, cx, cy, cz, 1.0) for (i, j, cx, cy, cz) in model.env_bonds]
        terms += [
            (i - 1, ns + j - 1, cx, cy, cz, model.lam)
            for (i, j, cx, cy, cz) in model.coupling_bonds
        ]
        return model.n_spins, terms
    raise ValueError(f"part must be one of {_PARTS}, got {part!r}")


class _Applier:
    """Precomputed matrix-free kernel for one Hamiltonian part.

    For each bond the off-diagonal (xx + yy) piece flips both bits; the
    source-dependent coefficient is -(cx - cy)/4 for parallel spins and
    -(cx + cy)/4 for antiparallel ones.  All zz pieces accumulate into one
    diagonal.  Index and coefficient arrays are cached for dimensions up to
    _CACHE_DIM_LIMIT and streamed above it.
    """

    def __init__(self, n_bits: int, terms):
        self.dim = 2**n_bits
        self.terms = terms
        self._cache = None
        if self.dim <= _CACHE_DIM_LIMIT:
            self._cache = self._build(np.arange(self.dim))

    def _build(self, idx):
        diag = np.zeros(idx.shape[0])
        offdiag = []
        for (bi, bj, cx, cy, cz, scale) in self.terms:
            ti = (idx >> bi) & 1
            tj = (idx >> bj) & 1
            diag -= scale * cz * (0.5 - ti) * (0.5 - tj)
            coeff = np.where(ti == tj, -scale * (cx - cy) / 4.0, -scale * (cx + cy) / 4.0)
            if np.any(coeff != 0.0):
                offdiag.append((idx ^ ((1 << bi) | (1 << bj)), coeff))
        return diag, offdiag

    def __call__(self, state: np.ndarray) -> np.ndarray:
        if state.shape[0] != self.dim:
            raise DimensionError(f"state dimension {state.shape[0]} != {self.dim}")
        diag, offdiag = self._cache if self._cache is not None else self._build(np.arange(self.dim))
        column = state.ndim > 1
        out = (diag[:, None] if column else diag) * state
        for flip, coeff in offdiag:
            out += (coeff[:, None] if column else coeff) * state[flip]
        return out


@lru_cache(maxsize=16)
def _applier(model: SpinModel, part: str) -> _Applier:
    return _Applier(*_local_terms(model, part))


def apply_hamiltonian(model: SpinModel, part: str, state: np.ndarray) -> np.ndarray:
    """Return H_part @ state without materializing the matrix.

    ``part`` is one of "S", "E", "SE", "FULL"; S and E act on their local
    2^{n_part}-dimensional spaces, SE and FULL on the full 2^N space (FULL
    includes the factor lam on the coupling part, SE does not).  ``state``
    may be a vector or a (dim, k) batch of columns; the result is not
    normalized (the map is linear).
    """
    return _applier(model, part)(np.asarray(state))


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
    """Rigorous bounds containing the spectrum of the selected part.

    Small dimensions get exact Gershgorin row bounds from the cached kernel
    arrays (each bond contributes one off-diagonal element per row, so the
    row radius is the sum of the cached coefficient magnitudes).  Above the
    caching limit the coarser triangle-inequality bound +/- sum over bond
    components |c|/4 (coupling weighted by |lam|) is used.  Empty bond lists
    give (0, 0); the spectrum is always contained.
    """
    applier = _applier(model, part)
    if applier._cache is not None:
        diag, offdiag = applier._cache
        radius = np.zeros_like(diag)
        for _, coeff in offdiag:
            radius += np.abs(coeff)
        lo = float(np.min(diag - radius))
        hi = float(np.max(diag + radius))
    else:
        s = sum(abs(scale) * (abs(cx) + abs(cy) + abs(cz)) / 4.0
                for (_, _, cx, cy, cz, scale) in applier.terms)
        lo, hi = -s, s
    if lo == hi == 0.0:
        return (0.0, 0.0)
    # eigenvalues can saturate the mathematical bound; pad past the dense
    # solver's rounding so the guarantee survives floating point
    pad = 1e-11 * max(1.0, abs(lo), abs(hi))
    return (lo - pad, hi + pad)
