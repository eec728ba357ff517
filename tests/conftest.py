"""Shared fixtures: an independent dense-matrix oracle built from Kronecker
products of explicit 2x2 spin matrices (never touching the package's
sparse kernel), plus small reusable models and a strategy over small
random ones."""

import numpy as np
import pytest
from hypothesis import strategies as st

from spinbath.hamiltonian import SpinModel, build_ring_model

SX = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
SY = 0.5 * np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = 0.5 * np.array([[1, 0], [0, -1]], dtype=complex)


def site_operator(n_bits: int, bit: int, op: np.ndarray) -> np.ndarray:
    """Embed a 2x2 operator on one bit (bit 0 is the fastest index)."""
    out = np.array([[1.0 + 0j]])
    for b in range(n_bits):
        out = np.kron(op if b == bit else np.eye(2), out)
    return out


def bond_terms(model, part):
    """(n_bits, terms) of a part, each term (bit_i, bit_j, cx, cy, cz, scale).

    S and E are on their own spaces (site j on bit j - 1), SE and FULL on
    the full space, with environment site j on bit n_system + j - 1.
    FULL's terms are the system, environment and lam-scaled coupling bonds,
    in that order.
    """
    ns = model.n_system
    system = [(i - 1, j - 1, cx, cy, cz, 1.0) for (i, j, cx, cy, cz) in model.system_bonds]
    coupling = [(i - 1, ns + j - 1, cx, cy, cz, 1.0) for (i, j, cx, cy, cz) in model.coupling_bonds]
    if part == "S":
        return ns, system
    if part == "E":
        return model.n_env, [(i - 1, j - 1, cx, cy, cz, 1.0) for (i, j, cx, cy, cz) in model.env_bonds]
    if part == "SE":
        return model.n_spins, coupling
    env = [(ns + i - 1, ns + j - 1, cx, cy, cz, 1.0) for (i, j, cx, cy, cz) in model.env_bonds]
    return model.n_spins, system + env + [(*t[:5], model.lam) for t in coupling]


def dense_oracle(model, part) -> np.ndarray:
    """Dense Hamiltonian of a part, assembled bond by bond via np.kron."""
    n_bits, terms = bond_terms(model, part)
    dim = 2**n_bits
    h = np.zeros((dim, dim), dtype=complex)
    for (bi, bj, cx, cy, cz, scale) in terms:
        for op, c in ((SX, cx), (SY, cy), (SZ, cz)):
            if c:
                h -= scale * c * site_operator(n_bits, bi, op) @ site_operator(n_bits, bj, op)
    return h


def small_models():
    """A seeded strategy over small random models (N <= 7)."""
    def build(draw):
        n_sys = draw(st.integers(1, 3))
        n_env = draw(st.integers(0, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        def bonds(n, cross_n=None):
            if cross_n is None:
                pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
            else:
                pairs = [(i, j) for i in range(1, n + 1) for j in range(1, cross_n + 1)]
            keep = [p for p in pairs if rng.random() < 0.7]
            return tuple((i, j, *rng.uniform(-2, 2, 3)) for (i, j) in keep)
        return SpinModel(n_sys, n_env, bonds(n_sys), bonds(n_env),
                         bonds(n_sys, n_env) if n_env else (), lam=float(rng.uniform(-1.5, 1.5)))
    return st.composite(build)()


def parity_models():
    """Fixed models for the parity-sector tests, by id: even and odd N, dims 1 and 2."""
    return {
        # anisotropic (cx != cy) explicit model, N = 4
        "explicit_even": SpinModel(2, 2, system_bonds=((1, 2, 0.9, -0.3, 0.5),),
                                   env_bonds=((1, 2, 0.2, 0.7, -1.1),),
                                   coupling_bonds=((2, 1, 1.3, 0.4, 0.7), (1, 2, -0.6, 0.8, 0.1)),
                                   lam=0.6),
        "ring_odd": build_ring_model(2, 3, -1.0, 4, 9, 0.7),      # N = 5, E part N = 3
        "ring_even": build_ring_model(2, 4, -1.0, 3, 5, 0.35),    # N = 6
        "one_spin": SpinModel(1, 0),                              # dims 2 (S, FULL) and 1 (E)
        "two_spins": SpinModel(1, 1, coupling_bonds=((1, 1, 0.3, -0.9, 0.2),), lam=0.8),
    }


@pytest.fixture(scope="session")
def oracle():
    return dense_oracle


@pytest.fixture(scope="session")
def fig8_model():
    from spinbath.hamiltonian import build_chain_model

    return build_chain_model(4, 8, 1.0, 1.0, 1.0, 0.0)
