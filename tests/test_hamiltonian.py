import gc
import tracemalloc
import weakref
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath import hamiltonian
from spinbath.errors import DimensionError, ModelError, SizeLimitError
from spinbath.hamiltonian import (
    COUPLING_RANGE,
    SpinModel,
    apply_hamiltonian,
    build_chain_model,
    build_ring_model,
    energy_bounds,
)
from spinbath.hamiltonian import _local_terms, _terms, part_matrix
from spinbath.propagate import canonical_thermal_state, random_state
from spinbath.spectrum import diagonalize, diagonalize_sectors

from conftest import bond_terms, dense_oracle, parity_models, small_models


class TestSpinModel:
    def test_validation(self):
        with pytest.raises(ModelError):
            SpinModel(0, 2)
        with pytest.raises(ModelError):
            SpinModel(2, 0, system_bonds=((1, 1, 1, 1, 1),))
        with pytest.raises(ModelError):
            SpinModel(2, 0, system_bonds=((1, 2, 1, 1, 1), (1, 2, 0, 0, 1)))
        with pytest.raises(ModelError):
            SpinModel(2, 2, coupling_bonds=((1, 3, 1, 1, 1),))
        with pytest.raises(ModelError):
            SpinModel(20, 20)  # exceeds the default size cap

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_couplings_rejected(self, bad):
        with pytest.raises(ModelError, match="system_bonds"):
            SpinModel(2, 1, system_bonds=((1, 2, 1.0, bad, 1.0),))
        with pytest.raises(ModelError, match="env_bonds"):
            SpinModel(1, 2, env_bonds=((1, 2, bad, 0.0, 0.0),))
        with pytest.raises(ModelError, match="coupling_bonds"):
            SpinModel(1, 1, coupling_bonds=((1, 1, 0.5, 0.5, bad),))
        with pytest.raises(ModelError, match="lam"):
            SpinModel(1, 1, coupling_bonds=((1, 1, 0.5, 0.5, 0.5),), lam=bad)
        with pytest.raises(ModelError):
            build_ring_model(2, 2, bad, 1, 2, 1.0)

    def test_ring_constructor(self):
        m = build_ring_model(4, 22, -1.0, 3, 5, 1.0)
        assert m.n_spins == 26 and m.dim_system == 16
        assert m.system_bonds == tuple((i, i + 1, -1.0, -1.0, -1.0) for i in range(1, 4))
        assert len(m.env_bonds) == 22 * 21 // 2          # fully connected
        assert len(m.coupling_bonds) == 2                # ring closure
        assert {(b[0], b[1]) for b in m.coupling_bonds} == {(1, 22), (4, 1)}
        for b in m.env_bonds + m.coupling_bonds:
            assert all(abs(c) <= COUPLING_RANGE for c in b[2:])
        again = build_ring_model(4, 22, -1.0, 3, 5, 1.0)
        assert again == m                                # deterministic per seeds

    def test_ring_size_validation(self):
        with pytest.raises(ModelError):
            build_ring_model(1, 4, -1, 0, 0, 1)
        with pytest.raises(ModelError):
            build_ring_model(4, 1, -1, 0, 0, 1)

    def test_chain_constructor(self):
        m = build_chain_model(4, 8, 1.0, 1.0, 1.0, 1.0)
        assert len(m.system_bonds) == 3 and len(m.env_bonds) == 7
        assert m.coupling_bonds == ((4, 1, 1.0, 1.0, 1.0),)

    def test_two_spin_chain_by_hand(self, oracle):
        # single isotropic coupling bond between two spins: triplet at -1/4,
        # singlet at +3/4
        m = build_chain_model(1, 1, 0.0, 0.0, 1.0, 1.0)
        evals = diagonalize(m).eigenvalues
        assert np.allclose(np.sort(evals), [-0.25, -0.25, -0.25, 0.75], atol=1e-12)


class TestApply:
    @settings(max_examples=30, deadline=None)
    @given(small_models(), st.integers(0, 2**32 - 1))
    def test_matches_dense_oracle(self, model, seed):
        for part in ("S", "E", "SE", "FULL"):
            h = dense_oracle(model, part)
            psi = random_state(h.shape[0], seed)
            assert np.abs(apply_hamiltonian(model, part, psi) - h @ psi).max() < 1e-13

    @settings(max_examples=20, deadline=None)
    @given(small_models(), st.integers(0, 2**32 - 1))
    def test_hermitian(self, model, seed):
        u = random_state(model.dim, (seed, 0))
        v = random_state(model.dim, (seed, 1))
        hu = apply_hamiltonian(model, "FULL", u)
        hv = apply_hamiltonian(model, "FULL", v)
        assert abs(np.vdot(u, hv) - np.conj(np.vdot(v, hu))) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(small_models(), st.integers(0, 2**32 - 1))
    def test_linear(self, model, seed):
        u = random_state(model.dim, (seed, 0))
        v = random_state(model.dim, (seed, 1))
        lhs = apply_hamiltonian(model, "FULL", 0.7 * u + 2.1j * v)
        rhs = 0.7 * apply_hamiltonian(model, "FULL", u) + 2.1j * apply_hamiltonian(model, "FULL", v)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_zero_vector(self):
        m = build_ring_model(2, 2, 1.0, 0, 0, 1.0)
        out = apply_hamiltonian(m, "FULL", np.zeros(16, complex))
        assert np.abs(out).max() == 0.0

    def test_ferromagnetic_all_up_eigenvector(self):
        m = build_chain_model(4, 1, 1.0, 0.0, 0.0, 0.0)
        up = np.zeros(16, complex)
        up[0] = 1.0
        out = apply_hamiltonian(m, "S", up)
        assert abs(out[0] - (-(4 - 1) / 4.0)) < 1e-14
        assert np.abs(out[1:]).max() == 0.0

    def test_full_decouples_at_lambda_zero(self, oracle):
        m = build_ring_model(2, 2, 1.0, 3, 3, 0.0)
        psi = random_state(m.dim, 8)
        hs = oracle(m, "S")
        he = oracle(m, "E")
        embedded = (np.kron(np.eye(m.dim_env), hs) + np.kron(he, np.eye(m.dim_system))) @ psi
        assert np.abs(apply_hamiltonian(m, "FULL", psi) - embedded).max() < 1e-15

    def test_full_combines_parts_linearly(self):
        m = build_ring_model(2, 3, -1.0, 5, 7, 0.37)
        psi = random_state(m.dim, 3)
        full = apply_hamiltonian(m, "FULL", psi)
        se = apply_hamiltonian(m, "SE", psi)
        m0 = SpinModel(m.n_system, m.n_env, m.system_bonds, m.env_bonds, m.coupling_bonds, 0.0)
        assert np.abs(full - apply_hamiltonian(m0, "FULL", psi) - 0.37 * se).max() < 1e-13

    def test_dimension_mismatch(self):
        m = build_ring_model(2, 2, 1.0, 0, 0, 1.0)
        with pytest.raises(DimensionError):
            apply_hamiltonian(m, "FULL", np.zeros(8, complex))

    def test_batched_columns_match(self):
        m = build_ring_model(2, 3, -1.0, 5, 7, 1.0)
        block = np.column_stack([random_state(m.dim, r) for r in range(4)])
        out = apply_hamiltonian(m, "FULL", block)
        for k in range(4):
            assert np.abs(out[:, k] - apply_hamiltonian(m, "FULL", block[:, k])).max() < 1e-14


def full_product_models():
    """Ring, chain and explicit models for the FULL product, with n_env 0 and 1 among them."""
    return {
        "ring": build_ring_model(2, 4, -1.0, 3, 5, 0.35),
        "chain": build_chain_model(3, 3, 1.0, 0.8, 0.6, 0.7),
        "explicit": parity_models()["explicit_even"],
        "n_env_0": SpinModel(3, 0, system_bonds=((1, 2, 0.9, -0.3, 0.5), (2, 3, 0.4, 0.4, -0.2)),
                             lam=0.5),
        "n_env_1": SpinModel(2, 1, system_bonds=((1, 2, 0.9, -0.3, 0.5),),
                             coupling_bonds=((1, 1, 0.3, -0.9, 0.2), (2, 1, 0.6, 0.6, 0.6)),
                             lam=-0.8),
    }


class TestFullProduct:
    """The composed FULL product against the dense oracle, for every input layout."""

    @staticmethod
    def layouts(dim, seed):
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        block = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        wide = rng.normal(size=(dim, 7)) + 1j * rng.normal(size=(dim, 7))
        return {"vector": vec, "block": block, "real vector": vec.real, "real block": block.real,
                "F-ordered": np.asfortranarray(block), "real F-ordered": np.asfortranarray(block.real),
                "column slice": wide[:, 1:6:2], "real column slice": wide.real[:, ::3],
                "one column": block[:, :1], "float32": block.real.astype(np.float32),
                "complex64": block.astype(np.complex64)}

    @pytest.mark.parametrize("name", sorted(full_product_models()))
    def test_matches_dense_oracle(self, name, oracle):
        m = full_product_models()[name]
        h = oracle(m, "FULL")
        for label, x in self.layouts(m.dim, 5).items():
            before = x.copy()
            out = apply_hamiltonian(m, "FULL", x)
            assert out.shape == x.shape, label
            assert out.dtype == np.result_type(x, float), label
            ref = h @ x.astype(np.result_type(x, float))
            assert np.abs(out - ref).max() < 1e-13 * max(1.0, np.abs(ref).max()), label
            assert np.array_equal(x, before), label


@contextmanager
def block_built(model):
    """A fresh copy of model whose kernels and bounds are built 4 rows at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hamiltonian, "_ROW_BLOCK", 4)
        yield replace(model)


def per_bond_rows(n_bits, terms):
    """Each row's diagonal and Gershgorin radius, accumulated bond by bond."""
    idx = np.arange(2**n_bits)
    diag = np.zeros(idx.shape[0])
    radius = np.zeros(idx.shape[0])
    for (bi, bj, cx, cy, cz, scale) in terms:
        ti = (idx >> bi) & 1
        tj = (idx >> bj) & 1
        diag -= scale * cz * (0.5 - ti) * (0.5 - tj)
        coeff = np.where(ti == tj, -scale * (cx - cy) / 4.0, -scale * (cx + cy) / 4.0)
        if np.any(coeff != 0.0):
            radius += np.abs(coeff)
    return diag, radius


def padded(lo, hi):
    """energy_bounds' (lo, hi): (0, 0) for no bonds, else padded past rounding."""
    if lo == hi == 0.0:
        return (0.0, 0.0)
    pad = 1e-11 * max(1.0, abs(lo), abs(hi))
    return (lo - pad, hi + pad)


def per_bond_bounds(model, part):
    """Gershgorin bounds accumulated from per-bond (diagonal, coefficient) arrays."""
    diag, radius = per_bond_rows(*bond_terms(model, part))
    return padded(float(np.min(diag - radius)), float(np.max(diag + radius)))


class TestKernelModes:
    """The kernels: their layout, row block by row block, their bounds and their lifetime.

    S, E and SE are CSR matrices; FULL holds E's and the dense h of its
    system and coupling bonds (hamiltonian._Composed).
    """

    @staticmethod
    def pieces(model):
        kernels = {p: hamiltonian._applier(model, p).matrix for p in ("S", "E", "SE")}
        arrays = {(p, name): getattr(h, name) for p, h in kernels.items()
                  for name in ("data", "indices", "indptr")}
        arrays["FULL", "h"] = hamiltonian._applier(model, "FULL").h
        return arrays

    def check(self, model):
        default = self.pieces(model)
        with block_built(model) as blocked:
            for key, ours in self.pieces(blocked).items():
                ref = default[key]
                assert ours.dtype == ref.dtype and np.array_equal(ours, ref), key

    @pytest.mark.parametrize("name", sorted(parity_models()))
    def test_block_build_bitwise(self, name):
        self.check(parity_models()[name])

    @settings(max_examples=20, deadline=None)
    @given(small_models())
    def test_block_build_bitwise_random_models(self, model):
        self.check(model)

    @staticmethod
    def check_bounds(model):
        # S, E and SE stream their own rows, bitwise the per-bond ones; FULL
        # sums H_E's rows and h's, so it agrees to rounding, far inside the pad
        parts = ("S", "E", "SE", "FULL")
        reference = {p: per_bond_bounds(model, p) for p in parts}
        for p in parts[:3]:
            assert energy_bounds(model, p) == reference[p]
        full = energy_bounds(model, "FULL")
        scale = max(1.0, *map(abs, reference["FULL"]))
        assert np.abs(np.subtract(full, reference["FULL"])).max() <= 1e-14 * scale
        with block_built(model) as blocked:
            for p in parts[:3]:
                assert energy_bounds(blocked, p) == reference[p]
            assert energy_bounds(blocked, "FULL") == full

    @pytest.mark.parametrize("name", sorted(parity_models()))
    def test_bounds_equal_per_bond_gershgorin(self, name):
        self.check_bounds(parity_models()[name])

    @settings(max_examples=20, deadline=None)
    @given(small_models())
    def test_bounds_equal_per_bond_gershgorin_random_models(self, model):
        self.check_bounds(model)

    def test_csr_layout(self):
        # the kernels that serve products: H_E's CSR on its own space, 12 bytes
        # per stored entry, the diagonal then one int32-indexed entry per kept
        # bond, exact zeros dropped; and FULL's h on the system bits and the
        # two coupled env bits, a row holding the diagonal and one entry per
        # kept system or coupling bond
        m = build_ring_model(2, 3, -1.0, 5, 7, 1.0)
        full = hamiltonian._applier(m, "FULL")
        h = m._appliers["E"].matrix
        assert h.shape == (m.dim_env, m.dim_env)
        assert h.indices.dtype == h.indptr.dtype == np.int32 and h.data.dtype == np.float64
        assert np.all(h.data != 0.0) and h.nnz == np.count_nonzero(h.toarray())
        assert np.diff(h.indptr).max() <= 1 + len(m.env_bonds)
        assert not h.data.flags.writeable and not h.indices.flags.writeable
        narrow_width = 1 + len(m.system_bonds) + len(m.coupling_bonds)
        assert full.h.shape == (2**(m.n_system + 2),) * 2 and full.h.dtype == np.float64
        assert np.count_nonzero(full.h, axis=1).max() <= narrow_width
        assert not full.h.flags.writeable
        # the isotropic system bond stores no entry where its spins are parallel
        assert np.count_nonzero(full.h) < full.h.shape[0] * narrow_width

    def test_kernel_freed_with_model(self):
        m = build_ring_model(2, 3, -1.0, 5, 7, 1.0)
        full = hamiltonian._applier(m, "FULL")
        kernels = [weakref.ref(k) for k in (full, full.env, full.h)]
        assert hamiltonian._applier(m, "FULL") is kernels[0]()
        del m, full
        gc.collect()
        assert all(k() is None for k in kernels)

    def test_chebyshev_projection_holds_no_wide_kernel(self):
        # FULL is composed, so no kernel of 2^N rows exists at all: H_E has
        # 2^{n_E} rows and h 2^{n_S + 2}
        m = build_ring_model(2, 10, -1.0, 3, 5, 1.0)
        psi0 = random_state(m.dim, 4)[:, None]
        list(canonical_thermal_state(m, psi0, [0.5]))
        assert set(m._appliers) == {"E", "FULL"}
        assert m._appliers["E"].dim == m.dim_env
        assert m._appliers["FULL"].h.shape == (2**(m.n_system + 2),) * 2

    @staticmethod
    def bound_bytes(model, part):
        n_bits, terms = _local_terms(model, part)
        return 12 * 2**n_bits * (1 + len(hamiltonian._kept(terms)))

    def test_part_over_budget_refused_before_allocating(self, monkeypatch):
        m = build_ring_model(4, 12, -1.0, 3, 5, 1.0)
        refused = self.bound_bytes(m, "E")         # FULL builds H_E first
        monkeypatch.setattr(hamiltonian, "_KERNEL_BYTES", refused - 1)
        psi = random_state(m.dim, 2)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="kernel budget"):
                apply_hamiltonian(m, "FULL", psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < refused / 50 and not m._appliers

    def test_part_at_budget_built(self, monkeypatch):
        # ring 2+4's h is 16 x 16 floats, 2048 bytes, counted with its four
        # 2x-wide GEMM copies; its H_E fits below that
        m = build_ring_model(2, 4, -1.0, 3, 5, 0.35)
        bound = 5 * 8 * (2**(m.n_system + 2))**2
        assert self.bound_bytes(m, "E") < bound
        monkeypatch.setattr(hamiltonian, "_KERNEL_BYTES", bound)
        full = hamiltonian._applier(m, "FULL")
        assert 5 * full.h.nbytes == full.h.nbytes + sum(g.nbytes for *_, g in full.blocks) == bound
        monkeypatch.setattr(hamiltonian, "_KERNEL_BYTES", bound - 1)
        with pytest.raises(SizeLimitError, match="kernel budget"):
            hamiltonian._applier(replace(m), "FULL")

    def test_build_peaks_near_bound(self, monkeypatch):
        # each row block's nonzeros go straight into H_E's bound-length arrays,
        # which then shrink in place; h and its GEMM copies add their own
        # bytes.  H_E has 2^12 rows, so its row blocks are cut to 256 rows to
        # stay a small part of it
        m = build_ring_model(4, 12, -1.0, 3, 5, 1.0)
        monkeypatch.setattr(hamiltonian, "_ROW_BLOCK", 256)
        tracemalloc.start()
        try:
            kernel = hamiltonian._applier(m, "FULL")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kernel.dim == 2**16
        held = kernel.h.nbytes + sum(g.nbytes for *_, g in kernel.blocks)
        assert peak <= 1.3 * (self.bound_bytes(m, "E") + held)


def composed_models():
    """FULL's layouts: h on the low block, with the top bit split (ring), or with bonds apart.

    "middle" and "two_sites" couple environment bits that are neither next to
    the system nor on top, so their bonds are applied apart from h.
    """
    bonds = dict(system_bonds=((1, 2, 0.9, -0.3, 0.5), (2, 3, 1.0, 1.0, 1.0)),
                 env_bonds=tuple((i, i + 1, 0.2 * i, 0.7, -1.1) for i in range(1, 6)), lam=0.6)
    return {
        "chain": build_chain_model(3, 6, 1.0, 0.8, 0.6, 0.7),
        "ring": build_ring_model(3, 6, -1.0, 3, 5, 0.35),
        "middle": SpinModel(3, 6, coupling_bonds=((2, 4, 1.3, 0.4, 0.7),), **bonds),
        "two_sites": SpinModel(3, 6, coupling_bonds=((1, 3, 1.3, 0.4, 0.7), (3, 5, -0.6, 0.8, 0.1),
                                                     (2, 3, 0.5, -0.5, 0.2)), **bonds),
    }


def wide_models():
    """Models whose h is cut at 8 bits, so that bonds past it are applied apart."""
    return {
        "every_env_site": SpinModel(
            4, 11, system_bonds=((1, 2, 1.0, 1.0, 1.0), (3, 4, 0.5, 0.2, -0.1)),
            env_bonds=((1, 2, 0.3, 0.3, 0.3), (5, 11, -0.4, 0.1, 0.9)),
            coupling_bonds=tuple((1 + j % 4, j, 0.3, 0.5 * j / 11, -0.2) for j in range(1, 12)),
            lam=0.8),
        "eleven_system": SpinModel(
            11, 3, system_bonds=tuple((i, i + 1, 1.0, 0.7, 0.3 * i) for i in range(1, 11))
            + ((1, 11, 0.2, -0.5, 0.9),),
            env_bonds=((1, 2, 0.3, 0.3, 0.3), (2, 3, -0.4, 0.1, 0.9)),
            coupling_bonds=((11, 1, 0.5, 0.4, -0.2), (3, 3, 0.1, 0.2, 0.3)), lam=0.8),
    }


class TestComposedFull:
    """FULL as H_E's CSR plus the dense h: its product, matrix and memory."""

    @pytest.mark.parametrize("name", sorted(composed_models()))
    @pytest.mark.parametrize("columns", [1, 32])
    def test_product_equals_part_matrix(self, name, columns):
        m = composed_models()[name]
        rng = np.random.default_rng(columns)
        x = rng.normal(size=(m.dim, columns)) + 1j * rng.normal(size=(m.dim, columns))
        out = apply_hamiltonian(m, "FULL", x)
        ref = part_matrix(m, "FULL") @ x
        assert np.abs(out - ref).max() < 1e-13 * np.abs(ref).max()
        # each column is bitwise its lone product
        for j in (0, columns - 1):
            assert np.array_equal(out[:, j], apply_hamiltonian(m, "FULL", x[:, j]))

    @pytest.mark.parametrize("name", sorted(composed_models()))
    def test_part_matrix_keeps_narrow_entries(self, name):
        # kron(H_E, 1_S) plus a full-space CSR of the system and lam-scaled
        # coupling bonds, h's rows written out, entry for entry and bit for bit
        m = composed_models()[name]
        terms = _terms(m.system_bonds, 0) + _terms(m.coupling_bonds, m.n_system, m.lam)
        narrow = hamiltonian._Applier(m.n_spins, terms).matrix
        eye = scipy.sparse.identity(m.dim_system, format="csr")
        ref = scipy.sparse.kron(part_matrix(m, "E"), eye, format="csr") + narrow
        full = part_matrix(m, "FULL")
        assert np.array_equal(full.toarray(), ref.toarray())
        assert full.indices.dtype == full.indptr.dtype == np.int32

    def test_layouts(self):
        kernels = {name: hamiltonian._applier(m, "FULL") for name, m in composed_models().items()}
        assert {name: (k.bits, len(k.apart)) for name, k in kernels.items()} == {
            "chain": ([0, 1, 2, 3], 0), "ring": ([0, 1, 2, 3, 8], 0),
            "middle": ([0, 1, 2], 1), "two_sites": ([0, 1, 2], 3)}
        assert [len(k.blocks) for k in kernels.values()] == [1, 4, 1, 1]

    @pytest.mark.parametrize("name, bits, apart", [("every_env_site", 8, 7), ("eleven_system", 8, 6)])
    def test_wide_models_built(self, name, bits, apart):
        # h keeps to the low 8 bits (a 256 x 256 operator) and the other
        # bonds are applied apart: on 4+11 coupled to all 11 environment
        # sites, the 7 bonds to the environment bits above it; on 11+3, the
        # 4 system bonds that reach past its 8 bits and both coupling bonds
        m = wide_models()[name]
        full = hamiltonian._applier(m, "FULL")
        assert full.bits == list(range(bits)) and len(full.apart) == apart
        assert full.h.shape == (2**bits, 2**bits)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(m.dim, 4)) + 1j * rng.normal(size=(m.dim, 4))
        out = apply_hamiltonian(m, "FULL", x)
        ref = part_matrix(m, "FULL") @ x
        assert np.abs(out - ref).max() < 1e-13 * np.abs(ref).max()
        assert np.array_equal(out[:, 2], apply_hamiltonian(m, "FULL", x[:, 2]))
        reference = per_bond_bounds(m, "FULL")
        assert np.abs(np.subtract(energy_bounds(m, "FULL"), reference)).max() <= 1e-14 * max(
            1.0, *map(abs, reference))

    @pytest.mark.parametrize("name", ["ring", "apart"])
    def test_one_column_product_allocates_only_its_result(self, name):
        # "apart" couples environment site 4 outside h, so its bond runs
        # elementwise: 1.50 states while it went through quarter-state
        # temporaries, 1.08 in slabs of 1/16 of the state
        m = {"ring": build_ring_model(4, 12, -1.0, 3, 5, 1.0),
             "apart": SpinModel(3, 12, system_bonds=((1, 2, 0.9, -0.3, 0.5), (2, 3, 1.0, 1.0, 1.0)),
                                env_bonds=tuple((i, i + 1, 0.2 * i, 0.7, -1.1) for i in range(1, 12)),
                                coupling_bonds=((2, 4, 1.3, 0.4, 0.7),), lam=0.6)}[name]
        bound = {"ring": 1.005, "apart": 1.10}[name]
        psi = random_state(m.dim, 3)
        buffer = np.getbufsize()
        apply_hamiltonian(m, "FULL", psi)         # kernels and GEMM blocks built
        tracemalloc.start()
        try:
            apply_hamiltonian(m, "FULL", psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1.0 <= peak / psi.nbytes <= bound
        assert np.getbufsize() == buffer          # numpy's ufunc buffer size restored


def parent_rule_csr(n_bits, terms):
    """A part's CSR from (bit_i, bit_j, cx, cy, cz, scale) terms, by the rule the table replaced.

    Each row holds the diagonal, -scale cz (1/2 - t_i)(1/2 - t_j) summed
    over the terms in order, then one entry per bond with a nonzero flip
    coefficient, -scale (cx -+ cy) / 4 from parallel or antiparallel spins,
    exact zeros dropped.
    """
    idx = np.arange(2**n_bits)
    diag = np.zeros(idx.size)
    values, columns = [], [idx]
    for (bi, bj, cx, cy, cz, scale) in terms:
        ti, tj = ((idx >> bi) & 1).astype(np.uint8), ((idx >> bj) & 1).astype(np.uint8)
        diag -= scale * cz * (0.5 - ti) * (0.5 - tj)
        same, crossed = -scale * (cx - cy) / 4.0, -scale * (cx + cy) / 4.0
        if same != 0.0 or crossed != 0.0:
            values.append(np.where(ti == tj, same, crossed))
            columns.append(idx ^ ((1 << bi) | (1 << bj)))
    values, columns = np.stack([diag] + values, axis=1), np.stack(columns, axis=1)
    stored = values != 0.0
    indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(stored, axis=1))]).astype(np.int32)
    return scipy.sparse.csr_array((values[stored], columns[stored].astype(np.int32), indptr),
                                  shape=(idx.size, idx.size))


class TestBondTable:
    """Every part's H is bitwise what the (cx, cy, cz, scale) rule gives, bond for bond."""

    @staticmethod
    def narrow_terms(model):
        _, system = bond_terms(model, "S")
        _, coupling = bond_terms(model, "SE")
        return system + [(*t[:5], model.lam) for t in coupling]

    @staticmethod
    def full_bounds(model, full, h, apart):
        # energy_bounds(FULL) step by step: each environment row's ends from
        # H_E's rows, plus the least and greatest ends over its system rows
        # of h's rows (on the kernel's bits) and the apart bonds
        diag_e, radius_e = per_bond_rows(*bond_terms(model, "E"))
        off = np.abs(h)
        np.fill_diagonal(off, 0.0)
        rows = (np.arange(model.dim_env)[:, None] << model.n_system) | np.arange(model.dim_system)
        index = sum(((rows >> b) & 1) << i for i, b in enumerate(full.bits))
        low, high = (np.diag(h) - off.sum(axis=1))[index], (np.diag(h) + off.sum(axis=1))[index]
        for (bi, bj, zz, same, crossed) in apart:
            parallel = ((rows >> bi) & 1) == ((rows >> bj) & 1)
            diag, flip = np.where(parallel, zz, -zz), np.abs(np.where(parallel, same, crossed))
            low, high = low + (diag - flip), high + (diag + flip)
        return padded(float(np.min(diag_e - radius_e + low.min(axis=1))),
                      float(np.max(diag_e + radius_e + high.max(axis=1))))

    @pytest.mark.parametrize("name", sorted(parity_models()) + sorted(composed_models())
                             + sorted(wide_models()))
    def test_parts_bitwise_parent_rule(self, name):
        m = {**parity_models(), **composed_models(), **wide_models()}[name]
        for part in ("S", "E", "SE"):
            ours, ref = part_matrix(m, part), parent_rule_csr(*bond_terms(m, part))
            for a in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(ours, a), getattr(ref, a)), (part, a)
                assert getattr(ours, a).dtype == getattr(ref, a).dtype, (part, a)
            assert energy_bounds(m, part) == per_bond_bounds(m, part), part
        # FULL: h on the kernel's bits, the bonds apart from it (zz, same,
        # crossed as -s cz / 4 and -s (cx -+ cy) / 4), its bounds and matrix
        full, narrow = hamiltonian._applier(m, "FULL"), self.narrow_terms(m)
        h = parent_rule_csr(len(full.bits), [(bi, full.bits.index(bj), *rest)
                                             for (bi, bj, *rest) in narrow if bj in full.bits])
        assert np.array_equal(full.h, h.toarray())
        apart = [(bi, bj, -s * cz / 4.0, -s * (cx - cy) / 4.0, -s * (cx + cy) / 4.0)
                 for (bi, bj, cx, cy, cz, s) in narrow if bj not in full.bits]
        assert np.array(full.apart).tobytes() == np.array(apart).tobytes()
        assert energy_bounds(m, "FULL") == self.full_bounds(m, full, h.toarray(), apart)
        eye = scipy.sparse.identity(m.dim_system, format="csr")
        ref = scipy.sparse.kron(parent_rule_csr(*bond_terms(m, "E")), eye, format="csr") \
            + parent_rule_csr(m.n_spins, narrow)
        ours = part_matrix(m, "FULL")
        for a in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(ours, a), getattr(ref, a)), ("FULL", a)


class TestSpinFlipSymmetry:
    """Reversal symmetry behind the vanishing first-order perturbation term.

    Flipping all system spin bits (conjugation by prod_i 2 S_i^x) leaves H_S
    and H_E invariant and negates the y and z components of H_SE; the
    z-axis phase flip (conjugation by prod_i 2 S_i^z) negates the x and y
    components.  Together every coupling component is odd under a symmetry of
    H_S + H_E, which is what kills the first-order traces (tested in
    test_theory).
    """

    @staticmethod
    def _bit_flip(model, psi):
        idx = np.arange(model.dim)
        mask = model.dim_system - 1
        return psi[idx ^ mask]

    @staticmethod
    def _phase_flip(model, psi):
        idx = np.arange(model.dim)
        signs = 1.0 - 2.0 * (np.bitwise_count(idx & (model.dim_system - 1)) % 2)
        return signs * psi

    def test_h_system_invariant(self):
        m = build_ring_model(3, 3, -1.0, 9, 11, 1.0)
        psi = random_state(m.dim, 0)
        for conj in (self._bit_flip, self._phase_flip):
            out = conj(m, apply_hamiltonian(m, "FULL", conj(m, psi)))
            m0 = SpinModel(m.n_system, m.n_env, m.system_bonds, m.env_bonds, (), 0.0)
            ref0 = apply_hamiltonian(m0, "FULL", psi)
            # the uncoupled part is even under both conjugations
            diff = out - ref0
            se = apply_hamiltonian(m, "SE", psi)
            conj_se = conj(m, apply_hamiltonian(m, "SE", conj(m, psi)))
            assert np.abs(diff - conj_se).max() < 1e-13

    def test_coupling_components_negate(self):
        # y,z components are odd under the bit flip, x,y under the phase flip
        base = dict(n_system=2, n_env=2, system_bonds=((1, 2, 1.0, 1.0, 1.0),),
                    env_bonds=((1, 2, 0.5, -0.3, 0.8),))
        yz = SpinModel(coupling_bonds=((1, 1, 0.0, 0.7, -0.4),), **base)
        xy = SpinModel(coupling_bonds=((1, 2, 0.6, 0.7, 0.0),), **base)
        psi = random_state(16, 1)
        out = self._bit_flip(yz, apply_hamiltonian(yz, "SE", self._bit_flip(yz, psi)))
        assert np.abs(out + apply_hamiltonian(yz, "SE", psi)).max() < 1e-14
        out = self._phase_flip(xy, apply_hamiltonian(xy, "SE", self._phase_flip(xy, psi)))
        assert np.abs(out + apply_hamiltonian(xy, "SE", psi)).max() < 1e-14


class TestEnergyBounds:
    def test_single_zz_bond(self):
        m = SpinModel(2, 0, system_bonds=((1, 2, 0.0, 0.0, 1.0),))
        lo, hi = energy_bounds(m, "S")
        assert lo <= -0.25 and hi >= 0.25

    def test_empty(self):
        m = SpinModel(2, 2)
        assert energy_bounds(m) == (0.0, 0.0)

    def test_contains_fig8_spectrum(self, fig8_model):
        evals = diagonalize_sectors(fig8_model).eigenvalues
        lo, hi = energy_bounds(fig8_model)
        assert lo <= evals[0] and evals[-1] <= hi

    @settings(max_examples=15, deadline=None)
    @given(small_models())
    def test_contains_spectrum(self, model):
        evals = diagonalize_sectors(model).eigenvalues
        lo, hi = energy_bounds(model)
        assert lo <= evals[0] + 1e-12 and evals[-1] <= hi + 1e-12
