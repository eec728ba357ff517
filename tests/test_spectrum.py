import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath import spectrum
from spinbath.errors import SizeLimitError
from spinbath.hamiltonian import SpinModel, build_chain_model, build_ring_model, part_matrix
from spinbath.spectrum import (
    ThermoFunctions,
    dense_matrix,
    diagonalize,
    diagonalize_sectors,
    part_eigenvalues,
    thermo,
)

from conftest import parity_models, small_models


def check_sector_layout(model, part):
    h = dense_matrix(model, part)
    dim = h.shape[0]
    ref = np.linalg.eigvalsh(h)
    spec = diagonalize_sectors(model, part)
    assert spec.eigenvectors is None and spec.dim == dim
    assert np.abs(spec.eigenvalues - ref).max() <= 1e-10
    # the sectors tile the basis and their vectors are orthonormal eigenvectors
    v = spectrum._full_basis(spec.sectors)
    energies = np.concatenate([s.eigenvalues for s in spec.sectors])
    assert np.abs(v.T @ v - np.eye(dim)).max() < 1e-12
    assert np.abs(h @ v - v * energies).max() < 1e-10 * max(spec.width, 1.0)


def check_sectors_match_dense_sums(spec, h):
    """Every sector bitwise against its block from the dense matrix h: both slices dense, then added.

    A P_x pair sector's eigenvectors are scaled to their amplitudes on reps.
    """
    gathered = []
    for s in spec.sectors:
        block = h[np.ix_(s.reps, s.reps)]
        if s.partners is not None:
            block = block + s.sign * h[np.ix_(s.reps, s.partners)]
        evals, evecs = scipy.linalg.eigh(block, driver="evd")
        if s.partners is not None:
            evecs /= np.sqrt(2.0)
        assert np.array_equal(s.eigenvalues, evals) and np.array_equal(s.eigenvectors, evecs)
        gathered.append(evals)
    assert np.array_equal(spec.eigenvalues, np.sort(np.concatenate(gathered)))


class TestDiagonalize:
    def test_two_spin_heisenberg(self):
        # H = -J S1.S2 with J = 1: triplet at -1/4, singlet at +3/4
        m = SpinModel(2, 0, system_bonds=((1, 2, 1.0, 1.0, 1.0),))
        spec = diagonalize(m, "S")
        assert np.allclose(spec.eigenvalues, [-0.25, -0.25, -0.25, 0.75], atol=1e-13)
        assert spec.ground_degeneracy == 3

    def test_zero_hamiltonian(self):
        m = SpinModel(3, 0)
        spec = diagonalize(m, "S")
        assert np.allclose(spec.eigenvalues, 0.0)
        assert spec.ground_degeneracy == 8

    def test_fig8_ground_degeneracies(self, fig8_model):
        assert diagonalize(fig8_model, "S").ground_degeneracy == 5
        assert diagonalize(fig8_model, "E").ground_degeneracy == 9

    def test_eigvector_relation(self):
        m = build_ring_model(2, 3, -1.0, 4, 9, 1.0)
        spec = diagonalize(m)
        h = dense_matrix(m)
        resid = np.abs(h @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues).max()
        assert resid < 1e-10 * max(spec.width, 1.0)

    def test_matches_oracle(self, oracle):
        m = build_ring_model(2, 2, 0.7, 1, 2, 0.4)
        for part in ("S", "E", "FULL"):
            ref = np.linalg.eigvalsh(oracle(m, part))
            for solve in (diagonalize, diagonalize_sectors):
                assert np.abs(solve(m, part).eigenvalues - ref).max() < 1e-12

    def test_dense_matrix_equals_kernel_on_identity(self):
        # the scattered build holds exactly the kernel's matrix elements
        from spinbath.hamiltonian import apply_hamiltonian

        explicit = SpinModel(2, 2, system_bonds=((1, 2, 0.9, -0.3, 0.5),),
                             env_bonds=((1, 2, 0.2, 0.2, -1.1),),
                             coupling_bonds=((2, 1, 1.3, 0.4, 0.7),), lam=0.6)
        for m in (build_ring_model(2, 4, -1.0, 3, 5, 0.35), explicit):
            for part in ("S", "E", "SE", "FULL"):
                h = dense_matrix(m, part)
                assert np.array_equal(h, apply_hamiltonian(m, part, np.eye(h.shape[0])))

    def test_dim_cap(self, monkeypatch):
        m = build_ring_model(2, 4, 1.0, 1, 1, 1.0)
        monkeypatch.setattr(spectrum, "DEFAULT_DIM_CAP", 16)
        with pytest.raises(SizeLimitError):
            diagonalize(m, "FULL")
        assert not m._appliers      # refused before any kernel is built

    def test_degenerate_gauge_is_canonical(self):
        # any solver gauge inside a degenerate block maps to the same basis
        from spinbath.spectrum import _canonical_gauge

        m = build_chain_model(4, 1, 1.0, 0.0, 0.0, 0.0)
        spec = diagonalize(m, "S")       # 5-fold degenerate ground multiplet
        g = spec.ground_degeneracy
        assert g == 5
        rng = np.random.default_rng(3)
        q = np.linalg.qr(rng.normal(size=(g, g)))[0]
        rotated = spec.eigenvectors.copy()
        rotated[:, :g] = rotated[:, :g] @ q
        _canonical_gauge(spec.eigenvalues, rotated)
        assert np.abs(rotated - spec.eigenvectors).max() < 1e-12
        h = dense_matrix(m, "S")
        resid = np.abs(h @ rotated - rotated * spec.eigenvalues).max()
        assert resid < 1e-10 * max(spec.width, 1.0)


    def test_peak_memory(self):
        # ring 4+12's H_E (4096), its CSR built first.  The peak is the last
        # sector solve: the dense matrix (1x the returned vectors), three
        # solved sectors (3/16), a P_x pair's two slices, their sum and evd's
        # workspace (5/16), 1.50x; the scatter into sorted columns then holds
        # the vectors, the sectors and one sector block in row order (1.31x).
        # Scattering in sector order, sorting into a copy and gauging into
        # another peaked at 2.25x.
        model = build_ring_model(4, 12, -1.0, 25, 17, 1.0)
        part_matrix(model, "E")
        tracemalloc.start()
        try:
            spec = diagonalize(model, "E")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * spec.eigenvectors.nbytes


def loop_gauge(eigenvalues, vectors):
    """The gauge as one loop over the basis vectors in index order: _canonical_gauge's oracle.

    Each basis vector's coordinates in a degenerate block are orthogonalized
    against the vectors picked before it and picked if their norm stays
    above 1e-8, until the block is full.
    """
    tol = 1e-12 * float(eigenvalues[-1] - eigenvalues[0])
    out = vectors.copy()
    start = 0
    n = len(eigenvalues)
    for stop in range(1, n + 1):
        if stop < n and eigenvalues[stop] - eigenvalues[stop - 1] <= tol:
            continue
        g = stop - start
        if g > 1:
            block = vectors[:, start:stop]
            coords = block.conj().T
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


def ungauged(model, part):
    """A part's sorted eigenvalues and its sector vectors scattered in sector order, then sorted stably."""
    sectors = spectrum._parity_sectors(dense_matrix(model, part))
    e = np.concatenate([s.eigenvalues for s in sectors])
    order = np.argsort(e, kind="stable")
    return e[order], spectrum._full_basis(sectors)[:, order]


class TestGaugeOracle:
    """diagonalize against the loop gauge applied to the sorted scatter."""

    @pytest.mark.parametrize("model", [
        build_chain_model(4, 8, 1.0, 1.0, 1.0, 0.0),
        build_chain_model(4, 8, -1.0, 1.0, 1.0, 0.0),
        build_ring_model(4, 8, -1.0, 25, 17, 1.0),
        build_ring_model(4, 8, -1.0, 23, 29, 1.0),
        build_ring_model(2, 8, -1.0, 25, 17, 1.0),
        build_chain_model(2, 2, 1.0, 1.0, 1.0, 0.0),
        build_chain_model(3, 2, 1.0, 1.0, 1.0, 0.0),
    ], ids=["chain4", "chain4_afm", "ring4_25_17", "ring4_23_29", "ring2", "chain2", "chain3"])
    def test_system_frames_bitwise(self, model):
        # the H_S frames that measurement reads
        e, v = ungauged(model, "S")
        spec = diagonalize(model, "S")
        assert np.array_equal(spec.eigenvalues, e)
        assert np.array_equal(spec.eigenvectors, loop_gauge(e, v))

    @pytest.mark.parametrize("model", [
        build_chain_model(4, 8, 1.0, 1.0, 1.0, 0.0),
        build_chain_model(4, 11, 1.0, -0.7, 1.0, 0.0),
    ], ids=["chain4+8", "chain4+11"])
    def test_degenerate_environments(self, model):
        e, v = ungauged(model, "E")
        spec = diagonalize(model, "E")
        ref = loop_gauge(e, v)
        assert not np.array_equal(ref, v)      # the gauge has levels to fix
        assert np.array_equal(spec.eigenvalues, e)
        assert np.abs(spec.eigenvectors - ref).max() <= 1e-14


def full_solve(model, part):
    """The full-matrix solve diagonalize used to run: default-driver eigh of the dense matrix, gauged."""
    e, v = scipy.linalg.eigh(dense_matrix(model, part))
    spectrum._canonical_gauge(e, v)
    return e, v


def one_solver_models():
    """parity_models plus chains of even and odd N, by id."""
    return {**parity_models(),
            "chain_even": build_chain_model(3, 3, 1.0, -0.6, 0.9, 0.7),   # N = 6
            "chain_odd": build_chain_model(2, 3, 1.0, 1.0, 1.0, 0.5)}     # N = 5, isotropic


class TestOneSolver:
    """diagonalize solves the dense matrix by parity sector, then scatters and gauges."""

    @pytest.mark.parametrize("name", sorted(one_solver_models()))
    @pytest.mark.parametrize("part", ["S", "E", "FULL"])
    def test_matches_full_solve(self, name, part):
        model = one_solver_models()[name]
        spec = diagonalize(model, part)
        e, v = full_solve(model, part)
        width = float(e[-1] - e[0])
        assert np.abs(spec.eigenvalues - e).max() <= 1e-12 * max(width, 1.0)
        # levels as the gauge groups them: a degenerate level's projector,
        # a non-degenerate column up to its sign
        levels = np.split(np.arange(len(e)), np.flatnonzero(np.diff(e) > 1e-12 * width) + 1)
        for level in levels:
            a, b = spec.eigenvectors[:, level], v[:, level]
            if len(level) > 1:
                assert np.abs(a @ a.T - b @ b.T).max() <= 1e-9
            else:
                assert min(np.abs(a - b).max(), np.abs(a + b).max()) <= 1e-9

    @pytest.mark.parametrize("name", sorted(one_solver_models()))
    @pytest.mark.parametrize("part", ["S", "E", "FULL"])
    def test_eigenvalues_bitwise_those_of_sectors(self, name, part):
        model = one_solver_models()[name]
        assert np.array_equal(diagonalize(model, part).eigenvalues,
                              diagonalize_sectors(model, part).eigenvalues)

    @pytest.mark.parametrize("n", [2, 3])
    def test_single_level_gauged_to_identity(self, n):
        # one level is one degenerate block: without its gauge, two spins
        # would keep the sector pair basis (|n> +- |n^3>)/sqrt(2)
        spec = diagonalize(SpinModel(n, 0), "S")
        assert np.abs(spec.eigenvectors - np.eye(2**n)).max() <= 1e-15

    def test_one_eigensolver(self, monkeypatch):
        # diagonalize reads dense_matrix, and evd on the sector blocks is its only solve
        calls = []
        eigh = scipy.linalg.eigh
        monkeypatch.setattr(scipy.linalg, "eigh", lambda a, **kw: calls.append(kw) or eigh(a, **kw))
        dense = []
        monkeypatch.setattr(spectrum, "dense_matrix",
                            lambda m, p: dense.append(p) or spectrum._part_matrix(m, p).toarray())
        diagonalize(build_ring_model(2, 4, -1.0, 3, 5, 0.35), "FULL")
        assert dense == ["FULL"] and len(calls) == 4
        assert all(kw == {"driver": "evd", "overwrite_a": True} for kw in calls)


class TestParitySectors:
    @pytest.mark.parametrize("name", sorted(parity_models()))
    @pytest.mark.parametrize("part", ["S", "E", "FULL"])
    def test_layout_matches_dense(self, name, part):
        check_sector_layout(parity_models()[name], part)

    @settings(max_examples=15, deadline=None)
    @given(small_models())
    def test_layout_matches_dense_random_models(self, model):
        for part in ("S", "E", "FULL"):
            check_sector_layout(model, part)

    @pytest.mark.parametrize("name", sorted(parity_models()))
    @pytest.mark.parametrize("part", ["S", "E", "FULL"])
    def test_blocks_sliced_without_dense_matrix(self, name, part, monkeypatch):
        model = parity_models()[name]
        h = dense_matrix(model, part)
        dense = spectrum.dense_matrix

        def refuse(m, p=spectrum.FULL, *args, **kwargs):
            if p == part:
                raise AssertionError(f"dense matrix of part {part} built")
            return dense(m, p, *args, **kwargs)

        monkeypatch.setattr(spectrum, "dense_matrix", refuse)
        check_sectors_match_dense_sums(diagonalize_sectors(model, part), h)

    @settings(max_examples=15, deadline=None)
    @given(small_models())
    def test_blocks_match_dense_sums_random_models(self, model):
        # each pair block is one toarray() of a sparse sum or difference
        for part in ("S", "E", "FULL"):
            check_sectors_match_dense_sums(diagonalize_sectors(model, part),
                                           dense_matrix(model, part))

    def test_solve_peak_memory(self):
        # ring 4+8's FULL sectors: four 1024 blocks, 32 MiB of eigenvectors
        # held.  One dense block is alive per solve, beside evd's workspace
        # of 2n^2 + 6n + 1 doubles; densifying both slices and then adding
        # them would hold two blocks more (64.6 MiB).
        h = part_matrix(build_ring_model(4, 8, -1.0, 23, 29, 1.0), "FULL")
        tracemalloc.start()
        try:
            sectors = spectrum._parity_sectors(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = sectors[0].eigenvalues.shape[0]
        held = sum(s.eigenvectors.nbytes for s in sectors)
        assert n == 1024 and held == 2**25
        assert peak <= held + 8 * (2 * n * n + 6 * n + 1) + 2**22

    @pytest.mark.parametrize("part", ["S", "E", "FULL"])
    def test_sectors_keep_dim_cap(self, part, monkeypatch):
        model = parity_models()["ring_even"]
        dim = dense_matrix(model, part).shape[0]
        monkeypatch.setattr(spectrum, "DEFAULT_DIM_CAP", dim - 1)
        with pytest.raises(SizeLimitError):
            diagonalize_sectors(model, part)
        monkeypatch.setattr(spectrum, "DEFAULT_DIM_CAP", dim)
        assert diagonalize_sectors(model, part).dim == dim

    def test_sector_shapes(self):
        # even N: P_z x P_x gives 4 sectors of dim/4, paired under P_x;
        # odd N: 2 P_z sectors, the odd one P_x of the even one
        m = parity_models()["ring_odd"]
        odd = diagonalize_sectors(m, "FULL")                   # N = 5
        assert [s.eigenvalues.shape[0] for s in odd.sectors] == [16, 16]
        assert all(s.partners is None for s in odd.sectors)
        assert np.array_equal(odd.sectors[1].reps, odd.sectors[0].reps ^ 31)
        four = diagonalize_sectors(m, "S")                     # N = 2
        assert [s.sign for s in four.sectors] == [1.0, -1.0, 1.0, -1.0]
        assert all(s.eigenvalues.shape[0] == 1 for s in four.sectors)
        spec = diagonalize_sectors(build_ring_model(2, 4, -1.0, 3, 5, 0.35), "FULL")
        assert [s.eigenvalues.shape[0] for s in spec.sectors] == [16] * 4
        for plus, minus in (spec.sectors[:2], spec.sectors[2:]):
            assert plus.reps is minus.reps and np.array_equal(plus.partners, plus.reps ^ 63)


class TestPartEigenvalues:
    @pytest.mark.parametrize("name", sorted(parity_models()))
    @pytest.mark.parametrize("part", ["S", "E", "FULL"])
    def test_matches_sector_eigenvalues(self, name, part):
        # the same blocks solved without vectors: the same spectrum to rounding
        model = parity_models()[name]
        values, pairs = part_eigenvalues(model, part), diagonalize_sectors(model, part)
        assert values.eigenvectors is None and values.sectors is None
        assert values.dim == pairs.dim
        assert np.abs(values.eigenvalues - pairs.eigenvalues).max() <= 1e-13 * max(pairs.width, 1.0)
        assert values.degeneracy_tolerance == pytest.approx(pairs.degeneracy_tolerance, rel=1e-12)

    def test_fig8_ground_degeneracies(self, fig8_model):
        assert part_eigenvalues(fig8_model, "S").ground_degeneracy == 5
        assert part_eigenvalues(fig8_model, "E").ground_degeneracy == 9

    def test_solves_values_only(self, monkeypatch):
        # ring 2+4's four 16 x 16 blocks, each solved once for its eigenvalues
        model = parity_models()["ring_even"]
        solves = []
        eigh = scipy.linalg.eigh

        def recorded(a, *args, **kwargs):
            solves.append((a.shape, kwargs.get("eigvals_only")))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", recorded)
        part_eigenvalues(model, "FULL")
        assert solves == [((16, 16), True)] * 4

    def test_keeps_dim_cap(self, monkeypatch):
        model = parity_models()["ring_even"]
        monkeypatch.setattr(spectrum, "DEFAULT_DIM_CAP", model.dim - 1)
        with pytest.raises(SizeLimitError):
            part_eigenvalues(model, "FULL")


class TestThermo:
    def test_two_levels_beta_zero(self):
        t = ThermoFunctions(np.array([0.0, 1.0]))
        assert t.log_z(0.0) == np.log(2.0)
        assert abs(t.u(0.0) - 0.5) < 1e-15
        assert abs(t.energy_variance(0.0) - 0.25) < 1e-15

    def test_z_at_zero_is_dim(self):
        m = build_chain_model(3, 1, 0.9, 0, 0, 0)
        t = thermo(diagonalize_sectors(m, "S"))
        assert t.log_z(0.0) == np.log(8.0)

    def test_free_energy_low_t_asymptote(self):
        m = SpinModel(2, 0, system_bonds=((1, 2, 1.0, 1.0, 1.0),))
        t = thermo(diagonalize_sectors(m, "S"))
        beta = 50.0
        e0, g = -0.25, 3
        # free energy -ln Z / beta -> E_0 - ln(g) / beta
        assert abs(-t.log_z(beta) / beta - (e0 - np.log(g) / beta)) < 1e-8

    def test_uncoupled_partition_function_factorizes(self):
        m = build_ring_model(2, 3, -1.0, 6, 8, 0.0)
        tf = thermo(diagonalize_sectors(m, "FULL"))
        ts = thermo(diagonalize_sectors(m, "S"))
        te = thermo(diagonalize_sectors(m, "E"))
        for beta in (0.0, 0.3, 2.0, 20.0):
            lhs = tf.log_z(beta)
            rhs = ts.log_z(beta) + te.log_z(beta)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 30.0))
    def test_specific_heat_nonnegative(self, seed, beta):
        rng = np.random.default_rng(seed)
        t = ThermoFunctions(np.sort(rng.normal(size=12)))
        assert t.energy_variance(beta) >= -1e-12    # C = beta^2 Var(E) >= 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 5.0))
    def test_dlnz_dbeta_is_minus_u(self, seed, beta):
        rng = np.random.default_rng(seed)
        t = ThermoFunctions(np.sort(rng.normal(size=10)))
        h = 1e-6 * max(beta, 1.0)
        fd = (t.log_z(beta + h) - t.log_z(beta - h)) / (2 * h)
        assert abs(fd + t.u(beta)) < 1e-5 * max(1.0, abs(t.u(beta)))

    def test_z_ratio_log_domain_survives_large_beta(self):
        t = ThermoFunctions(np.array([-3.0, -1.0, 2.0]))
        r = t.z_ratio(2, 400.0)
        assert np.isfinite(r) and r > 0


class TestGroundState:
    def test_ferromagnetic_chain_energy(self):
        m = build_chain_model(3, 2, 1.0, 1.0, 0.5, 1.0)
        spec = diagonalize(m)
        vec = spec.eigenvectors[:, 0]
        h = dense_matrix(m)
        e = float(np.real(np.vdot(vec, h @ vec)))
        assert abs(e - spec.eigenvalues[0]) < 1e-10
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-12

    def test_uncoupled_product_of_part_grounds(self):
        # antiferromagnetic two-spin parts have unique singlet ground states
        m = SpinModel(2, 2, system_bonds=((1, 2, -1.0, -1.0, -1.0),),
                      env_bonds=((1, 2, -1.3, -1.3, -1.3),), lam=0.0)
        gs_full = diagonalize(m).eigenvectors[:, 0]
        gs_s = diagonalize(m, "S").eigenvectors[:, 0]
        gs_e = diagonalize(m, "E").eigenvectors[:, 0]
        overlap = abs(np.vdot(gs_full, np.kron(gs_e, gs_s)))
        assert abs(overlap - 1.0) < 1e-10

