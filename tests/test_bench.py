import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spinbath import bench, hamiltonian
from spinbath.errors import ConfigError
from spinbath.propagate import random_state


def make_config(**overrides):
    base = dict(
        mode="static_measure", model="ring", j_system=-1.0,
        coupling_seed=3, env_seed=4,
        n_sys_list=(2,), n_env_list=(4,),
        lambda_list=(0.0, 1.0), beta_list=(0.5,),
        n_realizations=24, master_seed=11,
    )
    base.update(overrides)
    return bench.ExperimentConfig(**base)


CONFIG_TEXT = """
# comment line
mode = theory_overlay
model = chain
j_iso = 1
omega_iso = 1
delta_iso = 1
n_sys = 2
n_env = 4
lambda_list = 0 0.5     # trailing comment
beta_list = 0.4 1.2
n_realizations = 16
master_seed = 7
output = sweep.csv
"""


class TestConfigParsing:
    def test_roundtrip(self):
        cfg = bench.parse_config(CONFIG_TEXT)
        assert cfg.mode == "theory_overlay"
        assert cfg.lambda_list == (0.0, 0.5)
        assert cfg.beta_list == (0.4, 1.2)
        again = bench.parse_config(bench.render_config(cfg))
        assert again == cfg

    def test_unknown_key_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            bench.parse_config("mode = moment_check\nmodel = ring\nbogus = 1\n")

    def test_bad_value_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            bench.parse_config("mode = moment_check\nmaster_seed = xyz\n")

    def test_empty_lambda_list_rejected(self):
        with pytest.raises(ConfigError, match="lambda_list"):
            make_config(lambda_list=())

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            make_config(mode="frobnicate")

    def test_bond_tables(self):
        text = (
            "mode = static_measure\nmodel = explicit\n"
            "n_sys = 2\nn_env = 1\nlambda = 1\nbeta = 0.5\nn_realizations = 4\n"
            "[system_bonds]\n1 2 1 1 1\n[coupling_bonds]\n2 1 0.5 0.5 0.5\n"
        )
        cfg = bench.parse_config(text)
        model = cfg.build_model(2, 1, 1.0)
        assert model.system_bonds == ((1, 2, 1.0, 1.0, 1.0),)
        assert model.coupling_bonds == ((2, 1, 0.5, 0.5, 0.5),)

    def test_malformed_bond_row(self):
        with pytest.raises(ConfigError, match="line 3"):
            bench.parse_config("mode = static_measure\n[system_bonds]\n1 2 3\n")

    def test_model_config_roundtrip(self):
        from spinbath.hamiltonian import build_ring_model

        model = build_ring_model(2, 3, -1.0, 5, 6, 0.7)
        cfg = bench.ExperimentConfig(
            mode="static_measure", model="explicit",
            n_sys_list=(model.n_system,), n_env_list=(model.n_env,),
            lambda_list=(model.lam,), beta_list=(1.0,),
            system_bonds=model.system_bonds, env_bonds=model.env_bonds,
            coupling_bonds=model.coupling_bonds,
        )
        again = bench.parse_config(bench.render_config(cfg)).build_model(2, 3, 0.7)
        assert again.system_bonds == model.system_bonds
        assert again.env_bonds == model.env_bonds
        assert again.coupling_bonds == model.coupling_bonds
        assert again.lam == model.lam

    @pytest.mark.parametrize("line", [
        "beta_list = -1", "beta_list = 0.5 inf", "beta_list = nan", "lambda_list = inf",
        "lambda_list = 0 nan", "n_realizations = 0", "dt = 0", "dt = -0.5", "t_max = -1",
        "n_draws = 1", "j_iso = nan", "j_system = inf", "omega_iso = -inf", "delta_iso = nan",
        "identity_shift = inf", "t_burn = nan", "t_burn = inf", "t_burn = -1",
        "t_max = inf", "t_max = 1e300\ndt = 1e-300", "lambda_list = 0 0", "n_sys_list = 2 2",
    ])
    def test_bad_sweep_values_rejected(self, line):
        key = line.split()[0]
        with pytest.raises(ConfigError, match=key):
            bench.parse_config(f"{CONFIG_TEXT}\n{line}\n")

    def test_cli_reports_bad_config(self, tmp_path, capsys):
        from spinbath import cli

        path = tmp_path / "bad.cfg"
        path.write_text(f"{CONFIG_TEXT}\ndt = 0\n")
        assert cli.main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: dt must be > 0")

    def test_default_realizations(self):
        assert bench.default_realizations(12) == 1000
        assert bench.default_realizations(13) == 10
        assert bench.default_realizations(21) == 1


class TestRun:
    def test_reproducible(self):
        cfg = make_config()
        assert bench.run(cfg).to_csv() == bench.run(cfg).to_csv()

    def test_each_realization_drawn_once_per_pass(self, monkeypatch):
        # ring 2+4 in blocks of 4 columns: 6 realizations take 2 blocks
        monkeypatch.setattr(bench, "_COUPLED_BLOCK_AMPLITUDES", 4 * 64)
        draws = []

        def counted(dim, seed):
            draws.append(seed)
            return random_state(dim, seed)

        monkeypatch.setattr(bench, "random_state", counted)
        cfg = make_config(method="exact", lambda_list=(0.0, 0.5, 1.0), n_realizations=6)
        one_pass = bench.run(cfg).to_csv()
        assert len(draws) == 6
        monkeypatch.setattr(bench, "_PASS_BYTES", 0)     # every lambda a pass of its own
        assert bench.run(cfg).to_csv() == one_pass
        assert len(draws) == 6 + 6 * 3

    def test_rows_equal_single_lambda_sweeps(self):
        cfg = make_config(method="exact", lambda_list=(0.0, 0.5, 1.0), n_realizations=6,
                          beta_list=(0.5, 2.0))
        rows = bench.run(cfg).rows
        for lam in cfg.lambda_list:
            assert [r for r in rows if r[2] == lam] == bench.run(replace(cfg, lambda_list=(lam,))).rows

    def test_part_spectra_solved_once_per_structure(self, monkeypatch):
        from spinbath import propagate, theory

        solved = []

        def counting(name, solve):
            def wrapper(model, part):
                solved.append((name, part))
                return solve(model, part)
            return wrapper

        monkeypatch.setattr(bench, "diagonalize", counting("gauged", bench.diagonalize))
        monkeypatch.setattr(propagate, "diagonalize_sectors",
                            counting("sectors", propagate.diagonalize_sectors))
        # the closed forms read the uncoupled pass's pair and solve no eigenvalues of their own
        monkeypatch.setattr(theory, "part_eigenvalues", counting("values", theory.part_eigenvalues))
        bench.run(make_config(mode="theory_overlay", method="exact",
                              lambda_list=(0.0, 0.5, 1.0), n_realizations=4))
        assert sorted(solved) == sorted([
            ("gauged", hamiltonian.SYSTEM), ("sectors", hamiltonian.ENVIRONMENT),
            ("sectors", hamiltonian.SYSTEM), ("sectors", hamiltonian.FULL),
            ("sectors", hamiltonian.FULL)])

    def test_refused_coupled_spectrum_leaves_uncoupled_rows(self, monkeypatch):
        from spinbath import spectrum

        # ring 2+4: the parts (4 and 16) fit, FULL (64) does not
        monkeypatch.setattr(spectrum, "DEFAULT_DIM_CAP", 16)
        cfg = make_config(mode="theory_overlay", method="exact", lambda_list=(0.0, 0.5, 1.0),
                          n_realizations=4, beta_list=(0.5, 2.0))
        rows = bench.run(cfg).rows
        refused = [r for r in rows if r[2] != 0.0]
        assert len(refused) == 2 * 2
        assert all(r[4] == "error" and "dense cap" in r[-1] for r in refused)
        assert [r for r in rows if r[2] == 0.0] == bench.run(replace(cfg, lambda_list=(0.0,))).rows

    def test_aggregate_consistency(self):
        table = bench.run(make_config())
        for point_rows in [[r for r in table.dicts() if r["lam"] == lam] for lam in (0.0, 1.0)]:
            samples = [r["sigma"] for r in point_rows
                       if isinstance(r["realization"], int)]
            mean = next(r["sigma"] for r in point_rows if r["realization"] == "mean")
            err = next(r["sigma"] for r in point_rows if r["realization"] == "stderr")
            n = next(r["sigma"] for r in point_rows if r["realization"] == "n")
            assert n == len(samples) == 24
            assert abs(mean - np.mean(samples)) < 1e-12
            assert abs(err - np.std(samples, ddof=1) / np.sqrt(n)) < 1e-12

    def test_common_random_numbers_across_lambda_and_beta(self):
        # realization r shares its random state across the lambda and beta
        # axes, so the lam = 0 samples agree between different sweeps
        t1 = bench.run(make_config(lambda_list=(0.0,), beta_list=(0.5,)))
        t2 = bench.run(make_config(lambda_list=(0.0, 0.3), beta_list=(0.5, 0.8)))
        s1 = [r["sigma"] for r in t1.dicts()
              if isinstance(r["realization"], int) and r["beta"] == 0.5]
        s2 = [r["sigma"] for r in t2.dicts()
              if isinstance(r["realization"], int) and r["lam"] == 0.0 and r["beta"] == 0.5]
        assert s1 == s2

    @staticmethod
    def chain_overlay(n_realizations):
        return make_config(mode="theory_overlay", model="chain", n_sys_list=(4,),
                           n_env_list=(8,), lambda_list=(0.0,), beta_list=(0.3, 1.0, 3.0),
                           n_realizations=n_realizations, method="exact")

    @staticmethod
    def traced_peak(cfg):
        tracemalloc.start()
        try:
            table = bench.run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.failed_points == 0
        return peak

    def test_exact_sweep_holds_one_beta_block(self, monkeypatch):
        # chain 4+8 in one block of 256 realizations (16 MiB): the caller's
        # block, the eigen coefficients, |coeff0|^2 (half a block), the one
        # beta block being measured and the measures' scratch, 3.8 blocks;
        # a beta block kept alive while the next one is made reads 5.0
        monkeypatch.setattr(bench, "_BLOCK_AMPLITUDES", 2**20)
        cfg = self.chain_overlay(256)
        assert self.traced_peak(cfg) <= 4.5 * 2**12 * 256 * 16

    def test_uncoupled_sweep_peak_in_cache_sized_blocks(self):
        # the same sweep in blocks of 32 realizations (2 MiB) peaks at
        # 8.4 MiB; in one block of 256 it read 61.4 MiB
        cfg = self.chain_overlay(256)
        assert self.traced_peak(cfg) <= 16 * 2**20

    @pytest.mark.parametrize("model, n_sys, n_env, lambda_list, method, n_realizations, widths", [
        ("chain", 4, 8, (0.0,), "exact", 40, [32, 8]),
        ("ring", 2, 10, (0.0, 0.5), "exact", 257, [256, 256, 4, 4]),
        ("ring", 2, 10, (1.0,), "chebyshev", 40, [32, 8]),
    ], ids=["uncoupled_chain", "mixed_ring", "chebyshev_ring"])
    def test_block_width_by_pass_kind(self, model, n_sys, n_env, lambda_list, method,
                                      n_realizations, widths, monkeypatch):
        # a pass draws blocks of _BLOCK_AMPLITUDES unless a point projects on
        # a coupled exact spectrum, which keeps _COUPLED_BLOCK_AMPLITUDES for
        # its sector GEMMs; an exact pass pads a partial block of 1 to 4
        seen, measure = [], bench.observe.thermal_measures

        def recorded(model, psi0, *args):
            seen.append(psi0.shape[1])
            return measure(model, psi0, *args)

        monkeypatch.setattr(bench.observe, "thermal_measures", recorded)
        cfg = make_config(model=model, n_sys_list=(n_sys,), n_env_list=(n_env,),
                          lambda_list=lambda_list, n_realizations=n_realizations, method=method)
        assert bench.run(cfg).failed_points == 0
        assert seen == widths

    def test_uncoupled_rows_do_not_depend_on_block_budget(self, monkeypatch):
        # chain 4+8's 64 realizations in two full blocks of 32 or one of 64
        cfg = self.chain_overlay(64)
        default = bench.run(cfg).to_csv()
        monkeypatch.setattr(bench, "_BLOCK_AMPLITUDES", 2**20)
        assert bench.run(cfg).to_csv() == default

    def test_rows_do_not_depend_on_n_realizations(self):
        # 250 = 7 x 32 + 26: the last block is padded to 28 columns, so
        # realizations 248 and 249 keep the bits they have among 256
        cfg = make_config(model="chain", n_sys_list=(4,), n_env_list=(8,), lambda_list=(0.0,),
                          beta_list=(0.3, 1.0, 3.0, 10.0), method="exact", master_seed=20160902)
        rows = {}
        for n in (256, 250):
            table = bench.run(replace(cfg, n_realizations=n))
            rows[n] = [r for r in table.rows if isinstance(r[4], int) and r[4] < 250]
        assert len(rows[250]) == 1000
        assert rows[250] == rows[256]

    def test_chebyshev_rows_do_not_depend_on_n_realizations(self):
        # a Chebyshev pass's ring depth follows the column dimension, not the
        # block's width (depths 12 and 15 made 62 of the 99 rows differ), and
        # every column's matvec is bitwise its lone one
        cfg = make_config(lambda_list=(1.0,), beta_list=(0.3, 1.0, 3.0), method="chebyshev",
                          coupling_seed=1, env_seed=2, master_seed=20160902)
        rows = {}
        for n in (40, 33):
            table = bench.run(replace(cfg, n_realizations=n))
            rows[n] = [r for r in table.rows if isinstance(r[4], int) and r[4] < 33]
        assert len(rows[33]) == 99
        assert rows[33] == rows[40]

    def test_exact_and_chebyshev_methods_agree(self):
        a = bench.run(make_config(method="exact", n_realizations=6))
        b = bench.run(make_config(method="chebyshev", n_realizations=6))
        sa = [r["sigma"] for r in a.dicts() if isinstance(r["realization"], int)]
        sb = [r["sigma"] for r in b.dicts() if isinstance(r["realization"], int)]
        assert np.abs(np.array(sa) - np.array(sb)).max() < 1e-9

    def test_failed_point_recorded_in_row(self):
        cfg = make_config(n_env_list=(1, 4))   # ring needs n_env >= 2
        table = bench.run(cfg)
        assert table.failed_points > 0
        good = [r for r in table.dicts() if r["n_env"] == 4 and r["realization"] == "mean"]
        assert len(good) == len(cfg.lambda_list)

    def test_kernel_over_budget_gives_error_rows(self, monkeypatch):
        # ring 2+3's largest piece is FULL's h with its GEMM copies, 10240
        # bytes; ring 2+6's H_E holds 12288
        monkeypatch.setattr(hamiltonian, "_KERNEL_BYTES", 11264)
        cfg = make_config(method="chebyshev", n_env_list=(3, 6), n_realizations=4)
        rows = list(bench.run(cfg).dicts())
        refused = [r for r in rows if r["n_env"] == 6]
        assert len(refused) == len(cfg.lambda_list) * len(cfg.beta_list)
        assert all(r["realization"] == "error" and "kernel budget" in r["error"] for r in refused)
        kept = [r for r in rows if r["n_env"] == 3]
        assert all(r["error"] == "" for r in kept)
        assert sum(isinstance(r["realization"], int) for r in kept) == 4 * len(cfg.lambda_list)

    def test_non_finite_bond_table_gives_error_row(self):
        cfg = make_config(model="explicit", n_sys_list=(2,), n_env_list=(1,), lambda_list=(1.0,),
                          system_bonds=((1, 2, float("nan"), 1.0, 1.0),),
                          coupling_bonds=((2, 1, 0.5, 0.5, 0.5),))
        (row,) = bench.run(cfg).dicts()
        assert row["realization"] == "error"
        assert row["error"] == "system_bonds: bond (1, 2) has a non-finite coupling"
        trace = bench.run(replace(cfg, mode="time_trace", t_max=1.0))
        assert trace.rows == [("error", "", "", "", row["error"])]

    def test_csv_roundtrip(self):
        table = bench.run(make_config(n_realizations=4))
        again = bench.ResultTable.from_csv(table.to_csv())
        assert again.columns == table.columns
        assert len(again.rows) == len(table.rows)
        assert again.meta["mode"] == "static_measure"

    def test_csv_error_with_comma_round_trips(self):
        # coupling bond (1, 5) is out of range: the message holds a comma
        cfg = make_config(model="explicit", n_sys_list=(2,), n_env_list=(3,),
                          lambda_list=(1.0,), coupling_bonds=((1, 5, 1.0, 1.0, 1.0),))
        table = bench.run(cfg)
        (row,) = table.dicts()
        assert row["error"] == "coupling_bonds: sites (1, 5) out of range"
        again = bench.ResultTable.from_csv(table.to_csv())
        assert again.columns == table.columns
        assert list(again.dicts()) == list(table.dicts())

    def test_csv_quotes_only_fields_that_need_it(self):
        message = 'bad "value", then\na second line'
        table = bench.ResultTable(["a", "b", "error"],
                                  [(1, 0.25, ""), (2, "mean", message)], {"mode": "x"})
        text = table.to_csv()
        assert "1,0.25,\n" in text      # a plain row is written bare, as before
        assert '2,mean,"bad ""value"", then\na second line"\n' in text
        again = bench.ResultTable.from_csv(text)
        assert again.rows == table.rows and again.meta == {"mode": "x"}

    def test_csv_mixed_fields_bytes(self):
        # numbers are written bare without a scan; text is quoted only when it needs it
        table = bench.ResultTable(
            ["n_sys", "beta", "realization", "sigma", "error"],
            [(4, 0.1, 0, 1.5e-300, ""), (4, 50.0, "mean", -0.0, ""),
             (12, float("inf"), "n", 256, 'x, "y"\r\nz'), (0, 2.5, "error", "", "a,b")],
            {"mode": "x"})
        assert table.to_csv() == (
            "# spinbath-csv v1\n# mode=x\n"
            "n_sys,beta,realization,sigma,error\n"
            "4,0.1,0,1.5e-300,\n"
            "4,50.0,mean,-0.0,\n"
            '12,inf,n,256,"x, ""y""\r\nz"\n'
            '0,2.5,error,,"a,b"\n')
        again = bench.ResultTable.from_csv(table.to_csv())
        assert again.rows == table.rows

        def reference_field(value):
            # the rendering of every field before floats and ints took a fast
            # path, with numpy numbers read as their Python values
            if isinstance(value, np.generic):
                value = value.item()
            text = "" if value is None or value == "" else (
                repr(value) if isinstance(value, float) else str(value))
            if isinstance(value, (int, float)) or not any(c in text for c in ',"\r\n'):
                return text
            return '"' + text.replace('"', '""') + '"'

        values = [0.1, -0.0, 1.5e-300, float("inf"), float("nan"), 2.0**60, 0, -7, 10**20,
                  True, None, "", "mean", 'x, "y"\r\nz', "a\nb", np.float64(0.25),
                  np.float64(-1e-310), np.int64(3)]
        for v in values:
            assert bench._field(v) == reference_field(v), v

    def test_numpy_numbers_round_trip(self):
        # written as their Python values, not as numpy 2's repr "np.float64(0.25)"
        row = (np.float64(0.25), np.float64(-1e-310), np.int64(3), np.float32(0.5), np.bool_(True))
        table = bench.ResultTable(["a", "b", "c", "d", "e"], [row], {"mode": "x"})
        assert table.to_csv().splitlines()[-1] == "0.25,-1e-310,3,0.5,True"
        again = bench.ResultTable.from_csv(table.to_csv())
        assert again.rows == [(0.25, -1e-310, 3, 0.5, "True")]
        assert [type(v) for v in again.rows[0][:4]] == [float, float, int, float]

    def test_csv_rows_without_separators_unchanged(self):
        table = bench.run(make_config(n_realizations=3))
        lines = table.to_csv().splitlines()
        assert lines[-len(table.rows):] == [",".join(bench._fmt(v) for v in row)
                                            for row in table.rows]

    def test_theory_overlay_matches_closed_form(self):
        cfg = bench.parse_config(CONFIG_TEXT)
        cfg = bench.ExperimentConfig(**{**cfg.__dict__, "n_realizations": 200})
        table = bench.run(cfg)
        from spinbath.hamiltonian import build_chain_model
        from spinbath.theory import prediction_inputs, sigma2_full

        model = build_chain_model(2, 4, 1.0, 1.0, 1.0, 0.0)
        for beta in cfg.beta_list:
            samples = np.array([r["sigma"] ** 2 for r in table.dicts()
                                if isinstance(r["realization"], int)
                                and r["lam"] == 0.0 and r["beta"] == beta])
            ref = sigma2_full(prediction_inputs(model, beta))
            dev = abs(samples.mean() - ref) / (samples.std(ddof=1) / np.sqrt(len(samples)))
            assert dev < 3.0
            mean_row = next(r for r in table.dicts()
                            if r["lam"] == 0.0 and r["beta"] == beta
                            and r["realization"] == "mean")
            assert abs(mean_row["theory_sigma"] - np.sqrt(ref)) < 1e-12


    def test_auto_projects_an_uncoupled_entirety_on_its_parts(self):
        # ring 4+10 (2^14) at lam = 0: "auto" solves H_E (1024) and H_S (16)
        # exactly, as "exact" does; on Gershgorin Chebyshev the cancellation
        # guard refused the whole grid from beta = 5 on
        tables = [bench.run(make_config(method=method, coupling_seed=25, env_seed=17,
                                        n_sys_list=(4,), n_env_list=(10,), lambda_list=(0.0,),
                                        beta_list=(1.0, 5.0, 20.0), n_realizations=4))
                  for method in ("auto", "exact")]
        assert tables[0].failed_points == 0
        assert tables[0].to_csv() == tables[1].to_csv()


    def test_refused_closed_forms_leave_the_overlay_samples(self, monkeypatch):
        from spinbath import spectrum

        # chain 4+8 under a dense cap of 64: H_S (16) is solved for the
        # measures, H_E (256) is refused for the closed forms, and the
        # Chebyshev projection needs neither spectrum of H
        monkeypatch.setattr(spectrum, "DEFAULT_DIM_CAP", 64)
        cfg = make_config(mode="theory_overlay", model="chain", method="chebyshev",
                          n_sys_list=(4,), n_env_list=(8,), lambda_list=(1.0,),
                          beta_list=(0.3, 1.0), n_realizations=3)
        table = bench.run(cfg)
        plain = bench.run(replace(cfg, mode="static_measure"))
        assert [r[:9] for r in table.rows] == [r[:9] for r in plain.rows]
        assert all(r["theory_sigma"] == r["theory_delta"] == "" for r in table.dicts())
        means = [r for r in table.dicts() if r["realization"] == "mean"]
        assert len(means) == 2 and all("dense cap 64" in r["error"] for r in means)
        assert table.failed_points == len(cfg.beta_list)

    def test_chebyshev_lambda_projects_only_its_draws(self, monkeypatch):
        # ring 4+9 under "auto": lam = 0 projects on its exact parts (512
        # and 16) and pads 5 draws to 8 columns; lam = 1 (2^13, coupled)
        # runs Chebyshev in the same pass on the 5 drawn columns alone
        from spinbath import observe

        widths = []

        def recorded(model, psi0, *args):
            widths.append((model.lam, psi0.shape[1]))
            return measures(model, psi0, *args)

        measures = observe.thermal_measures
        monkeypatch.setattr(observe, "thermal_measures", recorded)
        cfg = make_config(method="auto", coupling_seed=25, env_seed=17, n_sys_list=(4,),
                          n_env_list=(9,), beta_list=(0.3, 1.0), n_realizations=5)
        rows = bench.run(cfg).rows
        assert widths == [(0.0, 8), (1.0, 5)]
        assert [r for r in rows if r[2] == 1.0] == bench.run(replace(cfg, lambda_list=(1.0,))).rows


class TestOtherModes:
    def test_symmetry_check(self):
        cfg = make_config(mode="symmetry_check", beta_list=(0.4, 1.0))
        table = bench.run(cfg)
        for row in table.dicts():
            assert row["rel_a"] < 1e-10 and row["rel_b"] < 1e-10
        broken = bench.run(make_config(mode="symmetry_check", beta_list=(0.4,),
                                       identity_shift=0.3))
        assert any(r["rel_a"] > 1e-3 for r in broken.dicts())

    def test_normalization_diag(self):
        cfg = make_config(mode="normalization_diag", lambda_list=(0.0,),
                          beta_list=(1.0,), n_env_list=(2, 4), n_realizations=8)
        table = bench.run(cfg)
        medians = [r["diff"] for r in table.dicts() if r["realization"] == "median"]
        assert len(medians) == 2 and medians[0] > medians[1]

    def test_moment_check_mode(self):
        cfg = make_config(mode="moment_check", n_sys_list=(2,), n_env_list=(2,),
                          n_draws=4000)
        table = bench.run(cfg)
        rows = list(table.dicts())
        assert [r["moment"] for r in rows] == ["x", "x2", "xx"]
        assert all(r["deviation_se"] < 4.0 for r in rows)

    @pytest.mark.parametrize("n_sys, n_env", [(0, 0), (4, 25), (20, 20)])
    def test_moment_check_size_gives_error_row(self, n_sys, n_env, monkeypatch, tmp_path, capsys):
        # N = 0, 29 and 40 become one error row before any random state is drawn
        from spinbath import cli

        def refuse(*args):
            raise AssertionError("moment_check must not run")

        monkeypatch.setattr(bench, "moment_check", refuse)
        cfg = make_config(mode="moment_check", n_sys_list=(n_sys,), n_env_list=(n_env,))
        table = bench.run(cfg)
        assert table.failed_points == 1
        (row,) = table.dicts()
        assert row["moment"] == "error" and f"got N = {n_sys + n_env}" in row["error"]
        path = tmp_path / "moments.cfg"
        path.write_text(bench.render_config(cfg))
        assert cli.main(["run", str(path), "-o", str(tmp_path / "moments.csv")]) == 1
        assert "1 sweep point(s) failed" in capsys.readouterr().err

    def test_time_trace_mode(self):
        cfg = make_config(mode="time_trace", lambda_list=(1.0,), beta_list=(0.8,),
                          t_max=5.0, dt=0.5, t_burn=1.0)
        table = bench.run(cfg)
        ts = [r["t"] for r in table.dicts() if isinstance(r["t"], float)]
        assert len(ts) == 11 and ts[0] == 0.0 and ts[-1] == 5.0
        assert any(r["t"] == "mean" for r in table.dicts())

    @staticmethod
    def solves_and_bounds(cfg, monkeypatch):
        """The (solver, part) calls of a time_trace config and the bounds its start and trace receive."""
        from spinbath import propagate
        from spinbath.spectrum import diagonalize_sectors, part_eigenvalues

        solved, projected, traced = [], [], []

        def counted(solve):
            def wrapper(model, part):
                solved.append((solve.__name__, part))
                return solve(model, part)
            return wrapper

        def start(model, psi0, betas, spectrum=None, *, bounds=None):
            projected.append(bounds)
            return project(model, psi0, betas, spectrum, bounds=bounds)

        def trace(*args, bounds, **kwargs):
            traced.append(bounds)
            return []

        project = bench.canonical_thermal_state
        monkeypatch.setattr(propagate, "diagonalize_sectors", counted(diagonalize_sectors))
        monkeypatch.setattr(propagate, "part_eigenvalues", counted(part_eigenvalues))
        monkeypatch.setattr(bench, "canonical_thermal_state", start)
        monkeypatch.setattr(bench.observe, "trace_time_series", trace)
        assert bench.run(cfg).failed_points == 0
        return solved, projected + traced

    @pytest.mark.parametrize("initial_state", ["x", "ududy"])
    def test_time_trace_expands_on_the_spectra_it_solved(self, initial_state, monkeypatch):
        # no eigenvalue problem is solved: the start is projected on the
        # Lanczos bounds of its H (the model's for the x state, H_E (x) 1_S's
        # for the product state).  The x state's trace expands on the same
        # bounds; the product state's adds H_S's ends and lam times H_SE's
        # Gershgorin bounds (Weyl), with no Lanczos run on the coupled H.
        # The same floats at any master seed
        from spinbath.hamiltonian import energy_bounds
        from spinbath.propagate import lanczos_bounds
        from spinbath.spectrum import diagonalize

        cfg = make_config(mode="time_trace", n_env_list=(6,), lambda_list=(1.0,),
                          beta_list=(0.8,), t_max=1.0, dt=0.5, initial_state=initial_state)
        model = cfg.build_model(2, 6, 1.0)
        if initial_state == "x":
            bounds = lanczos_bounds(model, "exact")
            expected = ([], [bounds, bounds])
        else:
            start = lanczos_bounds(replace(model, system_bonds=(), coupling_bonds=()), "exact")
            hs, (c_min, c_max) = diagonalize(model, "S").eigenvalues, energy_bounds(model, "SE")
            expected = ([], [start, (start[0] + hs[0] + c_min, start[1] + hs[-1] + c_max)])
        assert self.solves_and_bounds(cfg, monkeypatch) == expected
        assert self.solves_and_bounds(replace(cfg, master_seed=7), monkeypatch) == expected

    @pytest.mark.parametrize("initial_state", ["x", "ududy"])
    def test_chebyshev_time_trace_solves_nothing(self, initial_state, monkeypatch):
        # either start is projected on Gershgorin bounds and the trace expands on them
        cfg = make_config(mode="time_trace", n_env_list=(6,), lambda_list=(1.0,), beta_list=(0.8,),
                          t_max=1.0, dt=0.5, initial_state=initial_state, method="chebyshev")
        assert self.solves_and_bounds(cfg, monkeypatch) == ([], [None, None])

    @pytest.mark.parametrize("n_sys, n_env", [(2, 6), (4, 8)])
    @pytest.mark.parametrize("beta", [0.9, 5.0])
    def test_product_start_matches_the_sector_projection(self, n_sys, n_env, beta, monkeypatch):
        # the product start projected with H_E (x) 1_S on Chebyshev over its
        # Lanczos bounds is, to rounding, H_E's sector projection of the
        # environment draw (x) the up-down system state
        from spinbath.propagate import _exact_projections
        from spinbath.spectrum import diagonalize_sectors

        cfg = make_config(mode="time_trace", n_sys_list=(n_sys,), n_env_list=(n_env,),
                          lambda_list=(1.0,), beta_list=(beta,), t_max=1.0, dt=0.5,
                          initial_state="ududy")
        started = []
        monkeypatch.setattr(bench.observe, "trace_time_series",
                            lambda model, state, *args, **kwargs: started.append(state) or [])
        bench.time_trace(cfg, 7)
        model = cfg.build_model(n_sys, n_env, 1.0)
        env0 = random_state(model.dim_env, 7)[:, None]
        env, = _exact_projections((diagonalize_sectors(model, "E"),), env0, [beta])
        up_down = np.zeros(model.dim_system, dtype=complex)
        up_down[sum(1 << (site - 1) for site in range(2, n_sys + 1, 2))] = 1.0
        assert np.abs(started[0] - np.kron(env[:, 0], up_down)).max() < 1e-13

    def test_time_trace_solves_no_eigenvectors_of_h(self, monkeypatch):
        # every solve is one of H_S's sector blocks, for its eigenvectors;
        # H's spectrum is bounded by Lanczos, with no dense solve at all
        import scipy.linalg

        cfg = make_config(mode="time_trace", n_env_list=(6,), lambda_list=(1.0,),
                          beta_list=(0.8,), t_max=1.0, dt=0.5)
        model = cfg.build_model(2, 6, 1.0)
        solves = []
        eigh = scipy.linalg.eigh

        def recorded(a, *args, **kwargs):
            solves.append((a.shape[0], kwargs.get("eigvals_only", False)))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", recorded)
        table = bench.run(cfg)
        assert table.failed_points == 0
        assert not any(values_only for _, values_only in solves)
        assert sum(n for n, _ in solves) == model.dim_system

    def test_default_t_burn_leaves_aggregate_rows(self):
        # the default burn-in is at most half the trace, so a default trace has late samples
        cfg = make_config(mode="time_trace", n_sys_list=(2,), n_env_list=(3,),
                          lambda_list=(1.0,), beta_list=(0.8,))
        table = bench.run(cfg)
        rows = list(table.dicts())
        assert [r["t"] for r in rows[601:]] == ["mean", "stddev", "n"]
        assert all(isinstance(r["t"], float) for r in rows[:601])
        assert rows[-1]["sigma"] == 300 and table.meta["t_burn"] == 150.0

    @pytest.mark.parametrize("t_max, t_burn", [(5.0, 4.5), (5.0, 5.0), (0.0, 0.0), (0.4, 0.0)])
    def test_t_burn_leaving_under_two_samples_rejected(self, t_max, t_burn):
        cfg = make_config(mode="time_trace", lambda_list=(1.0,), beta_list=(0.8,),
                          t_max=5.0, dt=0.5, t_burn=4.0)
        table = bench.run(cfg)      # samples at t = 4.5 and 5.0 lie past t_burn
        assert [r["t"] for r in table.dicts()][-3:] == ["mean", "stddev", "n"]
        with pytest.raises(ConfigError, match="t_burn"):
            replace(cfg, t_max=t_max, t_burn=t_burn)
        with pytest.raises(ConfigError, match="t_burn"):
            bench.parse_config(bench.render_config(cfg).replace(
                "t_max = 5.0", f"t_max = {t_max}").replace("t_burn = 4.0", f"t_burn = {t_burn}"))

    def test_time_trace_needs_single_point(self):
        with pytest.raises(ConfigError):
            bench.run(make_config(mode="time_trace"))

    @pytest.mark.parametrize("overrides", [
        dict(mode="normalization_diag", lambda_list=(0.0,), beta_list=(0.5, 1.0)),
        dict(mode="moment_check", n_sys_list=(2, 3), n_env_list=(2,)),
        dict(mode="moment_check", n_sys_list=(2,), n_env_list=(2, 3)),
    ], ids=["normalization_beta", "moment_n_sys", "moment_n_env"])
    def test_sweep_axes_read_once_must_be_single_valued(self, overrides):
        # these modes read one value of the axis; a longer axis is refused, not truncated
        with pytest.raises(ConfigError, match="single-valued"):
            bench.run(make_config(n_realizations=2, n_draws=2, **overrides))

    @pytest.mark.parametrize("overrides,message", [
        (dict(coupling_seed=5, env_seed=6, n_env_list=(3,), beta_list=(500.0,),
              method="chebyshev"), "single double-precision Chebyshev projection"),
    ], ids=["chebyshev_cancellation"])
    def test_time_trace_failure_recorded_in_row(self, overrides, message, tmp_path, capsys):
        # a ChebyshevOrderError becomes one error row
        from spinbath import cli

        cfg = make_config(**{**dict(mode="time_trace", lambda_list=(1.0,), beta_list=(0.8,),
                                    t_max=1.0, dt=0.5), **overrides})
        table = bench.run(cfg)
        assert table.failed_points == 1
        (row,) = table.dicts()
        assert row["t"] == "error" and message in row["error"]
        path = tmp_path / "trace.cfg"
        path.write_text(bench.render_config(cfg))
        out = tmp_path / "trace.csv"
        assert cli.main(["run", str(path), "-o", str(out)]) == 1
        assert bench.ResultTable.from_csv(out.read_text()).failed_points == 1
        assert "1 sweep point(s) failed" in capsys.readouterr().err

    def test_exact_time_trace_above_the_dense_cap(self):
        # H of ring 4+12 (2^16) is past the dense cap, but its Lanczos
        # bounds solve nothing dense, so the exact X trace has no error row
        cfg = make_config(mode="time_trace", n_sys_list=(4,), n_env_list=(12,), lambda_list=(1.0,),
                          beta_list=(0.8,), t_max=1.0, dt=0.5, method="exact")
        table = bench.run(cfg)
        assert table.failed_points == 0
        samples = [r for r in table.dicts() if isinstance(r["t"], float)]
        assert [r["t"] for r in samples] == [0.0, 0.5, 1.0]
        assert all(np.isfinite(r["sigma"]) and 0.0 < r["sigma"] <= 1.0 for r in samples)

    def test_one_refused_beta_errs_alone(self):
        # the Chebyshev guard refuses beta = 5 and 20 on ring 4+10 at lam = 1;
        # beta = 1 keeps the rows it has alone, bit for bit, and only the
        # refused betas carry an error
        cfg = make_config(mode="static_measure", model="ring", j_system=-1.0, coupling_seed=25,
                          env_seed=17, n_sys_list=(4,), n_env_list=(10,), lambda_list=(1.0,),
                          beta_list=(1.0, 5.0, 20.0), n_realizations=2, method="chebyshev")
        table = bench.run(cfg)
        errors = {r["beta"]: r["error"] for r in table.dicts() if r["error"]}
        assert sorted(errors) == [5.0, 20.0] and table.failed_points == len(errors)
        assert all("Chebyshev projection" in e for e in errors.values())
        alone = bench.run(replace(cfg, beta_list=(1.0,)))
        assert [r for r in table.rows if r[3] == 1.0] == alone.rows and alone.failed_points == 0


class TestAnalysis:
    def test_sigma2_excess_pairing(self):
        table = bench.run(make_config(n_realizations=32))
        excess = bench.sigma2_excess(table)
        (key, (mean, err, n)), = excess.items()
        assert key == (2, 4, 0.5, 1.0) and n == 32
        # paired noise is far below the unpaired sigma^2 spread
        samples = np.array([r["sigma"] ** 2 for r in table.dicts()
                            if isinstance(r["realization"], int) and r["lam"] == 0.0])
        assert err < np.std(samples, ddof=1) / np.sqrt(32)

    def test_fit_power_law(self):
        xs = np.array([0.2, 0.4, 0.8, 1.6])
        ys = -3.0 * xs**2.5
        errs = np.full(4, 1e-12)
        k, n = bench.fit_power_law(xs, ys, errs)
        assert n == 4 and abs(k - 2.5) < 1e-9

    def test_fit_power_law_noise_floor(self):
        with pytest.raises(ValueError):
            bench.fit_power_law([1, 2, 3], [0.0, 0.0, 1.0], [1.0, 1.0, 0.1])


class TestPlotExport:
    def test_static_blocks_and_determinism(self):
        table = bench.run(make_config(mode="theory_overlay", n_realizations=8,
                                      beta_list=(0.4, 1.2)))
        data, script = bench.plot_export(table)
        assert data.count("# curve") == 2          # one block per lambda
        assert "theory" in script
        assert (data, script) == bench.plot_export(table)

    def test_trace_export(self):
        cfg = make_config(mode="time_trace", lambda_list=(1.0,), beta_list=(0.8,),
                          t_max=2.0, dt=0.5)
        data, script = bench.plot_export(bench.run(cfg))
        assert data.startswith("# spinbath trace")
        assert "with lines" in script

    def test_numpy_numbers_written_as_python_values(self):
        table = bench.ResultTable(["t", "sigma", "delta", "b"],
                                  [(np.float64(0.5), np.float64(0.25), 0.125, np.int64(2))],
                                  {"mode": "time_trace"})
        data, _ = bench.plot_export(table)
        assert data.splitlines()[-1] == "0.5 0.25 0.125 2"

    @pytest.mark.parametrize("overrides", [
        dict(mode="theory_overlay", n_realizations=4, beta_list=(0.4, 1.2)),
        dict(mode="time_trace", lambda_list=(1.0,), beta_list=(0.8,), t_max=2.0, dt=0.5),
    ], ids=["theory_overlay", "time_trace"])
    def test_cli_plot_writes_beside_the_prefix(self, overrides, tmp_path, capsys):
        # `spinbath run` then `spinbath plot`: the script names its data file
        # without a directory, so gnuplot runs beside the two files
        from spinbath import cli

        config = tmp_path / "sweep.cfg"
        config.write_text(bench.render_config(make_config(**overrides)))
        csv_path = tmp_path / "sweep.csv"
        assert cli.main(["run", str(config), "-o", str(csv_path)]) == 0
        data, script = bench.plot_export(bench.ResultTable.from_csv(csv_path.read_text()))
        (tmp_path / "plots").mkdir()
        for args, prefix in ((["-o", str(tmp_path / "plots" / "fig")], tmp_path / "plots" / "fig"),
                             ([], tmp_path / "sweep")):
            assert cli.main(["plot", str(csv_path), *args]) == 0
            assert capsys.readouterr().out.endswith(f"wrote {prefix}.dat and {prefix}.gp\n")
            assert Path(f"{prefix}.dat").read_text() == data
            assert Path(f"{prefix}.gp").read_text() == script.replace("DATA", f"{prefix.name}.dat")
        assert sorted(p.name for p in (tmp_path / "plots").iterdir()) == ["fig.dat", "fig.gp"]

    @pytest.mark.parametrize("overrides", [
        dict(mode="symmetry_check"),
        dict(mode="normalization_diag", lambda_list=(0.0,), n_realizations=2),
        dict(mode="moment_check", n_draws=2),
    ], ids=["symmetry_check", "normalization_diag", "moment_check"])
    def test_refuses_tables_without_curves(self, overrides, tmp_path, capsys):
        from spinbath import cli

        table = bench.run(make_config(**overrides))
        with pytest.raises(ConfigError, match=overrides["mode"]):
            bench.plot_export(table)
        path = tmp_path / "table.csv"
        table.save(path)
        assert cli.main(["plot", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot plot a {overrides['mode']} table")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]
