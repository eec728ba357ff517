from dataclasses import replace

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
        monkeypatch.setattr(bench, "_BLOCK_AMPLITUDES", 4 * 64)
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
        for module in (propagate, theory):
            monkeypatch.setattr(module, "diagonalize_sectors",
                                counting("sectors", module.diagonalize_sectors))
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
        # ring 2+3's largest part holds at most 1536 bytes, ring 2+6's 12288
        monkeypatch.setattr(hamiltonian, "_KERNEL_BYTES", 4096)
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
            # the rendering of every field before floats and ints took a fast path
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

    @pytest.mark.parametrize("initial_state", ["x", "ududy"])
    def test_time_trace_expands_on_the_spectra_it_solved(self, initial_state, monkeypatch):
        # the x state's projection spectrum, or the product state's H_E sectors
        # (solved once) with H_S, bound the trace's expansion
        from spinbath import propagate
        from spinbath.propagate import spectral_bounds
        from spinbath.spectrum import diagonalize, diagonalize_sectors

        cfg = make_config(mode="time_trace", n_env_list=(6,), lambda_list=(1.0,),
                          beta_list=(0.8,), t_max=1.0, dt=0.5, initial_state=initial_state)
        solved, traced = [], []

        def counted(model, part):
            solved.append(part)
            return diagonalize_sectors(model, part)

        def trace(*args, bounds, **kwargs):
            traced.append(bounds)
            return []

        monkeypatch.setattr(bench, "diagonalize_sectors", counted)
        monkeypatch.setattr(propagate, "diagonalize_sectors", counted)
        monkeypatch.setattr(bench.observe, "trace_time_series", trace)
        bench.run(cfg)
        model = cfg.build_model(2, 6, 1.0)
        if initial_state == "x":
            assert solved == ["FULL"]
            expected = spectral_bounds(model, diagonalize_sectors(model, "FULL"))
        else:
            assert solved == ["E"]
            expected = spectral_bounds(model, diagonalize_sectors(model, "E"),
                                       diagonalize(model, "S"))
        assert traced == [expected]

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
        (dict(n_sys_list=(4,), n_env_list=(12,), method="exact"), "exceeds dense cap"),
        (dict(coupling_seed=5, env_seed=6, n_env_list=(3,), beta_list=(500.0,),
              method="chebyshev"), "single double-precision Chebyshev projection"),
    ], ids=["exact_over_dense_cap", "chebyshev_cancellation"])
    def test_time_trace_failure_recorded_in_row(self, overrides, message, tmp_path, capsys):
        # a SizeLimitError / ChebyshevOrderError becomes one error row
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
