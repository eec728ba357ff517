"""Batch experiment runner: declarative sweeps, seeded ensembles, CSV output.

A plain-text config (key = value lines plus optional bond-table sections)
describes a sweep over system size, environment size, coupling strength and
inverse temperature.  Each sweep point runs a seeded ensemble of
realizations; sample rows and aggregate rows (mean, stderr, n) go to one CSV
whose schema is fixed in a header comment.

Seed discipline: realization r of a sweep point draws its random state from
a key of the master seed, the structural coordinates (sizes and constructor
seeds) and r, not the coupling strength or the temperature, once per pass
over a structure's lambda values.  Sweeps along lambda or beta therefore
share random states (common random numbers), which is what makes the small
coupling-induced shift of sigma^2 measurable at desk scale (sigma2_excess).
"""

from __future__ import annotations

import csv
import dataclasses
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import observe, theory
from .errors import ChebyshevOrderError, ConfigError, ModelError, SpinBathError
from .hamiltonian import (COUPLING, DEFAULT_SIZE_CAP, SYSTEM, SpinModel, build_chain_model,
                          build_ring_model, energy_bounds)
from .propagate import (
    METHODS,
    alternating_product_state,
    canonical_thermal_state,
    lanczos_bounds,
    moment_check,
    normalization_diagnostic,
    projection_spectrum,
    random_state,
)
from .propagate import real_matmul  # noqa: F401  (a binding benchmark/tracer.py expects)
from .seeds import realization_seed
from .spectrum import diagonalize, thermo
from .theory import first_order_symmetry_trace

CSV_SCHEMA_VERSION = "spinbath-csv v1"
MODES = ("static_measure", "time_trace", "theory_overlay", "symmetry_check",
         "normalization_diag", "moment_check")
PLOT_MODES = ("static_measure", "theory_overlay", "time_trace")
MODELS = ("ring", "chain", "explicit")
_PASS_BYTES = 2**28     # sector eigenvector bytes held by one pass over the realizations
_BLOCK_AMPLITUDES = 2**17   # amplitudes in one block of realizations: 32 columns, 2 MiB, at 2^12
# ... where a pass has a coupled exact point, whose 1024^2 sector GEMMs run
# near the GEMM peak only on wide blocks (256 columns at 2^12)
_COUPLED_BLOCK_AMPLITUDES = 2**20


def default_realizations(n_spins: int) -> int:
    """Ensemble size by entirety size: dense statistics while cheap, single runs above."""
    if n_spins <= 12:
        return 1000
    if n_spins <= 20:
        return 10
    return 1


@dataclass
class ExperimentConfig:
    """Declarative description of one sweep (see parse_config for the format)."""

    mode: str
    model: str
    output: str = "result.csv"
    n_sys_list: tuple[int, ...] = ()
    n_env_list: tuple[int, ...] = ()
    lambda_list: tuple[float, ...] = (1.0,)
    beta_list: tuple[float, ...] = ()
    n_realizations: int | None = None
    master_seed: int = 1
    method: str = "auto"
    # ring constructor parameters
    j_system: float = -1.0
    coupling_seed: int = 1
    env_seed: int = 2
    # chain constructor parameters
    j_iso: float = 1.0
    omega_iso: float = 1.0
    delta_iso: float = 1.0
    # time_trace parameters
    t_max: float = 300.0
    dt: float = 0.5
    t_burn: float | None = None
    initial_state: str = "x"
    # symmetry_check parameter
    identity_shift: float = 0.0
    # moment_check parameter
    n_draws: int = 10000
    # explicit model tables
    system_bonds: tuple = ()
    env_bonds: tuple = ()
    coupling_bonds: tuple = ()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        for name in ("n_sys_list", "n_env_list", "lambda_list", "beta_list"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must not be empty")
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} repeats a value, got {values}")
        if self.initial_state not in ("x", "ududy"):
            raise ConfigError(f"initial_state must be 'x' or 'ududy', got {self.initial_state!r}")
        if not all(np.isfinite(beta) and beta >= 0.0 for beta in self.beta_list):
            raise ConfigError(f"beta_list must hold finite values >= 0, got {self.beta_list}")
        if not all(np.isfinite(lam) for lam in self.lambda_list):
            raise ConfigError(f"lambda_list must hold finite values, got {self.lambda_list}")
        for name in ("j_system", "j_iso", "omega_iso", "delta_iso", "identity_shift"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_realizations is not None and self.n_realizations < 1:
            raise ConfigError(f"n_realizations must be >= 1, got {self.n_realizations}")
        if not self.dt > 0.0:
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if not self.t_max >= 0.0:
            raise ConfigError(f"t_max must be >= 0, got {self.t_max}")
        if not np.isfinite(self.t_max / self.dt):
            raise ConfigError(f"t_max and t_max / dt must be finite, got t_max = {self.t_max}, "
                              f"dt = {self.dt}")
        if self.t_burn is not None and not (np.isfinite(self.t_burn) and self.t_burn >= 0.0):
            raise ConfigError(f"t_burn must be finite and >= 0, got {self.t_burn}")
        if self.mode == "time_trace" and self.t_burn is not None:
            # the trace's times k * dt grow with k, so two samples lie past
            # t_burn exactly when the second to last does
            n_steps = round(self.t_max / self.dt)
            if not (n_steps >= 1 and (n_steps - 1) * self.dt > self.t_burn):
                raise ConfigError(f"t_burn = {self.t_burn} leaves fewer than two samples of a "
                                  f"trace to t_max = {self.t_max} in steps of dt = {self.dt}")
        if self.n_draws < 2:
            raise ConfigError(f"n_draws must be >= 2, got {self.n_draws}")

    def build_model(self, n_sys: int, n_env: int, lam: float) -> SpinModel:
        if self.model == "ring":
            return build_ring_model(n_sys, n_env, self.j_system,
                                    self.coupling_seed, self.env_seed, lam)
        if self.model == "chain":
            return build_chain_model(n_sys, n_env, self.j_iso, self.omega_iso,
                                     self.delta_iso, lam)
        return SpinModel(n_sys, n_env, self.system_bonds, self.env_bonds,
                         self.coupling_bonds, lam)

    def structure_key(self, n_sys: int, n_env: int) -> tuple:
        """Seed key of a structural point: sizes, constructor and its seeds."""
        if self.model == "ring":
            return (n_sys, n_env, "ring", self.coupling_seed, self.env_seed)
        return (n_sys, n_env, self.model)

    def realizations(self, n_spins: int) -> int:
        return self.n_realizations if self.n_realizations is not None else default_realizations(n_spins)


# ---------------------------------------------------------------------------
# config text format

_LIST_KEYS = {"n_sys_list": int, "n_env_list": int, "lambda_list": float, "beta_list": float}
_SCALAR_KEYS = {
    "mode": str, "model": str, "output": str, "method": str, "initial_state": str,
    "n_realizations": int, "master_seed": int, "coupling_seed": int, "env_seed": int,
    "n_draws": int,
    "j_system": float, "j_iso": float, "omega_iso": float, "delta_iso": float,
    "t_max": float, "dt": float, "t_burn": float, "identity_shift": float,
}
_ALIASES = {"lambda": "lambda_list", "beta": "beta_list", "n_sys": "n_sys_list",
            "n_env": "n_env_list"}
_SECTIONS = ("system_bonds", "env_bonds", "coupling_bonds")


def parse_config(text: str) -> ExperimentConfig:
    """Parse the plain-text experiment format.

    Lines are ``key = value`` (lists are whitespace separated; the singular
    aliases lambda/beta/n_sys/n_env are accepted for one-point axes), ``#``
    starts a comment, and ``[system_bonds]``/``[env_bonds]``/
    ``[coupling_bonds]`` open bond tables with ``i j cx cy cz`` rows for
    explicit models.  Errors carry the offending line number.
    """
    values: dict = {}
    bonds: dict[str, list] = {s: [] for s in _SECTIONS}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            name = line.strip("[] \t")
            if name not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            section = name
            continue
        if section is not None and "=" not in line:
            parts = line.split()
            if len(parts) != 5:
                raise ConfigError(f"line {lineno}: bond rows need 'i j cx cy cz'")
            try:
                bonds[section].append((int(parts[0]), int(parts[1]),
                                       float(parts[2]), float(parts[3]), float(parts[4])))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        section = None
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        key = _ALIASES.get(key, key)
        try:
            if key in _LIST_KEYS:
                conv = _LIST_KEYS[key]
                values[key] = tuple(conv(tok) for tok in val.split())
            elif key in _SCALAR_KEYS:
                values[key] = _SCALAR_KEYS[key](val)
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    for s in _SECTIONS:
        if bonds[s]:
            values[s] = tuple(bonds[s])
    if "mode" not in values:
        raise ConfigError("missing required key 'mode'")
    if "model" not in values:
        raise ConfigError("missing required key 'model'")
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def render_config(config: ExperimentConfig) -> str:
    """Serialize a config (round-trips through parse_config)."""
    lines = [f"# {CSV_SCHEMA_VERSION} experiment config"]
    for f_ in dataclasses.fields(config):
        val = getattr(config, f_.name)
        if f_.name in _SECTIONS or val is None:
            continue
        if isinstance(val, tuple):
            lines.append(f"{f_.name} = {' '.join(repr(v) for v in val)}")
        else:
            lines.append(f"{f_.name} = {val}")
    for s in _SECTIONS:
        table = getattr(config, s)
        if table:
            lines.append(f"[{s}]")
            for (i, j, cx, cy, cz) in table:
                lines.append(f"{i} {j} {cx!r} {cy!r} {cz!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# result tables

def _fmt(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()    # numpy 2's repr of np.float64(0.25) is "np.float64(0.25)"
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _field(value) -> str:
    """A CSV field as written: _fmt's text, quoted with inner quotes doubled if it holds , " or a line break.

    Only text is scanned: a float's repr and an int's digits never hold those.
    A Python float or int, most of a table's fields, is rendered first,
    with the text _fmt gives it; numpy numbers take the general path, where
    _fmt renders their Python value.
    """
    kind = type(value)
    if kind is float:
        return repr(value)
    if kind is int:
        return str(value)
    text = _fmt(value)
    if isinstance(value, (int, float)) or not _NEEDS_QUOTES.search(text):
        return text
    return '"' + text.replace('"', '""') + '"'


def _parse(tok: str):
    """A CSV field as read: int, else float, else the text itself."""
    if tok == "":
        return ""
    try:
        return int(tok)
    except ValueError:
        try:
            return float(tok)
        except ValueError:
            return tok


@dataclass
class ResultTable:
    columns: list[str]
    rows: list[tuple]
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [f"# {CSV_SCHEMA_VERSION}"]
        for key in sorted(self.meta):
            lines.append(f"# {key}={self.meta[key]}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join([_field(v) for v in row]))
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_csv())

    @property
    def failed_points(self) -> int:
        if "error" not in self.columns:
            return 0
        k = self.columns.index("error")
        return sum(1 for row in self.rows if row[k])

    def dicts(self):
        for row in self.rows:
            yield dict(zip(self.columns, row))

    @classmethod
    def from_csv(cls, text: str) -> "ResultTable":
        """Parse to_csv output: ``# key=value`` comments, then the header and rows."""
        meta = {}
        body: list[str] = []
        lines = iter(text.splitlines(keepends=True))
        for line in lines:
            if line.startswith("#"):
                k, sep, v = line[1:].strip().partition("=")
                if sep:
                    meta[k.strip()] = v.strip()
            elif line.strip():
                body = [line, *lines]
                break
        records = [rec for rec in csv.reader(body) if rec and not rec[0].startswith("#")]
        if not records:
            raise ConfigError("no header row in CSV")
        columns, *data = records
        return cls(columns, [tuple(_parse(tok) for tok in rec) for rec in data], meta)


def _aggregate_rows(prefix: tuple, samples: dict[str, np.ndarray], columns_after: int = 0):
    """Mean / stderr / n rows for the measure columns of one sweep point."""
    names = list(samples)
    n = len(next(iter(samples.values()))) if samples else 0
    mean = tuple(float(np.mean(samples[m])) for m in names)
    if n > 1:
        err = tuple(float(np.std(samples[m], ddof=1) / np.sqrt(n)) for m in names)
    else:
        err = tuple(0.0 for _ in names)
    pad = ("",) * columns_after
    return [
        prefix + ("mean",) + mean + pad,
        prefix + ("stderr",) + err + pad,
        prefix + ("n",) + tuple(n for _ in names) + pad,
    ]


# ---------------------------------------------------------------------------
# mode runners

def _static_structure(config: ExperimentConfig, n_sys: int, n_env: int, with_theory: bool):
    """({lam: {beta: {measure: samples} or beta's error text} or lam's error text}, closed forms).

    The closed forms are {beta: (sigma, delta)}, None without theory, or
    the text of their refusal (a part above the dense cap), which leaves
    the samples standing.  H_S is solved once.  Consecutive lambda values
    share a pass until their sector eigenvectors reach _PASS_BYTES; a
    lambda without a spectrum ends its pass, sharing the draws of the
    exact lambdas before it.  Each realization is drawn once per pass and
    measured at every lambda and beta of it (observe.thermal_measures), so
    lambda points share random states by construction.  A beta that the
    Chebyshev guard refuses in any block is that beta's error alone.
    Blocks hold _BLOCK_AMPLITUDES, a cache's worth, or
    _COUPLED_BLOCK_AMPLITUDES in a pass with a coupled exact point, for its
    sector GEMMs.  An exact pass
    pads a partial block to a multiple of 4 columns (at most a full block)
    with copies of its last realization and drops their rows: BLAS treats
    a block's last k mod 4 rows and columns apart, so each realization
    keeps its bits whatever n_realizations is.  A lambda without a
    spectrum projects only the k drawn columns.  The closed forms read the
    first uncoupled (H_E, H_S) pair a pass solved, else solve the parts.
    """
    base = config.build_model(n_sys, n_env, config.lambda_list[0])
    hs_spec = diagonalize(base, SYSTEM)
    n_real = config.realizations(base.n_spins)
    key = config.structure_key(n_sys, n_env)
    results, pending, inputs0 = {}, list(config.lambda_list), None

    def run_pass():
        # a call per pass, so its models and spectra are dropped before the next one
        nonlocal inputs0
        points, held = [], 0
        while pending and (not points or held < _PASS_BYTES):
            lam = pending.pop(0)
            try:
                model = config.build_model(n_sys, n_env, lam)
                spectrum = projection_spectrum(model, config.method)
            except SpinBathError as exc:
                results[lam] = str(exc)
                continue
            if with_theory and inputs0 is None and spectrum is not None and len(spectrum) == 2:
                inputs0 = theory.PredictionInputs(thermo(spectrum[1]), thermo(spectrum[0]), 0.0)
            points.append((lam, model, spectrum))
            results[lam] = {beta: {m: np.empty(n_real) for m in ("sigma", "delta", "b", "delta_fit")}
                            for beta in config.beta_list}
            held += _PASS_BYTES if spectrum is None else sum(
                s.eigenvectors.nbytes for factor in spectrum for s in factor.sectors)
        spectra = [spectrum for _, _, spectrum in points]
        coupled = any(s is not None and len(s) == 1 for s in spectra)
        block_columns = max(1, (_COUPLED_BLOCK_AMPLITUDES if coupled else _BLOCK_AMPLITUDES) // base.dim)
        exact = any(s is not None for s in spectra)     # only exact lambdas read the padding
        for start in range(0, n_real if points else 0, block_columns):
            k = min(block_columns, n_real - start)
            block = np.empty((base.dim, min(-(-k // 4) * 4, block_columns) if exact else k), dtype=complex)
            for j in range(k):
                block[:, j] = random_state(base.dim, realization_seed(config.master_seed, key, start + j))
            block[:, k:] = block[:, k - 1:k]
            for lam, model, spectrum in points:
                if isinstance(results[lam], str):
                    continue
                try:
                    states = block if spectrum is not None else block[:, :k]
                    reports = observe.thermal_measures(model, states, config.beta_list, spectrum, hs_spec)
                    for beta in config.beta_list:
                        try:
                            rep = next(reports)
                        except ChebyshevOrderError as exc:
                            results[lam][beta] = str(exc)
                            continue
                        if not isinstance(results[lam][beta], str):
                            for name, values in results[lam][beta].items():
                                values[start:start + k] = getattr(rep, name)[:k]
                except SpinBathError as exc:
                    results[lam] = str(exc)

    while pending:
        run_pass()
    if not with_theory:
        return results, None
    if inputs0 is None:
        try:
            inputs0 = theory.prediction_inputs(base, 0.0)     # part spectra do not depend on lam
        except SpinBathError as exc:
            return results, str(exc)
    closed = {}
    for beta in config.beta_list:
        inp = replace(inputs0, beta=beta)
        closed[beta] = (float(np.sqrt(theory.sigma2_full(inp))), float(np.sqrt(theory.delta2_full(inp))))
    return results, closed


def _run_static(config: ExperimentConfig, with_theory: bool) -> ResultTable:
    columns = ["n_sys", "n_env", "lam", "beta", "realization",
               "sigma", "delta", "b", "delta_fit"]
    if with_theory:
        columns += ["theory_sigma", "theory_delta"]
    columns += ["error"]
    extra = ("",) * (len(columns) - 9)
    rows = []
    for ns in config.n_sys_list:
        for ne in config.n_env_list:
            try:
                results, closed = _static_structure(config, ns, ne, with_theory)
            except SpinBathError as exc:
                results, closed = dict.fromkeys(config.lambda_list, str(exc)), None
            for lam in config.lambda_list:
                for beta in config.beta_list:
                    prefix = (ns, ne, lam, beta)
                    measured = results[lam] if isinstance(results[lam], str) else results[lam][beta]
                    if isinstance(measured, str):
                        rows.append(prefix + ("error",) + ("",) * (len(columns) - 6) + (measured,))
                        continue
                    samples = zip(*(values.tolist() for values in measured.values()))
                    rows.extend(prefix + (r, *values) + extra for r, values in enumerate(samples))
                    agg = _aggregate_rows(prefix, measured, columns_after=len(extra))
                    if with_theory:
                        agg[0] = agg[0][:-3] + (("", "", closed) if isinstance(closed, str)
                                                else closed[beta] + ("",))
                    rows.extend(agg)
    return ResultTable(columns, rows, {"mode": config.mode, "master_seed": config.master_seed})


def _run_time_trace(config: ExperimentConfig) -> ResultTable:
    if len(config.n_sys_list) != 1 or len(config.n_env_list) != 1 \
            or len(config.lambda_list) != 1 or len(config.beta_list) != 1:
        raise ConfigError("time_trace expects single-valued sweep axes")
    n_sys, n_env = config.n_sys_list[0], config.n_env_list[0]
    lam, beta = config.lambda_list[0], config.beta_list[0]
    j_ref = abs(config.j_system if config.model == "ring" else config.j_iso) or 1.0
    t_burn = config.t_burn if config.t_burn is not None else min(300.0 / j_ref, config.t_max / 2)
    columns = ["t", "sigma", "delta", "b", "error"]
    meta = {"mode": config.mode, "initial_state": config.initial_state,
            "beta": beta, "lam": lam, "t_burn": t_burn}
    try:
        trace = time_trace(config, realization_seed(config.master_seed,
                                                    config.structure_key(n_sys, n_env), 0))
    except SpinBathError as exc:
        return ResultTable(columns, [("error", "", "", "", str(exc))], meta)
    rows = [(t, s, d, b, "") for (t, s, d, b) in trace]
    late = [(s, d, b) for (t, s, d, b) in trace if t > t_burn]
    if len(late) > 1:
        arr = np.array(late)
        rows.append(("mean", *(float(v) for v in arr.mean(axis=0)), ""))
        rows.append(("stddev", *(float(v) for v in arr.std(axis=0, ddof=1)), ""))
        rows.append(("n", len(late), len(late), len(late), ""))
    return ResultTable(columns, rows, meta)


def time_trace(config: ExperimentConfig, seed):
    """(t, sigma, delta, b) rows of a time_trace config's one point.

    The one driver of a time trace: the caller chooses the key its random
    start is drawn from (a sweep's is realization 0 of its structure).  The
    start is projected at beta by one canonical_thermal_state call on
    ``start``: the model itself for the X state, H_E (x) 1_S (the model
    without system and coupling bonds) for the product state, whose
    environment it makes thermal.  Both the projection and the trace run on
    Chebyshev over lanczos_bounds, which solve no eigenvalue problem.  The
    start's bounds follow the method: None ("chebyshev", or "auto" past
    EXACT_AUTO_DIM) projects on Gershgorin bounds.  The X state traces on
    the same bounds.  The product state's start has H_E's bounds, from
    Lanczos on 2^n_E amplitudes; its trace adds H_S's ends and lam times
    H_SE's Gershgorin bounds to them (Weyl), which costs no run on 2^N
    amplitudes.  H_S is diagonalized for the measures.
    """
    (n_sys,), (n_env,), (lam,), (beta,) = (config.n_sys_list, config.n_env_list,
                                           config.lambda_list, config.beta_list)
    model = config.build_model(n_sys, n_env, lam)
    hs_spec = diagonalize(model, SYSTEM)
    if config.initial_state == "x":
        start, psi0 = model, random_state(model.dim, seed)
    else:
        start = replace(model, system_bonds=(), coupling_bonds=())
        psi0 = alternating_product_state(model, seed)
    bounds = lanczos_bounds(start, config.method)
    states, = canonical_thermal_state(start, psi0[:, None], [beta], bounds=bounds)
    if start is not model and bounds is not None:
        # Weyl: H = (H_E + H_S) + lam H_SE, whose ends are at most the parts' ends added
        c_min, c_max = sorted(lam * b for b in energy_bounds(model, COUPLING))
        bounds = (bounds[0] + hs_spec.eigenvalues[0] + c_min, bounds[1] + hs_spec.eigenvalues[-1] + c_max)
    return observe.trace_time_series(model, states[:, 0], config.t_max, config.dt,
                                     hs_spec, beta_ref=beta, bounds=bounds)


def _run_symmetry(config: ExperimentConfig) -> ResultTable:
    columns = ["n_sys", "n_env", "beta", "trace_a", "trace_b", "rel_a", "rel_b", "error"]
    rows = []
    for ns in config.n_sys_list:
        for ne in config.n_env_list:
            try:
                model = config.build_model(ns, ne, config.lambda_list[0])
                traces = first_order_symmetry_trace(model, config.beta_list,
                                                    identity_shift=config.identity_shift)
                for beta, tr in zip(config.beta_list, traces):
                    rel_a, rel_b = tr.relative
                    rows.append((ns, ne, beta, tr.trace_a, tr.trace_b, rel_a, rel_b, ""))
            except SpinBathError as exc:
                rows.append((ns, ne, "", "", "", "", "", str(exc)))
    return ResultTable(columns, rows, {"mode": config.mode,
                                       "identity_shift": config.identity_shift})


def _run_normalization(config: ExperimentConfig) -> ResultTable:
    if len(config.beta_list) != 1:
        raise ConfigError("normalization_diag expects a single-valued beta axis")
    columns = ["n_sys", "n_env", "beta", "realization", "diff", "error"]
    rows = []
    beta = config.beta_list[0]
    for ns in config.n_sys_list:
        for ne in config.n_env_list:
            try:
                model = config.build_model(ns, ne, 0.0)
                n_real = config.n_realizations or 32
                key = config.structure_key(ns, ne)
                diffs = normalization_diagnostic(model, beta, n_real,
                                                 (config.master_seed, *key))
                for r, d in enumerate(diffs):
                    rows.append((ns, ne, beta, r, float(d), ""))
                rows.append((ns, ne, beta, "median", float(np.median(diffs)), ""))
                rows.extend(_aggregate_rows((ns, ne, beta), {"diff": diffs}, columns_after=1))
            except SpinBathError as exc:
                rows.append((ns, ne, beta, "error", "", str(exc)))
    return ResultTable(columns, rows, {"mode": config.mode, "beta": beta})


def _run_moments(config: ExperimentConfig) -> ResultTable:
    if len(config.n_sys_list) != 1 or len(config.n_env_list) != 1:
        raise ConfigError("moment_check expects single-valued n_sys and n_env axes")
    columns = ["dim", "n_draws", "moment", "estimate", "stderr", "reference",
               "deviation_se", "error"]
    ns, ne = config.n_sys_list[0], config.n_env_list[0]
    dim = 2 ** (ns + ne)
    try:
        # checked before any draw: a 2^N-amplitude state is allocated per draw
        if not 1 <= ns + ne <= DEFAULT_SIZE_CAP:
            raise ModelError(f"moment_check needs 1 <= N <= {DEFAULT_SIZE_CAP}, got N = {ns + ne}")
        mc = moment_check(dim, config.n_draws, config.master_seed)
    except SpinBathError as exc:
        return ResultTable(columns, [(dim, config.n_draws, "error", "", "", "", "", str(exc))],
                           {"mode": config.mode})
    dev = mc.deviations()
    rows = [
        (dim, config.n_draws, "x", mc.mean_x, mc.stderr_x, mc.ref_x, dev[0], ""),
        (dim, config.n_draws, "x2", mc.mean_x2, mc.stderr_x2, mc.ref_x2, dev[1], ""),
        (dim, config.n_draws, "xx", mc.mean_xx, mc.stderr_xx, mc.ref_xx, dev[2], ""),
    ]
    return ResultTable(columns, rows, {"mode": config.mode})


def run(config: ExperimentConfig) -> ResultTable:
    """Execute a config and return the result table (deterministic per seeds)."""
    if config.mode in ("static_measure", "theory_overlay"):
        return _run_static(config, with_theory=config.mode == "theory_overlay")
    if config.mode == "time_trace":
        return _run_time_trace(config)
    if config.mode == "symmetry_check":
        return _run_symmetry(config)
    if config.mode == "normalization_diag":
        return _run_normalization(config)
    return _run_moments(config)


# ---------------------------------------------------------------------------
# analysis helpers

def sigma2_excess(table: ResultTable, lam_ref: float = 0.0):
    """Coupling-induced shift of sigma^2 from paired sample rows.

    For every (n_sys, n_env, beta, lam != lam_ref) sweep point, forms the
    per-realization difference sigma^2(lam) - sigma^2(lam_ref) against the
    matching realization of the lam_ref point (the realizations share random
    states by the seed discipline) and returns
    {(n_sys, n_env, beta, lam): (mean, stderr, n)}.

    At desk-scale environment sizes the raw sigma is dominated by the
    uncoupled value; this paired shift is the lambda-sensitive quantity whose
    magnitude reproduces the quadratic-in-lambda / cubic-in-beta growth of
    the coupled-regime plateau.
    """
    samples: dict = {}
    for row in table.dicts():
        if not isinstance(row["realization"], (int, np.integer)):
            continue
        point = (row["n_sys"], row["n_env"], row["beta"], row["lam"])
        samples.setdefault(point, {})[row["realization"]] = row["sigma"] ** 2
    out = {}
    for (ns, ne, beta, lam), vals in sorted(samples.items()):
        if lam == lam_ref:
            continue
        base = samples.get((ns, ne, beta, lam_ref))
        if base is None:
            raise ValueError(f"no lam = {lam_ref} baseline for point {(ns, ne, beta)}")
        common = sorted(set(vals) & set(base))
        diffs = np.array([vals[r] - base[r] for r in common])
        mean = float(diffs.mean())
        err = float(diffs.std(ddof=1) / np.sqrt(len(diffs))) if len(diffs) > 1 else 0.0
        out[(ns, ne, beta, lam)] = (mean, err, len(diffs))
    return out


def fit_power_law(xs, ys, errs, snr_min: float = 2.0):
    """Log-log slope of |y| vs x, dropping points with |y| < snr_min * err.

    Returns (exponent, n_used).  Signed y values are allowed; only the
    magnitude enters the fit (the paired sigma^2 shift may be negative at
    finite size).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    errs = np.asarray(errs, dtype=float)
    keep = np.abs(ys) > snr_min * errs
    if keep.sum() < 2:
        raise ValueError("fewer than two points above the noise floor")
    slope, _ = np.polyfit(np.log(xs[keep]), np.log(np.abs(ys[keep])), 1)
    return float(slope), int(keep.sum())


# ---------------------------------------------------------------------------
# gnuplot export

def plot_export(table: ResultTable):
    """Column-documented gnuplot data blocks plus a plotting script.

    Returns (data_text, script_text); nothing is rendered here.  Static
    tables group aggregate rows into one block per (n_sys, n_env, lam) curve
    over beta; trace tables export the series directly.  Tables of other
    modes have no such curves and are refused.  Byte-deterministic for a
    fixed table.
    """
    mode = table.meta.get("mode", "static_measure")
    if mode not in PLOT_MODES:
        raise ConfigError(f"cannot plot a {mode} table; plot supports {', '.join(PLOT_MODES)}")
    if mode == "time_trace":
        data = ["# spinbath trace: t sigma delta b"]
        for row in table.dicts():
            if isinstance(row["t"], str):
                continue
            data.append(f"{_fmt(row['t'])} {_fmt(row['sigma'])} {_fmt(row['delta'])} {_fmt(row['b'])}")
        script = (
            "set xlabel 't'\nset ylabel 'measure'\nset logscale y\n"
            "plot 'DATA' using 1:2 with lines title 'sigma', "
            "'DATA' using 1:3 with lines title 'delta'\n"
        )
        return "\n".join(data) + "\n", script
    blocks = []
    curves = []
    means: dict = {}
    errs: dict = {}
    theory_col = "theory_sigma" in table.columns
    for row in table.dicts():
        if row.get("realization") == "mean":
            key = (row["n_sys"], row["n_env"], row["lam"])
            means.setdefault(key, []).append(row)
        if row.get("realization") == "stderr":
            key = (row["n_sys"], row["n_env"], row["lam"])
            errs.setdefault(key, {})[row["beta"]] = row["sigma"]
    for key in sorted(means):
        ns, ne, lam = key
        lines = [f"# curve n_sys={ns} n_env={ne} lam={lam}",
                 "# beta sigma sigma_err delta" + (" theory_sigma theory_delta" if theory_col else "")]
        for row in sorted(means[key], key=lambda r: r["beta"]):
            err = errs.get(key, {}).get(row["beta"], 0.0)
            cols = [row["beta"], row["sigma"], err, row["delta"]]
            if theory_col:
                cols += [row.get("theory_sigma", ""), row.get("theory_delta", "")]
            lines.append(" ".join(_fmt(c) for c in cols))
        blocks.append("\n".join(lines))
        curves.append((len(blocks) - 1, key))
    plots = []
    for index, (ns, ne, lam) in curves:
        plots.append(f"'DATA' index {index} using 1:2:3 with yerrorbars title 'lam={lam}'")
        if theory_col:
            plots.append(f"'DATA' index {index} using 1:5 with lines title 'theory lam={lam}'")
    script = ("set xlabel 'beta'\nset ylabel 'sigma'\nset logscale xy\n"
              "plot " + ", \\\n     ".join(plots) + "\n")
    return "\n\n\n".join(blocks) + "\n", script


def write_plot(table: ResultTable, prefix: str):
    """Write plot_export's data and script to <prefix>.dat and <prefix>.gp.

    The script names its data file without a directory, so gnuplot runs
    beside the two files.  Returns their paths; a refused table writes
    nothing.
    """
    data, script = plot_export(table)
    dat_path, gp_path = Path(prefix + ".dat"), Path(prefix + ".gp")
    dat_path.write_text(data)
    gp_path.write_text(script.replace("DATA", dat_path.name))
    return dat_path, gp_path
