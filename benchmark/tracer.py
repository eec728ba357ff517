"""Outside-in span tracer for the spinbath layers.

The tracer never edits the package.  It replaces each traced public
function, at every loaded module that binds it by name, with a wrapper that
records a span (name, parent span, start, end, attributes).  Spans stay in
memory until the sweep ends; ``layer_metrics`` then turns them into the
per-layer numbers.  A function found at no binding, or a layer the workload
exercises that records no calls, fails the traced run instead of reading
zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import warnings

FLOOR_WARNING = "reduced density diagonal floored"

# (defining module, attribute, span name); a span's layer is the text
# before the first dot
TARGETS = (
    ("spinbath.spectrum", "diagonalize", "spectrum.diagonalize"),
    ("spinbath.spectrum", "dense_matrix", "spectrum.dense_matrix"),
    ("scipy.linalg", "eigh", "spectrum.eigh"),
    ("scipy.linalg", "eigvalsh", "spectrum.eigh"),
    ("spinbath.hamiltonian", "apply_hamiltonian", "hamiltonian.apply"),
    ("spinbath.hamiltonian", "energy_bounds", "hamiltonian.energy_bounds"),
    ("spinbath.propagate", "random_state", "propagate.random_state"),
    ("spinbath.propagate", "real_matmul", "propagate.real_matmul"),
    ("spinbath.propagate", "canonical_thermal_state", "propagate.thermal_state"),
    ("spinbath.propagate", "imaginary_time_plan", "propagate.imag_plan"),
    ("spinbath.propagate", "real_time_plan", "propagate.real_plan"),
    ("spinbath.propagate", "evolve_real_time", "propagate.evolve"),
    ("spinbath.observe", "measure_state", "observe.measure"),
    ("spinbath.observe", "reduce_to_system", "observe.reduce"),
    ("spinbath.observe", "trace_time_series", "observe.trace_time_series"),
    ("spinbath.theory", "prediction_inputs", "theory.prediction"),
    ("spinbath.theory", "sigma2_full", "theory.prediction"),
    ("spinbath.theory", "delta2_full", "theory.prediction"),
    ("spinbath.bench", "run", "bench.run"),
)

# bindings named in the benchmark's documentation; each must be found
EXPECTED_BINDINGS = (
    "spinbath.spectrum.diagonalize", "spinbath.propagate.diagonalize",
    "spinbath.observe.diagonalize", "spinbath.theory.diagonalize",
    "spinbath.bench.diagonalize",
    "spinbath.bench.random_state", "spinbath.bench.real_matmul",
    "spinbath.bench.canonical_thermal_state",
    "spinbath.propagate.apply_hamiltonian", "spinbath.propagate.imaginary_time_plan",
    "spinbath.observe.evolve_real_time", "spinbath.observe.real_time_plan",
    "scipy.linalg.eigh",
)

def _n_bonds(model, part) -> int:
    if part == "S":
        return len(model.system_bonds)
    if part == "E":
        return len(model.env_bonds)
    if part == "SE":
        return len(model.coupling_bonds)
    return len(model.system_bonds) + len(model.env_bonds) + len(model.coupling_bonds)


def _apply_attrs(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    part = args[1] if len(args) > 1 else kwargs["part"]
    columns = 1 if result.ndim == 1 else result.shape[1]
    return {"columns": columns, "amp_bonds": result.shape[0] * columns * _n_bonds(model, part)}


def _plan_attrs(args, kwargs, result):
    return {"order": result.order}


def _evolve_attrs(args, kwargs, result):
    plan = args[3] if len(args) > 3 else kwargs.get("plan")
    return {"order": plan.order} if plan is not None else {}


ATTRS = {
    "hamiltonian.apply": _apply_attrs,
    "propagate.imag_plan": _plan_attrs,
    "propagate.real_plan": _plan_attrs,
    "propagate.evolve": _evolve_attrs,
}


class Tracer:
    """Records spans as [id, parent id, name, start, end, attrs] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.bindings: list[str] = []
        self.floored_fits = 0
        self._stack: list[int] = []

    def span(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so every call records one span named ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0, None]
            spans.append(record)
            stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[4] = clock()
            if attrs is not None:
                record[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "spinbath" or n.startswith("spinbath."))]
        modules.append(importlib.import_module("scipy.linalg"))
        for module_name, attr, span_name in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self.span(span_name, original, ATTRS.get(span_name))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self.bindings.append(f"{module.__name__}.{name}")
        missing = sorted(set(EXPECTED_BINDINGS) - set(self.bindings))
        if missing:
            raise RuntimeError(f"traced functions not bound where expected: {missing}")

        from spinbath import bench, observe

        bench.ResultTable.to_csv = self.span(
            "bench.to_csv", bench.ResultTable.to_csv,
            lambda args, kwargs, text: {"bytes": len(text.encode())})
        fit_b = observe.fit_b

        @functools.wraps(fit_b)
        def counted_fit_b(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                b = fit_b(*args, **kwargs)
            floored = [w for w in caught if FLOOR_WARNING in str(w.message)]
            self.floored_fits += bool(floored)
            for w in caught:
                if w not in floored:
                    warnings.showwarning(w.message, w.category, w.filename, w.lineno)
            return b

        observe.fit_b = counted_fit_b

    def layer_metrics(self, spans: list) -> dict:
        """Per-layer metrics of a closed list of spans (parents precede children)."""
        duration = [s[4] - s[3] for s in spans]
        child = [0.0] * len(spans)
        for s, d in zip(spans, duration):
            if s[1] >= 0:
                child[s[1]] += d
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        attr_sum: dict[tuple, float] = {}
        for s, d, c in zip(spans, duration, child):
            name = s[2]
            if not _inside(spans, s, name):
                total[name] = total.get(name, 0.0) + d
            own[name] = own.get(name, 0.0) + d - c
            calls[name] = calls.get(name, 0) + 1
            for key, value in (s[5] or {}).items():
                attr_sum[(name, key)] = attr_sum.get((name, key), 0.0) + value

        def t(name):
            return total.get(name, 0.0)

        amp_bonds = attr_sum.get(("hamiltonian.apply", "amp_bonds"), 0.0)
        metrics = {
            "spectrum.eigh_s": t("spectrum.eigh"),
            "spectrum.gauge_s": own.get("spectrum.diagonalize", 0.0),
            "spectrum.dense_matrix_s": t("spectrum.dense_matrix"),
            "spectrum.diagonalize_s": t("spectrum.diagonalize"),
            "spectrum.diagonalize_calls": calls.get("spectrum.diagonalize", 0),
            "propagate.real_matmul_s": t("propagate.real_matmul"),
            "observe.measure_s": t("observe.measure"),
            "observe.measure_calls": calls.get("observe.measure", 0),
            "observe.reduce_s": t("observe.reduce"),
            "propagate.imag_order_sum": int(attr_sum.get(("propagate.imag_plan", "order"), 0)),
            "hamiltonian.apply_calls": calls.get("hamiltonian.apply", 0),
            "hamiltonian.apply_columns": int(attr_sum.get(("hamiltonian.apply", "columns"), 0)),
            "hamiltonian.apply_s": t("hamiltonian.apply"),
            "hamiltonian.ns_per_amp_bond":
                t("hamiltonian.apply") * 1e9 / amp_bonds if amp_bonds else 0.0,
            "hamiltonian.energy_bounds_s": t("hamiltonian.energy_bounds"),
            "propagate.thermal_state_s": t("propagate.thermal_state"),
            "propagate.plan_s": t("propagate.imag_plan") + t("propagate.real_plan"),
            "propagate.real_order_sum": _real_orders(spans),
            "propagate.evolve_calls": calls.get("propagate.evolve", 0),
            "propagate.evolve_s": t("propagate.evolve"),
            "propagate.random_state_s": t("propagate.random_state"),
            "theory.prediction_s": t("theory.prediction"),
            "bench.self_s": own.get("bench.run", 0.0),
            "bench.csv_s": t("bench.to_csv"),
            "bench.csv_bytes": int(attr_sum.get(("bench.to_csv", "bytes"), 0)),
            "observe.floored_fits": self.floored_fits,
        }
        return {"metrics": metrics, "calls": calls}


def _inside(spans, span, name) -> bool:
    """Whether some ancestor of ``span`` is a span named ``name``."""
    parent = span[1]
    while parent >= 0:
        if spans[parent][2] == name:
            return True
        parent = spans[parent][1]
    return False


def _real_orders(spans) -> int:
    """Chebyshev order summed over real-time steps.

    A step given its plan carries the order itself; a step that plans
    internally takes the order of the real-time plan span nested in it.
    """
    total = 0
    for s in spans:
        if s[2] == "propagate.evolve" and s[5]:
            total += s[5]["order"]
        elif s[2] == "propagate.real_plan" and s[1] >= 0 and spans[s[1]][2] == "propagate.evolve":
            total += s[5]["order"]
    return total
