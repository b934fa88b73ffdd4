"""Per-layer tracing of eseem from outside the package.

A :class:`Tracer` replaces the public functions of each eseem module with
wrappers that record one span per call (name, start, end, parent, run id).
Because ``from .x import y`` binds ``y`` in the importing module, every
module attribute that holds the original function is replaced, not only
the defining one, and every replaced attribute is put back on exit.

Spans live in memory; :func:`layer_metrics` turns the spans of one traced
pass into per-layer self times and counts.  A span's self time is its
duration minus the time its direct child spans cover (calls are nested on
one thread, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from contextlib import contextmanager
from time import perf_counter

# layer -> the functions wrapped in it (looked up in eseem.<layer>)
LAYERS = {
    "cli": ("main",),
    "config": ("parse_config", "load_preset"),
    "engine": ("run_two_pulse_echo", "free_evolution", "validate_aht"),
    "pulses": ("rotation_operator", "electron_rotation", "composite_pi"),
    "spinops": ("expm_hermitian",),
    "hamiltonians": ("h0_lab", "h_avg0", "h_avg1", "h_rot_t"),
    "ensemble": ("average_trace", "average_analytic_outer",
                 "averaged_component_weights", "i1_i2_ratio", "apply_t2"),
    "analytic": ("coefficients", "v_outer", "v_center", "v_general",
                 "general_s_weights"),
    "spectral": ("fft_magnitude", "find_peaks", "fit_decay"),
    "fileio": ("write_trace_csv", "write_spectrum_csv", "read_trace_csv",
               "read_spectrum_csv"),
    "validation": ("run_checks",),
}

ENGINES = ("average-hamiltonian", "exact-lab-frame", "stepped-rotating-frame")

_ENGINE = "run_s on trace-grid; on preset-pipeline through ensemble"
_PRESET = "item_p50_s on preset-pipeline"
_SPECTRAL = "item_p50_s on preset-pipeline; run_s on validate-suite"
# per-layer metric -> the end-to-end metric (and workload) it should move
MOVES = {
    "config.parse_s": "setup_s on every workload",
    "cli.self_s": _PRESET,
    "engine.self_s": _ENGINE,
    "engine.calls": _ENGINE + "; points/calls ~48 on validate-suite",
    "engine.points": _ENGINE,
    **{f"engine.us_per_point.{e}": "run_s on trace-grid" for e in ENGINES},
    "pulses.self_s": _PRESET + "; near zero on trace-grid",
    "pulses.calls": _PRESET,
    "spinops.self_s": _PRESET,
    "spinops.calls": _PRESET,
    "hamiltonians.self_s": "run_s on trace-grid (stepped engine) and on "
                           "validate-suite (aht checks)",
    "hamiltonians.calls": "run_s on trace-grid and validate-suite",
    "ensemble.self_s": "run_s on preset-pipeline and validate-suite; "
                       "absent on trace-grid",
    "ensemble.nodes": "run_s on preset-pipeline and validate-suite",
    "ensemble.node_traces": "run_s on preset-pipeline and validate-suite",
    "analytic.self_s": "run_s on validate-suite",
    "analytic.calls": "run_s on validate-suite",
    "spectral.fft_s": _SPECTRAL,
    "spectral.peaks_s": _SPECTRAL,
    "spectral.fit_s": _SPECTRAL,
    "spectral.fit_nfev": _SPECTRAL,
    "spectral.fit_converged_ratio": _SPECTRAL,
    "fileio.write_s": _PRESET,
    "fileio.read_s": _PRESET,
    "fileio.bytes_written": _PRESET,
    "validation.self_s": "run_s on validate-suite",
    **{f"validation.check_s.{c}": "run_s on validate-suite" for c in (
        "analytic.engine-grid", "ensemble.composite", "spectral.fit-engine",
        "aht.engine-agreement")},
    "trace.run_s": "none: the traced run_s that layer self times and "
                   "trace.unattributed_s add up to",
    "trace.overhead_s": "none: traced minus untraced run_s",
    "trace.unattributed_s": "none: traced run time inside no layer span",
}


def _path_arg(args, kwargs):
    return kwargs["path"] if "path" in kwargs else args[0]


# function -> (args, kwargs, result) -> (tag, work), read after the span ends
_ANNOTATE = {
    "run_two_pulse_echo": lambda a, k, r: (r.metadata["engine"], r.tau_s.size),
    "average_trace": lambda a, k, r: (None, int(r.metadata["nodes"])),
    "fit_decay": lambda a, k, r: ("converged" if r.converged else "failed",
                                  r.n_evaluations),
    "write_trace_csv": lambda a, k, r: (None, os.path.getsize(_path_arg(a, k))),
    "write_spectrum_csv": lambda a, k, r: (None,
                                           os.path.getsize(_path_arg(a, k))),
}


class Span:
    __slots__ = ("layer", "func", "start", "end", "parent", "run_id", "tag",
                 "work")

    def __init__(self, layer, func, start, end, parent, run_id, tag=None,
                 work=0):
        self.layer = layer
        self.func = func
        self.start = start
        self.end = end
        self.parent = parent
        self.run_id = run_id
        self.tag = tag
        self.work = work

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.func}"

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.run_id,
                self.tag, self.work]


class Tracer:
    """Records spans of wrapped eseem calls while :meth:`installed` is
    active.  ``run_id`` is set by the caller before each item."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []

    def _wrap(self, layer: str, func: str, fn):
        annotate = _ANNOTATE.get(func)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(layer, func, perf_counter(), 0.0,
                        stack[-1] if stack else -1, self.run_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if annotate is not None:
                span.tag, span.work = annotate(args, kwargs, result)
            return result

        traced.__bench_traced__ = True
        return traced

    @contextmanager
    def installed(self):
        """Wrap every listed function wherever an eseem module binds it;
        restore every replaced attribute on exit."""
        homes = {layer: importlib.import_module(f"eseem.{layer}")
                 for layer in LAYERS}
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "eseem" or name.startswith("eseem."))
                   and m is not None]
        replaced = []
        try:
            for layer, funcs in LAYERS.items():
                for func in funcs:
                    original = getattr(homes[layer], func)
                    wrapper = self._wrap(layer, func, original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                replaced.append((module, attr, original))
                                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Self time of each span: its duration minus its children's."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def layer_metrics(spans: list[Span], first: int, stop: int,
                  run_s: float) -> dict:
    """Per-layer figures of one traced pass.

    ``spans`` is the tracer's whole list and ``spans[first:stop]`` the
    pass's spans (parents index the whole list).  ``run_s`` is the pass's
    wall time; the part no root span covers is unattributed.
    """
    own_all = self_times(spans)
    out = {f"{layer}.{kind}": 0.0 for layer in LAYERS
           for kind in ("self_s", "calls")}
    for key in ("engine.points", "ensemble.nodes", "ensemble.node_traces",
                "spectral.fft_s", "spectral.peaks_s", "spectral.fit_s",
                "spectral.fit_nfev", "fileio.write_s", "fileio.read_s",
                "fileio.bytes_written"):
        out[key] = 0.0
    engine_s = dict.fromkeys(ENGINES, 0.0)
    engine_points = dict.fromkeys(ENGINES, 0)
    fits = converged = 0
    covered = 0.0
    for k in range(first, stop):
        s, own = spans[k], own_all[k]
        out[f"{s.layer}.self_s"] += own
        out[f"{s.layer}.calls"] += 1
        if s.parent < 0:
            covered += s.end - s.start
        if s.func == "run_two_pulse_echo":
            out["engine.points"] += s.work
            engine_s[s.tag] += own
            engine_points[s.tag] += s.work
            if s.parent >= 0 and spans[s.parent].func == "average_trace":
                out["ensemble.node_traces"] += 1
        elif s.func == "average_trace":
            out["ensemble.nodes"] += s.work
        elif s.func == "fft_magnitude":
            out["spectral.fft_s"] += own
        elif s.func == "find_peaks":
            out["spectral.peaks_s"] += own
        elif s.func == "fit_decay":
            out["spectral.fit_s"] += own
            out["spectral.fit_nfev"] += s.work
            fits += 1
            converged += s.tag == "converged"
        elif s.layer == "fileio":
            if s.func.startswith("write"):
                out["fileio.write_s"] += own
                out["fileio.bytes_written"] += s.work
            else:
                out["fileio.read_s"] += own
    for engine in ENGINES:
        out[f"engine.us_per_point.{engine}"] = (
            1e6 * engine_s[engine] / engine_points[engine]
            if engine_points[engine] else 0.0)
    out["spectral.fit_converged_ratio"] = converged / fits if fits else 0.0
    out["config.parse_s"] = out["config.self_s"]
    out["trace.run_s"] = run_s
    out["trace.unattributed_s"] = run_s - covered
    return out
