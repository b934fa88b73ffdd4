"""Command-line interface.

Subcommands
-----------
simulate   propagate an echo experiment from a config file, write CSV traces
analytic   evaluate the closed-form modulation expressions on the tau grid
spectrum   transform a trace CSV into a magnitude spectrum plus peak report
sweep      grid over theta2 or sigma, tabulating component amplitudes
fit        fit a damped (two-cosine) decay model to a trace CSV
validate   run the full invariant suite

Exit codes: 0 success, 1 validation failure, 2 configuration error.

Importing the module loads the config layer (and what it builds on) only.
The parser loads ``spectral`` for its options' choices, and each handler
imports the layers its command uses, so ``fileio``, ``analytic``,
``svgplot`` and ``validation`` load only for the commands that need them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING

from .config import SCHEMA, ConfigError, RunConfig, load_preset, parse_config

if TYPE_CHECKING:
    from .engine import EchoExperiment

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2

# option caps: a sigma sweep row is one 41-node average (about 0.7 ms), and a
# trace at config.MAX_TAU_POINTS padded 64-fold is a 4.2 M-point FFT (64 MB)
MAX_SWEEP_POINTS = 1001
MAX_ZERO_PAD = 64


def _bounded(kind, lo, hi):
    """argparse ``type=`` parsing ``kind`` within [lo, hi]; NaN is outside."""
    def parse(text: str):
        value = kind(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"need {lo} to {hi}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse: "invalid int value: ..."
    return parse


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None) and getattr(args, "preset", None):
        raise ConfigError("config", "give either --config or --preset, not both")
    if getattr(args, "config", None):
        return parse_config(args.config)
    if getattr(args, "preset", None):
        return load_preset(args.preset)
    raise ConfigError("config", "one of --config or --preset is required")


def _out_path(base: str, m_i: float, multi: bool) -> Path:
    if not multi:
        return Path(base)
    p = Path(base)
    tag = f"_mi{m_i:+g}".replace("+", "p").replace("-", "m")
    return p.with_name(p.stem + tag + p.suffix)


def _maybe_svg(args, path: Path, x, y, xlabel, ylabel, title) -> None:
    if getattr(args, "svg", False):
        from .svgplot import write_line_svg
        write_line_svg(path.with_suffix(".svg"), x, y, xlabel, ylabel, title)


def _write_line_traces(args, average, title: str) -> int:
    """Write ``average(exp, distribution)`` for each detected line of the
    config: a CSV echoing it (its name tagged with the line when there are
    several), with ``--svg`` a plot, and a "wrote" line."""
    from .fileio import write_trace_csv

    cfg = _load_config(args)
    multi = len(cfg.experiments) > 1
    for exp in cfg.experiments:
        trace = average(exp, cfg.distribution)
        path = _out_path(args.out, exp.detect_m_i, multi)
        write_trace_csv(path, trace, extra_meta=cfg.echo)
        _maybe_svg(args, path, trace.tau_s * 1e6, trace.v, "tau (us)",
                   "echo amplitude", f"{title}, m_i={exp.detect_m_i:+g}")
        print(f"wrote {path}")
    return EXIT_OK


def _check_closed_form(exp: EchoExperiment) -> None:
    """Raise ``ConfigError`` unless the closed form describes ``exp``
    (:func:`~eseem.ensemble.closed_form_mismatch`)."""
    from .ensemble import closed_form_mismatch

    mismatch = closed_form_mismatch(exp)
    if mismatch:
        key, need = mismatch
        raise ConfigError(key, f"the closed form needs {need}; "
                               "simulate takes this run")


def cmd_simulate(args) -> int:
    from .ensemble import average_trace

    return _write_line_traces(args, average_trace, "two-pulse echo")


def cmd_analytic(args) -> int:
    from .analytic import coefficients, general_s_weights, v_general
    from .engine import EchoTrace
    from .ensemble import apply_t2, average_analytic
    from .hamiltonians import delta_hz

    def closed_form(exp: EchoExperiment, dist) -> EchoTrace:
        s, m_i, d = exp.system.s, exp.detect_m_i, delta_hz(exp.system)
        meta = {"model": "closed-form", "delta_hz": d, "m_i": m_i,
                "theta1_rad": exp.pulse1.angle,
                "theta2_rad": exp.pulse2.angle}
        if args.general_s:
            weights = general_s_weights(s)
            meta["general_s_weights"] = ",".join("%g" % w for w in weights)
            v = v_general(s, m_i, exp.tau_grid, d).real
        else:
            _check_closed_form(exp)
            co = coefficients(exp.pulse2.angle)
            meta.update({"a0": co.a0, "a1": co.a1, "a2": co.a2})
            v = average_analytic(exp, dist)
        trace = EchoTrace(tau_s=exp.tau_grid, v=v, metadata=meta)
        return trace if exp.t2_s is None else apply_t2(trace, exp.t2_s)

    return _write_line_traces(args, closed_form, "closed-form echo")


def cmd_spectrum(args) -> int:
    from .fileio import read_trace_csv, write_spectrum_csv
    from .spectral import fft_magnitude, find_peaks

    trace = read_trace_csv(args.trace)
    baseline = args.baseline
    if baseline == "auto":
        baseline = "exp" if trace.metadata.get("t2_s") is not None else "mean"
    spec = fft_magnitude(trace, window=args.window,
                         zero_pad_factor=args.zero_pad, baseline=baseline)
    peaks = find_peaks(spec, rel_threshold=args.threshold)
    out = Path(args.out)
    write_spectrum_csv(out, spec, extra_meta={
        "source": str(args.trace), "baseline": baseline,
        "rel_threshold": args.threshold,
        "peaks": ";".join(f"{f:.6g}:{m:.6g}" for f, m in peaks.peaks)})
    _maybe_svg(args, out, spec.freq_hz / 1e3, spec.magnitude,
               "modulation frequency (kHz)", "magnitude", "echo spectrum")
    report = {"peaks": [{"freq_hz": f, "magnitude": m} for f, m in peaks.peaks]}
    if args.json:
        print(json.dumps(report))
    else:
        print(f"wrote {out}")
        if peaks.peaks:
            for f, m in peaks.peaks:
                print(f"peak  {f / 1e3:10.3f} kHz  magnitude {m:.4g}")
        else:
            print("no peaks above threshold")
    return EXIT_OK


def cmd_sweep(args) -> int:
    import numpy as np

    from .ensemble import AngleDistribution, averaged_component_weights
    from .fileio import _write_table
    from .hamiltonians import delta_hz

    cfg = _load_config(args)
    exp = cfg.experiments[0]  # the lines share what a sweep reads
    _check_closed_form(exp)
    if args.param == "sigma_rad":
        allowed = SCHEMA["ensemble"]["sigma_rad"][2]
    else:
        # the table's (0, 360], closed at 0: a sweep may start from no
        # refocusing, where every weight is zero
        allowed = replace(SCHEMA["sequence"]["theta2_deg"][2], open_lo=False)
    for option in ("start", "stop"):
        if getattr(args, option) not in allowed:
            raise ConfigError(f"--{option}",
                              f"{args.param} must be in {allowed}")
    values = np.linspace(args.start, args.stop, args.num)
    rows = []
    for value in values:
        # a theta2 row is a fixed angle (its mean may be 0); a sigma row is
        # the configured ensemble at that width
        if args.param == "theta2_deg":
            dist = AngleDistribution(mean=np.deg2rad(value))
        else:
            dist = replace(cfg.distribution, sigma=float(value))
        w0, w1, w2 = averaged_component_weights(dist, exp.pulse1.angle)
        ratio = abs(w1) / abs(w2) if w2 != 0 else float("inf")
        rows.append((value, w0, w1, w2, ratio))
    _write_table(args.out, {"param": args.param,
                            "delta_hz": delta_hz(exp.system)},
                 [args.param, "w_const", "w_fundamental", "w_second_harmonic",
                  "ratio"], list(np.array(rows).T))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    from .fileio import read_trace_csv
    from .spectral import fit_decay

    trace = read_trace_csv(args.trace)
    result = fit_decay(trace, model=args.model)
    payload = {"model": result.model, "params": result.params,
               "residual_norm": result.residual_norm,
               "converged": result.converged,
               "n_evaluations": result.n_evaluations,
               "delta_resolved": result.delta_resolved}
    if args.json:
        print(json.dumps(payload))
    else:
        print(f"model: {result.model}")
        for key, value in result.params.items():
            mark = ""
            if key == "delta_hz" and not result.delta_resolved:
                cycle = 1.0 / (trace.tau_s[-1] - trace.tau_s[0])
                mark = f"  (unresolved: under one cycle, 1/T = {cycle:.4g} Hz)"
            print(f"  {key} = {value:.8g}{mark}")
        print(f"residual norm: {result.residual_norm:.4g}  "
              f"converged: {result.converged}")
    if not result.converged:
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_validate(args) -> int:
    from .validation import run_checks

    results = run_checks()
    failed = [r for r in results if not r.passed]
    if args.json:
        print(json.dumps([{
            "id": r.check_id, "description": r.description,
            "passed": r.passed, "measured": r.measured, "bound": r.bound,
            "seconds": round(r.seconds, 3)} for r in results]))
    else:
        for r in results:
            print(r.row())
        total = sum(r.seconds for r in results)
        print(f"{len(results) - len(failed)}/{len(results)} checks passed "
              f"in {total:.1f} s")
        if failed:
            print("failed: " + ", ".join(r.check_id for r in failed))
    return EXIT_VALIDATION if failed else EXIT_OK


@cache  # parse_args leaves the parser unchanged: one per process
def build_parser() -> argparse.ArgumentParser:
    from .spectral import BASELINES, FIT_MODELS, WINDOWS

    parser = argparse.ArgumentParser(
        prog="eseem",
        description="Two-pulse echo envelope modulation toolkit for "
                    "high-spin systems with isotropic hyperfine coupling")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_opts(p):
        p.add_argument("--config", help="run configuration file")
        p.add_argument("--preset", help="bundled preset name (e.g. nc60)")

    p_sim = sub.add_parser("simulate", help="run the density-matrix engines")
    add_config_opts(p_sim)
    p_sim.add_argument("--out", required=True, help="output trace CSV")
    p_sim.add_argument("--svg", action="store_true",
                       help="also write an SVG line plot")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analytic", help="evaluate closed-form expressions")
    add_config_opts(p_an)
    p_an.add_argument("--out", required=True)
    p_an.add_argument("--general-s", action="store_true",
                      help="use the general-S perfect-refocusing sum")
    p_an.add_argument("--svg", action="store_true")
    p_an.set_defaults(func=cmd_analytic)

    p_sp = sub.add_parser("spectrum", help="FFT a trace file and find peaks")
    p_sp.add_argument("trace", help="input trace CSV")
    p_sp.add_argument("--out", required=True, help="output spectrum CSV")
    p_sp.add_argument("--window", choices=WINDOWS, default="hann")
    p_sp.add_argument("--zero-pad", type=_bounded(int, 1, MAX_ZERO_PAD),
                      default=4)
    p_sp.add_argument("--baseline", choices=("auto",) + BASELINES,
                      default="auto",
                      help="DC removal: 'auto' fits an exponential when the "
                           "trace is T2-damped, else subtracts the mean")
    p_sp.add_argument("--threshold", type=_bounded(float, 0, 1), default=0.05,
                      help="relative peak threshold")
    p_sp.add_argument("--json", action="store_true")
    p_sp.add_argument("--svg", action="store_true")
    p_sp.set_defaults(func=cmd_spectrum)

    p_sw = sub.add_parser("sweep", help="grid over theta2 or sigma")
    add_config_opts(p_sw)
    p_sw.add_argument("--param", choices=["theta2_deg", "sigma_rad"],
                      required=True)
    p_sw.add_argument("--start", type=float, required=True)
    p_sw.add_argument("--stop", type=float, required=True)
    p_sw.add_argument("--num", type=_bounded(int, 1, MAX_SWEEP_POINTS),
                      default=25)
    p_sw.add_argument("--out", required=True)
    p_sw.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("fit", help="fit a decay model to a trace file")
    p_fit.add_argument("trace")
    p_fit.add_argument("--model", choices=FIT_MODELS,
                       default="exp-two-cosine")
    p_fit.add_argument("--json", action="store_true")
    p_fit.set_defaults(func=cmd_fit)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.add_argument("--json", action="store_true")
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
