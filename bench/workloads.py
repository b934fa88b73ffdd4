"""The benchmark's workloads and their output checks.

A workload is a list of units, each a call into eseem's public API timed on
its own; :meth:`evaluate` turns one unit's output into items, each with the
latency, a digest of the output (compared across passes and between traced
and untraced passes) and its worst error as a share of the tolerance the
code itself states.  A ratio above 1 fails the item.

Tolerances, each as stated by eseem's own checks:

* ``spectral.fit-engine``: fitted delta within 1 % of a^2/f_e;
* acceptance criterion 10: fitted T2 within 2 % on a non-ideal trace;
* acceptance criterion 3: spectrum peaks within 1 % of delta and 2 delta;
* ``analytic.engine-grid``: average-Hamiltonian trace within 1e-8 of the
  closed form;
* ``engine.center-flat``: average-Hamiltonian central line flat to 1e-9;
* ``aht.engine-agreement``: the exact and stepped engines' modulation
  frequency within 5 a/f_e of the closed form's.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

from inputs import Input, preset_inputs, trace_grid_inputs

DELTA_REL_TOL = 1e-2
T2_REL_TOL = 2e-2
PEAK_REL_TOL = 1e-2
AH_ABS_TOL = 1e-8
AH_FLAT_TOL = 1e-9
FREQ_REL_FACTOR = 5.0
# window for the fitted modulation frequency: wide enough to show a miss of
# the 5 a/f_e bound, narrow enough that the least-squares cost is unimodal
DELTA_FIT_WINDOW = 0.02


@dataclass
class ItemResult:
    item_id: str
    seconds: float
    digest: bytes
    ratio: float | None = None   # error / stated tolerance; None: none stated
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or (self.ratio is not None
                                          and bool(self.ratio > 1.0))


def v_outer_reference(tau, theta1, theta2, delta_hz):
    """Closed-form outer-line (m_i = +/-1) echo of S=3/2, I=1,
    2 sin(t1) sin^2(t2/2) [A0 + A1 cos(2 pi d tau) + A2 cos(4 pi d tau)],
    written out here so the check does not rest on the code it measures."""
    c2 = np.cos(theta2 / 2) ** 2
    s2 = np.sin(theta2 / 2) ** 2
    a0 = 1.0 - 6.0 * c2 + 13.5 * c2 * c2
    a1 = 6.0 * c2 * (2.0 - 3.0 * c2)
    a2 = 1.5 * s2 * (1.0 - 3.0 * c2)
    phase = 2.0 * np.pi * delta_hz * np.asarray(tau)
    return 2.0 * np.sin(theta1) * s2 * (a0 + a1 * np.cos(phase)
                                        + a2 * np.cos(2.0 * phase))


def fitted_delta_error(tau, v, theta1, theta2, delta_hz) -> float:
    """Relative error of the modulation frequency of ``v``: the delta that
    best fits v ~ k * v_outer(delta), with the scale k free."""

    def cost(d):
        model = v_outer_reference(tau, theta1, theta2, d)
        k = (model @ v) / (model @ model)
        return float(np.sum((v - k * model) ** 2))

    sol = minimize_scalar(cost, method="bounded",
                          bounds=(delta_hz * (1 - DELTA_FIT_WINDOW),
                                  delta_hz * (1 + DELTA_FIT_WINDOW)),
                          options={"xatol": 1e-9 * delta_hz})
    return abs(sol.x / delta_hz - 1.0)


def _without_timestamp(data: bytes) -> bytes:
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not line.startswith(b"# generated ="))


class Workload:
    """Base: subclasses set ``name`` and ``pass_seconds`` (the share of
    ``--seconds`` one pass stands for, which sizes a run), write their
    inputs and implement :meth:`units` and :meth:`evaluate`."""

    name = ""
    pass_seconds = 1.0

    def __init__(self, eseem, seed: int, workdir: Path):
        self.eseem = eseem
        self.workdir = workdir
        self.inputs: list[Input] = []
        self.config_paths: list[Path] = []

    def _write_inputs(self, inputs: list[Input]) -> None:
        self.inputs = inputs
        for inp in inputs:
            path = self.workdir / f"{inp.name}.cfg"
            path.write_text(inp.text)
            self.config_paths.append(path)

    def passes(self, seconds: float, traced: bool) -> int:
        """Passes per run, fixed by ``seconds`` alone (not by measured time)
        so that every commit does the same work; a traced run needs an
        untraced and a traced pass at least."""
        return max(2 if traced else 1, round(seconds / self.pass_seconds))

    def units(self) -> list[tuple[str, Callable[[], object]]]:
        raise NotImplementedError

    def evaluate(self, unit_id: str, output, seconds: float) -> list[ItemResult]:
        raise NotImplementedError


class PresetPipeline(Workload):
    """``eseem simulate``, ``spectrum`` and ``fit --json`` on seeded
    variants of each bundled preset, run in-process through ``cli.main``.
    A non-zero exit code (a fit that did not converge) fails the item."""

    name = "preset-pipeline"
    pass_seconds = 30.0

    def __init__(self, eseem, seed, workdir):
        super().__init__(eseem, seed, workdir)
        self._write_inputs(preset_inputs(seed))

    def _paths(self, name: str) -> tuple[Path, Path, Path]:
        return (self.workdir / f"{name}.cfg", self.workdir / f"{name}.csv",
                self.workdir / f"{name}_spectrum.csv")

    def units(self):
        return [(inp.name, lambda name=inp.name: self._chain(name))
                for inp in self.inputs]

    def _chain(self, name: str) -> list[tuple[int, str]]:
        cfg, trace, spectrum = (str(p) for p in self._paths(name))
        # the central line has no modulation to fit: the two-cosine model is
        # degenerate there and fails to converge on some variants, so it is
        # fitted with the plain decay model
        central = name.startswith("nc60_mi_0")
        out = []
        for argv in (["simulate", "--config", cfg, "--out", trace],
                     ["spectrum", trace, "--out", spectrum, "--json"],
                     ["fit", trace, "--json"]
                     + (["--model", "exp"] if central else [])):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.eseem.cli.main(argv)
            out.append((code, buf.getvalue()))
        return out

    def evaluate(self, unit_id, output, seconds):
        (inp,) = [i for i in self.inputs if i.name == unit_id]
        _, trace, spectrum = self._paths(unit_id)
        codes = [code for code, _ in output]
        if codes != [0, 0, 0]:
            return [ItemResult(unit_id, seconds, b"",
                               error=f"exit codes {codes}")]
        peaks = [p["freq_hz"] for p in json.loads(output[1][1])["peaks"]]
        fit = json.loads(output[2][1])
        digest = b"".join([_without_timestamp(trace.read_bytes()),
                           _without_timestamp(spectrum.read_bytes()),
                           output[1][1].encode(), output[2][1].encode()])
        p = inp.params
        d = p["delta_hz"]
        near = {f: [x for x in peaks if abs(x - f) <= PEAK_REL_TOL * f]
                for f in (d, 2 * d)}
        if p["m_i"] == 0:
            # flatness only: the plain decay fit's T2 is biased by ~2 % by
            # the exact engine's slow non-secular central-line modulation,
            # which no stated tolerance covers
            error = (f"central line shows modulation peaks {peaks}"
                     if near[d] or near[2 * d] else None)
            return [ItemResult(unit_id, seconds, digest, None, error)]
        ratio = max(abs(fit["params"]["t2_s"] - p["t2_s"]) / p["t2_s"]
                    / T2_REL_TOL,
                    abs(fit["params"]["delta_hz"] - d) / d / DELTA_REL_TOL)
        error = (None if near[2 * d]
                 else f"no spectrum peak within 1 % of 2 delta: {peaks}")
        return [ItemResult(unit_id, seconds, digest, ratio, error)]


class TraceGrid(Workload):
    """Single traces over seeded pulse angles, lines and offsets on each
    engine, read from generated config files."""

    name = "trace-grid"
    pass_seconds = 6.0      # ~4 s each; four passes suffice, it is steady

    def __init__(self, eseem, seed, workdir):
        super().__init__(eseem, seed, workdir)
        self._write_inputs(trace_grid_inputs(seed))

    def units(self):
        return [(inp.name, lambda path=path: self._trace(path))
                for inp, path in zip(self.inputs, self.config_paths)]

    def _trace(self, path: Path):
        cfg = self.eseem.config.parse_config(path)
        return self.eseem.engine.run_two_pulse_echo(
            cfg.experiment(cfg.detect_m_i[0]))

    def evaluate(self, unit_id, output, seconds):
        (inp,) = [i for i in self.inputs if i.name == unit_id]
        p = inp.params
        tau, v = output.tau_s, output.v
        digest = tau.tobytes() + v.tobytes()
        if not np.all(np.isfinite(v)):
            return [ItemResult(unit_id, seconds, digest, error="non-finite")]
        theta1, theta2 = np.deg2rad(p["theta1_deg"]), np.deg2rad(p["theta2_deg"])
        ratio = None
        if p["engine"] == "average-hamiltonian":
            if p["m_i"] == 0:
                # flatness only: the engine's central amplitude is
                # 5 sin(t1) sin^2(t2/2) while analytic.v_center states 2;
                # that known mismatch stays visible in tier-1 and is
                # neither asserted nor corrected here
                ratio = float(np.ptp(v)) / AH_FLAT_TOL
            else:
                ref = v_outer_reference(tau, theta1, theta2, p["delta_hz"])
                ratio = float(np.abs(v - ref).max()) / AH_ABS_TOL
        elif p["m_i"] != 0:
            ratio = fitted_delta_error(tau, v, theta1, theta2, p["delta_hz"]) \
                / (FREQ_REL_FACTOR * p["a_over_we"])
        # else: eseem states no bound for the exact engine's central line
        # (it carries a few-percent non-secular modulation), so that item is
        # checked for finite output and identical reruns only
        return [ItemResult(unit_id, seconds, digest, ratio)]


class ValidateSuite(Workload):
    """``eseem.validation.run_checks()``; each check is one item, timed by
    the program's own ``CheckResult.seconds`` (which include the speed
    probe's blocks, about 2 %).  The seed does not apply."""

    name = "validate-suite"
    pass_seconds = 6.0      # ~10 s each; four passes to steady its items

    def units(self):
        return [("run_checks", lambda: self.eseem.validation.run_checks())]

    def evaluate(self, unit_id, output, seconds):
        items = []
        for r in output:
            # ensemble.composite has a floor, not a ceiling
            ratio = None if r.check_id == "ensemble.composite" \
                else r.measured / r.bound
            items.append(ItemResult(
                r.check_id, r.seconds, repr((r.measured, r.bound)).encode(),
                ratio, None if r.passed else "check failed"))
        return items


WORKLOADS = {w.name: w for w in (PresetPipeline, TraceGrid, ValidateSuite)}
