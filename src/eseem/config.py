"""Run-configuration files: INI-style key/value blocks describing one
echo experiment, plus the bundled parameter presets.

Sections: ``[system]`` physical constants, ``[sequence]`` pulse angles and
model (angles in degrees, converted once at parse), ``[tau]`` the delay
grid, ``[run]`` engine/detection/decay choices, optional ``[ensemble]``
B1-inhomogeneity averaging.  Schema violations raise :class:`ConfigError`
carrying the dotted field path, which the CLI maps to exit code 2.

Two sizes are capped before anything is allocated (fixed limits, not
options): ``tau.points`` at ``MAX_TAU_POINTS`` = 65536, since a run keeps
about 4.6 KB of propagators and coherences per tau point (about 300 MB at
the cap), and ``ensemble.nodes`` at ``MAX_ENSEMBLE_NODES`` = 1001, since the
Gauss-Hermite rule builds a nodes x nodes matrix.  ``run.steps_per_period``
must be at least the engine's ``MIN_STEPS_PER_PERIOD``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .engine import ENGINES, MIN_STEPS_PER_PERIOD, EchoExperiment
from .ensemble import AngleDistribution
from .pulses import PulseSpec, composite_pi
from .spinops import projector_mi
from .system import SpinSystemParams

PRESET_NAMES = ("nc60", "nc60_mi_minus1", "nc60_mi_0", "nc60_composite")

# size caps, see the module docstring
MAX_TAU_POINTS = 65536
MAX_ENSEMBLE_NODES = 1001


class ConfigError(ValueError):
    """Invalid or missing configuration value; ``field`` is a dotted path."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


def _parse_spin(text: str) -> float:
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return float(num) / float(den)
    return float(text)


def _parse_spins(text: str) -> list[float]:
    return [_parse_spin(tok) for tok in text.split(",")]


def _parse_composite(text: str) -> tuple[tuple[float, float], ...] | None:
    """'none', 'cp3', or custom 'angle@phase,angle@phase,...' in degrees."""
    low = text.lower()
    if low == "none":
        return None
    if low == "cp3":
        return composite_pi().composite
    segments = []
    for part in text.split(","):
        angle, _, phase = part.partition("@")
        segments.append((np.deg2rad(float(angle)), np.deg2rad(float(phase))))
    return tuple(segments)


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(text)


# parser -> what a value it rejects is not
_KINDS = {float: "a number", int: "an integer", _parse_bool: "a boolean",
          _parse_spin: "a spin value",
          _parse_spins: "a comma-separated list of spin projections",
          _parse_composite: "'none', 'cp3' or 'angle_deg@phase_deg,...'"}


def _finite(value) -> bool:
    """Whether every float in ``value`` and its nested lists is finite."""
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


class _Section:
    """One config block with a typed, error-reporting accessor."""

    def __init__(self, name: str, items: dict[str, str]):
        self.name = name
        self.items = items

    def get(self, key: str, kind=str, default=None, required=False):
        """``key`` parsed by ``kind`` (``str`` or a key of ``_KINDS``), or
        ``default`` when it is unset; every number must be finite."""
        field_path = f"{self.name}.{key}"
        raw = self.items.get(key, "").strip()
        if raw == "":
            if required:
                raise ConfigError(field_path, "required value missing")
            return default
        try:
            value = kind(raw)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(field_path, f"not {_KINDS[kind]}: {raw!r}")
        if not _finite(value):
            raise ConfigError(field_path, f"must be finite: {raw!r}")
        return value


@dataclass
class RunConfig:
    """Parsed, validated configuration for one run."""

    system: SpinSystemParams
    pulse1: PulseSpec
    pulse2: PulseSpec
    tau_grid: np.ndarray
    detect_m_i: list[float]
    engine: str
    resonance_offset_hz: float | None
    t2_s: float | None
    distribution: AngleDistribution | None
    shared_b1: bool
    steps_per_period: int
    echo: dict = field(default_factory=dict)   # flattened raw items

    def experiment(self, m_i: float) -> EchoExperiment:
        return EchoExperiment(
            system=self.system, pulse1=self.pulse1, pulse2=self.pulse2,
            tau_grid=self.tau_grid, detect_m_i=m_i, engine=self.engine,
            resonance_offset_hz=self.resonance_offset_hz, t2_s=self.t2_s,
            steps_per_period=self.steps_per_period)


def parse_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError("file", f"cannot read {path}: {err}")
    except configparser.Error as err:
        raise ConfigError("file", f"cannot parse {path}: {err}")

    sections = {name: _Section(name, dict(parser[name]))
                for name in parser.sections()}
    for required in ("system", "sequence", "tau", "run"):
        if required not in sections:
            raise ConfigError(required, "required block missing")

    sys_sec = sections["system"]
    try:
        system = SpinSystemParams(
            s=sys_sec.get("s", _parse_spin, required=True),
            i=sys_sec.get("i", _parse_spin, required=True),
            a_hz=sys_sec.get("a_hz", float, required=True),
            f_e_hz=sys_sec.get("f_e_hz", float, required=True),
            f_i_hz=sys_sec.get("f_i_hz", float),
            g=sys_sec.get("g", float, default=2.0036),
            f_mw_hz=sys_sec.get("f_mw_hz", float),
        )
    except ValueError as err:
        if isinstance(err, ConfigError):
            raise
        raise ConfigError("system", str(err))

    seq = sections["sequence"]
    model = seq.get("pulse_model", default="ideal")
    theta1 = np.deg2rad(seq.get("theta1_deg", float, required=True))
    theta2 = np.deg2rad(seq.get("theta2_deg", float, required=True))
    phase1 = np.deg2rad(seq.get("phase1_deg", float, default=0.0))
    phase2 = np.deg2rad(seq.get("phase2_deg", float, default=0.0))
    composite = seq.get("composite", _parse_composite)
    try:
        pulse1 = PulseSpec(angle=theta1, phase=phase1, model=model,
                           duration_s=seq.get("t_p1_s", float))
        pulse2 = PulseSpec(angle=theta2, phase=phase2, model=model,
                           duration_s=seq.get("t_p2_s", float),
                           composite=composite)
    except ValueError as err:
        raise ConfigError("sequence", str(err))

    tau_sec = sections["tau"]
    start = tau_sec.get("start_s", float, required=True)
    stop = tau_sec.get("stop_s", float, required=True)
    points = tau_sec.get("points", int, required=True)
    if not 2 <= points <= MAX_TAU_POINTS:
        raise ConfigError("tau.points",
                          f"need 2 to {MAX_TAU_POINTS} points, got {points}")
    if not 0 <= start < stop:
        raise ConfigError("tau", "need 0 <= start_s < stop_s")
    tau_grid = np.linspace(start, stop, points)

    run = sections["run"]
    engine = run.get("engine", default="average-hamiltonian")
    if engine not in ENGINES:
        raise ConfigError("run.engine",
                          f"unknown engine {engine!r}; choose from {ENGINES}")
    detect_m_i = run.get("detect_m_i", _parse_spins, required=True)
    for m_i in detect_m_i:
        try:
            projector_mi(system.i, m_i)
        except ValueError as err:
            raise ConfigError("run.detect_m_i", str(err))
    t2_s = run.get("t2_s", float)
    if t2_s is not None and t2_s <= 0:
        raise ConfigError("run.t2_s", "must be positive")
    offset = run.get("resonance_offset_hz", float)
    if offset is not None and system.f_mw_hz is not None:
        raise ConfigError("run.resonance_offset_hz",
                          "give either this or system.f_mw_hz, not both")
    if offset is None and system.f_mw_hz is None:
        offset = 0.0
    steps = run.get("steps_per_period", int, default=40)
    if steps < MIN_STEPS_PER_PERIOD:
        raise ConfigError("run.steps_per_period",
                          f"need at least {MIN_STEPS_PER_PERIOD}, got {steps}")

    dist = None
    shared_b1 = False
    if "ensemble" in sections:
        ens = sections["ensemble"]
        sigma = ens.get("sigma_rad", float, default=0.0)
        nodes = ens.get("nodes", int, default=41)
        if nodes > MAX_ENSEMBLE_NODES:
            raise ConfigError("ensemble.nodes",
                              f"at most {MAX_ENSEMBLE_NODES}, got {nodes}")
        shared_b1 = ens.get("shared_b1", _parse_bool, default=False)
        try:
            if sigma > 0:
                dist = AngleDistribution(kind="gaussian", mean=pulse2.angle,
                                         sigma=sigma, nodes=nodes)
        except ValueError as err:
            raise ConfigError("ensemble", str(err))

    echo = {f"{sec}.{key}": value
            for sec, section in sections.items()
            for key, value in section.items.items()}
    return RunConfig(system=system, pulse1=pulse1, pulse2=pulse2,
                     tau_grid=tau_grid, detect_m_i=detect_m_i, engine=engine,
                     resonance_offset_hz=offset, t2_s=t2_s,
                     distribution=dist, shared_b1=shared_b1,
                     steps_per_period=steps, echo=echo)


def preset_path(name: str) -> Path:
    if name not in PRESET_NAMES:
        raise ConfigError("preset", f"unknown preset {name!r}; "
                                    f"choose from {PRESET_NAMES}")
    fname = "nc60_mi_minus1.cfg" if name == "nc60" else f"{name}.cfg"
    return Path(str(resources.files("eseem.presets").joinpath(fname)))


def load_preset(name: str) -> RunConfig:
    return parse_config(preset_path(name))
