"""Run-configuration files (INI-style blocks describing one echo
experiment) and the bundled parameter presets.

:data:`SCHEMA` lists every block and key with its kind, default and allowed
values; angles are in degrees and frequencies in Hz.  Any other block or
key, and any value outside the table, raises :class:`ConfigError` carrying
the dotted field path, which the CLI maps to exit code 2.

Two sizes are capped before anything is allocated (fixed limits, not
options): ``tau.points`` at ``MAX_TAU_POINTS`` = 65536, since a run keeps
1.91 KB (outer line) to 2.16 KB (central line) of propagator and link
products per tau point and peaks at 1.95 to 2.20 KB (128 to 144 MB at the
cap, by tracemalloc on the exact engine), and
``ensemble.nodes`` at ``ensemble.MAX_ENSEMBLE_NODES`` = 369, since numpy's
Gauss-Hermite rule overflows above it.

The rotating frame has one setting, ``run.resonance_offset_hz`` (line
minus frame, 0 puts the frame on the detected line); the spin system holds
only the Hamiltonian's constants.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .engine import ENGINES, EchoExperiment
from .ensemble import MAX_ENSEMBLE_NODES, AngleDistribution
from .pulses import PULSE_MODELS, PulseSpec, composite_pi
from .spinops import projection
from .system import SpinSystemParams

PRESET_NAMES = ("nc60", "nc60_mi_minus1", "nc60_mi_0", "nc60_composite")

# size cap, see the module docstring
MAX_TAU_POINTS = 65536


class ConfigError(ValueError):
    """Invalid or missing configuration value; ``field`` is a dotted path."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


def _parse_spin(text: str) -> float:
    num, slash, den = text.strip().partition("/")
    return float(num) / float(den) if slash else float(num)


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


@dataclass(frozen=True)
class Range:
    """Finite numbers in [lo, hi], or in (lo, hi] with ``open_lo``."""

    lo: float
    hi: float = math.inf
    open_lo: bool = False

    def __contains__(self, value) -> bool:
        above = self.lo < value if self.open_lo else self.lo <= value
        return above and value <= self.hi and value < math.inf

    def __str__(self) -> str:
        hi = f"{self.hi:g}]" if self.hi < math.inf else "inf)"
        return f"{'(' if self.open_lo else '['}{self.lo:g}, {hi}"


REQUIRED = object()  # the default of a key that must be given

# block -> key -> (kind, default or REQUIRED[, allowed: choices or Range]).
# A block with a required key is required.  The [system] keys are the fields
# of SpinSystemParams, which checks f_e_hz, g and the spins; the [ensemble]
# block is one AngleDistribution, around theta2; each run.detect_m_i line is
# one EchoExperiment, and the other [run] keys are its fields.
SCHEMA = {
    "system": {"s": (_parse_spin, REQUIRED, Range(0.5)),
               "i": (_parse_spin, REQUIRED),
               "a_hz": (float, REQUIRED), "f_e_hz": (float, REQUIRED),
               "f_i_hz": (float, None), "g": (float, 2.0036)},
    "sequence": {"theta1_deg": (float, REQUIRED, Range(0, 360, open_lo=True)),
                 "theta2_deg": (float, REQUIRED, Range(0, 360, open_lo=True)),
                 "phase1_deg": (float, 0.0), "phase2_deg": (float, 0.0),
                 "pulse_model": (str, "ideal", PULSE_MODELS),
                 "t_p1_s": (float, None, Range(0, open_lo=True)),
                 "t_p2_s": (float, None, Range(0, open_lo=True)),
                 "composite": (_parse_composite, None)},
    "tau": {"start_s": (float, REQUIRED, Range(0)),
            "stop_s": (float, REQUIRED),
            "points": (int, REQUIRED, Range(2, MAX_TAU_POINTS))},
    "ensemble": {"sigma_rad": (float, 0.0, Range(0)),
                 "nodes": (int, 41, Range(3, MAX_ENSEMBLE_NODES)),
                 "shared_b1": (_parse_bool, False)},
    "run": {"engine": (str, "average-hamiltonian", ENGINES),
            "detect_m_i": (_parse_spins, REQUIRED),
            "t2_s": (float, None, Range(0, open_lo=True)),
            "resonance_offset_hz": (float, 0.0)},
}


def _finite(value) -> bool:
    """Whether every float in ``value`` and its nested lists is finite."""
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _value(field_path: str, raw: str, kind, default, allowed=None):
    """``raw`` as ``kind``, finite and ``allowed``, or ``default`` if empty."""
    if raw == "":
        if default is REQUIRED:
            raise ConfigError(field_path, "required value missing")
        return default
    try:
        value = kind(raw)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(field_path, f"not {_KINDS[kind]}: {raw!r}")
    if not _finite(value):
        raise ConfigError(field_path, f"must be finite: {raw!r}")
    if allowed is not None and value not in allowed:
        raise ConfigError(field_path, f"must be in {allowed}, got {raw!r}")
    return value


@dataclass
class RunConfig:
    """Parsed, validated configuration: one experiment per detected line,
    in config order, and the ``[ensemble]`` block they are averaged over."""

    experiments: list[EchoExperiment]
    distribution: AngleDistribution
    echo: dict = field(default_factory=dict)   # flattened raw items

    @property
    def detect_m_i(self) -> list[float]:
        return [exp.detect_m_i for exp in self.experiments]

    def experiment(self, m_i: float) -> EchoExperiment:
        return replace(self.experiments[0], detect_m_i=m_i)


def parse_config(path: str | Path) -> RunConfig:
    # no default section: [DEFAULT] is an unknown block, not shared keys
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       default_section="")
    try:
        with open(path) as fh:
            parser.read_file(fh)
        raw = {name: dict(parser[name]) for name in parser.sections()}
    except OSError as err:
        raise ConfigError("file", f"cannot read {path}: {err}")
    except configparser.Error as err:
        raise ConfigError("file", f"cannot parse {path}: {err}")

    for block, keys in SCHEMA.items():
        if block not in raw and REQUIRED in [s[1] for s in keys.values()]:
            raise ConfigError(block, "required block missing")
    unknown = [(block, block, SCHEMA) for block in raw if block not in SCHEMA]
    unknown += [(f"{block}.{key}", key, SCHEMA[block])
                for block, items in raw.items() if block in SCHEMA
                for key in items if key not in SCHEMA[block]]
    if unknown:
        from difflib import get_close_matches
        field_path, name, known = unknown[0]
        hint = get_close_matches(name, known, n=1)
        raise ConfigError(field_path, f"unknown {name!r}" + (
            f"; did you mean {hint[0]!r}?" if hint else ""))
    values = {block: {key: _value(f"{block}.{key}",
                                  raw.get(block, {}).get(key, ""), *spec)
                      for key, spec in keys.items()}
              for block, keys in SCHEMA.items()}

    try:
        system = SpinSystemParams(**values["system"])
    except ValueError as err:
        raise ConfigError("system", str(err))

    seq = values["sequence"]
    for key in ("t_p1_s", "t_p2_s"):
        if seq["pulse_model"] == "finite" and seq[key] is None:
            raise ConfigError(f"sequence.{key}",
                              "required when pulse_model = finite")
    pulse1 = PulseSpec(angle=np.deg2rad(seq["theta1_deg"]),
                       phase=np.deg2rad(seq["phase1_deg"]),
                       model=seq["pulse_model"], duration_s=seq["t_p1_s"])
    pulse2 = PulseSpec(angle=np.deg2rad(seq["theta2_deg"]),
                       phase=np.deg2rad(seq["phase2_deg"]),
                       model=seq["pulse_model"], duration_s=seq["t_p2_s"],
                       composite=seq["composite"])

    tau = values["tau"]
    if tau["start_s"] >= tau["stop_s"]:
        raise ConfigError("tau.stop_s", "must be greater than tau.start_s")
    tau_grid = np.linspace(tau["start_s"], tau["stop_s"], tau["points"])

    run = values["run"]
    lines = []
    for m_i in run.pop("detect_m_i"):
        try:
            line = projection(system.i, m_i)
        except ValueError as err:
            raise ConfigError("run.detect_m_i", str(err))
        if line in lines:
            raise ConfigError("run.detect_m_i", f"line {line:g} listed twice")
        lines.append(line)

    ens = values["ensemble"]
    if ens["nodes"] % 2 == 0:
        raise ConfigError("ensemble.nodes", f"must be odd, got {ens['nodes']}")
    dist = AngleDistribution(mean=pulse2.angle, sigma=ens["sigma_rad"],
                             nodes=ens["nodes"], shared_b1=ens["shared_b1"])

    echo = {f"{block}.{key}": value
            for block, items in raw.items() for key, value in items.items()}
    experiments = [EchoExperiment(system=system, pulse1=pulse1, pulse2=pulse2,
                                  tau_grid=tau_grid, detect_m_i=m_i, **run)
                   for m_i in lines]
    return RunConfig(experiments=experiments, distribution=dist, echo=echo)


def preset_path(name: str) -> Path:
    if name not in PRESET_NAMES:
        raise ConfigError("preset", f"unknown preset {name!r}; "
                                    f"choose from {PRESET_NAMES}")
    fname = "nc60_mi_minus1.cfg" if name == "nc60" else f"{name}.cfg"
    return Path(str(resources.files("eseem.presets").joinpath(fname)))


def load_preset(name: str) -> RunConfig:
    return parse_config(preset_path(name))
