"""Seeded inputs for the benchmark workloads.

Every input reaches eseem as INI config text in its documented format.  The
same seed gives byte-identical texts: draws use only ``random.Random.random``
(whose Mersenne Twister stream is stable across Python versions) and floats
are written with ``repr``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

A_HZ = 15.8e6
F_E_HZ = 9.67e9
T2_S = 210e-6
SIGMA_RAD = 0.31

# the bundled presets (src/eseem/presets): nc60 detects the m_i = -1 line
PRESETS = {
    "nc60": {"detect_m_i": -1, "composite": None},
    "nc60_mi_0": {"detect_m_i": 0, "composite": None},
    "nc60_composite": {"detect_m_i": -1, "composite": "cp3"},
}
# 12 chains, so the tail over items has ten beyond it
PRESET_VARIANTS = 4

TRACE_GRID_CONFIGS = 24
TRACE_GRID_ENGINES = ("average-hamiltonian", "exact-lab-frame")
STEPPED = "stepped-rotating-frame"
# the stepped engine costs ~50 ms per tau point, so it runs on a short grid
# and on one configuration per outer line
STEPPED_TAU = (1e-6, 40e-6, 8)
FULL_TAU = (1e-6, 200e-6, 512)


@dataclass(frozen=True)
class Input:
    """One generated config: its text plus the drawn values a check needs."""

    name: str
    text: str
    params: dict


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _shuffle(values: list, rng: random.Random) -> None:
    for k in range(len(values) - 1, 0, -1):
        j = int(rng.random() * (k + 1))
        values[k], values[j] = values[j], values[k]


def render(sections: dict[str, dict]) -> str:
    lines = []
    for name, items in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value!r}" if isinstance(value, float)
                     else f"{key} = {value}" for key, value in items.items())
        lines.append("")
    return "\n".join(lines)


def _system(a_hz: float) -> dict:
    return {"s": "3/2", "i": 1, "a_hz": a_hz, "f_e_hz": F_E_HZ, "g": 2.0036}


def _tau(grid: tuple[float, float, int]) -> dict:
    start, stop, points = grid
    return {"start_s": start, "stop_s": stop, "points": points}


def preset_inputs(seed: int) -> list[Input]:
    """``PRESET_VARIANTS`` variants of each bundled preset: a_hz within 2 %,
    sigma and T2 within 10 % of the preset values; grid, nodes, pulses and
    engine as in the presets."""
    rng = random.Random(seed)
    out = []
    for k, (name, spec) in enumerate(
            list(PRESETS.items()) * PRESET_VARIANTS):
        a_hz = A_HZ * _uniform(rng, 0.98, 1.02)
        sigma = SIGMA_RAD * _uniform(rng, 0.9, 1.1)
        t2_s = T2_S * _uniform(rng, 0.9, 1.1)
        sequence = {"theta1_deg": 90, "theta2_deg": 180,
                    "pulse_model": "finite", "t_p1_s": 56e-9,
                    "t_p2_s": 112e-9}
        if spec["composite"]:
            sequence["composite"] = spec["composite"]
        text = render({
            "system": _system(a_hz),
            "sequence": sequence,
            "tau": _tau(FULL_TAU),
            "ensemble": {"sigma_rad": sigma, "nodes": 41, "shared_b1": "false"},
            "run": {"engine": "exact-lab-frame",
                    "detect_m_i": spec["detect_m_i"],
                    "resonance_offset_hz": 0, "t2_s": t2_s},
        })
        out.append(Input(f"{name}-v{k // len(PRESETS)}", text, {
            "m_i": float(spec["detect_m_i"]), "t2_s": t2_s,
            "delta_hz": a_hz ** 2 / F_E_HZ}))
    return out


def trace_grid_inputs(seed: int) -> list[Input]:
    """Single ideal-pulse traces without an ensemble.

    Each of the configurations draws theta1 in [30, 150] deg, theta2 in
    [60, 300] deg and a resonance offset within +/- 2 MHz; m_i cycles
    through a seeded permutation of an equal number of -1, 0 and +1.  Each
    runs on the average-Hamiltonian and exact engines over 512 points.  The
    first configuration of each outer line (m_i = -1, +1) also runs on the
    stepped engine over a short grid.
    """
    rng = random.Random(seed)
    m_values = [-1, 0, 1] * (TRACE_GRID_CONFIGS // 3)
    _shuffle(m_values, rng)
    out = []
    stepped = set()
    for k, m_i in enumerate(m_values):
        theta1 = _uniform(rng, 30.0, 150.0)
        theta2 = _uniform(rng, 60.0, 300.0)
        offset = _uniform(rng, -2e6, 2e6)
        engines = [(e, FULL_TAU) for e in TRACE_GRID_ENGINES]
        if m_i != 0 and m_i not in stepped:
            stepped.add(m_i)
            engines.append((STEPPED, STEPPED_TAU))
        for engine, grid in engines:
            text = render({
                "system": _system(A_HZ),
                "sequence": {"theta1_deg": theta1, "theta2_deg": theta2},
                "tau": _tau(grid),
                "run": {"engine": engine, "detect_m_i": m_i,
                        "resonance_offset_hz": offset},
            })
            out.append(Input(f"c{k:02d}-{engine}", text, {
                "m_i": float(m_i), "engine": engine,
                "theta1_deg": theta1, "theta2_deg": theta2,
                "delta_hz": A_HZ ** 2 / F_E_HZ,
                "a_over_we": A_HZ / F_E_HZ}))
    return out
