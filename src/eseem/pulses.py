"""Microwave pulse descriptions and rotation operators.

Rotation sign convention
------------------------
``electron_rotation(theta, 0, s)`` returns exp(+i*theta*Sx), the convention
in which a positive x-pulse turns +z magnetization toward +y:

    R Sz R+ = Sz cos(theta) + Sy sin(theta).

With this choice the spin-3/2 rotation matrix has the closed trigonometric
form asserted in the tests (cos^3, sin^3, cos(3theta/2)... entries) and the
perfect pi pulse is the anti-diagonal matrix filled with -i.

Ideal pulses act as identity on the nuclear space (the hyperfine coupling
cannot drive electron-nuclear flip-flops on pulse timescales).  Finite
pulses evolve under drive + internal secular Hamiltonian for the stated
duration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import h_avg0, h_avg1
from .spinops import expm_hermitian, kron, multiplicity, spin_matrices
from .system import SpinSystemParams

PULSE_MODELS = ("ideal", "finite")


@dataclass(frozen=True)
class PulseSpec:
    """One pulse of the echo sequence.

    ``angle``/``phase`` give the nominal rotation; ``composite`` optionally
    replaces the single rotation by an ordered list of (angle, phase)
    segments sharing one drive amplitude, so B1 miscalibration scales every
    segment together.  The ``finite`` model needs ``duration_s`` (for a
    composite, the duration of the nominal ``angle`` rotation, from which
    the shared drive amplitude follows).
    """

    angle: float
    phase: float = 0.0
    model: str = "ideal"
    duration_s: float | None = None
    composite: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not 0.0 < self.angle <= 2 * np.pi:
            raise ValueError(f"pulse angle must be in (0, 2*pi], got {self.angle}")
        if self.model not in PULSE_MODELS:
            raise ValueError(f"unknown pulse model {self.model!r}")
        if self.model == "finite" and not (self.duration_s and self.duration_s > 0):
            raise ValueError("finite pulse model requires duration_s > 0")
        if self.composite is not None and len(self.composite) == 0:
            raise ValueError("composite segment list must be non-empty")

    def segments(self) -> tuple[tuple[float, float], ...]:
        """(angle, phase) segments in time order."""
        if self.composite is not None:
            return tuple(self.composite)
        return ((self.angle, self.phase),)


def composite_pi() -> PulseSpec:
    """Error-correcting composite refocusing pulse (pi/2)x (pi)y (pi/2)x.

    At nominal amplitude the net propagator is exactly a pi rotation about
    y; under a common amplitude error the refocusing quality degrades only
    at second order, which is what suppresses the low-frequency modulation
    component re-introduced by B1 inhomogeneity.
    """
    return PulseSpec(angle=np.pi, phase=0.0, composite=(
        (np.pi / 2, 0.0), (np.pi, np.pi / 2), (np.pi / 2, 0.0)))


def electron_rotation(theta: float, phi: float, s: float) -> np.ndarray:
    """exp(+i*theta*(Sx cos(phi) + Sy sin(phi))) on the electron space only.

    Accepts any real ``theta`` (ensemble averaging samples outside the
    nominal (0, 2*pi] window).
    """
    sx, sy, _ = spin_matrices(s)
    axis = sx * np.cos(phi) + sy * np.sin(phi)
    return expm_hermitian(-axis, theta)


def rotation_operator(pulse: PulseSpec, system: SpinSystemParams,
                      scale: float = 1.0,
                      f_mw_hz: float | None = None) -> np.ndarray:
    """Full-space propagator of one pulse.

    ``scale`` multiplies every segment angle (common B1 amplitude factor).
    Ideal pulses are nuclear-space identities; finite pulses propagate
    under drive plus the secular internal Hamiltonian for each segment:

        U_seg = exp(-i*(H_int + H_drive)*t_seg),
        H_drive = -(w1)*(Sx cos(phi) + Sy sin(phi)),  w1 = theta_seg/t_seg

    (the drive sign matches the ideal-pulse rotation convention; as the
    duration shrinks at fixed angle the finite propagator converges to the
    ideal one).
    """
    return _scaled_propagator(pulse, system, f_mw_hz)(scale)


def _scaled_propagator(pulse: PulseSpec, system: SpinSystemParams,
                       f_mw_hz: float | None = None):
    """scale -> :func:`rotation_operator` of ``pulse``, with everything that
    does not depend on the scale (internal Hamiltonian, segment drive
    operators) built once for repeated calls."""
    eye_n = np.eye(multiplicity(system.i))
    segments = pulse.segments()
    if pulse.model == "ideal":
        def ideal(scale: float) -> np.ndarray:
            u = np.eye(multiplicity(system.s), dtype=complex)
            for angle, phase in segments:
                u = electron_rotation(scale * angle, phase, system.s) @ u
            return kron(u, eye_n)
        return ideal

    # finite model: shared drive amplitude set by the nominal angle/duration
    w1_nominal = pulse.angle / pulse.duration_s
    h_int = h_avg0(system, f_mw_hz) + h_avg1(system)
    sx, sy, _ = spin_matrices(system.s)
    drives = [(angle / w1_nominal,
               kron(sx * np.cos(phase) + sy * np.sin(phase), eye_n))
              for angle, phase in segments]

    def finite(scale: float) -> np.ndarray:
        u = np.eye(h_int.shape[0], dtype=complex)
        for t_seg, drive in drives:
            h_drive = -scale * w1_nominal * drive
            u = expm_hermitian(h_int + h_drive, t_seg) @ u
        return u
    return finite
