"""Closed-form echo modulation expressions.

These are the algebraic results for the two-pulse echo of a hetero-spin
pair whose level shifts within one nuclear manifold are quadratic in the
electron projection (shift d = a^2/we):

* the outer-line amplitude for S=3/2, I=1 with arbitrary pulse angles,
  V = 2 sin(t1) sin^2(t2/2) [A0 + A1 cos(2 pi d tau) + A2 cos(4 pi d tau)],
* the flat central-line amplitude V = 5 sin(t1) sin^2(t2/2), the
  tau = 0 value of the outer-line law (A0 + A1 + A2 = 5/2),
* the general-S perfect-refocusing sum
  sum_M (S-M)(S+M+1) exp(i (1+2M) m_i * 2 pi d tau).

They serve as oracles for the numerical engines and as fast models for
parameter sweeps and fitting.  ``delta_hz`` is always passed explicitly so
these functions stay independent of any system object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonians import TWO_PI
from .spinops import projections, validate_spin


@dataclass(frozen=True)
class ModulationCoefficients:
    """Weights of the DC, fundamental and second-harmonic terms for the
    outer-line echo at refocusing angle ``theta2`` (floats, or arrays of
    the shape of an array ``theta2``)."""

    a0: float
    a1: float
    a2: float
    theta2: float


def coefficients(theta2: float) -> ModulationCoefficients:
    """Modulation coefficients versus refocusing angle.

    With c = cos(theta2/2), s = sin(theta2/2):

        A0 = 1 - 6 c^2 + 27/2 c^4
        A1 = 6 c^2 (2 - 3 c^2)
        A2 = 3/2 s^2 (1 - 3 c^2)

    A perfect pi pulse gives (1, 0, 3/2): second harmonic only.  The
    fundamental A1 appears as soon as the refocusing rotation branches the
    single-quantum coherences (theta2 != pi).  An array ``theta2`` gives
    arrays of its shape.
    """
    c2 = np.cos(theta2 / 2) ** 2
    s2 = np.sin(theta2 / 2) ** 2
    a0 = 1.0 - 6.0 * c2 + 13.5 * c2 * c2
    a1 = 6.0 * c2 * (2.0 - 3.0 * c2)
    a2 = 1.5 * s2 * (1.0 - 3.0 * c2)
    if isinstance(theta2, np.ndarray) and theta2.ndim:
        return ModulationCoefficients(a0, a1, a2, theta2)
    return ModulationCoefficients(float(a0), float(a1), float(a2), float(theta2))


def v_outer(tau, theta1: float, theta2: float, delta_hz: float):
    """Outer-line (m_i = +/-1) echo amplitude for S=3/2, I=1.

    ``tau`` may be a scalar or array of interpulse delays in seconds, and
    ``theta2`` an array that broadcasts against it; ``delta_hz`` is the
    second-order shift in Hz.
    """
    if delta_hz < 0:
        raise ValueError("delta_hz must be non-negative")
    tau = np.asarray(tau, dtype=float)
    co = coefficients(theta2)
    phase = TWO_PI * delta_hz * tau
    return (2.0 * np.sin(theta1) * np.sin(theta2 / 2) ** 2
            * (co.a0 + co.a1 * np.cos(phase) + co.a2 * np.cos(2 * phase)))


def v_center(tau, theta1: float, theta2: float):
    """Central-line (m_i = 0) echo amplitude: 5 sin(t1) sin^2(t2/2).

    Tau-independent; the quadratic level shifts are projection-independent
    in the m_i = 0 manifold, so the echo shows no modulation.  Same
    normalization as ``v_outer`` (and the engine traces): with no
    hyperfine evolution every manifold echoes alike, so this is
    ``v_outer`` at tau = 0, where A0 + A1 + A2 = 5/2.
    """
    tau = np.asarray(tau, dtype=float)
    value = 5.0 * np.sin(theta1) * np.sin(theta2 / 2) ** 2
    return np.full(tau.shape, value) if tau.shape else float(value)


def general_s_weights(s: float) -> list[float]:
    """Coherence weights (S-M)(S+M+1) for M = -S ... S (ascending)."""
    validate_spin(s)
    return [float((s - m) * (s + m + 1)) for m in projections(s)[::-1]]


def v_general(s: float, m_i: float, tau, delta_hz: float) -> np.ndarray:
    """General-S two-pulse echo sum for a perfect refocusing pulse.

    Returns the complex sum

        sum_{M=-S}^{S} (S-M)(S+M+1) exp(i (1+2M) m_i * 2 pi delta tau);

    the physical signal is the real part (the sum is real because terms at
    M and -1-M pair into conjugates with equal weights).  Defined up to a
    positive overall constant relative to the engine traces: a numerical
    ideal pi/2 - pi run equals exactly half this sum.
    """
    weights = general_s_weights(s)
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    out = np.zeros(tau.shape, dtype=complex)
    for m, weight in zip(projections(s), weights[::-1]):  # descending M
        out += weight * np.exp(1j * (1 + 2 * m) * m_i * TWO_PI * delta_hz * tau)
    return out
