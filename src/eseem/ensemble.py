"""Ensemble averaging over pulse-angle distributions and phenomenological
decay.

B1 inhomogeneity across the sample gives each spin packet its own rotation
angles.  Averages over a Gaussian angle distribution are evaluated with
Gauss-Hermite quadrature (deterministic, spectrally convergent); a fixed
angle is the distribution of zero width, one node of weight 1.  Node
contributions are added one at a time in node order, so an average is
reproducible bit for bit, and a one-node average equals the single run.

One :class:`AngleDistribution` is the whole ``[ensemble]`` block, taken
whole by every average; the closed-form averages all read the three weights
of :func:`averaged_component_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .engine import (EchoExperiment, EchoTrace, _echo_trace, _EchoPlan,
                     _t2_damping, run_two_pulse_echo)
from .hamiltonians import TWO_PI, delta_hz


@dataclass(frozen=True)
class AngleDistribution:
    """The ``[ensemble]`` block: the refocusing angle theta2 across the
    sample, a Gaussian N(mean, sigma^2) integrated on ``nodes`` Gauss-Hermite
    points (odd, so the mean itself is a node); sigma = 0 is the one node
    ``mean``.  With ``shared_b1`` pulse 1 samples the same B1 value, so each
    node scales it by theta/``mean``; by default it is fixed.
    """

    mean: float = np.pi
    sigma: float = 0.0
    nodes: int = 41
    shared_b1: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.mean + self.sigma) and self.sigma >= 0):
            raise ValueError("mean and sigma must be finite, sigma >= 0")
        if not (3 <= self.nodes <= MAX_ENSEMBLE_NODES and self.nodes % 2):
            raise ValueError(f"gaussian rule needs an odd node count in "
                             f"[3, {MAX_ENSEMBLE_NODES}]")
        if self.shared_b1 and self.mean == 0:
            raise ValueError("shared_b1 scales pulse 1 by theta/mean: mean 0")

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """(angles, weights) of the quadrature rule; weights sum to 1."""
        if self.sigma == 0.0:
            return np.array([self.mean]), np.array([1.0])
        x, w = _gauss_hermite(self.nodes)
        return self.mean + np.sqrt(2.0) * self.sigma * x, w


# the largest node count: numpy's hermgauss overflows above it (numpy 2.4:
# every weight is 0 at 371 nodes, and NaN from 373 on)
MAX_ENSEMBLE_NODES = 369


@lru_cache(maxsize=None)
def _gauss_hermite(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Hermite abscissae and weights normalized to sum 1."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / np.sqrt(np.pi)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def average_trace(exp: EchoExperiment, dist: AngleDistribution) -> EchoTrace:
    """Expectation of the engine trace under the theta2 distribution.

    Each node scales pulse 2 by ``theta/pulse2.angle`` and, with
    ``dist.shared_b1``, pulse 1 by ``theta/dist.mean`` (composite segments
    scale together, matching a common drive-amplitude error).  What does not
    depend on a node's scales (free evolution and pulse generators, and
    without ``shared_b1`` the link products of the pulse-1 coherences) is
    built once for all nodes, and one batched call per pulse propagates
    every node scale before the loop.
    The trace adds ``sigma_rad``, ``mean_rad``, ``nodes`` and ``shared_b1``
    to the run's labels.
    """
    thetas, weights = dist.points()
    scales2 = thetas / exp.pulse2.angle
    scales1 = thetas / dist.mean if dist.shared_b1 else np.ones(1)
    plan = _EchoPlan(exp)
    plan.tabulate(scales1, scales2)
    acc = -0.0  # the exact identity of float addition
    for scale1, scale2, weight in zip(np.broadcast_to(scales1, thetas.shape),
                                      scales2, weights):
        trace = run_two_pulse_echo(exp, scale1=scale1, scale2=scale2,
                                   plan=plan)
        acc = acc + weight * trace.v
    return _echo_trace(exp, plan.f_mw_hz, acc, sigma_rad=dist.sigma,
                       mean_rad=dist.mean, nodes=len(thetas),
                       shared_b1=dist.shared_b1)


def closed_form_mismatch(exp: EchoExperiment) -> tuple[str, str] | None:
    """The first condition of the closed form that ``exp`` breaks, as (its
    config field, what the closed form needs), or None when the closed form
    describes ``exp``.  The engines' echo carries a factor
    cos(2 phase2 - phase1), which the closed form takes as 1."""
    turns = (2 * exp.pulse2.phase - exp.pulse1.phase) / TWO_PI
    phase = "phase2_deg" if exp.pulse2.phase else "phase1_deg"
    for key, bad, need in (
            ("system.s", exp.system.s != 1.5, "s = 3/2"),
            ("system.i", exp.system.i != 1.0, "i = 1"),
            ("sequence.composite", exp.pulse2.composite is not None,
             "one rotation per pulse"),
            (f"sequence.{phase}", abs(turns - round(turns)) > 1e-9,
             "2 phase2_deg - phase1_deg a multiple of 360")):
        if bad:
            return key, need
    return None


def average_analytic(exp: EchoExperiment,
                     dist: AngleDistribution) -> np.ndarray:
    """The closed-form route to :func:`average_trace` (S = 3/2, I = 1): it
    reads tau, the line, theta1 and delta from ``exp``.  The flat central
    line (m_i = 0) is w0 + w1 + w2, the outer-line law at tau = 0, since
    A0 + A1 + A2 = 5/2 at every theta2.  Raises ``ValueError`` naming the
    config field of the first condition of :func:`closed_form_mismatch`
    that ``exp`` breaks."""
    mismatch = closed_form_mismatch(exp)
    if mismatch:
        raise ValueError("%s: the closed form needs %s" % mismatch)
    theta1 = exp.pulse1.angle
    if exp.detect_m_i != 0.0:
        return average_analytic_outer(exp.tau_grid, theta1, dist,
                                      delta_hz(exp.system))
    w0, w1, w2 = averaged_component_weights(dist, theta1)
    return np.full(exp.tau_grid.shape, w0 + w1 + w2)


def average_analytic_outer(tau, theta1: float, dist: AngleDistribution,
                           delta_hz: float) -> np.ndarray:
    """Closed-form outer-line amplitude averaged over theta2: with the
    averaged weights (w0, w1, w2) of :func:`averaged_component_weights` at
    ``theta1``, w0 + w1 cos(2 pi d tau) + w2 cos(4 pi d tau)."""
    if delta_hz < 0:
        raise ValueError("delta_hz must be non-negative")
    w0, w1, w2 = averaged_component_weights(dist, theta1)
    phase = TWO_PI * delta_hz * np.asarray(tau, dtype=float)
    return w0 + w1 * np.cos(phase) + w2 * np.cos(2 * phase)


def averaged_component_weights(dist: AngleDistribution,
                               theta1: float = np.pi / 2
                               ) -> tuple[float, float, float]:
    """Ensemble-averaged spectral weights of the DC, fundamental and
    second-harmonic components of the outer-line echo.

    These are E[2 sin(t1) sin^2(t/2) A_k(t)] for k = 0, 1, 2: the cosine
    amplitudes a spectrum of the averaged trace actually shows.  With
    ``dist.shared_b1`` each node scales t1 = ``theta1`` by t/``dist.mean``,
    as :func:`average_trace` does (the config sets mean = ``pulse2.angle``).
    """
    from .analytic import coefficients  # only closed-form runs load it

    thetas, weights = dist.points()
    # -0.0 is the exact identity of float addition, so a one-node rule
    # returns its terms unchanged, signed zeros included
    w0 = w1 = w2 = -0.0
    for theta, weight in zip(thetas, weights):
        t1 = theta / dist.mean * theta1 if dist.shared_b1 else theta1
        co = coefficients(theta)
        pref = 2.0 * np.sin(t1) * np.sin(theta / 2) ** 2
        w0 += weight * pref * co.a0
        w1 += weight * pref * co.a1
        w2 += weight * pref * co.a2
    return w0, w1, w2


def i1_i2_ratio(dist: AngleDistribution) -> float:
    """Intensity ratio of the fundamental to the second-harmonic echo
    modulation component under the angle distribution.

    Zero for a perfect pi pulse (A1(pi) = 0); grows with the angular spread
    sigma.  A Gaussian spread of 0.31 rad around pi gives about 0.17, the
    signature of ~10% B1 inhomogeneity.  The first pulse's sin(theta1)
    scales both weights, so it cancels, unless ``shared_b1`` scales theta1
    per node: the ratio is then read at a nominal theta1 = pi/2.
    """
    _, w1, w2 = averaged_component_weights(dist)
    if w2 == 0.0:
        raise ValueError("second-harmonic weight vanished; ratio undefined")
    return abs(w1) / abs(w2)


def apply_t2(trace: EchoTrace, t2_s: float) -> EchoTrace:
    """Damp a trace by the phenomenological echo decay exp(-2*tau/T2), the
    damping the engine applies to a run with ``t2_s``, and label it with
    ``t2_s``."""
    if t2_s <= 0:
        raise ValueError("t2_s must be positive")
    return EchoTrace(tau_s=trace.tau_s.copy(),
                     v=trace.v * _t2_damping(trace.tau_s, t2_s),
                     metadata={**trace.metadata, "t2_s": t2_s})
