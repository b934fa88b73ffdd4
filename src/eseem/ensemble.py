"""Ensemble averaging over pulse-angle distributions and phenomenological
decay.

B1 inhomogeneity across the sample gives each spin packet its own rotation
angles.  Averages over a Gaussian angle distribution are evaluated with
Gauss-Hermite quadrature (deterministic, spectrally convergent); a fixed
angle is the distribution of zero width, one node of weight 1.  Node
contributions are added one at a time in node order, so an average is
reproducible bit for bit, and a one-node average equals the single run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import coefficients, v_center, v_outer
from .engine import EchoExperiment, EchoTrace, _EchoPlan, run_two_pulse_echo


@dataclass(frozen=True)
class AngleDistribution:
    """Distribution of the refocusing angle theta2 across the ensemble.

    A Gaussian N(mean, sigma^2), integrated on ``nodes`` Gauss-Hermite points
    (odd, so the mean itself is a node); sigma = 0 is the one node ``mean``.
    """

    mean: float = np.pi
    sigma: float = 0.0
    nodes: int = 41

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.nodes < 3 or self.nodes % 2 == 0:
            raise ValueError("gaussian rule needs an odd node count >= 3")

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """(angles, weights) of the quadrature rule; weights sum to 1."""
        if self.sigma == 0.0:
            return np.array([self.mean]), np.array([1.0])
        x, w = np.polynomial.hermite.hermgauss(self.nodes)
        return self.mean + np.sqrt(2.0) * self.sigma * x, w / np.sqrt(np.pi)


def average_trace(exp: EchoExperiment, dist: AngleDistribution, *,
                  shared_b1: bool = False) -> EchoTrace:
    """Expectation of the engine trace under the theta2 distribution.

    Each node scales pulse 2 by ``theta/pulse2.angle`` (composite segments
    scale together, matching a common drive-amplitude error).  With
    ``shared_b1`` the first pulse sees the same relative amplitude factor,
    modeling both pulses sampling one B1 value; default off, so only the
    refocusing angle varies.  Everything that does not depend on a node's
    scales (free evolution and pulse generators, and without ``shared_b1``
    the pulse-1 coherences) is built once and shared by every node.
    """
    thetas, weights = dist.points()
    nominal2 = exp.pulse2.angle
    plan = _EchoPlan(exp)
    acc = acc_im = -0.0  # the exact identity of float addition
    residual = 0.0
    for theta, weight in zip(thetas, weights):
        scale2 = theta / nominal2
        scale1 = scale2 if shared_b1 else 1.0
        trace = run_two_pulse_echo(exp, scale1=scale1, scale2=scale2,
                                   plan=plan)
        acc = acc + weight * trace.v
        acc_im = acc_im + weight * trace.v_im
        residual = max(residual, trace.metadata["max_imag_residual"])
    meta = {key: trace.metadata[key] for key in (
        "engine", "m_i", "theta1_rad", "theta2_rad", "pulse2_composite",
        "f_mw_hz", "t2_s")}
    meta.update({
        "sigma_rad": dist.sigma,
        "mean_rad": dist.mean,
        "nodes": len(thetas),
        "shared_b1": shared_b1,
        "max_imag_residual": residual,
    })
    return EchoTrace(tau_s=exp.tau_grid.copy(), v=acc, metadata=meta,
                     v_im=acc_im)


def average_analytic(tau, m_i: float, theta1: float, theta2: float,
                     dist: AngleDistribution, delta_hz: float, *,
                     shared_b1: bool = False) -> np.ndarray:
    """Closed-form amplitude of the ``m_i`` line averaged over theta2.

    ``v_outer`` for the outer lines, ``v_center`` for m_i = 0.  With
    ``shared_b1`` each node also scales theta1 by its theta2 over the
    nominal ``theta2``, as :func:`average_trace` scales pulse 1.
    """
    thetas, weights = dist.points()
    tau = np.asarray(tau, dtype=float)
    acc = np.zeros(tau.shape)
    for theta, weight in zip(thetas, weights):
        t1 = theta / theta2 * theta1 if shared_b1 else theta1
        v = v_outer(tau, t1, theta, delta_hz) if abs(m_i) > 1e-9 \
            else v_center(tau, t1, theta)
        acc = acc + weight * v
    return acc


def average_analytic_outer(tau, theta1: float, dist: AngleDistribution,
                           delta_hz: float) -> np.ndarray:
    """Closed-form outer-line amplitude averaged over theta2."""
    return average_analytic(tau, 1.0, theta1, dist.mean, dist, delta_hz)


def averaged_component_weights(dist: AngleDistribution,
                               theta1: float = np.pi / 2) -> tuple[float, float, float]:
    """Ensemble-averaged spectral weights of the DC, fundamental and
    second-harmonic components of the outer-line echo.

    These are E[2 sin(t1) sin^2(t/2) A_k(t)] for k = 0, 1, 2: the cosine
    amplitudes a spectrum of the averaged trace actually shows.
    """
    thetas, weights = dist.points()
    # -0.0 is the exact identity of float addition, so a one-node rule
    # returns its terms unchanged, signed zeros included
    w0 = w1 = w2 = -0.0
    for theta, weight in zip(thetas, weights):
        co = coefficients(theta)
        pref = 2.0 * np.sin(theta1) * np.sin(theta / 2) ** 2
        w0 += weight * pref * co.a0
        w1 += weight * pref * co.a1
        w2 += weight * pref * co.a2
    return w0, w1, w2


def i1_i2_ratio(dist: AngleDistribution, theta1: float = np.pi / 2) -> float:
    """Intensity ratio of the fundamental to the second-harmonic echo
    modulation component under the angle distribution.

    Zero for a perfect pi pulse (A1(pi) = 0); grows with the angular spread
    sigma.  A Gaussian spread of 0.31 rad around pi gives about 0.17, the
    signature of ~10% B1 inhomogeneity.
    """
    _, w1, w2 = averaged_component_weights(dist, theta1)
    if w2 == 0.0:
        raise ValueError("second-harmonic weight vanished; ratio undefined")
    return abs(w1) / abs(w2)


def apply_t2(trace: EchoTrace, t2_s: float) -> EchoTrace:
    """Damp a trace by the phenomenological echo decay exp(-2*tau/T2)."""
    if t2_s <= 0:
        raise ValueError("t2_s must be positive")
    meta = dict(trace.metadata)
    meta["t2_s"] = t2_s
    return EchoTrace(tau_s=trace.tau_s.copy(),
                     v=trace.v * np.exp(-2.0 * trace.tau_s / t2_s),
                     metadata=meta)
