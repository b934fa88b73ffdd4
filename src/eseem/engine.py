"""Two-pulse echo propagation with selectable evolution engines.

Sequence and observable
-----------------------
The simulated experiment is theta1 - tau - theta2 - tau - echo.  The
deviation density matrix starts as sigma0 = -Sz (the high-temperature
thermal deviation for a positive electron Zeeman term; the sign makes the
primary echo amplitude positive), is rotated, propagated, refocused and
propagated again, and the echo amplitude is

    V(tau) = Re Tr[ sigma(2 tau) * (Sy x P_mi) ],

with P_mi the nuclear projector implementing line-selective detection.

Echo pathway selection
----------------------
Only density-matrix components that traverse electron coherence order
+1 -> -1 (or -1 -> +1) across the refocusing pulse are retained.  These are
exactly the components whose resonance-offset phase cancels at the echo
time; everything else dephases across the inhomogeneous ensemble and is
removed experimentally by phase cycling and echo-shape integration.  The
selection is implemented exactly with coherence-order masks in the product
basis, which makes the computed V(tau) independent of the resonance offset
and equal to the closed-form modulation expressions at every pulse angle.

Engines
-------
Each engine only supplies free-evolution propagators that start at t = 0.
``_Propagator.stack`` builds U(0, tau) for a whole tau grid at once, as an
(n_tau, d, d) stack (exactly the identity at tau = 0).  The rotating-frame
Hamiltonian obeys h_rot(t + t0) = R(t0) h_rot(t) R(t0)^H with the diagonal
R(t) = exp(+i*w_mw*Sz*t), so for every engine
U(t0, t0 + tau) = R(t0) U(0, tau) R(t0)^H; ``_Propagator.translate`` applies
that one conjugation.

average-hamiltonian
    Diagonal evolution under h_avg0 + h_avg1 (second-order secular
    dynamics; the fast default): a stack of diagonal phases.
exact-lab-frame
    Rotating-frame propagator assembled from the exact lab Hamiltonian,
    U(0, tau) = exp(+i*w_mw*Sz*tau) exp(-i*H0*tau);
    machine-precision reference dynamics, vectorized over tau from one
    eigendecomposition of H0.
stepped-rotating-frame
    Time-ordered product of unitary midpoint substeps of the periodic
    rotating-frame Hamiltonian; converges quadratically in the substep to
    the exact engine.  h_rot(t) = R(t) H' R(t)^H, so each substep is
    R(t_k) E R(t_k)^H with one E = exp(-i H' dt): one eigh of H' and one
    Schur form of the period product per factory.

Echo kernel
-----------
One kernel contracts the stacks for every engine, in two stages.  The
free evolution enters as U1(tau) = U(0, tau) and G(tau) = U2(tau)^H D U2(tau),
with U2(tau) = U(tau, 2 tau) = R(tau) U1(tau) R(tau)^H and D the detection
operator, because Tr[U2 Z U2^H D] = Tr[Z G].

Per experiment (``_EchoPlan``), everything that does not depend on the
pulse scales of an ensemble node is built once: the U1 stack; G at the
(i, j) elements of electron order -1 that the refocusing pulse fills (27
for S = 3/2, I = 1), as G[j, i] and G[i, j], the second for the Hermitian
completion; one scale -> propagator factory per pulse; and the pulse-1
coherences X(tau) = U1 rho1 U1^H, memoized on the pulse-1 scale, which
stays fixed over the nodes unless both pulses share the B1 factor.  The
stacks are built in blocks of ``TAU_BLOCK`` points, which bounds the
temporaries whatever the grid size.

Per node, the refocused elements S = (R2 X R2^H)[i, j] are one product
X_flat @ K of the flattened (n_tau, d*d) coherences with the
(d*d, n_pairs) matrix K = R2[i, :] x conj(R2[j, :]), and the amplitude is
sum S G[j, i] + conj(S) G[i, j].  The imaginary part is kept as the
roundoff residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hamiltonians import (TWO_PI, _f_mw_effective, delta_hz, h0_lab, h_avg0,
                           h_avg1, h_rot_t, line_center_hz)
from .pulses import PulseSpec, _scaled_propagator
from .spinops import kron, multiplicity, projector_mi, spin_matrices
from .system import SpinSystemParams

ENGINES = ("average-hamiltonian", "exact-lab-frame", "stepped-rotating-frame")

MIN_STEPS_PER_PERIOD = 20

# tau points per block when building the stacks (see "Echo kernel" above)
TAU_BLOCK = 64


@dataclass
class EchoTrace:
    """Echo amplitude sampled on a tau grid (arbitrary units, signed)."""

    tau_s: np.ndarray
    v: np.ndarray
    metadata: dict = field(default_factory=dict)
    v_im: np.ndarray | None = None

    def __post_init__(self):
        self.tau_s = np.asarray(self.tau_s, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.tau_s.shape != self.v.shape:
            raise ValueError("tau_s and v must have equal lengths")
        if not np.all(np.isfinite(self.v)):
            raise ValueError("echo amplitudes must be finite")


@dataclass
class EchoExperiment:
    """Specification of one two-pulse echo run."""

    system: SpinSystemParams
    pulse1: PulseSpec
    pulse2: PulseSpec
    tau_grid: np.ndarray
    detect_m_i: float
    engine: str = "average-hamiltonian"
    resonance_offset_hz: float | None = None
    t2_s: float | None = None
    steps_per_period: int = 40

    def __post_init__(self):
        self.tau_grid = np.asarray(self.tau_grid, dtype=float)
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.tau_grid.ndim != 1 or self.tau_grid.size == 0:
            raise ValueError("tau_grid must be a non-empty 1-d array")
        if np.any(self.tau_grid < 0) or np.any(np.diff(self.tau_grid) <= 0):
            raise ValueError("tau_grid must be non-negative and strictly increasing")
        # validates the projection against the nuclear spin
        projector_mi(self.system.i, self.detect_m_i)
        if self.t2_s is not None and self.t2_s <= 0:
            raise ValueError("t2_s must be positive")
        if self.steps_per_period < MIN_STEPS_PER_PERIOD:
            raise ValueError(
                f"stepped engine substep too coarse: need >= "
                f"{MIN_STEPS_PER_PERIOD} steps per microwave period")


def microwave_freq_hz(exp: EchoExperiment) -> float:
    """Rotating-frame frequency for the run.

    ``resonance_offset_hz`` positions the frame relative to the detected
    line center (offset = line - frame); if unset, an explicit
    ``system.f_mw_hz`` is used; otherwise the frame sits exactly on the
    detected line.
    """
    if exp.resonance_offset_hz is not None and exp.system.f_mw_hz is not None:
        raise ValueError("give either resonance_offset_hz or f_mw_hz, not both")
    center = line_center_hz(exp.system, exp.detect_m_i)
    if exp.resonance_offset_hz is not None:
        return center - exp.resonance_offset_hz
    if exp.system.f_mw_hz is not None:
        return exp.system.f_mw_hz
    return center


def detection_operator(system: SpinSystemParams, m_i: float) -> np.ndarray:
    """Sy x P_mi, the line-selective transverse detection operator."""
    _, sy, _ = spin_matrices(system.s)
    return kron(sy, projector_mi(system.i, m_i))


class _Propagator:
    """Free-evolution propagator factory for one engine/frame, with the
    expensive diagonalizations cached across tau points."""

    def __init__(self, engine: str, system: SpinSystemParams,
                 f_mw_hz: float, steps_per_period: int = 40):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        self.engine = engine
        self.system = system
        self.f_mw_hz = f_mw_hz
        self.steps_per_period = steps_per_period
        dim = system.basis.dim
        self._eye = np.eye(dim, dtype=complex)
        self._mz = system.basis.m_s_diagonal()
        if engine == "average-hamiltonian":
            h = h_avg0(system, f_mw_hz) + h_avg1(system)
            self._phases = np.diag(h).real
        elif engine == "exact-lab-frame":
            self._w0, self._v0 = np.linalg.eigh(h0_lab(system))
        else:
            if steps_per_period < MIN_STEPS_PER_PERIOD:
                raise ValueError(
                    f"stepped engine substep too coarse: need >= "
                    f"{MIN_STEPS_PER_PERIOD} steps per microwave period")
            from scipy.linalg import schur
            self._w, self._v = np.linalg.eigh(h_rot_t(system, 0.0, f_mw_hz))
            period = self._midpoint_run(steps_per_period,
                                        1.0 / (f_mw_hz * steps_per_period))
            t, self._q = schur(period, output="complex")  # Q diag(t) Q^H
            self._angles = np.angle(np.diag(t))

    def stack(self, tau) -> np.ndarray:
        """Propagators U(0, tau[k]), shape (n_tau, d, d); every propagator
        with tau = 0 is exactly the identity."""
        tau = np.asarray(tau, dtype=float)
        if np.any(tau < 0):
            raise ValueError("tau must be non-negative")
        if self.engine == "average-hamiltonian":
            out = np.zeros(tau.shape + self._eye.shape, dtype=complex)
            diag = np.arange(self._eye.shape[0])
            out[:, diag, diag] = np.exp(-1j * self._phases * tau[:, None])
        elif self.engine == "exact-lab-frame":
            phases = np.exp(-1j * self._w0 * tau[:, None])
            core = (self._v0 * phases[:, None, :]) @ self._v0.conj().T
            out = self._frame(tau[:, None])[:, :, None] * core
        else:
            out = np.array([self._stepped(t) for t in tau])
        out[tau == 0.0] = self._eye
        return out

    def translate(self, t_start, u) -> np.ndarray:
        """U(t_start, t_start + tau) = R(t_start) U(0, tau) R(t_start)^H for
        one propagator ``u`` or a stack with one ``t_start`` per matrix."""
        r = self._frame(np.asarray(t_start, dtype=float)[..., None])
        return (r[..., :, None] * u) * r[..., None, :].conj()

    def _frame(self, t: float | np.ndarray) -> np.ndarray:
        """Diagonal of the frame rotation R(t) = exp(+i*w_mw*Sz*t)."""
        return np.exp(1j * TWO_PI * self.f_mw_hz * self._mz * t)

    def _midpoint_run(self, n_sub: int, dt: float) -> np.ndarray:
        """Product of ``n_sub`` midpoint substeps of length ``dt`` from t = 0,
        R(t_last) (E R(-dt))^(n_sub-1) E R(t_0)^H with t_k = (k + 1/2) dt."""
        e = (self._v * np.exp(-1j * self._w * dt)) @ self._v.conj().T
        u = np.linalg.matrix_power(e * self._frame(-dt), n_sub - 1) @ e
        return ((self._frame((n_sub - 0.5) * dt)[:, None] * u)
                * self._frame(0.5 * dt).conj())

    def _stepped(self, tau: float) -> np.ndarray:
        period = 1.0 / self.f_mw_hz
        dt = period / self.steps_per_period
        n_periods = int(np.floor(tau / period + 1e-9))
        remainder = tau - n_periods * period
        # whole periods from the eigenphases, multiplied exactly
        u = (self._q * np.exp(1j * n_periods * self._angles)) @ self._q.conj().T
        if remainder > 1e-16:
            # R(n_periods * period) is a scalar, so the rest starts at t = 0
            n_sub = max(1, int(np.ceil(remainder / dt - 1e-9)))
            u = self._midpoint_run(n_sub, remainder / n_sub) @ u
        return u


def free_evolution(engine: str, system: SpinSystemParams, tau: float,
                   t_start: float = 0.0, *, f_mw_hz: float | None = None,
                   steps_per_period: int = 40) -> np.ndarray:
    """Unitary free-evolution propagator over [t_start, t_start + tau].

    ``f_mw_hz`` defaults to the system's frame (or the bare electron Zeeman
    frequency).  For one-off calls; batch users should reuse
    :class:`_Propagator` via :func:`run_two_pulse_echo`.
    """
    prop = _Propagator(engine, system, _f_mw_effective(system, f_mw_hz),
                       steps_per_period)
    return prop.translate(t_start, prop.stack([tau])[0])


def thermal_deviation(system: SpinSystemParams) -> np.ndarray:
    """Initial deviation density matrix, -Sz x 1 (traceless).

    The sign is the physical one for a positive electron Zeeman term
    (lower-energy projections are more populated) and makes the two-pulse
    echo amplitude positive at small tau.
    """
    _, _, sz = spin_matrices(system.s)
    return kron(-sz, np.eye(multiplicity(system.i)))


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


class _EchoPlan:
    """Everything of one echo experiment that does not depend on the pulse
    scales of an ensemble node, built once; see "Echo kernel" above.

    Holds the U1(tau) stack, G(tau) = U2^H D U2 at the refocused coherence
    pairs only, one scale -> propagator factory per pulse, and a one-entry
    memo of the pulse-1 coherences X(tau) keyed on ``scale1``.
    """

    def __init__(self, exp: EchoExperiment):
        system = exp.system
        self.f_mw_hz = microwave_freq_hz(exp)
        prop = _Propagator(exp.engine, system, self.f_mw_hz,
                           exp.steps_per_period)
        det_op = detection_operator(system, exp.detect_m_i)
        order = system.basis.electron_order()
        self._plus = order == 1
        self._sigma0 = thermal_deviation(system)
        # (i, j) of every element the refocusing pulse may fill (order -1)
        self._i, self._j = np.nonzero(order == -1)
        tau = exp.tau_grid
        self._u1 = np.empty((tau.size,) + det_op.shape, dtype=complex)
        self._g_ji = np.empty((tau.size, self._i.size), dtype=complex)
        self._g_ij = np.empty_like(self._g_ji)
        for start in range(0, tau.size, TAU_BLOCK):
            blk = slice(start, start + TAU_BLOCK)
            self._u1[blk] = u1 = prop.stack(tau[blk])
            u2 = prop.translate(tau[blk], u1)
            g = _dagger(u2) @ det_op @ u2
            self._g_ji[blk] = g[:, self._j, self._i]
            self._g_ij[blk] = g[:, self._i, self._j]
        self._pulse1 = _scaled_propagator(exp.pulse1, system, self.f_mw_hz)
        self._pulse2 = _scaled_propagator(exp.pulse2, system, self.f_mw_hz)
        self._x_scale = None
        self._x = None

    def _coherences(self, scale1: float) -> np.ndarray:
        """X(tau) = U1 rho1 U1^H with rho1 the +1 coherences after pulse 1,
        flattened to (n_tau, d*d)."""
        if scale1 != self._x_scale:
            r1 = self._pulse1(scale1)
            rho = np.where(self._plus, r1 @ self._sigma0 @ r1.conj().T, 0.0)
            x = np.empty_like(self._u1)
            for start in range(0, x.shape[0], TAU_BLOCK):
                blk = slice(start, start + TAU_BLOCK)
                x[blk] = self._u1[blk] @ rho @ _dagger(self._u1[blk])
            self._x = x.reshape(x.shape[0], -1)
            self._x_scale = scale1
        return self._x

    def amplitudes(self, scale1: float, scale2: float) -> np.ndarray:
        """Complex echo amplitude at every tau for the given pulse scales."""
        x = self._coherences(scale1)
        r2 = self._pulse2(scale2)
        # S[:, p] = (R2 X R2^H)[i_p, j_p] = X_flat @ (R2[i_p] x conj R2[j_p])
        k = r2[self._i, :, None] * r2[self._j, None, :].conj()
        s = x @ k.reshape(self._i.size, -1).T
        # Tr[(Z + Z^H) G] over the refocused elements Z[i, j] = S
        return (s * self._g_ji + s.conj() * self._g_ij).sum(axis=1)


def run_two_pulse_echo(exp: EchoExperiment, *, scale1: float = 1.0,
                       scale2: float = 1.0, plan: _EchoPlan | None = None
                       ) -> EchoTrace:
    """Run the two-pulse echo experiment and sample V at each tau.

    ``scale1``/``scale2`` multiply the pulse rotation angles (used by the
    ensemble module for B1-inhomogeneity averaging; composites scale all
    segments together).  ``plan`` takes the experiment's :class:`_EchoPlan`,
    which an ensemble average builds once and shares across its nodes; the
    trace is the same with or without it.  When ``t2_s`` is set the trace
    is damped by exp(-2*tau/T2).
    """
    if plan is None:
        plan = _EchoPlan(exp)
    amp = plan.amplitudes(scale1, scale2)
    v = amp.real.copy()
    v_im = amp.imag.copy()
    if exp.t2_s is not None:
        v = v * np.exp(-2.0 * exp.tau_grid / exp.t2_s)
    meta = {
        "engine": exp.engine,
        "m_i": exp.detect_m_i,
        "theta1_rad": exp.pulse1.angle,
        "theta2_rad": exp.pulse2.angle,
        "pulse2_composite": exp.pulse2.composite is not None,
        "f_mw_hz": plan.f_mw_hz,
        "t2_s": exp.t2_s,
        "max_imag_residual": float(np.abs(v_im).max()),
    }
    return EchoTrace(tau_s=exp.tau_grid.copy(), v=v, metadata=meta, v_im=v_im)


def _fit_single_cosine(tau: np.ndarray, v: np.ndarray,
                       f0: float) -> tuple[float, float]:
    """Least-squares fit of v ~ c0 + c1*cos(2*pi*f*tau) + s1*sin(2*pi*f*tau),
    that is of a cosine with a free phase; returns (f, rms residual)."""
    from .spectral import _separable_fit

    def columns(x):
        ph = TWO_PI * x[0] * tau
        return np.stack([np.ones_like(tau), np.cos(ph), np.sin(ph)], axis=1)

    sol, _ = _separable_fit(v, columns, [f0])
    return float(sol.x[0]), float(np.sqrt(np.mean(sol.fun ** 2)))


def validate_aht(system: SpinSystemParams, tau_max: float = 30e-6,
                 n_points: int = 25, *, m_i: float | None = None,
                 steps_per_period: int = 40) -> dict:
    """Cross-validate the secular average-Hamiltonian dynamics.

    Runs the ideal pi/2 - pi echo on all three engines over ``tau_max`` and
    reports the pairwise trace deviations and fitted modulation frequencies.
    The exact and average-Hamiltonian engines differ through third-order
    hyperfine terms, so their modulation frequencies agree to a relative
    accuracy of order a/we; the stepped engine adds its own quadratic
    integration error on top of that.  A perturbative-regime warning is set
    when a/we exceeds 0.05.
    """
    if m_i is None:
        m_i = min(system.i, 1.0)
    a_over_we = abs(system.a_hz) / system.f_e_hz
    tau = np.linspace(tau_max / n_points, tau_max, n_points)
    d_hz = delta_hz(system)

    traces = {}
    for engine in ENGINES:
        exp = EchoExperiment(
            system=system,
            pulse1=PulseSpec(angle=np.pi / 2),
            pulse2=PulseSpec(angle=np.pi),
            tau_grid=tau, detect_m_i=m_i, engine=engine,
            resonance_offset_hz=0.0, steps_per_period=steps_per_period)
        traces[engine] = run_two_pulse_echo(exp)

    v_ah = traces["average-hamiltonian"].v
    scale = max(np.abs(v_ah).max(), 1e-30)
    report = {
        "a_over_we": a_over_we,
        "freq_rel_bound": max(5.0 * a_over_we, 1e-10),
        "perturbative_warning": a_over_we > 0.05,
        "tau_max_s": tau_max,
        "m_i": m_i,
        "delta_hz": d_hz,
    }
    if d_hz > 0:
        freqs = {}
        for engine in ENGINES:
            freqs[engine], _ = _fit_single_cosine(tau, traces[engine].v,
                                                  2.0 * d_hz)
        f_ah = freqs["average-hamiltonian"]
        report["modulation_freq_hz"] = freqs
        report["freq_rel_dev_exact"] = abs(freqs["exact-lab-frame"] - f_ah) / f_ah
        report["freq_rel_dev_stepped"] = abs(
            freqs["stepped-rotating-frame"] - f_ah) / f_ah
    else:
        report["modulation_freq_hz"] = None
        report["freq_rel_dev_exact"] = 0.0
        report["freq_rel_dev_stepped"] = 0.0
    report["v_rel_dev_exact"] = float(
        np.abs(traces["exact-lab-frame"].v - v_ah).max() / scale)
    report["v_rel_dev_stepped"] = float(
        np.abs(traces["stepped-rotating-frame"].v - v_ah).max() / scale)
    report["passed"] = bool(
        report["freq_rel_dev_exact"] <= report["freq_rel_bound"]
        and report["freq_rel_dev_stepped"] <= 0.01)
    return report
