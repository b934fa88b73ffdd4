"""Programmatic invariant suite: every module's structural and numerical
guarantees bundled as named checks for the ``validate`` command.

Each check returns its measured figure of merit and the bound it must stay
under, so the report is auditable.  Bounds follow the physics: matrix
identities sit at numerical precision (1e-12 / 1e-10), engine cross-checks
at closed-form precision (1e-8 / 1e-9), and perturbative-truncation
comparisons at their leading neglected order (a^3/we^2 for level shifts,
a/we relative for modulation frequencies).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .analytic import v_general, v_outer
from .engine import (ENGINES, EchoExperiment, _EchoPlan, free_evolution,
                     run_two_pulse_echo, validate_aht)
from .ensemble import (AngleDistribution, average_analytic_outer,
                       average_trace, i1_i2_ratio)
from .hamiltonians import (TWO_PI, delta_hz, epr_stick_spectrum, h0_lab,
                           h_avg0, h_avg1, h_rot_t)
from .pulses import PulseSpec, composite_pi, rotation_operator
from .spectral import EchoTrace, fft_magnitude, find_peaks, fit_decay
from .spinops import expm_hermitian, kron, projections, spin_matrices
from .system import nc60_params


@dataclass
class CheckResult:
    check_id: str
    description: str
    passed: bool
    measured: float
    bound: float
    seconds: float

    def row(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return (f"[{status}] {self.check_id:<28s} measured={self.measured:.3e} "
                f"bound={self.bound:.3e} ({self.seconds:.2f} s)")


def _ideal_echo(p, tau, *, m_i=1.0, theta2=np.pi, engine="average-hamiltonian",
                offset=0.0, **kw) -> EchoExperiment:
    """The pi/2 - theta2 echo with ideal pulses, the frame ``offset`` Hz
    off the detected line; ``kw`` goes to :class:`EchoExperiment`."""
    return EchoExperiment(system=p, pulse1=PulseSpec(np.pi / 2),
                          pulse2=PulseSpec(theta2), tau_grid=tau,
                          detect_m_i=m_i, engine=engine,
                          resonance_offset_hz=offset, **kw)


def _spin_commutator_casimir() -> tuple[float, float]:
    worst = 0.0
    for twice_s in range(1, 11):
        s = twice_s / 2.0
        sx, sy, sz = spin_matrices(s)
        comm = np.abs(sx @ sy - sy @ sx - 1j * sz).max()
        casimir = np.abs(sx @ sx + sy @ sy + sz @ sz
                         - s * (s + 1) * np.eye(sx.shape[0])).max()
        worst = max(worst, comm, casimir)
    return worst, 1e-12


def _expm_properties() -> tuple[float, float]:
    rng = np.random.default_rng(7)
    worst = 0.0
    for dim in (2, 5, 12):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        t1, t2 = rng.uniform(0.1, 2.0, size=2)
        u1 = expm_hermitian(h, t1)
        u2 = expm_hermitian(h, t2)
        u12 = expm_hermitian(h, t1 + t2)
        worst = max(worst, np.abs(u1 @ u2 - u12).max())
        worst = max(worst, np.abs(u1 @ u1.conj().T - np.eye(dim)).max())
    return worst, 1e-10


def _kron_mixed_product() -> tuple[float, float]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for da, db in ((2, 3), (4, 3), (3, 2)):
        mats = []
        for dim in (da, db, da, db):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            mats.append((m + m.conj().T) / 2)
        a, b, c, d = mats
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        worst = max(worst, np.abs(lhs - rhs).max())
    return worst, 1e-12


def _block_transition_errors(p) -> float:
    """Largest within-block transition-frequency disagreement (Hz) between
    exact and second-order average-Hamiltonian eigenvalues."""
    basis = p.basis
    h_exact = h0_lab(p)
    h_pert = h_avg0(p, f_mw_hz=0.0) + h_avg1(p)

    def labeled_levels(h):
        w, v = np.linalg.eigh(h)
        out = {}
        for k in range(basis.dim):
            out[int(np.argmax(np.abs(v[:, k])))] = w[k]
        return out

    le = labeled_levels(h_exact)
    lp = labeled_levels(h_pert)
    worst = 0.0
    for m_i in projections(p.i):
        for m_s in projections(p.s)[:-1]:
            up = basis.index_of(m_s, m_i)
            lo = basis.index_of(m_s - 1, m_i)
            f_e = (le[up] - le[lo]) / TWO_PI
            f_p = (lp[up] - lp[lo]) / TWO_PI
            worst = max(worst, abs(f_e - f_p))
    return worst


def _exact_vs_perturbative() -> tuple[float, float]:
    p = nc60_params()
    bound = 5.0 * abs(p.a_hz) ** 3 / p.f_e_hz ** 2
    return _block_transition_errors(p), bound


def _perturbative_scaling() -> tuple[float, float]:
    # third-order residual must shrink ~8x when the coupling is halved
    err_full = _block_transition_errors(nc60_params())
    err_half = _block_transition_errors(nc60_params(a_hz=15.8e6 / 2))
    return err_half / err_full, 1.0 / 6.0


def _h_avg1_structure() -> tuple[float, float]:
    p = nc60_params()
    h1 = h_avg1(p)
    worst = abs(np.trace(h1).real)
    d_ang = TWO_PI * delta_hz(p)
    sx, sy, sz = spin_matrices(p.s)
    szn = spin_matrices(p.i)[2]
    qi = p.i * (p.i + 1)
    qs = p.s * (p.s + 1)
    basis = p.basis
    for m_i in projections(p.i):
        idx = basis.mi_indices(m_i)
        block = h1[np.ix_(idx, idx)]
        expected = 0.5 * d_ang * ((qi - m_i ** 2) * sz
                                  + m_i * (sz @ sz) - qs * m_i * np.eye(4))
        worst = max(worst, np.abs(block - expected).max())
    return worst / d_ang, 1e-12


def _h_rot_period_average() -> tuple[float, float]:
    p = nc60_params()
    f_mw = p.f_e_hz
    n = 1024
    period = 1.0 / f_mw
    acc = np.zeros((p.basis.dim, p.basis.dim), dtype=complex)
    for k in range(n):
        acc += h_rot_t(p, (k + 0.5) * period / n, f_mw)
    acc /= n
    target = h_avg0(p, f_mw)
    scale = np.abs(target).max()
    return float(np.abs(acc - target).max() / scale), 1e-10


def _stick_intensity_sums() -> tuple[float, float]:
    worst = 0.0
    for a_hz in (15.8e6, 4.0e6):
        p = nc60_params(a_hz=a_hz)
        total = p.s * (p.s + 1) * (2 * p.s + 1) * 2 / 3  # sum over one group
        lines = epr_stick_spectrum(p)
        for m_i in projections(p.i):
            got = sum(l.intensity for l in lines if l.m_i == m_i)
            worst = max(worst, abs(got - total) / total)
    return worst, 1e-5


def _propagator_unitarity() -> tuple[float, float]:
    p = nc60_params()
    worst = 0.0
    eye = np.eye(p.basis.dim)
    for engine in ENGINES:
        u = free_evolution(engine, p, 2.31e-6, 0.7e-6,
                           f_mw_hz=p.f_e_hz + p.a_hz)
        worst = max(worst, np.abs(u @ u.conj().T - eye).max())
    return worst, 1e-10


def _sigma_propagation_health() -> tuple[float, float]:
    p = nc60_params()
    sz = kron(spin_matrices(p.s)[2], np.eye(3))
    sigma = -sz
    r1 = rotation_operator(PulseSpec(np.pi / 2), p)
    u = free_evolution("exact-lab-frame", p, 5e-6, 0.0, f_mw_hz=p.f_e_hz)
    sigma = u @ (r1 @ sigma @ r1.conj().T) @ u.conj().T
    herm = np.abs(sigma - sigma.conj().T).max()
    tr_drift = abs(np.trace(sigma))
    return float(max(herm, tr_drift)), 1e-10


def _offset_refocusing() -> tuple[float, float]:
    p = nc60_params()
    tau = np.linspace(1e-6, 60e-6, 32)
    worst = 0.0
    for engine in ("average-hamiltonian", "exact-lab-frame"):
        ref = None
        for offset in (-2e6, 0.0, 2e6):
            v = run_two_pulse_echo(_ideal_echo(p, tau, engine=engine,
                                               offset=offset)).v
            if ref is None:
                ref = v
            else:
                worst = max(worst, float(np.abs(v - ref).max()))
    return worst, 1e-9


def _mi_symmetry() -> tuple[float, float]:
    p = nc60_params()
    tau = np.linspace(1e-6, 100e-6, 64)
    traces = {}
    for m_i in (1.0, -1.0):
        traces[m_i] = run_two_pulse_echo(
            _ideal_echo(p, tau, m_i=m_i, theta2=2.2)).v
    return float(np.abs(traces[1.0] - traces[-1.0]).max()), 1e-9


def _echo_operator_structure() -> tuple[float, float]:
    """U_tau R_pi U_tau must be -i * antidiag(e^{-i phi},1,1,e^{-i phi})
    within the detected manifold, phi = 2*(2 pi delta)*tau, up to a global
    phase."""
    p = nc60_params()
    d_ang = TWO_PI * delta_hz(p)
    f_mw = p.f_e_hz + p.a_hz + 0.5 * delta_hz(p)  # on the outer line
    r_pi = rotation_operator(PulseSpec(np.pi), p)
    basis = p.basis
    idx = basis.mi_indices(1.0)
    worst = 0.0
    for tau in (3.7e-6, 11.1e-6, 23.9e-6):
        u = free_evolution("average-hamiltonian", p, tau, f_mw_hz=f_mw)
        echo_op = (u @ r_pi @ u)[np.ix_(idx, idx)]
        phase = np.exp(-1j * 2 * d_ang * tau)
        expected = -1j * np.fliplr(np.diag([phase, 1.0, 1.0, phase]))
        # strip the global phase using the largest inner element
        global_ph = echo_op[1, 2] / expected[1, 2]
        worst = max(worst, float(np.abs(echo_op - global_ph * expected).max()))
    return worst, 1e-9


def _spin_half_null() -> tuple[float, float]:
    p = nc60_params(s=0.5)
    tau = np.linspace(1e-6, 100e-6, 48)
    worst = 0.0
    for m_i in (1.0, 0.0, -1.0):
        v = run_two_pulse_echo(_ideal_echo(p, tau, m_i=m_i, theta2=2.0)).v
        worst = max(worst, float(np.ptp(v)))
    return worst, 1e-9


def _spin_half_null_exact() -> tuple[float, float]:
    # exact propagation leaves only basis-mixing leakage of order (a/we)^2
    p = nc60_params(s=0.5)
    floor = 20.0 * (p.a_hz / p.f_e_hz) ** 2
    tau = np.linspace(1e-6, 100e-6, 48)
    worst = 0.0
    for m_i in (1.0, 0.0):
        v = run_two_pulse_echo(_ideal_echo(p, tau, m_i=m_i, theta2=2.0,
                                           engine="exact-lab-frame")).v
        worst = max(worst, float(np.ptp(v)))
    return worst, floor


def _ideal_modulation_laws() -> tuple[float, float]:
    p = nc60_params()
    d = delta_hz(p)
    tau = np.linspace(0.0, 200e-6, 512)
    worst = 0.0
    for m_i in (1.0, -1.0):
        v = run_two_pulse_echo(_ideal_echo(p, tau[1:], m_i=m_i)).v
        ref = 2.0 + 3.0 * np.cos(2 * TWO_PI * d * tau[1:])
        worst = max(worst, float(np.abs(v - ref).max()))
    return worst, 1e-8


def _center_flatness() -> tuple[float, float]:
    p = nc60_params()
    tau = np.linspace(1e-6, 200e-6, 512)
    v0 = run_two_pulse_echo(_ideal_echo(p, tau, m_i=0.0)).v
    # flat, at the exact-propagation central amplitude 5*sin(t1)*sin^2(t2/2)
    return float(max(np.ptp(v0), np.abs(v0 - 5.0).max())), 1e-9


def _closed_form_grid() -> tuple[float, float]:
    """Engine equals the closed-form outer-line law over a dense theta2
    grid; the central analytic-vs-numeric cross-check.  One echo plan for
    a pi refocusing pulse serves every angle, as pulse scale theta2/pi."""
    p = nc60_params()
    d = delta_hz(p)
    tau = np.linspace(1e-6, 2.0 / d, 48)
    plan = _EchoPlan(_ideal_echo(p, tau))
    worst = 0.0
    for theta2 in np.linspace(2 * np.pi / 720, 2 * np.pi, 720):
        v = plan.amplitudes(1.0, theta2 / np.pi).real
        ref = v_outer(tau, np.pi / 2, theta2, d)
        worst = max(worst, float(np.abs(v - ref).max()))
    return worst, 1e-8


def _general_s_proportionality() -> tuple[float, float]:
    d_hz = 25.8e3
    tau = np.linspace(1e-6, 80e-6, 40)
    worst = 0.0
    for s in (0.5, 1.0, 1.5, 2.0, 2.5):
        p = nc60_params(s=s)
        v = run_two_pulse_echo(_ideal_echo(p, tau)).v
        ref = v_general(s, 1.0, tau, delta_hz(p)).real
        k = float(v @ ref) / float(ref @ ref)
        worst = max(worst, float(np.abs(v - k * ref).max()))
        worst = max(worst, abs(k - 0.5))
    return worst, 1e-8


def _quadrature_convergence() -> tuple[float, float]:
    p = nc60_params()
    d = delta_hz(p)
    tau = np.linspace(1e-6, 150e-6, 128)
    ref = None
    for nodes in (41, 83):
        dist = AngleDistribution(mean=np.pi, sigma=0.31, nodes=nodes)
        v = average_analytic_outer(tau, np.pi / 2, dist, d)
        if ref is None:
            ref = v
    dev = np.abs(v - ref).max() / np.abs(ref).max()
    return float(dev), 1e-6


def _ensemble_linearity() -> tuple[float, float]:
    p = nc60_params()
    d = delta_hz(p)
    tau = np.linspace(1e-6, 120e-6, 64)
    dist = AngleDistribution(mean=np.pi, sigma=0.31, nodes=21)
    numeric = average_trace(_ideal_echo(p, tau), dist).v
    analytic = average_analytic_outer(tau, np.pi / 2, dist, d)
    return float(np.abs(numeric - analytic).max()), 1e-8


def _composite_suppression() -> tuple[float, float]:
    p = nc60_params()
    d = delta_hz(p)
    tau = np.linspace(1e-6, 200e-6, 512)
    dist = AngleDistribution(mean=np.pi, sigma=0.31, nodes=41)
    plain = _ideal_echo(p, tau)
    mags = {}
    for name, exp in (("plain", plain),
                      ("composite", replace(plain, pulse2=composite_pi()))):
        spec = fft_magnitude(average_trace(exp, dist))
        mags[name] = spec.magnitude_at(d)
    ratio = mags["plain"] / mags["composite"]
    # report the suppression factor; pass when >= 5 (bound stores the floor)
    return float(ratio), 5.0


def _b1_ratio() -> tuple[float, float]:
    dist = AngleDistribution(mean=np.pi, sigma=0.31, nodes=41)
    ratio = i1_i2_ratio(dist)
    prev = 0.0
    for sigma in (0.1, 0.2, 0.3, 0.4, 0.5):
        cur = i1_i2_ratio(AngleDistribution(mean=np.pi, sigma=sigma, nodes=41))
        if cur <= prev:  # monotonicity breach dwarfs the value tolerance
            return 999.0, 0.03
        prev = cur
    return abs(ratio - 0.17), 0.03


def _parseval() -> tuple[float, float]:
    rng = np.random.default_rng(3)
    tau = np.linspace(0, 1e-4, 256)
    v = rng.normal(size=tau.size)
    trace = EchoTrace(tau_s=tau, v=v)
    spec = fft_magnitude(trace, window="rectangular", zero_pad_factor=4)
    x = v - v.mean()
    sig_energy = float(np.sum(x ** 2))
    n_pad = spec.zero_pad_factor * x.size
    mags2 = spec.magnitude ** 2
    spec_energy = (mags2[0] + 2 * np.sum(mags2[1:-1])
                   + (mags2[-1] if n_pad % 2 == 0 else 2 * mags2[-1])) / n_pad
    return abs(spec_energy - sig_energy) / sig_energy, 1e-9


def _tone_peak_accuracy() -> tuple[float, float]:
    worst = 0.0
    tau = np.linspace(0, 200e-6, 512)
    for f0 in (21.3e3, 51.6e3, 87.9e3):
        trace = EchoTrace(tau_s=tau, v=np.cos(TWO_PI * f0 * tau))
        spec = fft_magnitude(trace, window="hann", zero_pad_factor=4)
        peaks = find_peaks(spec, rel_threshold=0.3)
        f_est = min(peaks.frequencies(), key=lambda f: abs(f - f0))
        worst = max(worst, abs(f_est - f0) / f0)
    return worst, 2e-3


def _fit_recovery_synthetic() -> tuple[float, float]:
    d = delta_hz(nc60_params())
    tau = np.linspace(1e-6, 400e-6, 600)
    v = (2 + 3 * np.cos(2 * TWO_PI * d * tau)) * np.exp(-2 * tau / 210e-6)
    fit = fit_decay(EchoTrace(tau_s=tau, v=v), model="exp-two-cosine")
    worst = max(abs(fit.params["delta_hz"] - d) / d,
                abs(fit.params["t2_s"] - 210e-6) / 210e-6)
    return float(worst), 1e-3


def _fit_recovery_engine() -> tuple[float, float]:
    # fitted delta of a realistic exact-engine trace (B1 spread, so both
    # modulation components are present) within 1 percent of a^2/f_e
    p = nc60_params()
    d = delta_hz(p)
    exp = _ideal_echo(p, np.linspace(1e-6, 200e-6, 512), m_i=-1.0,
                      engine="exact-lab-frame", t2_s=210e-6)
    dist = AngleDistribution(mean=np.pi, sigma=0.31, nodes=21)
    fit = fit_decay(average_trace(exp, dist), model="exp-two-cosine")
    return float(abs(fit.params["delta_hz"] - d) / d), 1e-2


def _aht_agreement() -> tuple[float, float]:
    p = nc60_params()
    rep = validate_aht(p, tau_max=30e-6, n_points=25)
    measured = rep["freq_rel_dev_exact"] / rep["freq_rel_bound"] \
        if rep["freq_rel_bound"] else 0.0
    measured = max(measured, rep["freq_rel_dev_stepped"] / 0.01)
    return float(measured), 1.0


def _aht_zero_coupling() -> tuple[float, float]:
    p = nc60_params(a_hz=0.0)
    tau = np.linspace(1e-6, 20e-6, 8)
    ref, *others = [run_two_pulse_echo(_ideal_echo(p, tau, engine=engine)).v
                    for engine in ENGINES]
    return max(float(np.abs(ref - v).max()) for v in others), 1e-10


CHECKS = [
    ("spin.commutator-casimir", "[Sx,Sy]=iSz and Casimir for s <= 5",
     _spin_commutator_casimir),
    ("spin.expm", "propagator composition and unitarity", _expm_properties),
    ("spin.kron-mixed-product", "(AxB)(CxD)=(AC)x(BD)", _kron_mixed_product),
    ("ham.exact-vs-perturbative", "within-block transition shifts at the "
     "third-order scale a^3/f_e^2", _exact_vs_perturbative),
    ("ham.perturbative-scaling", "residual shrinks ~8x when a is halved",
     _perturbative_scaling),
    ("ham.avg1-structure", "first-order correction block decomposition",
     _h_avg1_structure),
    ("ham.rot-period-average", "rotating-frame period average equals the "
     "secular Hamiltonian", _h_rot_period_average),
    ("ham.stick-intensity-sum", "per-line-group intensity sum independent "
     "of a", _stick_intensity_sums),
    ("engine.unitarity", "free-evolution propagators unitary",
     _propagator_unitarity),
    ("engine.sigma-health", "propagation preserves hermiticity and trace",
     _sigma_propagation_health),
    ("engine.offset-refocusing", "trace independent of resonance offset "
     "(+/- 2 MHz)", _offset_refocusing),
    ("engine.mi-symmetry", "m_i = +1 and -1 traces identical", _mi_symmetry),
    ("engine.echo-operator", "refocusing operator carries the doubled "
     "second-order phase on the outer corners", _echo_operator_structure),
    ("engine.spin-half-null", "s=1/2 shows no modulation (secular engine)",
     _spin_half_null),
    ("engine.spin-half-exact", "s=1/2 exact-engine residual at the "
     "basis-mixing floor", _spin_half_null_exact),
    ("engine.ideal-modulation", "ideal pi/2-pi outer-line law 2+3cos",
     _ideal_modulation_laws),
    ("engine.center-flat", "central-line trace flat at its exact amplitude",
     _center_flatness),
    ("analytic.engine-grid", "closed form equals engine on a 720-point "
     "theta2 grid", _closed_form_grid),
    ("analytic.general-s", "general-S sum proportional to engine traces",
     _general_s_proportionality),
    ("ensemble.quadrature", "doubling quadrature nodes is converged",
     _quadrature_convergence),
    ("ensemble.linearity", "numeric and analytic ensemble averages agree",
     _ensemble_linearity),
    ("ensemble.composite", "composite pi suppresses the fundamental peak "
     ">= 5x", _composite_suppression),
    ("ensemble.b1-ratio", "sigma=0.31 component ratio near 0.17, monotone "
     "in sigma", _b1_ratio),
    ("spectral.parseval", "rectangular-window energy conservation", _parseval),
    ("spectral.peak-accuracy", "single-tone peak within 0.2 percent",
     _tone_peak_accuracy),
    ("spectral.fit-synthetic", "fit recovers delta and T2 within 0.1 percent",
     _fit_recovery_synthetic),
    ("spectral.fit-engine", "fitted delta of an exact-engine trace within "
     "1 percent", _fit_recovery_engine),
    ("aht.engine-agreement", "engine modulation frequencies agree within "
     "their truncation bounds", _aht_agreement),
    ("aht.zero-coupling", "engines coincide when a=0", _aht_zero_coupling),
]


def run_checks() -> list[CheckResult]:
    """Run the whole invariant suite."""
    results = []
    for check_id, description, fn in CHECKS:
        t0 = time.perf_counter()
        measured, bound = fn()
        elapsed = time.perf_counter() - t0
        if check_id == "ensemble.composite":
            passed = measured >= bound  # suppression factor has a floor
        else:
            passed = measured <= bound
        results.append(CheckResult(check_id, description, bool(passed),
                                   float(measured), float(bound), elapsed))
    return results
