from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eseem.engine as engine_module
from eseem.analytic import v_outer
from eseem.engine import (ENGINES, EchoExperiment, EchoTrace, _dagger,
                          _EchoPlan, _Propagator, _unitary_eigen,
                          detection_operator, free_evolution,
                          microwave_freq_hz, run_two_pulse_echo,
                          thermal_deviation, validate_aht)
from eseem.ensemble import AngleDistribution, average_trace
from eseem.hamiltonians import TWO_PI, delta_hz, h_rot_t, line_center_hz
from eseem.pulses import PulseSpec, composite_pi, rotation_operator
from eseem.spinops import (is_unitary, kron, projections, projector_mi,
                           spin_matrices)
from eseem.system import nc60_params


@pytest.fixture
def preset():
    return nc60_params()


def make_exp(p, m_i=1.0, engine="average-hamiltonian", theta1=np.pi / 2,
             theta2=np.pi, tau=None, **kw):
    if tau is None:
        tau = np.linspace(1e-6, 200e-6, 256)
    return EchoExperiment(system=p, pulse1=PulseSpec(theta1),
                          pulse2=PulseSpec(theta2), tau_grid=tau,
                          detect_m_i=m_i, engine=engine,
                          resonance_offset_hz=kw.pop("resonance_offset_hz", 0.0),
                          **kw)


def test_outer_line_modulation_law(preset):
    d = delta_hz(preset)
    for m_i in (1.0, -1.0):
        trace = run_two_pulse_echo(make_exp(preset, m_i=m_i))
        ref = 2 + 3 * np.cos(2 * TWO_PI * d * trace.tau_s)
        assert np.abs(trace.v - ref).max() <= 1e-9


def test_center_line_flat_at_exact_amplitude(preset):
    trace = run_two_pulse_echo(make_exp(preset, m_i=0.0))
    assert np.ptp(trace.v) <= 1e-9
    # exact propagation gives 5*sin(theta1)*sin^2(theta2/2) (see v_center)
    assert np.abs(trace.v - 5.0).max() <= 1e-9


def test_sign_change_at_quarter_period(preset):
    d = delta_hz(preset)
    tau_star = 0.25 / d  # 2*pi*d*tau = pi/2
    trace = run_two_pulse_echo(make_exp(preset, tau=np.array([tau_star])))
    assert trace.v[0] == pytest.approx(-1.0, abs=1e-9)


@pytest.mark.parametrize("theta1,theta2", [
    (np.pi / 2, 2 * np.pi / 3), (0.9, 2.2), (2.4, 1.1), (np.pi / 2, np.pi / 7)])
def test_engine_matches_closed_form(preset, theta1, theta2):
    d = delta_hz(preset)
    tau = np.linspace(1e-6, 2 / d, 64)
    trace = run_two_pulse_echo(
        make_exp(preset, theta1=theta1, theta2=theta2, tau=tau))
    assert np.abs(trace.v - v_outer(tau, theta1, theta2, d)).max() <= 1e-8


def test_offset_independence(preset):
    tau = np.linspace(1e-6, 80e-6, 48)
    for engine in ("average-hamiltonian", "exact-lab-frame"):
        ref = run_two_pulse_echo(make_exp(preset, engine=engine, tau=tau)).v
        for offset in (-2e6, 1.3e6, 2e6):
            v = run_two_pulse_echo(make_exp(
                preset, engine=engine, tau=tau,
                resonance_offset_hz=offset)).v
            assert np.abs(v - ref).max() <= 1e-9


def test_mi_symmetry(preset):
    tau = np.linspace(1e-6, 150e-6, 96)
    up = run_two_pulse_echo(make_exp(preset, m_i=1.0, theta2=2.0, tau=tau)).v
    dn = run_two_pulse_echo(make_exp(preset, m_i=-1.0, theta2=2.0, tau=tau)).v
    assert np.abs(up - dn).max() <= 1e-9


def test_spin_half_no_modulation():
    p = nc60_params(s=0.5)
    tau = np.linspace(1e-6, 150e-6, 64)
    for m_i in (1.0, 0.0, -1.0):
        v = run_two_pulse_echo(make_exp(p, m_i=m_i, theta2=2.0, tau=tau)).v
        assert np.ptp(v) <= 1e-9


def test_echo_operator_outer_corner_phase(preset):
    # the refocusing block U R_pi U is -i antidiag(e^{-i phi},1,1,e^{-i phi})
    # with phi = 2*(2 pi delta)*tau, up to a global phase
    d_ang = TWO_PI * delta_hz(preset)
    f_mw = line_center_hz(preset, 1.0)
    r_pi = rotation_operator(PulseSpec(np.pi), preset)
    idx = preset.basis.mi_indices(1.0)
    for tau in (5e-6, 17.3e-6):
        u = free_evolution("average-hamiltonian", preset, tau, f_mw_hz=f_mw)
        op = (u @ r_pi @ u)[np.ix_(idx, idx)]
        expected = -1j * np.fliplr(np.diag(
            [np.exp(-2j * d_ang * tau), 1.0, 1.0, np.exp(-2j * d_ang * tau)]))
        phase = op[1, 2] / expected[1, 2]
        assert np.abs(op - phase * expected).max() <= 1e-9


def test_exact_engine_agrees_with_secular_at_third_order(preset):
    tau = np.linspace(1e-6, 100e-6, 64)
    ah = run_two_pulse_echo(make_exp(preset, tau=tau)).v
    ex = run_two_pulse_echo(make_exp(preset, engine="exact-lab-frame",
                                     tau=tau)).v
    # phase error ~ (a/we) relative on the modulation accumulates over tau
    a_over_we = preset.a_hz / preset.f_e_hz
    phase_max = 2 * TWO_PI * delta_hz(preset) * tau[-1]
    bound = 3.0 * 3.0 * a_over_we * phase_max  # amplitude 3, slope bound
    assert np.abs(ex - ah).max() <= bound
    assert np.abs(ex - ah).max() >= 1e-4  # the third-order physics is there


def test_stepped_engine_quadratic_convergence(preset, monkeypatch):
    f_mw = line_center_hz(preset, 1.0)
    tau = 5.2e-6
    exact = free_evolution("exact-lab-frame", preset, tau, f_mw_hz=f_mw)
    err = {}
    for spp in (20, 40, 80):
        monkeypatch.setattr(engine_module, "STEPS_PER_PERIOD", spp)
        stepped = free_evolution("stepped-rotating-frame", preset, tau,
                                 f_mw_hz=f_mw)
        err[spp] = np.abs(stepped - exact).max()
    assert err[40] <= err[20] / 3.0
    assert err[80] <= err[40] / 3.0


# Reference: the per-substep loop the frame-factorized stepped engine
# replaced, kept verbatim apart from reading the propagator's settings from
# outside and the substep count from the engine's constant.

def _reference_substep_product(prop, t0, n_sub, dt):
    u = np.eye(prop.system.basis.dim, dtype=complex)
    for k in range(n_sub):
        h = h_rot_t(prop.system, t0 + (k + 0.5) * dt, prop.f_mw_hz)
        w, v = np.linalg.eigh(h)
        u = ((v * np.exp(-1j * w * dt)) @ v.conj().T) @ u
    return u


def _reference_unitary_power(u, n):
    if n == 1:
        return u
    from scipy.linalg import schur
    t, q = schur(u, output="complex")
    phases = np.exp(1j * n * np.angle(np.diag(t)))
    return (q * phases) @ q.conj().T


def _reference_stepped(prop, t_start, tau):
    steps = engine_module.STEPS_PER_PERIOD
    period = 1.0 / prop.f_mw_hz
    dt = period / steps
    n_periods = int(np.floor(tau / period + 1e-9))
    remainder = tau - n_periods * period
    u = np.eye(prop.system.basis.dim, dtype=complex)
    if n_periods > 0:
        base = _reference_substep_product(prop, t_start, steps, dt)
        u = _reference_unitary_power(base, n_periods)
    if remainder > 1e-16:
        n_sub = max(1, int(np.ceil(remainder / dt - 1e-9)))
        u = _reference_substep_product(prop, t_start + n_periods * period,
                                       n_sub, remainder / n_sub) @ u
    return u


@pytest.mark.parametrize("steps", [20, 40, 80])
def test_stepped_engine_matches_substep_loop(preset, steps, monkeypatch):
    # frame 0.3 MHz off the m_i = -1 line; tau from under one microwave
    # period to 60 us, each from t = 0 and from t = tau
    monkeypatch.setattr(engine_module, "STEPS_PER_PERIOD", steps)
    f_mw = line_center_hz(preset, -1.0) - 3e5
    prop = _Propagator("stepped-rotating-frame", preset, f_mw)
    tau = np.array([0.37e-10, 0.9e-9, 1.3e-6, 17.3e-6, 60e-6])
    for t_start in (np.zeros_like(tau), tau):
        got = prop.translate(t_start, prop.stack(tau))
        for k in range(tau.size):
            ref = _reference_stepped(prop, t_start[k], tau[k])
            assert np.abs(got[k] - ref).max() <= 1e-8


@pytest.mark.parametrize("change", [{}, {"a_hz": 0.0}, {"s": 0.5}],
                         ids=["nc60", "a0", "s-half"])
@pytest.mark.parametrize("offset_hz", [0.0, -3e5])
def test_stepped_period_powers_match_schur_reference(preset, change,
                                                     offset_hz):
    # whole periods only, up to about 1.9e6 of them at 200 us; a = 0 has
    # degenerate eigenphases.  The Schur eigenphases carry about 5e-16 of
    # roundoff per period (those of the eigh form about 5e-17, both against
    # a 40-digit eigensolve of the same P), which reaches 1.1e-9 at 200 us
    p = replace(preset, **change)
    f_mw = line_center_hz(p, -1.0) + offset_hz
    prop = _Propagator("stepped-rotating-frame", p, f_mw)
    steps = engine_module.STEPS_PER_PERIOD
    period = prop._midpoint_run(steps, 1.0 / (f_mw * steps))
    n = np.round(np.linspace(0.0, 200e-6 * f_mw, 21)).astype(int)
    got = prop.stack(n / f_mw)
    for k in range(n.size):
        ref = _reference_unitary_power(period, n[k])
        assert np.abs(got[k] - ref).max() <= 2e-9


def _per_tau_stepped(prop, tau):
    # the stepped engine's per-tau loop before it took the tau grid in one
    # pass: np.linalg.matrix_power on each remainder's midpoint run
    period = 1.0 / prop.f_mw_hz
    dt = period / engine_module.STEPS_PER_PERIOD
    n_periods = int(np.floor(tau / period + 1e-9))
    remainder = tau - n_periods * period
    u = (prop._q * np.exp(1j * n_periods * prop._angles)) @ prop._q.conj().T
    if remainder > 1e-16:
        n_sub = max(1, int(np.ceil(remainder / dt - 1e-9)))
        step = remainder / n_sub
        e = (prop._v * np.exp(-1j * prop._w * step)) @ prop._v.conj().T
        run = np.linalg.matrix_power(e * prop._frame(-step), n_sub - 1) @ e
        run = ((prop._frame((n_sub - 0.5) * step)[:, None] * run)
               * prop._frame(0.5 * step).conj())
        u = run @ u
    return u


@pytest.mark.parametrize("m_i, offset_hz, steps", [(-1.0, 3e5, 40),
                                                   (0.0, -1e6, 20),
                                                   (1.0, 0.0, 80)])
def test_stepped_grid_equals_per_tau_evaluation(preset, m_i, offset_hz,
                                                steps, monkeypatch):
    # the whole grid in one pass: tau = 0, an exact multiple of the period,
    # a remainder under 1e-16 (whole periods only), and remainders spread
    # over one whole period, so every substep count occurs
    monkeypatch.setattr(engine_module, "STEPS_PER_PERIOD", steps)
    f_mw = line_center_hz(preset, m_i) - offset_hz
    prop = _Propagator("stepped-rotating-frame", preset, f_mw)
    period = 1.0 / f_mw
    tiny = 1000 * period + 5e-17
    assert 0 < tiny - 1000 * period <= 1e-16
    tau = np.concatenate([[0.0, 37 * period, tiny, 0.37e-10],
                          np.linspace(1e-6, 40e-6, 25),
                          40e-6 + period * np.arange(1, steps + 1) / steps])
    flat = np.arange(144)
    got = prop.elements(tau, flat)
    want = np.array([np.eye(12).ravel() if t == 0.0
                     else _per_tau_stepped(prop, t).ravel() for t in tau])
    assert got.tobytes() == want.tobytes()
    # a scalar tau gives one matrix, and the kernel's elements are a gather
    assert prop._stepped(tau[5]).tobytes() == want[5].tobytes()
    inside = engine_module._supports(1.5, 1.0, m_i, False).u1
    assert prop.elements(tau, inside).tobytes() == want[:, inside].tobytes()


def _crossing_params():
    # a = 2 f_I puts (m_s, m_i) = (1/2, +1), (1/2, 0) and (1/2, -1) on one
    # level to first order: three M blocks cross, so a dense eigh of H0 may
    # mix them
    f_i = nc60_params().f_i_hz
    return nc60_params(a_hz=2.0 * f_i, f_i_hz=f_i)


@pytest.mark.parametrize("system", ["s2.5-i1.5", "crossing"])
@pytest.mark.parametrize("engine", ENGINES)
def test_engines_keep_m_blocks_apart(engine, system):
    # every generator is diagonalized one M block at a time, so nothing
    # passes between blocks, not even roundoff.  A dense eigenbasis of the
    # stepped period product mixed close eigenphases of two blocks, and over
    # the 2e6 periods of 200 us that leaked 2.7e-10 between them
    # (S = 5/2, I = 3/2)
    if system == "crossing":
        p, m_i = _crossing_params(), -1.0
    else:
        p, m_i = nc60_params(s=2.5, i=1.5), -1.5
    prop = _Propagator(engine, p, line_center_hz(p, m_i))
    u = prop.stack(np.linspace(0.0, 200e-6, 5))
    total = p.basis.m_s_diagonal() + p.basis.m_i_diagonal()
    assert np.all(u[:, total[:, None] != total] == 0.0)


def test_unitary_eigen_raises_on_a_mixed_pair():
    # two eigenphases symmetric about atan(c) share one eigenvalue of the
    # Hermitian form, so its eigenvectors mix them: never return those
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))[0]
    alpha = np.arctan(1.0 / np.sqrt(3.0))
    phases = np.array([alpha + 0.7, alpha - 0.7, 0.1, 1.9, -2.5, 3.0])
    with pytest.raises(np.linalg.LinAlgError):
        _unitary_eigen((q * np.exp(1j * phases)) @ q.conj().T)
    phases[1] += 0.2
    u = (q * np.exp(1j * phases)) @ q.conj().T
    angles, vecs = _unitary_eigen(u)
    assert np.allclose(np.sort(angles), np.sort(phases), atol=1e-14)
    assert np.abs((vecs * np.exp(1j * angles)) @ vecs.conj().T - u).max() \
        <= 1e-14


def test_free_evolution_basics(preset):
    f_mw = preset.f_e_hz
    for engine in ("average-hamiltonian", "exact-lab-frame",
                   "stepped-rotating-frame"):
        u0 = free_evolution(engine, preset, 0.0, f_mw_hz=f_mw)
        assert np.allclose(u0, np.eye(12))
        u = free_evolution(engine, preset, 3.3e-6, 1.1e-6, f_mw_hz=f_mw)
        assert is_unitary(u)
    tau = 2e-6
    diag = free_evolution("average-hamiltonian", preset, tau, f_mw_hz=f_mw)
    assert np.abs(diag - np.diag(np.diag(diag))).max() == 0.0
    from eseem.hamiltonians import h_avg0, h_avg1
    phases = np.diag(h_avg0(preset, f_mw_hz=f_mw) + h_avg1(preset)).real
    assert np.allclose(np.diag(diag), np.exp(-1j * phases * tau))
    with pytest.raises(ValueError):
        free_evolution("magic", preset, 1e-6, f_mw_hz=f_mw)


def test_secular_hamiltonian_alone_gives_no_modulation(preset):
    # without the first-order correction the within-manifold level shifts
    # are linear in m_s and refocus completely: a flat echo at every tau
    from eseem.hamiltonians import h_avg0
    from eseem.spinops import expm_hermitian
    f_mw = line_center_hz(preset, 1.0)
    h = h_avg0(preset, f_mw_hz=f_mw)
    r1 = rotation_operator(PulseSpec(np.pi / 2), preset)
    r2 = rotation_operator(PulseSpec(np.pi), preset)
    order = preset.basis.electron_order()
    det_op = detection_operator(preset, 1.0)
    sigma0 = thermal_deviation(preset)
    values = []
    for tau in np.linspace(1e-6, 120e-6, 24):
        u = expm_hermitian(h, tau)
        sigma = np.where(order == 1, r1 @ sigma0 @ r1.conj().T, 0.0)
        sigma = u @ sigma @ u.conj().T
        sigma = np.where(order == -1, r2 @ sigma @ r2.conj().T, 0.0)
        sigma = sigma + sigma.conj().T
        sigma = u @ sigma @ u.conj().T
        values.append(np.trace(sigma @ det_op).real)
    assert np.ptp(values) <= 1e-9


def test_detect_examples(preset):
    def detect(sigma, m_i):
        return np.trace(sigma @ detection_operator(preset, m_i)).real

    sy = spin_matrices(1.5)[1]
    sz = spin_matrices(1.5)[2]
    sigma = kron(sy, projector_mi(1.0, 1.0))
    assert detect(sigma, 1.0) == pytest.approx(5.0, abs=1e-12)
    assert detect(kron(sz, np.eye(3)), 1.0) == pytest.approx(0.0, abs=1e-12)
    r = rotation_operator(PulseSpec(np.pi / 2), preset)
    after = r @ kron(sz, np.eye(3)) @ r.conj().T
    for m_i in (1.0, 0.0, -1.0):
        assert detect(after, m_i) == pytest.approx(5.0, abs=1e-12)


def test_thermal_deviation_is_negative_sz(preset):
    sigma0 = thermal_deviation(preset)
    assert np.trace(sigma0) == pytest.approx(0.0, abs=1e-12)
    assert sigma0[0, 0].real < 0  # stretched state depleted


def test_detection_operator_structure(preset):
    d_op = detection_operator(preset, -1.0)
    sy = spin_matrices(1.5)[1]
    assert np.allclose(d_op, kron(sy, np.diag([0.0, 0.0, 1.0])))


@pytest.mark.parametrize("m_i", [1.0, 0.0, -1.0])
def test_microwave_frequency_defaults_to_the_detected_line(preset, m_i):
    # no offset: the frame sits on the line itself, as a zero offset puts it
    exp = EchoExperiment(system=preset, pulse1=PulseSpec(np.pi / 2),
                         pulse2=PulseSpec(np.pi),
                         tau_grid=np.linspace(1e-6, 20e-6, 4), detect_m_i=m_i)
    assert microwave_freq_hz(exp) == line_center_hz(preset, m_i)
    on_line = make_exp(preset, m_i=m_i, tau=exp.tau_grid)
    assert run_two_pulse_echo(exp).v.tobytes() == \
        run_two_pulse_echo(on_line).v.tobytes()


def test_t2_damping(preset):
    tau = np.linspace(1e-6, 100e-6, 32)
    undamped = run_two_pulse_echo(make_exp(preset, tau=tau))
    damped = run_two_pulse_echo(make_exp(preset, tau=tau, t2_s=210e-6))
    assert np.allclose(damped.v, undamped.v * np.exp(-2 * tau / 210e-6))


def test_microwave_frequency_resolution(preset):
    exp = make_exp(preset, m_i=1.0)
    assert microwave_freq_hz(exp) == pytest.approx(line_center_hz(preset, 1.0))
    exp_off = make_exp(preset, m_i=1.0, resonance_offset_hz=5e3)
    assert microwave_freq_hz(exp_off) == pytest.approx(
        line_center_hz(preset, 1.0) - 5e3)


def test_experiment_validation(preset):
    with pytest.raises(ValueError):
        make_exp(preset, tau=np.array([2e-6, 1e-6]))
    with pytest.raises(ValueError):
        make_exp(preset, tau=np.array([-1e-6, 1e-6]))
    with pytest.raises(ValueError):
        make_exp(preset, m_i=0.5)
    with pytest.raises(ValueError):
        make_exp(preset, engine="nope")
    with pytest.raises(ValueError, match="t2_s"):
        make_exp(preset, t2_s=0.0)  # at construction, before any run
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="resonance_offset_hz"):
            make_exp(preset, resonance_offset_hz=bad)
    with pytest.raises(ValueError):
        EchoTrace(tau_s=np.array([1e-6]), v=np.array([1.0, 2.0]))


@pytest.mark.parametrize("engine", ENGINES)
def test_frame_at_or_below_zero_is_refused(preset, engine):
    # offset = line centre - frame: the centre puts the frame at 0 Hz and
    # 1e10 puts it below; the stepped engine's period 1/f_mw needs a frame
    # above 0 Hz, and every engine refuses the same frames
    centre = line_center_hz(preset, -1.0)
    for offset in (centre, 1e10):
        with pytest.raises(ValueError, match="frame frequency"):
            make_exp(preset, m_i=-1.0, engine=engine,
                     resonance_offset_hz=offset)
    for f_mw in (0.0, -3.46e8, np.nan):
        with pytest.raises(ValueError, match="frame frequency"):
            free_evolution(engine, preset, 1e-6, f_mw_hz=f_mw)
    # just inside: a frame 1 kHz above 0 Hz is a frame
    exp = make_exp(preset, m_i=-1.0, engine=engine,
                   resonance_offset_hz=centre - 1e3)
    assert microwave_freq_hz(exp) > 0


def test_trace_refuses_non_finite_tau():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="tau values must be finite"):
            EchoTrace(tau_s=np.array([1e-6, bad]), v=np.ones(2))


@pytest.mark.parametrize("engine", ENGINES)
def test_detect_m_i_stored_as_exact_projection(preset, engine):
    # the line is read once, through spinops.projection; every later test
    # of it, and the frame on its center, sees the exact projection
    tau = np.linspace(1e-6, 40e-6, 12)
    near = make_exp(preset, m_i=-1 + 1e-10, engine=engine, tau=tau)
    assert type(near.detect_m_i) is float and near.detect_m_i == -1.0
    got = run_two_pulse_echo(near)
    want = run_two_pulse_echo(make_exp(preset, m_i=-1.0, engine=engine,
                                       tau=tau))
    assert got.v.tobytes() == want.v.tobytes()
    assert got.metadata == want.metadata
    assert got.metadata["m_i"] == -1.0
    with pytest.raises(ValueError, match="projection -1.5 invalid for spin 1"):
        make_exp(preset, m_i=-1.5, engine=engine, tau=tau)


def test_composite_pulse_echo_sign(preset):
    # the composite refocuses about y, rotating the echo phase by pi
    tau = np.linspace(1e-6, 60e-6, 16)
    plain = run_two_pulse_echo(make_exp(preset, tau=tau)).v
    exp = EchoExperiment(system=preset, pulse1=PulseSpec(np.pi / 2),
                         pulse2=composite_pi(), tau_grid=tau,
                         detect_m_i=1.0, engine="average-hamiltonian",
                         resonance_offset_hz=0.0)
    comp = run_two_pulse_echo(exp).v
    assert np.abs(comp + plain).max() <= 1e-9


def test_validate_aht_report(preset):
    report = validate_aht(preset, tau_max=25e-6, n_points=21)
    assert report["passed"]
    assert not report["perturbative_warning"]
    assert report["freq_rel_dev_stepped"] <= report["freq_rel_bound_stepped"]
    assert report["freq_rel_dev_exact"] <= 5 * preset.a_hz / preset.f_e_hz
    freqs = report["modulation_freq_hz"]
    d = delta_hz(preset)
    assert freqs["average-hamiltonian"] == pytest.approx(2 * d, rel=1e-6)
    assert freqs["exact-lab-frame"] == pytest.approx(2 * d, rel=0.01)


def test_validate_aht_detects_a_line_of_any_nuclear_spin():
    # the largest projection up to 1: 1/2 for I = 3/2, which has no m_i = 1
    report = validate_aht(nc60_params(s=2.5, i=1.5), tau_max=4e-6, n_points=4)
    assert report["m_i"] == 0.5


def test_validate_aht_zero_coupling():
    report = validate_aht(nc60_params(a_hz=0.0), tau_max=10e-6, n_points=9)
    assert report["v_rel_dev_exact"] <= 1e-10
    assert report["v_rel_dev_stepped"] <= 1e-10


def test_validate_aht_warns_outside_perturbative_regime():
    with pytest.warns(UserWarning):
        p = nc60_params(a_hz=0.1 * 9.67e9)
    report = validate_aht(p, tau_max=2e-9, n_points=5)
    assert report["perturbative_warning"]


# Reference: the per-tau loop the batched echo kernel replaced, kept verbatim
# apart from reading the propagator's cached spectra from outside.  Every
# engine's U(0, tau) is moved to start at t_start by the frame rotation
# R(t_start) = exp(+i*w_mw*Sz*t_start), written out here.

def _reference_propagator(prop, t_start, tau):
    if tau == 0.0:
        return np.eye(prop.system.basis.dim, dtype=complex)
    mz = prop.system.basis.m_s_diagonal()
    if prop.engine == "average-hamiltonian":
        u = np.diag(np.exp(-1j * prop._phases * tau))
    elif prop.engine == "exact-lab-frame":
        w_mw = TWO_PI * prop.f_mw_hz
        core = (prop._v0 * np.exp(-1j * prop._w0 * tau)) @ prop._v0.conj().T
        u = np.exp(1j * w_mw * mz * tau)[:, None] * core
    else:
        u = prop._stepped(tau)
    r = np.exp(1j * TWO_PI * prop.f_mw_hz * mz * t_start)
    return (r[:, None] * u) * r.conj()


def _reference_echo_amplitude(u1, u2, r1, r2, sigma0, det_op, sel_p, sel_m):
    sigma = r1 @ sigma0 @ r1.conj().T
    sigma = np.where(sel_p, sigma, 0.0)
    sigma = u1 @ sigma @ u1.conj().T
    sigma = r2 @ sigma @ r2.conj().T
    sigma = np.where(sel_m, sigma, 0.0)
    sigma = sigma + sigma.conj().T
    sigma = u2 @ sigma @ u2.conj().T
    return np.trace(sigma @ det_op)


def _reference_amplitudes(exp, scale1=1.0, scale2=1.0):
    system = exp.system
    f_mw = microwave_freq_hz(exp)
    prop = _Propagator(exp.engine, system, f_mw)
    r1 = rotation_operator(exp.pulse1, system, scale1, f_mw)
    r2 = rotation_operator(exp.pulse2, system, scale2, f_mw)
    order = system.basis.electron_order()
    sigma0 = thermal_deviation(system)
    det_op = detection_operator(system, exp.detect_m_i)
    return np.array([_reference_echo_amplitude(
        _reference_propagator(prop, 0.0, tau),
        _reference_propagator(prop, tau, tau), r1, r2, sigma0, det_op,
        order == 1, order == -1) for tau in exp.tau_grid])


def _assert_matches_reference(v, ref, rel=1e-12):
    """The real trace ``v`` equals the complex dense amplitude ``ref``
    within ``rel`` of max|ref|, and so does ref's own imaginary part."""
    tol = rel * np.abs(ref).max()
    assert np.abs(ref.imag).max() <= tol
    assert np.abs(v - ref.real).max() <= tol


def _pulses(kind):
    if kind == "ideal":
        return PulseSpec(np.pi / 2), PulseSpec(np.pi)
    p1 = PulseSpec(np.pi / 2, model="finite", duration_s=56e-9)
    if kind == "finite":
        return p1, PulseSpec(np.pi, model="finite", duration_s=112e-9)
    cp3 = composite_pi()
    return p1, PulseSpec(cp3.angle, model="finite", duration_s=112e-9,
                         composite=cp3.composite)


@pytest.mark.parametrize("pulses", ["ideal", "finite", "cp3"])
@pytest.mark.parametrize("engine", ENGINES)
def test_batched_kernel_matches_per_tau_loop(preset, engine, pulses):
    stepped = engine == "stepped-rotating-frame"
    tau = np.linspace(0.0, 60e-6, 5 if stepped else 97)  # starts at tau = 0
    p1, p2 = _pulses(pulses)
    exp = EchoExperiment(system=preset, pulse1=p1, pulse2=p2, tau_grid=tau,
                         detect_m_i=-1.0, engine=engine,
                         resonance_offset_hz=3e5)
    ref = _reference_amplitudes(exp, scale1=0.93, scale2=1.07)
    _assert_matches_reference(
        run_two_pulse_echo(exp, scale1=0.93, scale2=1.07).v, ref)
    # one shared plan whose pulse-1 memo holds another scale1: a memo miss,
    # then a hit
    plan = _EchoPlan(exp)
    run_two_pulse_echo(exp, scale1=1.0, scale2=0.9, plan=plan)
    for _ in range(2):
        trace = run_two_pulse_echo(exp, scale1=0.93, scale2=1.07, plan=plan)
        _assert_matches_reference(trace.v, ref)


@pytest.mark.parametrize("engine", ENGINES)
def test_propagator_stack_matches_single_calls(preset, engine):
    prop = _Propagator(engine, preset, line_center_hz(preset, 1.0))
    tau = np.array([0.0, 1.3e-6, 7.7e-6])
    t_start = np.array([0.4e-6, 0.0, 2.9e-6])
    stack = prop.stack(tau)
    assert stack.shape == (3, 12, 12)
    assert np.array_equal(stack[0], np.eye(12))  # exact identity at tau = 0
    moved = prop.translate(t_start, stack)
    for k in range(3):
        ref = _reference_propagator(prop, 0.0, tau[k])
        assert np.abs(stack[k] - ref).max() <= 1e-12
        ref = _reference_propagator(prop, t_start[k], tau[k])
        assert np.abs(moved[k] - ref).max() <= 1e-12
        one = free_evolution(engine, preset, tau[k], t_start[k],
                             f_mw_hz=prop.f_mw_hz)
        assert np.abs(one - ref).max() <= 1e-12
        if engine == "exact-lab-frame" and tau[k] > 0:
            # the lab-frame form exp(+i w Sz (t0 + tau)) exp(-i H0 tau)
            # exp(-i w Sz t0) rounds its frame phases differently: they agree
            # to the float spacing of the largest phase
            w = TWO_PI * prop.f_mw_hz * prop.system.basis.m_s_diagonal()
            core = (prop._v0 * np.exp(-1j * prop._w0 * tau[k])) \
                @ prop._v0.conj().T
            lab = (np.exp(1j * w * (t_start[k] + tau[k]))[:, None] * core
                   * np.exp(-1j * w * t_start[k]))
            phase = np.abs(w).max() * (t_start[k] + tau[k])
            assert np.abs(moved[k] - lab).max() <= 4 * np.spacing(phase)
    with pytest.raises(ValueError):
        prop.stack(np.array([1e-6, -1e-6]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_plan_matches_dense_reference_on_random_experiments(data):
    s = data.draw(st.sampled_from([0.5, 1.0, 1.5, 2.5]), label="s")
    i = data.draw(st.sampled_from([0.5, 1.0, 1.5]), label="i")
    engine = data.draw(st.sampled_from(ENGINES), label="engine")
    p1, p2 = _pulses(data.draw(st.sampled_from(["ideal", "finite", "cp3"]),
                               label="pulses"))
    scale1, scale2 = (data.draw(st.floats(0.8, 1.2), label=f"scale{k}")
                      for k in (1, 2))
    offset = data.draw(st.floats(-2e6, 2e6), label="offset_hz")
    m_i = data.draw(st.sampled_from(list(projections(i))), label="m_i")
    n_tau = 5 if engine == "stepped-rotating-frame" else 17
    exp = EchoExperiment(system=nc60_params(s=s, i=i), pulse1=p1, pulse2=p2,
                         tau_grid=np.linspace(0.0, 60e-6, n_tau),
                         detect_m_i=m_i, engine=engine,
                         resonance_offset_hz=offset)
    plan = _EchoPlan(exp)
    # support sizes: n(M) states per M value is the convolution of the two
    # multiplicities; D = Sy x P_mi has 2 * 2S nonzeros
    n_m = np.convolve(np.ones(int(2 * s) + 1), np.ones(int(2 * i) + 1))
    sup = plan.supports
    sizes = [len(index[0]) for index in (sup.rho, sup.x, sup.pairs, sup.det)]
    assert sizes == [2 * s * (2 * i + 1), n_m[1:] @ n_m[:-1], 8 * s * i, 4 * s]
    ref = _reference_amplitudes(exp, scale1, scale2)
    trace = run_two_pulse_echo(exp, scale1=scale1, scale2=scale2, plan=plan)
    assert np.abs(ref).max() > 0.1
    _assert_matches_reference(trace.v, ref)


def _pattern(mat):
    """(row, column) of the elements above roundoff (3e-16 here)."""
    return set(zip(*np.nonzero(np.abs(mat) > 1e-13 * np.abs(mat).max())))


def test_supports_are_the_dense_nonzero_patterns(preset):
    # exact dynamics with finite pulses fill every element the conservation
    # laws allow, down to the second-order ones near (a/f_e)^2 ~ 3e-6.  G
    # also vanishes at the pairs whose M blocks hold no state of the
    # detected m_i, so its pattern is the support over the three lines
    p1, p2 = _pulses("finite")
    tau = np.array([17.3e-6])
    order = preset.basis.electron_order()
    g_union = set()
    for m_i in (1.0, 0.0, -1.0):
        exp = EchoExperiment(system=preset, pulse1=p1, pulse2=p2,
                             tau_grid=tau, detect_m_i=m_i,
                             engine="exact-lab-frame", resonance_offset_hz=3e5)
        plan = _EchoPlan(exp)
        sup = plan.supports
        f_mw = microwave_freq_hz(exp)
        prop = _Propagator(exp.engine, preset, f_mw)
        u1 = prop.stack(tau)
        u2 = prop.translate(tau, u1)[0]
        u1 = u1[0]
        r1 = rotation_operator(p1, preset, 0.93, f_mw)
        rho1 = np.where(order == 1,
                        r1 @ thermal_deviation(preset) @ r1.conj().T, 0.0)
        x = u1 @ rho1 @ u1.conj().T
        det_op = detection_operator(preset, m_i)
        for dense, support, count in (
                (rho1, sup.rho, 9), (x, sup.x, 25), (det_op, sup.det, 6)):
            assert _pattern(dense) == set(zip(*support))
            assert len(support[0]) == count
        # X from the links: every second-order element included
        plan.tabulate(np.array([0.93]), np.array([1.0]))
        x_plan = (plan._w @ plan._spread(0.93))[0]
        assert np.abs(x_plan - x[sup.x]).max() <= 1e-12 * np.abs(x).max()
        g = u2.conj().T @ det_op @ u2
        g_pattern = _pattern(np.where(order == -1, g.T, 0.0))  # G[j, i]
        assert g_pattern <= set(zip(*sup.pairs))
        g_union |= g_pattern
    assert g_union == set(zip(*sup.pairs))
    assert len(sup.pairs[0]) == 12


@pytest.mark.parametrize("s, i, m_i", [(1.5, 1.0, 1.0), (1.5, 1.0, 0.0),
                                       (1.5, 1.0, -1.0), (2.5, 1.5, 1.5),
                                       (2.5, 1.5, 0.5)])
def test_k_links_hold_every_entry_that_feeds_g(s, i, m_i):
    # K[q, p] = R2[i_p, a_q] conj R2[j_p, b_q] is dense within the m_i
    # blocks of finite pulses; every entry at a pair where the dense G[j, i]
    # is nonzero lies in the cached link set, and the plan's table holds K
    # there
    system = nc60_params(s=s, i=i)
    p1, p2 = _pulses("finite")
    tau = np.array([17.3e-6])
    exp = EchoExperiment(system=system, pulse1=p1, pulse2=p2, tau_grid=tau,
                         detect_m_i=m_i, engine="exact-lab-frame",
                         resonance_offset_hz=3e5)
    plan = _EchoPlan(exp)
    sup = plan.supports
    f_mw = microwave_freq_hz(exp)
    prop = _Propagator(exp.engine, system, f_mw)
    u2 = prop.translate(tau, prop.stack(tau))[0]
    g = u2.conj().T @ detection_operator(system, m_i) @ u2
    r2 = rotation_operator(p2, system, 1.07, f_mw)
    (a, b), (pi, pj) = sup.x, sup.pairs
    k = r2[pi[None, :], a[:, None]] * r2[pj[None, :], b[:, None]].conj()
    plan.tabulate(np.ones(1), np.array([1.07]))
    q, c = sup.k
    pair = sup.g[0][c]  # the pair of each link's column of G
    assert np.abs(plan._k[1.07] - k[q, pair]).max() <= 1e-15
    entries = np.abs(k) > 1e-13 * np.abs(k).max()
    fed = np.abs(g[pj, pi]) > 1e-13 * np.abs(g).max()
    assert set(zip(*np.nonzero(entries & fed))) <= set(zip(q, pair))
    if (s, i) == (1.5, 1.0):
        assert q.size == (30 if m_i == 0 else 24)


@pytest.mark.parametrize("pulses", ["ideal", "finite", "cp3"])
@pytest.mark.parametrize("engine", ENGINES)
def test_amplitudes_of_many_scales_equal_one_column_calls(engine, pulses):
    stepped = engine == "stepped-rotating-frame"
    p1, p2 = _pulses(pulses)
    tau = np.linspace(0.0, 60e-6, 5 if stepped else 300)  # three blocks
    exp = EchoExperiment(system=nc60_params(), pulse1=p1, pulse2=p2,
                         tau_grid=tau, detect_m_i=-1.0, engine=engine,
                         resonance_offset_hz=3e5)
    scales = np.array([0.8, 0.93, 1.0, 1.07, 1.3])
    for scale1 in (1.0, 0.93):
        many = _EchoPlan(exp).amplitudes(scale1, scales)
        assert many.shape == (exp.tau_grid.size, scales.size)
        for col, scale2 in enumerate(scales):
            one = _EchoPlan(exp).amplitudes(scale1, scales[col:col + 1])
            assert one.shape == (exp.tau_grid.size, 1)
            assert np.abs(many[:, col] - one[:, 0]).max() \
                <= 1e-15 * np.abs(one).max()
            trace = run_two_pulse_echo(exp, scale1=scale1, scale2=scale2)
            assert np.array_equal(trace.v, one[:, 0])


def test_exact_engine_bound_holds_at_a_level_crossing():
    p = _crossing_params()
    tau = np.linspace(0.0, 200e-6, 41)
    exp = EchoExperiment(system=p, pulse1=PulseSpec(np.pi / 2),
                         pulse2=PulseSpec(np.pi), tau_grid=tau,
                         detect_m_i=1.0, engine="exact-lab-frame",
                         resonance_offset_hz=0.0)
    _assert_matches_reference(run_two_pulse_echo(exp).v,
                              _reference_amplitudes(exp))


@pytest.mark.parametrize("column, m_i", [(1, -1.0), (2, 0.0), (3, 1.0)])
def test_exact_engine_matches_the_40_digit_reference(column, m_i):
    # the fixture is written by tests/make_exact_reference.py from the same
    # double H0, with the free evolution in 40-digit mpmath.  The engine's
    # large phases exp(-i w_k tau) and exp(+i w_mw m_s tau) round apart by
    # about 1e-9 of max|v| at 200 us
    ref = np.loadtxt(Path(__file__).with_name("exact_reference_nc60.txt"))
    exp = EchoExperiment(system=nc60_params(), pulse1=PulseSpec(np.pi / 2),
                         pulse2=PulseSpec(np.pi), tau_grid=ref[:, 0],
                         detect_m_i=m_i, engine="exact-lab-frame",
                         resonance_offset_hz=0.0)
    v, want = run_two_pulse_echo(exp).v, ref[:, column]
    assert np.abs(v - want).max() <= 1e-8 * np.abs(want).max()


@pytest.mark.parametrize("engine", ["exact-lab-frame",
                                    "stepped-rotating-frame"])
def test_engines_raise_on_a_generator_across_m_blocks(preset, engine,
                                                      monkeypatch):
    # M is checked once, on the generator each engine diagonalizes: H0 for
    # the exact engine, H' = h_rot(0) for the stepped one
    name = "h0_lab" if engine == "exact-lab-frame" else "h_rot_t"
    generator = getattr(engine_module, name)

    def coupled(*args):
        h = generator(*args).copy()
        h[0, 1] += 1e4  # rad/s, (3/2, +1) <-> (3/2, 0)
        h[1, 0] += 1e4
        return h

    exp = make_exp(preset, engine=engine, tau=np.linspace(1e-6, 20e-6, 4))
    _EchoPlan(exp)
    monkeypatch.setattr(engine_module, name, coupled)
    with pytest.raises(np.linalg.LinAlgError, match="conserve M"):
        _Propagator(exp.engine, preset, microwave_freq_hz(exp))
    with pytest.raises(np.linalg.LinAlgError, match="conserve M"):
        _EchoPlan(exp)


@pytest.mark.parametrize("s, i, m_i", [(1.5, 1.0, 1.0), (1.5, 1.0, 0.0),
                                       (1.5, 1.0, -1.0), (2.5, 1.5, 0.5)])
@pytest.mark.parametrize("engine", ENGINES)
def test_plan_w_and_g_equal_the_dense_stack(engine, s, i, m_i):
    p = nc60_params(s=s, i=i)
    stepped = engine == "stepped-rotating-frame"
    tau = np.linspace(0.0, 60e-6, 5 if stepped else 300)  # three blocks
    exp = EchoExperiment(system=p, pulse1=PulseSpec(np.pi / 2),
                         pulse2=PulseSpec(np.pi), tau_grid=tau,
                         detect_m_i=m_i, engine=engine,
                         resonance_offset_hz=3e5)
    plan = _EchoPlan(exp)
    sup = plan.supports
    prop = _Propagator(engine, p, microwave_freq_hz(exp))
    u1 = prop.stack(tau)
    u2 = prop.translate(tau, u1)
    g = _dagger(u2) @ detection_operator(p, m_i) @ u2
    (a, b), (k, l), (q, r) = sup.x, sup.rho, sup.links
    w = u1[:, a[q], k[r]] * u1[:, b[q], l[r]].conj()
    assert np.abs(plan._w - w).max() <= 1e-14 * np.abs(w).max()
    # the plan keeps G[j, i] only at the pairs it reaches, and G is exactly
    # zero at the others
    (pi, pj) = sup.pairs
    want = g[:, pj, pi]
    reached = sup.g[0]
    assert np.abs(plan._g - want[:, reached]).max() \
        <= 1e-14 * np.abs(want).max()
    assert not np.delete(want, reached, axis=1).any()


@pytest.mark.parametrize("leaky_pulse", [1, 2])
@pytest.mark.parametrize("kind", ["ideal", "finite"])
def test_plan_raises_on_a_pulse_across_m_i_blocks(preset, kind, leaky_pulse,
                                                  monkeypatch):
    p1, p2 = _pulses(kind)
    exp = EchoExperiment(system=preset, pulse1=p1, pulse2=p2,
                         tau_grid=np.linspace(1e-6, 20e-6, 4), detect_m_i=1.0,
                         resonance_offset_hz=0.0)
    factory = engine_module._scaled_propagator

    def leaky_factory(pulse, system, f_mw_hz=None):
        scaled = factory(pulse, system, f_mw_hz)
        if pulse is not (p1, p2)[leaky_pulse - 1]:
            return scaled

        def leaky(scale):
            u = scaled(scale)
            u[0, 1] += 1e-9  # m_i = +1 <- m_i = 0
            return u
        return leaky

    run_two_pulse_echo(exp)
    monkeypatch.setattr(engine_module, "_scaled_propagator", leaky_factory)
    with pytest.raises(np.linalg.LinAlgError, match="conserve m_i"):
        run_two_pulse_echo(exp)


def test_average_builds_each_pulse_once(preset, monkeypatch):
    # every node's propagators come from one batched call per pulse
    calls = []
    factory = engine_module._scaled_propagator

    def counting_factory(pulse, system, f_mw_hz=None):
        scaled = factory(pulse, system, f_mw_hz)

        def counted(scales):
            calls.append((pulse, len(scales)))
            return scaled(scales)
        return counted

    monkeypatch.setattr(engine_module, "_scaled_propagator", counting_factory)
    p1, p2 = _pulses("cp3")
    exp = EchoExperiment(system=preset, pulse1=p1, pulse2=p2,
                         tau_grid=np.linspace(1e-6, 20e-6, 4), detect_m_i=1.0,
                         resonance_offset_hz=0.0)
    for shared_b1 in (False, True):
        calls.clear()
        average_trace(exp, AngleDistribution(sigma=0.31, nodes=41,
                                             shared_b1=shared_b1))
        assert calls == [(p1, 41 if shared_b1 else 1), (p2, 41)]


def test_plans_share_the_initial_and_detection_operators(preset,
                                                         monkeypatch):
    # sigma0 and D depend only on (S, I, m_i): a second plan on the same
    # spin pair builds neither, and the public builders return fresh copies
    built = []

    def counting_kron(a, b):
        built.append(a.shape)
        return kron(a, b)

    monkeypatch.setattr(engine_module, "kron", counting_kron)
    engine_module._thermal_deviation.cache_clear()
    engine_module._detection_operator.cache_clear()
    tau = np.linspace(1e-6, 20e-6, 4)
    _EchoPlan(make_exp(preset, tau=tau))
    assert len(built) == 2
    _EchoPlan(make_exp(preset, tau=2 * tau, engine="exact-lab-frame"))
    assert len(built) == 2
    _EchoPlan(make_exp(preset, m_i=-1.0, tau=tau))
    assert len(built) == 3  # only the new line's D
    for op in (thermal_deviation(preset), detection_operator(preset, 1.0)):
        assert op.flags.writeable
        op[:] = 7.0
    assert len(built) == 3
    assert np.abs(thermal_deviation(preset)).max() == 1.5
    assert np.abs(detection_operator(preset, 1.0)).max() < 7.0


@pytest.mark.parametrize("shared_b1, leaky_pulse", [(False, 2), (True, 1),
                                                    (True, 2)])
def test_average_raises_on_a_stacked_pulse_across_m_i_blocks(
        preset, shared_b1, leaky_pulse, monkeypatch):
    p1, p2 = _pulses("finite")
    exp = EchoExperiment(system=preset, pulse1=p1, pulse2=p2,
                         tau_grid=np.linspace(1e-6, 20e-6, 4), detect_m_i=1.0,
                         resonance_offset_hz=0.0)
    dist = AngleDistribution(sigma=0.31, nodes=5, shared_b1=shared_b1)
    factory = engine_module._scaled_propagator

    def leaky_factory(pulse, system, f_mw_hz=None):
        scaled = factory(pulse, system, f_mw_hz)
        if pulse is not (p1, p2)[leaky_pulse - 1]:
            return scaled

        def leaky(scales):
            u = scaled(scales)
            u[..., 0, 1] += 1e-9  # m_i = +1 <- m_i = 0, in every node
            return u
        return leaky

    average_trace(exp, dist)
    monkeypatch.setattr(engine_module, "_scaled_propagator", leaky_factory)
    with pytest.raises(np.linalg.LinAlgError, match="conserve m_i"):
        average_trace(exp, dist)


@pytest.mark.parametrize("s, i, m_i", [(1.5, 1.0, 1.0), (1.5, 1.0, 0.0),
                                       (1.5, 1.0, -1.0), (2.5, 1.5, 0.5)])
def test_average_hamiltonian_supports_are_the_diagonal(s, i, m_i):
    # the average-Hamiltonian U1 is diagonal, so the kernel reads its d
    # diagonal elements, one link per rho1 element (r onto itself), the
    # G[j, i] columns of the order +1 nonzeros of D (half of them), and 2S K
    # links per column
    system = nc60_params(s=s, i=i)
    tau = np.linspace(0.0, 60e-6, 5)
    plans = {engine: _EchoPlan(EchoExperiment(
        system=system, pulse1=PulseSpec(np.pi / 2), pulse2=PulseSpec(np.pi),
        tau_grid=tau, detect_m_i=m_i, engine=engine,
        resonance_offset_hz=3e5)) for engine in ENGINES}
    diag = plans["average-hamiltonian"].supports
    blocks = plans["exact-lab-frame"].supports
    assert plans["stepped-rotating-frame"].supports is blocks
    assert diag is engine_module._supports(s, i, m_i, True)
    assert blocks is engine_module._supports(s, i, m_i, False)
    dim, n_rho, n_det = system.basis.dim, diag.rho[0].size, diag.det[0].size
    assert np.array_equal(diag.u1, np.arange(dim) * (dim + 1))
    (q, r), (a, b), (k, l) = diag.links, diag.x, diag.rho
    assert np.array_equal(r, np.arange(n_rho))
    assert np.array_equal(a[q], k) and np.array_equal(b[q], l)
    counts = [diag.u1.size, q.size, diag.g[0].size, diag.k[0].size]
    assert counts == [dim, n_rho, n_det // 2, int(2 * s) * n_det // 2]
    if (s, i) == (1.5, 1.0):
        assert counts == [12, 9, 3, 9]
        assert [blocks.u1.size, blocks.links[0].size, blocks.g[0].size,
                blocks.k[0].size] == [28, 55, 8 if m_i else 10,
                                      24 if m_i else 30]
    # every set is a subset of the M-block one; rho1, X, the pairs and D
    # are the same
    for name in ("rho", "x", "pairs", "det"):
        assert all(np.array_equal(u, v) for u, v in
                   zip(getattr(diag, name), getattr(blocks, name)))
    assert set(diag.u1) <= set(blocks.u1)
    assert set(zip(*diag.links)) <= set(zip(*blocks.links))


@pytest.mark.parametrize("pulses", ["ideal", "finite", "cp3"])
@pytest.mark.parametrize("m_i", [1.0, 0.0, -1.0])
def test_average_hamiltonian_kernel_equals_the_m_block_contraction(
        preset, pulses, m_i, monkeypatch):
    # the diagonal supports drop only terms that are exactly zero on this
    # engine: the traces and ensemble averages equal those contracted over
    # the M-block sets to roundoff
    p1, p2 = _pulses(pulses)
    exp = EchoExperiment(system=preset, pulse1=p1, pulse2=p2,
                         tau_grid=np.linspace(0.0, 200e-6, 300),
                         detect_m_i=m_i, resonance_offset_hz=3e5)
    dist = AngleDistribution(mean=np.pi, sigma=0.31, nodes=9, shared_b1=True)

    def run():
        return [t.v for t in (
            run_two_pulse_echo(exp, scale1=0.93, scale2=1.07),
            average_trace(exp, dist), average_trace(exp, replace(
                dist, shared_b1=False)))]

    diagonal = run()
    supports = engine_module._supports
    monkeypatch.setattr(engine_module, "_supports",
                        lambda s, i, m_i, diagonal: supports(s, i, m_i, False))
    assert _EchoPlan(exp).supports.u1.size == 28
    for got, want in zip(diagonal, run()):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("engine", ["average-hamiltonian", "exact-lab-frame"])
def test_a_second_plan_does_no_new_eigh(engine, monkeypatch):
    # the lab Hamiltonian's M-block spectrum and the ideal drives' eigenpairs
    # are decomposed once per distinct generator: another plan on the same
    # system and drives (other angles, line, frame and grid) decomposes
    # nothing; another H0 is decomposed (and checked) on its own
    p = nc60_params()

    def plan(system, theta2, m_i, offset):
        return _EchoPlan(EchoExperiment(
            system=system, pulse1=PulseSpec(np.pi / 2),
            pulse2=PulseSpec(theta2), tau_grid=np.linspace(0.0, 60e-6, 7),
            detect_m_i=m_i, engine=engine, resonance_offset_hz=offset))

    first = plan(p, np.pi, 1.0, 0.0)
    eighs = []
    eigh = np.linalg.eigh

    def counted_eigh(h, *args, **kwargs):
        eighs.append(np.shape(h))
        return eigh(h, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    second = plan(p, 2.1, -1.0, -4e5)
    assert eighs == []
    second.tabulate(np.array([0.9, 1.0]), np.array([0.8, 1.1]))
    assert eighs == []
    assert first._pulse1(np.ones(1)).tobytes() \
        == second._pulse1(np.ones(1)).tobytes()
    plan(replace(p, a_hz=p.a_hz * 1.01), np.pi, 1.0, 0.0)
    # the M blocks of a new H0 (sizes 1, 2 and 3), on the exact engine only
    assert len(eighs) == (3 if engine == "exact-lab-frame" else 0)
