"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line with its measured figures.

Criterion 2 takes the central-line value from the closed form
``v_center`` = 5*sin(t1)*sin^2(t2/2) and ties it to the outer-line law at
tau = 0, where A0 + A1 + A2 = 5/2 and no hyperfine evolution separates the
nuclear manifolds.
"""

import time

import numpy as np

from eseem.analytic import v_center, v_general, v_outer
from eseem.engine import EchoExperiment, EchoTrace, run_two_pulse_echo
from eseem.ensemble import AngleDistribution, average_trace, i1_i2_ratio
from eseem.hamiltonians import TWO_PI, delta_hz, epr_stick_spectrum
from eseem.pulses import PulseSpec, composite_pi
from eseem.spectral import fft_magnitude, find_peaks, fit_decay
from eseem.system import nc60_params
from eseem.validation import run_checks

A_HZ = 15.8e6
F_E_HZ = 9.67e9
T2_S = 210e-6
SIGMA_B1 = 0.31


def report(number, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {number:02d} "
          f"{name}: {detail}")


def make_exp(p, m_i, engine="average-hamiltonian", theta2=np.pi, tau=None,
             pulse2=None, t2_s=None):
    if tau is None:
        tau = np.linspace(1e-6, 200e-6, 512)
    return EchoExperiment(
        system=p, pulse1=PulseSpec(np.pi / 2),
        pulse2=pulse2 or PulseSpec(theta2), tau_grid=tau, detect_m_i=m_i,
        engine=engine, resonance_offset_hz=0.0, t2_s=t2_s)


def test_01_delta_reproduction():
    got = delta_hz(nc60_params())
    expected = A_HZ ** 2 / F_E_HZ
    err = abs(got - expected)
    ok = err <= 1.0 and round(got / 1e3) == 26
    report(1, "second-order shift", ok,
           f"delta = {got:.2f} Hz (exact {expected:.2f}, rounds to 26 kHz)")
    assert err <= 1.0
    assert round(got / 1e3) == 26


def test_02_ideal_pulse_modulation_law():
    p = nc60_params()
    d = delta_hz(p)
    tau = np.linspace(1e-6, 200e-6, 512)
    worst_outer = 0.0
    for m_i in (1.0, -1.0):
        v = run_two_pulse_echo(make_exp(p, m_i, tau=tau)).v
        ref = 2 + 3 * np.cos(2 * TWO_PI * d * tau)
        worst_outer = max(worst_outer, float(np.abs(v - ref).max()))
    v0 = run_two_pulse_echo(make_exp(p, 0.0, tau=tau)).v
    variation = float(np.ptp(v0))
    center_value = float(v0[0])
    # the flat central level is the outer-line law's tau -> 0 limit
    expected = v_center(tau, np.pi / 2, np.pi)
    zero_delay = float(v_outer(0.0, np.pi / 2, np.pi, d))
    limit_dev = float(np.abs(expected - zero_delay).max())
    value_dev = float(np.abs(v0 - expected).max())
    ok = (worst_outer <= 1e-8 and variation <= 1e-9 and value_dev <= 1e-9
          and limit_dev <= 1e-12)
    report(2, "ideal-pulse modulation law", ok,
           f"outer-law dev {worst_outer:.2e} (<=1e-8), center variation "
           f"{variation:.2e} (<=1e-9), center value {center_value:.6f} vs "
           f"closed form {float(expected[0]):.6f} (dev {value_dev:.2e}, "
           f"<=1e-9; outer law at tau=0 gives {zero_delay:.6f})")
    assert worst_outer <= 1e-8
    assert variation <= 1e-9
    assert limit_dev <= 1e-12
    assert value_dev <= 1e-9


def test_03_exact_oracle_frequencies():
    t0 = time.time()
    p = nc60_params()
    d = delta_hz(p)
    exp = make_exp(p, -1.0, engine="exact-lab-frame", t2_s=T2_S)
    dist = AngleDistribution(mean=np.pi, sigma=SIGMA_B1,
                             nodes=41)
    trace = average_trace(exp, dist)
    spec = fft_magnitude(trace, baseline="exp")
    peaks = find_peaks(spec, rel_threshold=0.05).frequencies()
    err1 = min(abs(f - d) / d for f in peaks)
    err2 = min(abs(f - 2 * d) / (2 * d) for f in peaks)
    elapsed = time.time() - t0
    ok = err1 <= 0.01 and err2 <= 0.01
    report(3, "exact-engine modulation frequencies", ok,
           f"peak errors {err1:.2%} (delta), {err2:.2%} (2 delta) "
           f"[{elapsed:.1f} s]")
    assert err1 <= 0.01
    assert err2 <= 0.01


def test_04_pulse_angle_dependence():
    p = nc60_params()
    d = delta_hz(p)
    tau = np.linspace(1e-6, 310e-6, 512)
    trace = run_two_pulse_echo(make_exp(p, -1.0, theta2=2 * np.pi / 3,
                                        tau=tau))
    spec = fft_magnitude(trace)
    ratio = spec.magnitude_at(d) / spec.magnitude_at(2 * d)
    target = 20.0 / 3.0  # A1/A2 at theta2 = 2pi/3
    err = abs(ratio - target) / target
    ok = err <= 0.05
    report(4, "refocusing-angle dependence", ok,
           f"delta/2delta amplitude ratio {ratio:.3f} vs {target:.3f} "
           f"({err:.2%})")
    assert err <= 0.05


def test_05_b1_inhomogeneity_ratio():
    dist = AngleDistribution(mean=np.pi, sigma=SIGMA_B1,
                             nodes=41)
    ratio = i1_i2_ratio(dist)
    ok = abs(ratio - 0.17) <= 0.03
    # cross-check through the spectrum of the averaged engine trace
    p = nc60_params()
    d = delta_hz(p)
    trace = average_trace(make_exp(p, -1.0), dist)
    spec = fft_magnitude(trace)
    spectral = spec.magnitude_at(d) / spec.magnitude_at(2 * d)
    ok = ok and abs(spectral - 0.17) <= 0.03
    report(5, "B1-inhomogeneity component ratio", ok,
           f"quadrature {ratio:.4f}, spectral {spectral:.4f} (0.17 +/- 0.03)")
    assert abs(ratio - 0.17) <= 0.03
    assert abs(spectral - 0.17) <= 0.03


def test_06_composite_pulse_restoration():
    t0 = time.time()
    p = nc60_params()
    d = delta_hz(p)
    dist = AngleDistribution(mean=np.pi, sigma=SIGMA_B1,
                             nodes=41)
    mags = {}
    for name, pulse2 in (("plain", PulseSpec(np.pi)),
                         ("composite", composite_pi())):
        trace = average_trace(make_exp(p, -1.0, pulse2=pulse2), dist)
        mags[name] = fft_magnitude(trace).magnitude_at(d)
    factor = mags["plain"] / mags["composite"]
    elapsed = time.time() - t0
    ok = factor >= 5.0
    report(6, "composite-pulse restoration", ok,
           f"fundamental suppressed {factor:.1f}x (>= 5x) [{elapsed:.1f} s]")
    assert factor >= 5.0


def test_07_general_s_law():
    t0 = time.time()
    tau = np.linspace(1e-6, 100e-6, 64)
    worst = 0.0
    for s in (0.5, 1.0, 1.5, 2.0, 2.5):
        p = nc60_params(s=s)
        v = run_two_pulse_echo(make_exp(p, 1.0, tau=tau)).v
        ref = v_general(s, 1.0, tau, delta_hz(p)).real
        scale = float(v @ ref) / float(ref @ ref)
        worst = max(worst, float(np.abs(v - scale * ref).max()))
        assert scale > 0
    p_half = nc60_params(s=0.5)
    flat = float(np.ptp(run_two_pulse_echo(make_exp(p_half, 1.0, tau=tau)).v))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and flat <= 1e-9
    report(7, "general-S modulation law", ok,
           f"proportionality residual {worst:.2e} (<=1e-8), s=1/2 "
           f"variation {flat:.2e} [{elapsed:.1f} s]")
    assert worst <= 1e-8
    assert flat <= 1e-9


def test_08_stick_spectrum():
    p = nc60_params()
    d = delta_hz(p)
    lines = epr_stick_spectrum(p)
    worst_int = 0.0
    worst_split = 0.0
    worst_field = 0.0
    for m_i in (1.0, -1.0):
        group = sorted((l for l in lines if l.m_i == m_i),
                       key=lambda l: l.f_offset_hz)
        intens = np.array([l.intensity for l in group])
        worst_int = max(worst_int,
                        float(np.abs(intens / intens[1] - [0.75, 1, 0.75]).max()))
        spac = np.diff([l.f_offset_hz for l in group])
        worst_split = max(worst_split, float(np.abs(spac / d - 1).max()))
        b_spac = np.diff([l.b_offset_ut for l in group])
        worst_field = max(worst_field, float(np.abs(b_spac - 0.9).max()))
    ok = worst_int <= 1e-4 and worst_split <= 5e-3 and worst_field <= 0.05
    report(8, "stick spectrum", ok,
           f"3:4:3 dev {worst_int:.1e}, splitting dev {worst_split:.2%} of "
           f"delta, field splitting within {worst_field:.3f} uT of 0.9")
    assert worst_int <= 1e-4
    assert worst_split <= 5e-3
    assert worst_field <= 0.05


def test_09_property_suites():
    t0 = time.time()
    results = run_checks()
    elapsed = time.time() - t0
    failed = [r.check_id for r in results if not r.passed]
    ok = not failed and elapsed < 30.0
    report(9, "module property suites", ok,
           f"{len(results) - len(failed)}/{len(results)} checks in "
           f"{elapsed:.1f} s (< 30 s)")
    assert not failed, f"failed checks: {failed}"
    assert elapsed < 30.0


def test_10_fit_recovery():
    t0 = time.time()
    d = A_HZ ** 2 / F_E_HZ
    tau = np.linspace(1e-6, 400e-6, 600)
    clean = (2 + 3 * np.cos(2 * TWO_PI * d * tau)) * np.exp(-2 * tau / T2_S)
    fit = fit_decay(EchoTrace(tau_s=tau, v=clean), model="exp-two-cosine")
    err_clean = max(abs(fit.params["delta_hz"] - d) / d,
                    abs(fit.params["t2_s"] - T2_S) / T2_S)
    rng = np.random.default_rng(20260808)
    noisy = clean + 0.01 * np.abs(clean).max() * rng.normal(size=clean.size)
    fit_n = fit_decay(EchoTrace(tau_s=tau, v=noisy), model="exp-two-cosine")
    err_noisy = max(abs(fit_n.params["delta_hz"] - d) / d,
                    abs(fit_n.params["t2_s"] - T2_S) / T2_S)
    elapsed = time.time() - t0
    ok = err_clean <= 1e-3 and err_noisy <= 0.02 and elapsed < 2.0
    report(10, "decay-model fit recovery", ok,
           f"noiseless {err_clean:.2e} (<=1e-3), 1% noise {err_noisy:.2e} "
           f"(<=0.02) [{elapsed:.1f} s]")
    assert err_clean <= 1e-3
    assert err_noisy <= 0.02
    assert elapsed < 2.0
