import json

import numpy as np
import pytest

import eseem.spectral
from eseem.cli import main
from eseem.engine import EchoExperiment, EchoTrace
from eseem.ensemble import AngleDistribution, average_trace
from eseem.fileio import write_trace_csv
from eseem.hamiltonians import delta_hz
from eseem.pulses import PulseSpec
from eseem.spectral import (_exp_columns, _separable_fit, _two_cosine_columns,
                            _two_cosine_profile, fft_magnitude, find_peaks,
                            fit_decay)
from eseem.system import nc60_params

TWO_PI = 2 * np.pi


def tone_trace(f0, n=512, span=200e-6, amp=1.0, offset=0.0):
    tau = np.linspace(0, span, n)
    return EchoTrace(tau_s=tau, v=offset + amp * np.cos(TWO_PI * f0 * tau))


def test_single_tone_peak_location():
    f0 = 51.6e3
    trace = tone_trace(f0)
    spec = fft_magnitude(trace, window="hann", zero_pad_factor=4)
    peaks = find_peaks(spec, rel_threshold=0.2)
    assert len(peaks.peaks) == 1
    bin_width = spec.freq_hz[1] - spec.freq_hz[0]
    assert abs(peaks.peaks[0][0] - f0) <= bin_width


def test_constant_trace_has_no_peaks():
    tau = np.linspace(0, 1e-4, 128)
    trace = EchoTrace(tau_s=tau, v=np.full(128, 3.3))
    spec = fft_magnitude(trace)
    assert find_peaks(spec).peaks == []


def test_damped_modulation_peak_at_second_harmonic():
    d = delta_hz(nc60_params())
    tau = np.linspace(0, 200e-6, 512)
    v = (2 + 3 * np.cos(2 * TWO_PI * d * tau)) * np.exp(-2 * tau / 210e-6)
    spec = fft_magnitude(EchoTrace(tau_s=tau, v=v), baseline="exp")
    peaks = find_peaks(spec, rel_threshold=0.1)
    best = max(peaks.peaks, key=lambda p: p[1])
    assert best[0] == pytest.approx(2 * d, rel=0.01)


def test_parseval_rectangular():
    rng = np.random.default_rng(5)
    tau = np.linspace(0, 1e-4, 200)
    v = rng.normal(size=200)
    spec = fft_magnitude(EchoTrace(tau_s=tau, v=v), window="rectangular",
                         zero_pad_factor=3)
    x = v - v.mean()
    n_pad = 3 * 200
    m2 = spec.magnitude ** 2
    spectral = (m2[0] + 2 * m2[1:-1].sum() + m2[-1]) / n_pad
    assert spectral == pytest.approx(np.sum(x ** 2), rel=1e-9)


@pytest.mark.parametrize("f0", [13.7e3, 51.6e3, 93.1e3])
def test_peak_frequency_accuracy(f0):
    trace = tone_trace(f0, n=512, span=200e-6)
    spec = fft_magnitude(trace, zero_pad_factor=4)
    peaks = find_peaks(spec, rel_threshold=0.3)
    f_est = min(peaks.frequencies(), key=lambda f: abs(f - f0))
    assert abs(f_est - f0) / f0 <= 2e-3


def test_peaks_sorted_and_thresholded():
    tau = np.linspace(0, 200e-6, 512)
    v = np.cos(TWO_PI * 20e3 * tau) + 0.4 * np.cos(TWO_PI * 60e3 * tau)
    spec = fft_magnitude(EchoTrace(tau_s=tau, v=v))
    peaks = find_peaks(spec, rel_threshold=0.1)
    freqs = peaks.frequencies()
    assert freqs == sorted(freqs)
    assert len(freqs) == 2
    # raising the threshold drops the weaker peak
    assert len(find_peaks(spec, rel_threshold=0.6).peaks) == 1


def test_non_uniform_grid_rejected():
    tau = np.array([0.0, 1e-6, 3e-6, 4e-6, 5e-6, 6e-6])
    with pytest.raises(ValueError):
        fft_magnitude(EchoTrace(tau_s=tau, v=np.ones(6)))


def test_fft_magnitude_validation():
    trace = tone_trace(10e3, n=64)
    with pytest.raises(ValueError):
        fft_magnitude(trace, zero_pad_factor=0)
    with pytest.raises(ValueError):
        fft_magnitude(trace, window="hamming")
    with pytest.raises(ValueError):
        fft_magnitude(trace, baseline="linear")
    spec = fft_magnitude(trace)
    assert spec.freq_hz[0] == 0.0
    assert np.all(spec.magnitude >= 0)
    assert np.allclose(np.diff(spec.freq_hz), spec.freq_hz[1])


def test_fit_two_cosine_noiseless():
    d = 25.815925542916237e3
    t2 = 210e-6
    tau = np.linspace(1e-6, 400e-6, 600)
    v = (2 + 3 * np.cos(2 * TWO_PI * d * tau)) * np.exp(-2 * tau / t2)
    fit = fit_decay(EchoTrace(tau_s=tau, v=v), model="exp-two-cosine")
    assert fit.converged
    assert abs(fit.params["delta_hz"] - d) / d <= 1e-3
    assert abs(fit.params["t2_s"] - t2) / t2 <= 1e-3
    assert fit.params["c2"] == pytest.approx(3.0, rel=1e-6)
    assert abs(fit.params["c1"]) <= 1e-6


def test_fit_two_cosine_noiseless_at_tight_tolerance(monkeypatch):
    # both the d and the d/2 starts fit this single tone to roundoff; the
    # canonical d must win whatever the solver tolerance
    monkeypatch.setattr("eseem.spectral.FIT_TOL", 1e-12)
    d = 25.815925542916237e3
    tau = np.linspace(1e-6, 400e-6, 600)
    v = (2 + 3 * np.cos(2 * TWO_PI * d * tau)) * np.exp(-2 * tau / 210e-6)
    fit = fit_decay(EchoTrace(tau_s=tau, v=v), model="exp-two-cosine")
    assert abs(fit.params["delta_hz"] - d) / d <= 1e-3


def test_fit_two_cosine_with_seeded_noise():
    d = 25.815925542916237e3
    t2 = 210e-6
    tau = np.linspace(1e-6, 400e-6, 600)
    clean = (2 + 3 * np.cos(2 * TWO_PI * d * tau)) * np.exp(-2 * tau / t2)
    rng = np.random.default_rng(1234)
    noisy = clean + 0.01 * np.abs(clean).max() * rng.normal(size=clean.size)
    fit = fit_decay(EchoTrace(tau_s=tau, v=noisy), model="exp-two-cosine")
    assert abs(fit.params["delta_hz"] - d) / d <= 0.02
    assert abs(fit.params["t2_s"] - t2) / t2 <= 0.02


def test_two_cosine_profile_equals_direct_lstsq():
    # the grid starts at 3 us, so the FFT sums need the tau0 phase factor
    d = 25.8e3
    tau = np.linspace(3e-6, 300e-6, 200)
    v = (2 + 1.2 * np.cos(TWO_PI * d * tau)
         + 3 * np.cos(2 * TWO_PI * d * tau)) * np.exp(-2 * tau / 210e-6)
    rate = 2 / 180e-6
    d_grid, profile = _two_cosine_profile(tau, v, rate)
    dt = tau[1] - tau[0]
    assert d_grid.size == 2 * tau.size - 1 and 4 * d_grid[-1] < 1 / dt
    columns = _two_cosine_columns(tau)
    for d_k, got in zip(d_grid, profile):
        a = columns([d_k, rate])
        r = a @ np.linalg.lstsq(a, v, rcond=None)[0] - v
        assert abs(got - r @ r) <= 1e-12 * (r @ r)


def _scipy_separable_fit(v, columns, x0):
    # reference solver, converged far below FIT_TOL: at FIT_TOL it can stop
    # 5e-9 short of the minimum on the noisy trace
    from scipy.optimize import least_squares

    def resid(x):
        a = columns(x)
        return a @ np.linalg.lstsq(a, v, rcond=None)[0] - v

    return least_squares(resid, x0=x0, bounds=(0.0, np.inf), xtol=1e-15,
                         ftol=1e-15, gtol=1e-15).x


@pytest.mark.parametrize("case", ["synthetic", "noisy", "exp"])
def test_separable_fit_matches_scipy(case):
    d = 25.815925542916237e3
    tau = np.linspace(1e-6, 400e-6, 600)
    v = (2 + 3 * np.cos(2 * TWO_PI * d * tau)) * np.exp(-2 * tau / 210e-6)
    columns, x0 = _two_cosine_columns(tau), [1.001 * d, 9000.0]
    if case == "noisy":
        rng = np.random.default_rng(1234)
        v = v + 0.01 * np.abs(v).max() * rng.normal(size=v.size)
    elif case == "exp":
        v = 1.7 * np.exp(-2 * tau / 150e-6)
        columns, x0 = _exp_columns(tau), [1e4]
    fit = _separable_fit(v, columns, x0)
    ref = _scipy_separable_fit(v, columns, x0)
    assert fit.converged
    assert np.abs(fit.x - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("model, factory", [
    ("exp-two-cosine", "_two_cosine_columns"), ("exp", "_exp_columns")])
def test_fit_json_counts_every_evaluation(monkeypatch, tmp_path, capsys,
                                          model, factory):
    # every start, retry and Jacobian column evaluates the model once
    calls = []
    make_columns = getattr(eseem.spectral, factory)

    def counting_factory(tau):
        columns = make_columns(tau)

        def counted(x):
            calls.append(x)
            return columns(x)
        return counted

    monkeypatch.setattr(eseem.spectral, factory, counting_factory)
    d = 25.815925542916237e3
    tau = np.linspace(1e-6, 400e-6, 600)
    v = (2 + 3 * np.cos(2 * TWO_PI * d * tau)) * np.exp(-2 * tau / 210e-6)
    trace = tmp_path / "t.csv"
    write_trace_csv(trace, EchoTrace(tau_s=tau, v=v))
    assert main(["fit", str(trace), "--model", model, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n_evaluations"] == len(calls)


@pytest.mark.filterwarnings("error")
def test_fit_without_decay_reports_infinite_t2():
    # the decay rate stops at its bound 0: T2 is infinite, with no warning
    tau = np.linspace(1e-6, 400e-6, 200)
    fit = fit_decay(EchoTrace(tau_s=tau, v=np.ones(tau.size)))
    assert fit.converged and fit.params["t2_s"] == np.inf


def test_fit_pure_exponential():
    tau = np.linspace(1e-6, 400e-6, 128)
    v = 1.7 * np.exp(-2 * tau / 150e-6)
    fit = fit_decay(EchoTrace(tau_s=tau, v=v), model="exp")
    assert abs(fit.params["t2_s"] - 150e-6) / 150e-6 <= 1e-3
    assert fit.params["v0"] == pytest.approx(1.7, rel=1e-3)


def test_fit_degenerate_and_short_traces():
    tau = np.linspace(0, 1e-4, 64)
    with pytest.raises(ValueError):
        fit_decay(EchoTrace(tau_s=tau, v=np.zeros(64)))
    with pytest.raises(ValueError):
        fit_decay(EchoTrace(tau_s=tau[:16], v=np.ones(16)),
                  model="exp-two-cosine")
    with pytest.raises(ValueError):
        fit_decay(EchoTrace(tau_s=tau, v=np.ones(64)), model="cubic")


def test_fit_engine_trace_recovers_delta():
    p = nc60_params()
    d = delta_hz(p)
    exp = EchoExperiment(system=p, pulse1=PulseSpec(np.pi / 2),
                         pulse2=PulseSpec(np.pi),
                         tau_grid=np.linspace(1e-6, 200e-6, 512),
                         detect_m_i=-1.0, engine="exact-lab-frame",
                         resonance_offset_hz=0.0)
    dist = AngleDistribution(mean=np.pi, sigma=0.31, nodes=21)
    trace = average_trace(exp, dist)
    trace.v *= np.exp(-2 * trace.tau_s / 210e-6)
    fit = fit_decay(trace, model="exp-two-cosine")
    assert abs(fit.params["delta_hz"] - d) / d <= 0.01
