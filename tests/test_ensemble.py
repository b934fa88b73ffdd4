import numpy as np
import pytest

from eseem.analytic import v_outer
from eseem.cli import main
from eseem.engine import EchoExperiment, EchoTrace, run_two_pulse_echo
from eseem.ensemble import (AngleDistribution, apply_t2,
                            average_analytic_outer, average_trace,
                            averaged_component_weights, i1_i2_ratio)
from eseem.fileio import read_trace_csv
from eseem.hamiltonians import delta_hz
from eseem.pulses import PulseSpec, composite_pi
from eseem.spectral import fft_magnitude
from eseem.system import nc60_params

SIGMA_B1 = 0.31
RUN_META = ("f_mw_hz", "max_imag_residual", "theta1_rad", "theta2_rad",
            "pulse2_composite")


@pytest.fixture
def preset():
    return nc60_params()


def make_exp(p, pulse2=None, tau=None, m_i=1.0):
    if tau is None:
        tau = np.linspace(1e-6, 150e-6, 128)
    return EchoExperiment(system=p, pulse1=PulseSpec(np.pi / 2),
                          pulse2=pulse2 or PulseSpec(np.pi), tau_grid=tau,
                          detect_m_i=m_i, engine="average-hamiltonian",
                          resonance_offset_hz=0.0)


def test_distribution_validation():
    with pytest.raises(ValueError):
        AngleDistribution(sigma=-0.1)
    with pytest.raises(ValueError):
        AngleDistribution(sigma=0.1, nodes=40)  # even
    with pytest.raises(ValueError):
        AngleDistribution(sigma=0.1, nodes=1)
    with pytest.raises(ValueError):  # the node rule holds at zero width too
        AngleDistribution(mean=1.0, nodes=40)
    thetas, weights = AngleDistribution(sigma=0.2, nodes=11).points()
    assert thetas.size == 11 and weights.sum() == pytest.approx(1.0)
    assert np.pi in thetas  # odd rule includes the mean


def test_zero_width_average_is_identity(preset, tmp_path):
    exp = make_exp(preset)
    dist = AngleDistribution(mean=np.pi, sigma=0.0)
    averaged = average_trace(exp, dist)
    plain = run_two_pulse_echo(exp)
    assert np.abs(averaged.v - plain.v).max() <= 1e-12
    # the average carries the single run's metadata
    for key in RUN_META:
        assert averaged.metadata[key] == plain.metadata[key]
    out = tmp_path / "composite.csv"
    assert main(["simulate", "--preset", "nc60_composite",
                 "--out", str(out)]) == 0
    meta = read_trace_csv(out).metadata
    assert all(key in meta for key in RUN_META)
    assert meta["pulse2_composite"] == "True"
    assert float(meta["max_imag_residual"]) <= 1e-9


@pytest.mark.parametrize("shared_b1", [False, True])
def test_average_trace_is_weighted_sum_of_node_traces(preset, shared_b1):
    tau = np.linspace(0.0, 80e-6, 40)
    exp = EchoExperiment(system=preset,
                         pulse1=PulseSpec(np.pi / 2, model="finite",
                                          duration_s=56e-9),
                         pulse2=PulseSpec(np.pi, model="finite",
                                          duration_s=112e-9),
                         tau_grid=tau, detect_m_i=-1.0,
                         engine="exact-lab-frame", resonance_offset_hz=0.0,
                         t2_s=210e-6)
    dist = AngleDistribution(mean=np.pi, sigma=SIGMA_B1,
                             nodes=11)
    averaged = average_trace(exp, dist, shared_b1=shared_b1)
    thetas, weights = dist.points()
    ref = np.zeros(tau.size)
    ref_im = np.zeros(tau.size)
    residual = 0.0
    for theta, weight in zip(thetas, weights):
        scale = theta / np.pi
        node = run_two_pulse_echo(exp, scale1=scale if shared_b1 else 1.0,
                                  scale2=scale)
        ref = ref + weight * node.v
        ref_im = ref_im + weight * node.v_im
        residual = max(residual, node.metadata["max_imag_residual"])
    assert np.abs(averaged.v - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(ref_im).max() > 0.0  # the roundoff residual is there
    assert np.abs(averaged.v_im - ref_im).max() <= \
        1e-12 * np.abs(ref_im).max()
    assert averaged.metadata["max_imag_residual"] == residual


def test_delta_distribution_off_nominal(preset):
    # point mass at 2pi/3 reproduces the closed form at that angle exactly
    d = delta_hz(preset)
    exp = make_exp(preset)
    dist = AngleDistribution(mean=2 * np.pi / 3)
    averaged = average_trace(exp, dist)
    ref = v_outer(exp.tau_grid, np.pi / 2, 2 * np.pi / 3, d)
    assert np.abs(averaged.v - ref).max() <= 1e-8


def test_b1_spread_reintroduces_fundamental(preset):
    dist = AngleDistribution(mean=np.pi, sigma=SIGMA_B1)
    w0, w1, w2 = averaged_component_weights(dist)
    assert w1 > 0.1          # fundamental no longer absent
    assert w2 > 5 * w1       # second harmonic still dominates
    none = averaged_component_weights(
        AngleDistribution(mean=np.pi, sigma=0.0))
    assert abs(none[1]) <= 1e-30


def test_i1_i2_ratio_against_dense_quadrature_oracle():
    # oracle: trapezoid integration of the same expectation values
    dist = AngleDistribution(mean=np.pi, sigma=SIGMA_B1,
                             nodes=41)
    got = i1_i2_ratio(dist)
    theta = np.linspace(np.pi - 8 * SIGMA_B1, np.pi + 8 * SIGMA_B1, 20001)
    gauss = np.exp(-(theta - np.pi) ** 2 / (2 * SIGMA_B1 ** 2))
    c2 = np.cos(theta / 2) ** 2
    s2 = np.sin(theta / 2) ** 2
    a1 = 6 * c2 * (2 - 3 * c2)
    a2 = 1.5 * s2 * (1 - 3 * c2)
    oracle = np.trapezoid(gauss * s2 * a1, theta) / \
        np.trapezoid(gauss * s2 * a2, theta)
    assert got == pytest.approx(oracle, abs=1e-9)
    assert got == pytest.approx(0.17, abs=0.03)


def test_i1_i2_ratio_monotone_in_sigma():
    prev = i1_i2_ratio(AngleDistribution(mean=np.pi,
                                         sigma=0.0))
    assert prev <= 1e-12
    for sigma in (0.1, 0.2, 0.3, 0.4, 0.5):
        cur = i1_i2_ratio(AngleDistribution(mean=np.pi,
                                            sigma=sigma))
        assert cur > prev
        prev = cur


def test_quadrature_node_convergence(preset):
    d = delta_hz(preset)
    tau = np.linspace(1e-6, 150e-6, 96)
    coarse = average_analytic_outer(
        tau, np.pi / 2,
        AngleDistribution(mean=np.pi, sigma=SIGMA_B1,
                          nodes=41), d)
    fine = average_analytic_outer(
        tau, np.pi / 2,
        AngleDistribution(mean=np.pi, sigma=SIGMA_B1,
                          nodes=83), d)
    assert np.abs(coarse - fine).max() / np.abs(fine).max() <= 1e-6


def test_numeric_analytic_linearity(preset):
    d = delta_hz(preset)
    tau = np.linspace(1e-6, 120e-6, 64)
    dist = AngleDistribution(mean=np.pi, sigma=SIGMA_B1,
                             nodes=21)
    numeric = average_trace(make_exp(preset, tau=tau), dist).v
    analytic = average_analytic_outer(tau, np.pi / 2, dist, d)
    assert np.abs(numeric - analytic).max() <= 1e-8


def test_shared_b1_scales_first_pulse(preset):
    tau = np.linspace(1e-6, 60e-6, 32)
    dist = AngleDistribution(mean=np.pi, sigma=SIGMA_B1,
                             nodes=11)
    fixed = average_trace(make_exp(preset, tau=tau), dist).v
    shared = average_trace(make_exp(preset, tau=tau), dist, shared_b1=True).v
    assert np.abs(fixed - shared).max() > 1e-4  # the flag has an effect
    # shared scaling only weakens the first-pulse sine factor
    assert np.abs(shared).max() <= np.abs(fixed).max() + 1e-9


def test_composite_pulse_suppresses_fundamental(preset):
    d = delta_hz(preset)
    tau = np.linspace(1e-6, 200e-6, 512)
    dist = AngleDistribution(mean=np.pi, sigma=SIGMA_B1,
                             nodes=41)
    mag = {}
    for name, pulse2 in (("plain", PulseSpec(np.pi)),
                         ("composite", composite_pi())):
        trace = average_trace(make_exp(preset, pulse2=pulse2, tau=tau), dist)
        mag[name] = fft_magnitude(trace).magnitude_at(d)
    assert mag["plain"] / mag["composite"] >= 5.0


def test_apply_t2():
    t2 = 210e-6
    tau = np.linspace(0, 2 * t2, 64)
    tau[32] = t2 / 2  # exact half-T2 point
    tau = np.sort(tau)
    trace = EchoTrace(tau_s=tau, v=np.full(64, 2.0))
    damped = apply_t2(trace, t2)
    assert damped.v[0] == pytest.approx(2.0)
    k_half = int(np.argmin(np.abs(tau - t2 / 2)))
    assert damped.v[k_half] == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12)
    assert np.all(np.diff(damped.v) < 0)  # monotonic decay
    with pytest.raises(ValueError):
        apply_t2(trace, 0.0)
