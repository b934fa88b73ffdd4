from dataclasses import replace

import numpy as np
import pytest

from eseem.analytic import v_outer
from eseem.cli import main
from eseem.engine import EchoExperiment, EchoTrace, run_two_pulse_echo
from eseem.ensemble import (AngleDistribution, apply_t2, average_analytic,
                            average_analytic_outer, average_trace,
                            averaged_component_weights, i1_i2_ratio)
from eseem.fileio import read_trace_csv
from eseem.hamiltonians import delta_hz
from eseem.pulses import PulseSpec, composite_pi
from eseem.spectral import fft_magnitude
from eseem.system import nc60_params

SIGMA_B1 = 0.31
RUN_META = ("f_mw_hz", "theta1_rad", "theta2_rad", "pulse2_composite")


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
    # non-finite input stops here, not as NaN weights or deep in the engine
    for bad in ({"sigma": np.nan}, {"sigma": np.inf}, {"mean": np.nan},
                {"mean": np.inf}, {"mean": np.nan, "sigma": 0.1}):
        with pytest.raises(ValueError, match="finite"):
            AngleDistribution(**bad)
    # shared_b1 scales pulse 1 by theta/mean
    with pytest.raises(ValueError, match="mean"):
        AngleDistribution(mean=0.0, sigma=0.1, shared_b1=True)
    assert AngleDistribution(mean=0.0).points()[0].tolist() == [0.0]
    thetas, weights = AngleDistribution(sigma=0.2, nodes=11).points()
    assert thetas.size == 11 and weights.sum() == pytest.approx(1.0)
    assert np.pi in thetas  # odd rule includes the mean


def test_node_cap_is_the_largest_finite_rule():
    # numpy's hermgauss overflows above the cap: all weights 0 at 371
    from eseem.ensemble import MAX_ENSEMBLE_NODES
    assert MAX_ENSEMBLE_NODES == 369
    _, weights = AngleDistribution(sigma=0.2, nodes=369).points()
    assert np.all(np.isfinite(weights)) and np.all(weights > 0)
    assert abs(weights.sum() - 1.0) <= 1e-15
    with pytest.raises(ValueError, match="369"):
        AngleDistribution(sigma=0.2, nodes=371)


def test_gauss_hermite_rule_is_cached_read_only():
    from eseem.ensemble import _gauss_hermite
    dist = AngleDistribution(mean=1.0, sigma=0.2, nodes=13)
    first = dist.points()
    hits = _gauss_hermite.cache_info().hits
    thetas, weights = dist.points()
    assert _gauss_hermite.cache_info().hits == hits + 1
    assert np.array_equal(thetas, first[0]) and weights is first[1]
    x, w = np.polynomial.hermite.hermgauss(13)
    assert np.array_equal(thetas, 1.0 + np.sqrt(2.0) * 0.2 * x)
    assert np.array_equal(weights, w / np.sqrt(np.pi))
    for arr in _gauss_hermite(13):
        assert not arr.flags.writeable


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
                             nodes=11, shared_b1=shared_b1)
    averaged = average_trace(exp, dist)
    thetas, weights = dist.points()
    ref = np.zeros(tau.size)
    for theta, weight in zip(thetas, weights):
        scale = theta / np.pi
        node = run_two_pulse_echo(exp, scale1=scale if shared_b1 else 1.0,
                                  scale2=scale)
        ref = ref + weight * node.v
    assert np.abs(averaged.v - ref).max() <= 1e-12 * np.abs(ref).max()


def test_zero_width_average_has_the_run_labels(preset):
    # the one-node average is labelled like the run, plus its ensemble keys
    tau = np.linspace(1e-6, 60e-6, 16)
    exp = make_exp(preset, pulse2=composite_pi(), tau=tau, m_i=-1.0)
    exp.t2_s = 210e-6
    plain = run_two_pulse_echo(exp)
    averaged = average_trace(exp, AngleDistribution(mean=np.pi))
    assert {k: averaged.metadata[k] for k in plain.metadata} == plain.metadata
    assert set(averaged.metadata) - set(plain.metadata) == {
        "sigma_rad", "mean_rad", "nodes", "shared_b1"}
    assert averaged.v.tobytes() == plain.v.tobytes()


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


def test_i1_i2_ratio_follows_shared_b1():
    # a shared-B1 ratio is that of the averaged weights at theta1 = pi/2,
    # where each node also scales pulse 1, so it differs from the unshared
    dist = AngleDistribution(mean=np.pi, sigma=SIGMA_B1, shared_b1=True)
    _, w1, w2 = averaged_component_weights(dist)
    assert i1_i2_ratio(dist) == abs(w1) / abs(w2)
    unshared = i1_i2_ratio(replace(dist, shared_b1=False))
    assert abs(i1_i2_ratio(dist) - unshared) > 1e-3 * unshared


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


@pytest.mark.parametrize("m_i", [1.0, 0.0, -1.0])
@pytest.mark.parametrize("shared_b1", [False, True])
def test_analytic_average_takes_the_trace_arguments(preset, m_i, shared_b1):
    exp = make_exp(preset, tau=np.linspace(1e-6, 120e-6, 64), m_i=m_i)
    dist = AngleDistribution(mean=np.pi, sigma=SIGMA_B1, nodes=21,
                             shared_b1=shared_b1)
    numeric = average_trace(exp, dist).v
    assert np.abs(numeric - average_analytic(exp, dist)).max() <= 1e-8


@pytest.mark.parametrize("mean", [2.5, np.pi])
def test_shared_b1_node_rule_is_theta_over_mean(preset, mean):
    # with shared_b1 each node scales pulse 1 by theta/mean on the engine as
    # in the closed form, also when the mean is off pulse 2's nominal angle
    # (the engine once took theta/pulse2.angle: 0.2 apart at mean 2.5)
    exp = make_exp(preset, tau=np.linspace(1e-6, 120e-6, 64))
    dist = AngleDistribution(mean=mean, sigma=0.2, nodes=21, shared_b1=True)
    numeric = average_trace(exp, dist).v
    assert np.abs(numeric - average_analytic(exp, dist)).max() \
        <= 1e-10 * np.abs(numeric).max()


def test_analytic_average_refuses_negative_delta():
    with pytest.raises(ValueError, match="non-negative"):
        average_analytic_outer(np.linspace(0, 1e-4, 8), np.pi / 2,
                               AngleDistribution(), -1.0)


@pytest.mark.parametrize("change, field", [
    ({"system": nc60_params(s=2.5)}, "system.s"),
    ({"system": nc60_params(i=0.5), "detect_m_i": 0.5}, "system.i"),
    ({"pulse2": composite_pi()}, "sequence.composite"),
    ({"pulse2": PulseSpec(np.pi, phase=np.pi / 4)}, "sequence.phase2_deg"),
    ({"pulse1": PulseSpec(np.pi / 2, phase=np.pi / 6)},
     "sequence.phase1_deg"),
], ids=["s", "i", "composite", "phase2", "phase1"])
def test_analytic_average_refuses_runs_it_does_not_describe(preset, change,
                                                            field):
    # the closed form is the S = 3/2, I = 1 law for one rotation per pulse
    # and cos(2 phase2 - phase1) = 1; any other run raises, naming the field
    # the CLI reports for it
    exp = replace(make_exp(preset, tau=np.linspace(1e-6, 60e-6, 8)),
                  **change)
    dist = AngleDistribution(mean=np.pi, sigma=SIGMA_B1, nodes=5)
    with pytest.raises(ValueError, match=f"^{field}: the closed form needs"):
        average_analytic(exp, dist)


def test_shared_b1_scales_first_pulse(preset):
    tau = np.linspace(1e-6, 60e-6, 32)
    dist = AngleDistribution(mean=np.pi, sigma=SIGMA_B1,
                             nodes=11)
    fixed = average_trace(make_exp(preset, tau=tau), dist).v
    shared = average_trace(make_exp(preset, tau=tau),
                           replace(dist, shared_b1=True)).v
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
