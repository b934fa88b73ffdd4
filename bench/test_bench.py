"""Tests of the benchmark's own machinery (run with pytest from the repo
root; they use eseem from ``src/``)."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import eseem  # noqa: E402
import eseem.cli  # noqa: E402,F401  (loads every module)
from inputs import preset_inputs, trace_grid_inputs  # noqa: E402
from run import CHECK_TIMES, tail_value  # noqa: E402
from tracer import (LAYERS, MOVES, Span, Tracer, layer_metrics,  # noqa: E402
                    self_times)
from workloads import fitted_delta_error, v_outer_reference  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = [float(x) for x in range(20, 0, -1)]
    assert tail_value(samples) == 10.0          # 11..20 lie beyond it
    assert tail_value(samples[:11]) == min(samples[:11])
    with pytest.raises(ValueError):
        tail_value(samples[:10])


def test_self_time_subtracts_direct_children():
    spans = [
        Span("cli", "main", 0.0, 10.0, -1, "a"),
        Span("engine", "run_two_pulse_echo", 1.0, 4.0, 0, "a",
             "average-hamiltonian", 100),
        Span("pulses", "rotation_operator", 2.0, 3.0, 1, "a"),
        Span("spectral", "fit_decay", 5.0, 9.0, 0, "a", "converged", 7),
        Span("fileio", "read_trace_csv", 10.5, 11.0, -1, "b"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 0.5]
    m = layer_metrics(spans, 0, len(spans), run_s=12.0)
    assert m["cli.self_s"] == 3.0
    assert m["engine.self_s"] == 2.0 and m["engine.points"] == 100
    assert m["engine.us_per_point.average-hamiltonian"] == pytest.approx(2e4)
    assert m["spectral.fit_s"] == 4.0 and m["spectral.fit_nfev"] == 7
    assert m["spectral.fit_converged_ratio"] == 1.0
    assert m["fileio.read_s"] == 0.5
    assert m["trace.unattributed_s"] == pytest.approx(12.0 - 10.5)
    self_sum = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert self_sum + m["trace.unattributed_s"] == pytest.approx(12.0)
    # a later pass is measured alone: its spans start after the first pass's
    later = layer_metrics(spans, 4, len(spans), run_s=1.0)
    assert later["cli.calls"] == 0 and later["fileio.calls"] == 1


def test_inputs_are_determined_by_the_seed():
    for make in (preset_inputs, trace_grid_inputs):
        first, again, other = make(3), make(3), make(4)
        assert [i.text for i in first] == [i.text for i in again]
        assert [i.text for i in first] != [i.text for i in other]
    grid = trace_grid_inputs(3)
    lines = [i.params["m_i"] for i in grid
             if i.params["engine"] == "average-hamiltonian"]
    assert lines.count(-1.0) == lines.count(0.0) == lines.count(1.0)
    stepped = [i.params["m_i"] for i in grid
               if i.params["engine"] == "stepped-rotating-frame"]
    assert sorted(stepped) == [-1.0, 1.0]


def test_generated_configs_parse(tmp_path):
    for inp in preset_inputs(0)[:3] + trace_grid_inputs(0)[:3]:
        path = tmp_path / f"{inp.name}.cfg"
        path.write_text(inp.text)
        cfg = eseem.config.parse_config(path)
        assert cfg.detect_m_i == [inp.params["m_i"]]


def test_reference_closed_form_matches_the_package():
    tau = np.linspace(1e-6, 200e-6, 64)
    for theta2 in (1.0, np.pi, 4.0):
        ours = v_outer_reference(tau, 1.2, theta2, 25.8e3)
        theirs = eseem.analytic.v_outer(tau, 1.2, theta2, 25.8e3)
        assert np.abs(ours - theirs).max() < 1e-12
        assert fitted_delta_error(tau, 0.7 * ours, 1.2, theta2, 25.8e3) < 1e-8


def test_tracer_restores_every_wrapped_attribute():
    modules = {name: m for name, m in sys.modules.items()
               if name == "eseem" or name.startswith("eseem.")}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    p = eseem.nc60_params()
    exp = eseem.EchoExperiment(
        system=p, pulse1=eseem.PulseSpec(np.pi / 2),
        pulse2=eseem.PulseSpec(np.pi), tau_grid=np.linspace(1e-6, 2e-5, 4),
        detect_m_i=1.0, resonance_offset_hz=0.0)
    dist = eseem.AngleDistribution(sigma=0.3, nodes=3)
    untraced = eseem.average_trace(exp, dist).v
    tracer = Tracer()
    with tracer.installed():
        # wrapped where defined and where imported
        assert getattr(eseem.engine.run_two_pulse_echo, "__bench_traced__")
        assert getattr(eseem.ensemble.run_two_pulse_echo, "__bench_traced__")
        traced = eseem.ensemble.average_trace(exp, dist).v
    assert traced.tobytes() == untraced.tobytes()
    m = layer_metrics(tracer.spans, 0, len(tracer.spans), run_s=1.0)
    assert m["ensemble.nodes"] == 3 and m["ensemble.node_traces"] == 3
    assert m["engine.points"] == 12
    for name, module in modules.items():
        after = vars(module)
        for attr, value in before[name].items():
            assert after[attr] is value, f"{name}.{attr} not restored"
        assert not any(getattr(v, "__bench_traced__", False)
                       for v in after.values())


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    m = layer_metrics([], 0, 0, run_s=1.0)
    derived = {"trace.overhead_s"} | {f"validation.check_s.{c}"
                                      for c in CHECK_TIMES}
    names = [metric["name"] for metric in spec["per_layer"]]
    assert set(names) == set(MOVES)
    assert all(name in m or name in derived for name in names)
