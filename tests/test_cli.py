import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eseem
from eseem.analytic import coefficients
from eseem.cli import main
from eseem.config import parse_config, preset_path
from eseem.engine import EchoTrace, run_two_pulse_echo
from eseem.fileio import read_spectrum_csv, read_trace_csv, write_trace_csv
from eseem.hamiltonians import delta_hz
from eseem.system import nc60_params

FAST_CFG = """
[system]
s = 3/2
i = 1
a_hz = 15.8e6
f_e_hz = 9.67e9

[sequence]
theta1_deg = 90
theta2_deg = 180

[tau]
start_s = 1e-6
stop_s = 200e-6
points = 256

[ensemble]
sigma_rad = 0.31
nodes = 21

[run]
engine = average-hamiltonian
detect_m_i = -1
resonance_offset_hz = 0
t2_s = 210e-6
"""


@pytest.fixture
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG)
    return path


def strip_timestamp(path):
    return [ln for ln in path.read_text().splitlines()
            if not ln.startswith("# generated")]


def test_simulate_oscillatory_damped(fast_cfg, tmp_path):
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(fast_cfg),
                 "--out", str(out)]) == 0
    trace = read_trace_csv(out)
    # oscillatory: many local extrema; damped: late maxima below early ones
    sign_flips = np.sum(np.diff(np.sign(np.diff(trace.v))) != 0)
    assert sign_flips > 10
    assert np.abs(trace.v[-40:]).max() < 0.5 * np.abs(trace.v[:40]).max()


def test_simulate_bundled_preset(tmp_path):
    # full preset path: exact engine, finite pulses, B1 spread, T2 damping
    out = tmp_path / "preset.csv"
    assert main(["simulate", "--preset", "nc60", "--out", str(out)]) == 0
    trace = read_trace_csv(out)
    assert trace.metadata["engine"] == "exact-lab-frame"
    sign_flips = np.sum(np.diff(np.sign(np.diff(trace.v))) != 0)
    assert sign_flips > 10
    assert np.abs(trace.v[-40:]).max() < 0.5 * np.abs(trace.v[:40]).max()


def test_simulate_center_monotonic(fast_cfg, tmp_path):
    cfg = tmp_path / "m0.cfg"
    cfg.write_text(FAST_CFG.replace("detect_m_i = -1", "detect_m_i = 0"))
    out = tmp_path / "m0.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    trace = read_trace_csv(out)
    assert np.all(np.diff(trace.v) < 0)


def test_simulate_multi_mi_files(fast_cfg, tmp_path):
    cfg = tmp_path / "multi.cfg"
    cfg.write_text(FAST_CFG.replace("detect_m_i = -1", "detect_m_i = -1,1"))
    out = tmp_path / "multi.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    a = read_trace_csv(tmp_path / "multi_mim1.csv")
    b = read_trace_csv(tmp_path / "multi_mip1.csv")
    assert np.abs(a.v - b.v).max() <= 1e-9


def test_zero_width_simulate_is_the_single_run(tmp_path):
    # sigma = 0 is the one-node average of weight 1: the single run's bits
    cfg = tmp_path / "fixed.cfg"
    cfg.write_text(FAST_CFG.replace("sigma_rad = 0.31", "sigma_rad = 0"))
    out = tmp_path / "fixed.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    trace = read_trace_csv(out)
    single = run_two_pulse_echo(parse_config(cfg).experiment(-1.0))
    assert trace.v.tobytes() == single.v.tobytes()
    assert trace.metadata["nodes"] == "1"


def test_malformed_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FAST_CFG.replace("[tau]", "[tau_missing]"))
    code = main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "tau" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, field", [
    ("a_hz = 15.8e6", "a_hz = nan", "system.a_hz"),
    ("f_e_hz = 9.67e9", "f_e_hz = inf", "system.f_e_hz"),
    ("stop_s = 200e-6", "stop_s = inf", "tau.stop_s"),
    ("detect_m_i = -1", "detect_m_i = -1,nan", "run.detect_m_i"),
    ("theta2_deg = 180", "theta2_deg = 180\ncomposite = nan@0",
     "sequence.composite"),
    ("theta2_deg = 180", "theta2_deg = 180\ncomposite = 90@0,180@inf",
     "sequence.composite"),
], ids=["a_hz-nan", "f_e_hz-inf", "stop_s-inf", "detect_m_i-nan",
        "composite-nan", "composite-phase-inf"])
def test_non_finite_config_value_exit_code(tmp_path, capsys, old, new, field):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FAST_CFG.replace(old, new))
    code = main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert f"{field}: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("m_i", ["0.5", "1,-2"])
def test_invalid_projection_exit_code(tmp_path, capsys, m_i):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FAST_CFG.replace("detect_m_i = -1", f"detect_m_i = {m_i}"))
    code = main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "run.detect_m_i: projection" in capsys.readouterr().err


@pytest.mark.parametrize("g", ["-2", "0"])
def test_non_positive_g_exit_code(tmp_path, capsys, g):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(preset_path("nc60").read_text().replace(
        "g = 2.0036", f"g = {g}"))
    code = main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "system: g must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, field", [
    ("points = 256", "points = 65537", "tau.points"),
    ("points = 256", "points = 100000000", "tau.points"),
    ("nodes = 21", "nodes = 1003", "ensemble.nodes"),
    ("nodes = 21", "nodes = 10000001", "ensemble.nodes"),
], ids=["points-cap", "points-1e8", "nodes-cap", "nodes-1e7"])
def test_oversized_config_exit_code(tmp_path, capsys, old, new, field):
    # rejected at the boundary, before any array of that size is allocated
    cfg = tmp_path / "big.cfg"
    cfg.write_text(FAST_CFG.replace(old, new))
    code = main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert f"{field}: " in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("old, new, field, hint", [
    ("engine =", "engin =", "run.engin", "did you mean 'engine'?"),
    ("t2_s =", "t2 =", "run.t2", "did you mean 't2_s'?"),
    ("[ensemble]", "[ensembel]", "ensembel", "did you mean 'ensemble'?"),
    # configparser would copy these keys into every block
    ("[system]", "[DEFAULT]\nnodes = 41\n\n[system]", "DEFAULT", ""),
], ids=["key-engin", "key-t2", "block-ensembel", "block-DEFAULT"])
def test_unknown_name_exit_code(tmp_path, capsys, old, new, field, hint):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(preset_path("nc60").read_text().replace(old, new))
    code = main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{field}: unknown '{field.split('.')[-1]}'" in err
    assert hint in err
    assert not (tmp_path / "x.csv").exists()


def test_interpolation_syntax_exit_code(tmp_path, capsys):
    cfg = tmp_path / "pct.cfg"
    cfg.write_text(FAST_CFG.replace("a_hz = 15.8e6", "a_hz = 15.8e6 %"))
    code = main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "file: cannot parse" in capsys.readouterr().err


SWEEP = ["sweep", "--preset", "nc60", "--param"]


@pytest.mark.parametrize("args", [
    SWEEP + ["theta2_deg", "--start", "60", "--stop", "180", "--num", "-1"],
    SWEEP + ["theta2_deg", "--start", "60", "--stop", "180", "--num", "0"],
    SWEEP + ["theta2_deg", "--start", "60", "--stop", "180", "--num", "1002"],
    SWEEP + ["sigma_rad", "--start", "-0.5", "--stop", "0.5"],
    SWEEP + ["sigma_rad", "--start", "0", "--stop", "-0.1"],
    SWEEP + ["sigma_rad", "--start", "0", "--stop", "inf"],
    ["spectrum", "{trace}", "--zero-pad", "0"],
    ["spectrum", "{trace}", "--zero-pad", "65"],
    ["spectrum", "{trace}", "--threshold", "nan"],
    ["spectrum", "{trace}", "--threshold", "1.5"],
], ids=["num-negative", "num-zero", "num-cap", "sigma-start-negative",
        "sigma-stop-negative", "sigma-stop-inf", "zero-pad-zero", "zero-pad-cap",
        "threshold-nan", "threshold-above-one"])
def test_option_boundaries_exit_code(tmp_path, args):
    trace = tmp_path / "trace.csv"
    tau = np.linspace(1e-6, 200e-6, 64)
    write_trace_csv(trace, EchoTrace(tau_s=tau, v=np.cos(2e5 * tau)))
    out = tmp_path / "out.csv"
    argv = [str(trace) if a == "{trace}" else a for a in args]
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exit_:   # argparse rejects the option itself
        code = exit_.code
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "400"])
@pytest.mark.parametrize("option", ["--start", "--stop"])
def test_sweep_theta2_bounds(tmp_path, capsys, option, value):
    bounds = {"--start": "60", "--stop": "180", option: value}
    out = tmp_path / "s.csv"
    code = main(SWEEP + ["theta2_deg", "--start", bounds["--start"],
                         "--stop", bounds["--stop"], "--num", "3",
                         "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{option}: theta2_deg must be in [0, 360]" in err
    assert not out.exists()


def test_config_preset_exclusive(tmp_path, fast_cfg):
    code = main(["simulate", "--config", str(fast_cfg), "--preset", "nc60",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_deterministic_output(fast_cfg, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    main(["simulate", "--config", str(fast_cfg), "--out", str(out1)])
    main(["simulate", "--config", str(fast_cfg), "--out", str(out2)])
    assert strip_timestamp(out1) == strip_timestamp(out2)


def test_spectrum_pipeline_peaks(fast_cfg, tmp_path, capsys):
    trace = tmp_path / "tr.csv"
    spec = tmp_path / "sp.csv"
    main(["simulate", "--config", str(fast_cfg), "--out", str(trace)])
    assert main(["spectrum", str(trace), "--out", str(spec), "--json"]) == 0
    peaks = json.loads(capsys.readouterr().out.splitlines()[-1])["peaks"]
    d = delta_hz(nc60_params())
    freqs = [p["freq_hz"] for p in peaks]
    assert min(abs(f - d) / d for f in freqs) <= 0.01
    assert min(abs(f - 2 * d) / (2 * d) for f in freqs) <= 0.01
    meta, grid, mag = read_spectrum_csv(spec)
    assert grid.size == mag.size and meta["baseline"] == "exp"


def test_spectrum_roundtrip_values(fast_cfg, tmp_path):
    # written trace values survive the file boundary bit-exactly
    trace_path = tmp_path / "tr.csv"
    main(["simulate", "--config", str(fast_cfg), "--out", str(trace_path)])
    first = read_trace_csv(trace_path)
    again_path = tmp_path / "tr2.csv"
    from eseem.fileio import write_trace_csv
    write_trace_csv(again_path, first)
    second = read_trace_csv(again_path)
    assert np.array_equal(first.v, second.v)
    assert np.array_equal(first.tau_s, second.tau_s)


def test_composite_preset_single_peak(tmp_path, capsys):
    trace = tmp_path / "comp.csv"
    spec = tmp_path / "comp_spec.csv"
    main(["simulate", "--preset", "nc60_composite", "--out", str(trace)])
    assert main(["spectrum", str(trace), "--out", str(spec), "--json"]) == 0
    peaks = json.loads(capsys.readouterr().out.splitlines()[-1])["peaks"]
    assert len(peaks) == 1
    d = delta_hz(nc60_params())
    assert peaks[0]["freq_hz"] == pytest.approx(2 * d, rel=0.01)


def test_spectrum_constant_input_no_peaks(tmp_path, capsys):
    from eseem.engine import EchoTrace
    from eseem.fileio import write_trace_csv
    tau = np.linspace(0, 1e-4, 64)
    write_trace_csv(tmp_path / "c.csv", EchoTrace(tau_s=tau, v=np.full(64, 2.0)))
    assert main(["spectrum", str(tmp_path / "c.csv"),
                 "--out", str(tmp_path / "cs.csv"), "--json"]) == 0
    peaks = json.loads(capsys.readouterr().out.splitlines()[-1])["peaks"]
    assert peaks == []


def test_analytic_headers(tmp_path):
    cfg = tmp_path / "an.cfg"
    cfg.write_text(FAST_CFG.replace("theta2_deg = 180", "theta2_deg = 120")
                   .replace("sigma_rad = 0.31", "sigma_rad = 0"))
    out = tmp_path / "an.csv"
    assert main(["analytic", "--config", str(cfg), "--out", str(out)]) == 0
    meta = read_trace_csv(out).metadata
    assert float(meta["a0"]) == pytest.approx(0.34375, abs=1e-12)
    assert float(meta["a1"]) == pytest.approx(1.875, abs=1e-12)
    assert float(meta["a2"]) == pytest.approx(0.28125, abs=1e-12)

    cfg2 = tmp_path / "an180.cfg"
    cfg2.write_text(FAST_CFG.replace("sigma_rad = 0.31", "sigma_rad = 0"))
    out2 = tmp_path / "an180.csv"
    main(["analytic", "--config", str(cfg2), "--out", str(out2)])
    meta2 = read_trace_csv(out2).metadata
    assert float(meta2["a0"]) == pytest.approx(1.0)
    assert abs(float(meta2["a1"])) <= 1e-30
    assert float(meta2["a2"]) == pytest.approx(1.5)


def test_analytic_general_s_weights(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(FAST_CFG.replace("s = 3/2", "s = 5/2")
                   .replace("detect_m_i = -1", "detect_m_i = 1"))
    out = tmp_path / "gen.csv"
    assert main(["analytic", "--config", str(cfg), "--general-s",
                 "--out", str(out)]) == 0
    meta = read_trace_csv(out).metadata
    assert meta["general_s_weights"] == "5,8,9,8,5,0"


@pytest.mark.parametrize("sigma,shared_b1,m_i", [
    pytest.param("0", "false", "0", id="0"),
    pytest.param("0.31", "false", "0", id="0.31"),
    pytest.param("0.31", "true", "0", id="0.31-shared_b1"),
    pytest.param("0", "false", "-1", id="0-outer"),
    pytest.param("0.31", "false", "-1", id="0.31-outer"),
    pytest.param("0.31", "true", "-1", id="0.31-shared_b1-outer"),
])
def test_analytic_center_matches_simulate(tmp_path, sigma, shared_b1, m_i):
    # closed form and engine share one central-line normalization, and both
    # lines agree with and without the B1 ensemble average, also when the
    # first pulse shares the B1 factor
    cfg = tmp_path / "m0.cfg"
    cfg.write_text(FAST_CFG.replace("detect_m_i = -1", f"detect_m_i = {m_i}")
                   .replace("sigma_rad = 0.31", f"sigma_rad = {sigma}\n"
                            f"shared_b1 = {shared_b1}"))
    sim, ana = tmp_path / "sim.csv", tmp_path / "ana.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    assert main(["analytic", "--config", str(cfg), "--out", str(ana)]) == 0
    v_sim, v_ana = read_trace_csv(sim).v, read_trace_csv(ana).v
    assert np.abs(v_sim - v_ana).max() <= 1e-9


def test_sweep_theta2(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--preset", "nc60", "--param", "theta2_deg",
                 "--start", "60", "--stop", "180", "--num", "7",
                 "--out", str(out)]) == 0
    rows = [ln for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    by_angle = {float(r.split(",")[0]): r.split(",") for r in rows}
    ratio_120 = float(by_angle[120.0][4])
    assert ratio_120 == pytest.approx(20.0 / 3.0, rel=1e-9)


def test_sweep_theta2_rows_are_single_angle_weights(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--preset", "nc60", "--param", "theta2_deg",
                 "--start", "0", "--stop", "360", "--num", "7",
                 "--out", str(out)]) == 0
    rows = [ln for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    for row, deg in zip(rows, np.linspace(0.0, 360.0, 7)):
        theta2 = np.deg2rad(deg)
        co = coefficients(theta2)
        pref = 2.0 * np.sin(np.pi / 2) * np.sin(theta2 / 2) ** 2
        weights = [pref * co.a0, pref * co.a1, pref * co.a2]
        # printed bit for bit, signed zeros included (the row at 0 degrees)
        assert row.split(",")[:4] == ["%.17g" % x for x in [deg] + weights]


NO_SCIPY_RUN = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from eseem.cli import main
cfg, trace, spec = sys.argv[1:]
print([main(["simulate", "--config", cfg, "--out", trace]),
       main(["spectrum", trace, "--baseline", "exp", "--out", spec]),
       main(["fit", trace, "--json"]),
       main(["fit", trace, "--model", "exp"])])
"""


def test_import_loads_no_scipy(tmp_path):
    # the package needs no scipy: importing it loads none, no module under
    # src/eseem imports it, and the stepped engine, the exponential baseline
    # and both fit models run with every scipy import blocked
    package = Path(eseem.__file__).parent
    code = ("import sys, eseem, eseem.cli; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package.parent), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
    for path in package.rglob("*.py"):
        text = path.read_text()
        assert "import scipy" not in text and "from scipy" not in text, path
    cfg = tmp_path / "stepped.cfg"
    cfg.write_text(FAST_CFG.replace("average-hamiltonian",
                                    "stepped-rotating-frame")
                   .replace("points = 256", "points = 48")
                   .replace("sigma_rad = 0.31", "sigma_rad = 0"))
    run = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, str(cfg), str(tmp_path / "t.csv"),
         str(tmp_path / "s.csv")], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[0, 0, 0, 0]", run.stdout


def test_sweep_sigma(tmp_path):
    out = tmp_path / "sweep_sigma.csv"
    assert main(["sweep", "--preset", "nc60", "--param", "sigma_rad",
                 "--start", "0", "--stop", "0.31", "--num", "2",
                 "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert float(rows[0][4]) <= 1e-12             # sigma = 0: no fundamental
    assert float(rows[1][4]) == pytest.approx(0.1766, abs=1e-3)


def test_fit_command(fast_cfg, tmp_path, capsys):
    trace = tmp_path / "tr.csv"
    main(["simulate", "--config", str(fast_cfg), "--out", str(trace)])
    assert main(["fit", str(trace), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    d = delta_hz(nc60_params())
    assert payload["params"]["delta_hz"] == pytest.approx(d, rel=0.01)
    assert payload["params"]["t2_s"] == pytest.approx(210e-6, rel=0.05)


def test_fit_central_line_converges(tmp_path, capsys):
    # a seeded nc60_mi_0 variant on which a fit of all five parameters
    # stopped unconverged after 200 evaluations
    t2_s = 0.00022033599911082602
    text = preset_path("nc60_mi_0").read_text()
    for old, new in (("a_hz = 15.8e6", "a_hz = 15973300.38329284"),
                     ("sigma_rad = 0.31", "sigma_rad = 0.3027872203808642"),
                     ("t2_s = 210e-6", f"t2_s = {t2_s!r}")):
        assert old in text
        text = text.replace(old, new)
    cfg, trace = tmp_path / "mi0.cfg", tmp_path / "mi0.csv"
    cfg.write_text(text)
    assert main(["simulate", "--config", str(cfg), "--out", str(trace)]) == 0
    assert main(["fit", str(trace), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["converged"]
    assert payload["params"]["t2_s"] == pytest.approx(t2_s, rel=0.02)


@pytest.mark.parametrize("preset,resolved", [("nc60_mi_0", False),
                                              ("nc60_mi_minus1", True)])
def test_fit_reports_whether_delta_is_resolved(preset, resolved, tmp_path,
                                               capsys):
    # the central line has no modulation: the converged two-cosine fit puts
    # delta at a few hundred Hz, under one cycle of the 199 us trace
    trace = tmp_path / "tr.csv"
    assert main(["simulate", "--preset", preset, "--out", str(trace)]) == 0
    assert main(["fit", str(trace), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["converged"]
    assert payload["delta_resolved"] is resolved
    assert (payload["params"]["delta_hz"] * 199e-6 >= 1.0) is resolved
    assert main(["fit", str(trace)]) == 0
    delta_line = [ln for ln in capsys.readouterr().out.splitlines()
                  if "delta_hz" in ln]
    assert ("unresolved" in delta_line[0]) is not resolved
    assert main(["fit", str(trace), "--model", "exp", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert payload["delta_resolved"] is None


def test_source_date_epoch_makes_output_reproducible(fast_cfg, tmp_path,
                                                     monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (first, second):
        assert main(["simulate", "--config", str(fast_cfg), "--out",
                     str(out), "--im-residual"]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().splitlines()[0] == \
        "# generated = 2023-11-14T22:13:20+00:00"
    for bad in ("1.5e9", "-1", "soon", "9" * 20):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", bad)
        assert main(["simulate", "--config", str(fast_cfg), "--out",
                     str(first)]) == 2
        assert "SOURCE_DATE_EPOCH" in capsys.readouterr().err


def test_validate_command(capsys, monkeypatch):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    # failure path: one real passing check and one stub that fails
    monkeypatch.setattr(eseem.validation, "CHECKS", [
        eseem.validation.CHECKS[1],
        ("stub.fail", "always over its bound", lambda: (2.0, 1.0))])
    assert main(["validate", "--json"]) == 1
    rows = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert [(r["id"], r["passed"]) for r in rows] == [
        ("spin.expm", True), ("stub.fail", False)]
    assert main(["validate"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] stub.fail" in out and "failed: stub.fail" in out


def test_svg_output(fast_cfg, tmp_path):
    out = tmp_path / "tr.csv"
    main(["simulate", "--config", str(fast_cfg), "--out", str(out), "--svg"])
    svg = (tmp_path / "tr.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    assert "tau (us)" in svg
