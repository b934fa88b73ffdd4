import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import eseem
from eseem.analytic import coefficients
from eseem.cli import build_parser, main
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


@pytest.mark.parametrize("m_i", ["-1, -1", "-1, -1.0000000001", "0, 1, -0"])
def test_repeated_line_exit_code(tmp_path, capsys, m_i):
    # a line within the projection tolerance of another is the same line
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(FAST_CFG.replace("detect_m_i = -1", f"detect_m_i = {m_i}"))
    code = main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "run.detect_m_i: line" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


def test_line_is_stored_as_its_exact_projection(tmp_path):
    cfg = tmp_path / "near.cfg"
    cfg.write_text(FAST_CFG.replace("detect_m_i = -1",
                                    "detect_m_i = -1.0000000001"))
    assert parse_config(cfg).detect_m_i == [-1.0]
    out = tmp_path / "near.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert read_trace_csv(out).metadata["m_i"] == "-1.0"


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
    # numpy's Gauss-Hermite rule overflows from 371 nodes on
    ("nodes = 21", "nodes = 371", "ensemble.nodes"),
    ("nodes = 21", "nodes = 1003", "ensemble.nodes"),
    ("nodes = 21", "nodes = 10000001", "ensemble.nodes"),
], ids=["points-cap", "points-1e8", "nodes-cap", "nodes-1003", "nodes-1e7"])
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


def _exit_and_stdout(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exit_:   # argparse rejects the option itself
        code = exit_.code
    return code, capsys.readouterr().out


def test_one_parser_serves_every_main(fast_cfg, tmp_path, capsys):
    # a rejected option leaves nothing in the cached parser for the
    # commands after it: they run as with a parser of their own
    assert build_parser() is build_parser()
    trace = tmp_path / "t.csv"
    calls = [["simulate", "--config", str(fast_cfg), "--bogus"],
             ["simulate", "--config", str(fast_cfg), "--out", str(trace)],
             ["fit", str(trace), "--json"]]
    shared = [_exit_and_stdout(argv, capsys) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(_exit_and_stdout(argv, capsys))
    assert [code for code, _ in shared] == [2, 0, 0]
    assert shared == fresh
    assert json.loads(shared[2][1])["converged"]


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


def test_multi_line_config_value_keeps_the_chain_readable(tmp_path):
    # a continued value must stay one header line, or its continuation
    # lines read back as data rows
    cfg = tmp_path / "multi.cfg"
    cfg.write_text(FAST_CFG.replace(
        "theta2_deg = 180\n",
        "theta2_deg = 180\ncomposite = 90@0,\n    180@90,\n    90@0\n"))
    trace = tmp_path / "tr.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(trace)]) == 0
    assert read_trace_csv(trace).metadata["sequence.composite"] == \
        "90@0, 180@90, 90@0"
    assert main(["spectrum", str(trace), "--out",
                 str(tmp_path / "sp.csv")]) == 0
    assert main(["fit", str(trace), "--json"]) == 0


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


CLOSED_FORM_COMMANDS = {
    "analytic": ["analytic"],
    "sweep-sigma": ["sweep", "--param", "sigma_rad", "--start", "0",
                    "--stop", "0.5", "--num", "3"],
    "sweep-theta2": ["sweep", "--param", "theta2_deg", "--start", "0",
                     "--stop", "360", "--num", "3"],
}


@pytest.mark.parametrize("command", CLOSED_FORM_COMMANDS)
@pytest.mark.parametrize("edits, field", [
    ([("s = 3/2", "s = 5/2")], "system.s"),
    ([("i = 1\n", "i = 1/2\n"), ("detect_m_i = -1", "detect_m_i = 1/2")],
     "system.i"),
    ([("theta2_deg = 180", "theta2_deg = 180\ncomposite = cp3")],
     "sequence.composite"),
    ([("theta2_deg = 180", "theta2_deg = 180\nphase2_deg = 45")],
     "sequence.phase2_deg"),
    ([("theta1_deg = 90", "theta1_deg = 90\nphase1_deg = 30")],
     "sequence.phase1_deg"),
], ids=["s", "i", "composite", "phase2", "phase1"])
def test_closed_form_refuses_runs_it_does_not_describe(tmp_path, capsys,
                                                       command, edits, field):
    text = FAST_CFG
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    cfg, out = tmp_path / "out_of_scope.cfg", tmp_path / "x.csv"
    cfg.write_text(text)
    argv = CLOSED_FORM_COMMANDS[command] + ["--config", str(cfg),
                                            "--out", str(out)]
    assert main(argv) == 2
    assert f"configuration error: {field}:" in capsys.readouterr().err
    assert not out.exists()
    # the engines take every one of these runs
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0


@pytest.mark.parametrize("phase1,phase2", [(0, 180), (90, 45)])
@pytest.mark.parametrize("m_i", ["-1", "0"])
def test_closed_form_accepts_phases_that_keep_the_echo(tmp_path, phase1,
                                                      phase2, m_i):
    # the engine's echo carries cos(2 phase2 - phase1), which is 1 here
    cfg = tmp_path / "phases.cfg"
    cfg.write_text(FAST_CFG.replace(
        "theta2_deg = 180", f"theta2_deg = 180\nphase1_deg = {phase1}\n"
                            f"phase2_deg = {phase2}")
        .replace("detect_m_i = -1", f"detect_m_i = {m_i}"))
    sim, ana = tmp_path / "sim.csv", tmp_path / "ana.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(sim)]) == 0
    assert main(["analytic", "--config", str(cfg), "--out", str(ana)]) == 0
    v_sim, v_ana = read_trace_csv(sim).v, read_trace_csv(ana).v
    assert np.abs(v_sim - v_ana).max() <= 1e-9
    for sweep in ("sweep-sigma", "sweep-theta2"):
        assert main(CLOSED_FORM_COMMANDS[sweep] + [
            "--config", str(cfg), "--out", str(tmp_path / "sw.csv")]) == 0


def test_non_finite_trace_row_exit_code(tmp_path, capsys):
    trace = tmp_path / "nan.csv"
    trace.write_text("# m_i = -1\ntau_s,v\n1e-06,1.0\n2e-06,nan\n"
                     "3e-06,0.5\n")
    for argv in (["fit", str(trace)],
                 ["spectrum", str(trace), "--out", str(tmp_path / "s.csv")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: {trace}, line 4: v is not finite (nan)\n"


@pytest.mark.parametrize("row, where", [
    ("np.float64(2e-06),1.5", "tau_s is not a number (np.float64(2e-06))"),
    ("2e-06", "1 columns, not 2"),
    # Python's float reads these two, numpy's parser does not
    ("2_0e-07,1.5", "tau_s is not a number (2_0e-07)"),
    ("2e-06,\uff11", "v is not a number (\uff11)"),
])
def test_unreadable_trace_row_exit_code(tmp_path, capfd, row, where):
    # numpy's own message ("at row 1, column 1") named neither the file nor
    # its line
    trace = tmp_path / "bad.csv"
    trace.write_text(f"# m_i = -1\ntau_s,v\n1e-06,1.0\n{row}\n3e-06,0.5\n")
    for argv in (["fit", str(trace)],
                 ["spectrum", str(trace), "--out", str(tmp_path / "s.csv")]):
        assert main(argv) == 1
        assert capfd.readouterr() == ("", f"error: {trace}, line 4: {where}\n")
    assert not (tmp_path / "s.csv").exists()


def test_unreadable_spectrum_cell_names_its_line(tmp_path):
    spec = tmp_path / "bad_spectrum.csv"
    spec.write_text("freq_hz,magnitude\n0.0,1.0\n\n1e4,abc\n")
    with pytest.raises(ValueError) as err:
        read_spectrum_csv(spec)
    assert str(err.value) == f"{spec}, line 4: magnitude is not a number (abc)"


@pytest.mark.parametrize("command", ["fit", "spectrum"])
def test_non_finite_trace_tau_exit_code(tmp_path, capfd, command):
    # a nan tau once gave a spectrum of nan frequencies (exit 0) and a fit
    # that failed inside LAPACK; now the reader names the cell, and the
    # file-descriptor capture shows that nothing else is printed
    tau = np.linspace(1e-6, 64e-6, 64)
    rows = [f"{t!r},{v!r}" for t, v in zip(tau.tolist(),
                                           np.cos(4e5 * tau).tolist())]
    rows[10] = "nan," + rows[10].split(",")[1]
    trace = tmp_path / "nan_tau.csv"
    trace.write_text("# m_i = -1\ntau_s,v\n" + "\n".join(rows) + "\n")
    spec = tmp_path / "s.csv"
    extra = ["--out", str(spec)] if command == "spectrum" else []
    assert main([command, str(trace), "--json", *extra]) == 1
    out, err = capfd.readouterr()
    assert (out, err) == ("", f"error: {trace}, line 13: tau_s is not "
                              "finite (nan)\n")
    assert not spec.exists()


@pytest.mark.parametrize("sigma,shared_b1,m_i,nodes", [
    pytest.param("0", "false", "0", "21", id="0"),
    pytest.param("0.31", "false", "0", "21", id="0.31"),
    pytest.param("0.31", "true", "0", "21", id="0.31-shared_b1"),
    pytest.param("0", "false", "-1", "21", id="0-outer"),
    pytest.param("0.31", "false", "-1", "21", id="0.31-outer"),
    pytest.param("0.31", "true", "-1", "21", id="0.31-shared_b1-outer"),
    pytest.param("0.31", "false", "-1", "3", id="0.31-outer-3-nodes"),
    pytest.param("0.31", "true", "-1", "3", id="0.31-shared_b1-outer-3-nodes"),
])
def test_analytic_center_matches_simulate(tmp_path, sigma, shared_b1, m_i,
                                          nodes):
    # closed form and engine share one central-line normalization, and both
    # lines agree with and without the B1 ensemble average, also when the
    # first pulse shares the B1 factor, on the same node rule
    cfg = tmp_path / "m0.cfg"
    cfg.write_text(FAST_CFG.replace("detect_m_i = -1", f"detect_m_i = {m_i}")
                   .replace("sigma_rad = 0.31", f"sigma_rad = {sigma}\n"
                            f"shared_b1 = {shared_b1}")
                   .replace("nodes = 21", f"nodes = {nodes}"))
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


# what a fresh interpreter loads: `import eseem` no submodule and no numpy,
# `import eseem.cli` none of the layers only some commands use; every public
# name and every submodule still resolves on the package
IMPORT_HYGIENE = """
import sys
def loaded(prefix):
    return sorted(m for m in sys.modules if m.startswith(prefix))
import eseem
print(loaded("eseem."), loaded("numpy"))
import eseem.cli
print([m for m in loaded("eseem.") if m.split(".")[1]
       in ("spectral", "fileio", "svgplot", "validation")])
print([n for n in eseem.__all__
       if getattr(eseem, n) is None or n not in dir(eseem)])
print(eseem.validation.__name__)
"""


def test_import_loads_no_scipy(tmp_path):
    # the package needs no scipy: importing it loads none, no module under
    # src/eseem imports it, and the stepped engine, the exponential baseline
    # and both fit models run with every scipy import blocked; importing it
    # loads only what is used (IMPORT_HYGIENE)
    package = Path(eseem.__file__).parent
    code = ("import sys, eseem, eseem.cli; print(sorted(m for m in "
            "sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package.parent), env.get("PYTHONPATH")]))
    for script, expected in (
            (code, ["[]"]),
            (IMPORT_HYGIENE, ["[] []", "[]", "[]", "eseem.validation"])):
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             check=True, capture_output=True, text=True)
        assert out.stdout.splitlines() == expected
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


def test_console_script_pins_unset_blas_threads(monkeypatch):
    # the console entry sets each unset thread variable to 1 before the
    # command runs, and keeps a count the environment sets
    import eseem.cli
    import eseem.console
    environ = {"OPENBLAS_NUM_THREADS": "2"}
    monkeypatch.setattr(os, "environ", environ)
    seen = {}
    monkeypatch.setattr(eseem.cli, "main", lambda: seen.update(environ) or 0)
    assert eseem.console.main() == 0
    assert seen == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}


def test_sweep_header_comes_from_the_table_writer(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--preset", "nc60", "--param", "sigma_rad",
                 "--start", "0", "--stop", "0.31", "--num", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[:3] == ["# generated = 1970-01-01T00:00:00+00:00",
                         f"# delta_hz = {delta_hz(nc60_params())!r}",
                         "# param = sigma_rad"]
    assert lines[3] == \
        "sigma_rad,w_const,w_fundamental,w_second_harmonic,ratio"


def test_sweep_sigma(tmp_path):
    out = tmp_path / "sweep_sigma.csv"
    assert main(["sweep", "--preset", "nc60", "--param", "sigma_rad",
                 "--start", "0", "--stop", "0.31", "--num", "2",
                 "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert float(rows[0][4]) <= 1e-12             # sigma = 0: no fundamental
    assert float(rows[1][4]) == pytest.approx(0.1766, abs=1e-3)


def test_sweep_sigma_follows_shared_b1(tmp_path):
    # with shared_b1 each node scales theta1 too, so a row's weights give
    # the closed-form outer-line average of the same configuration
    from eseem.ensemble import AngleDistribution, average_analytic_outer
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(FAST_CFG.replace("sigma_rad = 0.31",
                                    "sigma_rad = 0.31\nshared_b1 = true"))
    out = tmp_path / "sweep_sigma.csv"
    assert main(["sweep", "--config", str(cfg), "--param", "sigma_rad",
                 "--start", "0", "--stop", "0.31", "--num", "2",
                 "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines()
             if ln and not ln.startswith("#")][1:]
    rows = [[float(x) for x in ln.split(",")] for ln in lines]
    d = delta_hz(nc60_params())
    tau = np.linspace(1e-6, 200e-6, 64)
    phase = 2 * np.pi * d * tau
    for sigma, w0, w1, w2, _ in rows:
        want = average_analytic_outer(
            tau, np.pi / 2,
            AngleDistribution(np.pi, sigma, shared_b1=True), d)
        got = w0 + w1 * np.cos(phase) + w2 * np.cos(2 * phase)
        assert np.abs(got - want).max() <= 1e-12


def test_sweep_sigma_averages_on_the_configured_nodes(tmp_path):
    # a sigma row averages on the config's ensemble.nodes, as simulate and
    # analytic do, not on the default 41 nodes
    from eseem.ensemble import AngleDistribution, averaged_component_weights
    rows = {}
    for nodes in (3, 41):
        cfg = tmp_path / f"n{nodes}.cfg"
        cfg.write_text(FAST_CFG.replace("nodes = 21", f"nodes = {nodes}"))
        out = tmp_path / f"n{nodes}.csv"
        assert main(["sweep", "--config", str(cfg), "--param", "sigma_rad",
                     "--start", "0.31", "--stop", "0.31", "--num", "1",
                     "--out", str(out)]) == 0
        line = [ln for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")][1]
        rows[nodes] = [float(x) for x in line.split(",")]
    want = averaged_component_weights(
        AngleDistribution(mean=np.pi, sigma=0.31, nodes=3), np.pi / 2)
    assert rows[3][1:4] == list(want)
    assert rows[3][1:4] != rows[41][1:4]


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
                     str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().splitlines()[0] == \
        "# generated = 2023-11-14T22:13:20+00:00"
    for bad in ("1.5e9", "-1", "soon", "9" * 20):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", bad)
        assert main(["simulate", "--config", str(fast_cfg), "--out",
                     str(first)]) == 2
        assert "SOURCE_DATE_EPOCH" in capsys.readouterr().err


def test_simulate_has_no_residual_option(fast_cfg, tmp_path, capsys):
    out = tmp_path / "a.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--config", str(fast_cfg), "--out", str(out),
              "--im-residual"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --im-residual" in capsys.readouterr().err
    assert not out.exists()


def test_trace_with_a_residual_column_reads_as_without(fast_cfg, tmp_path,
                                                       capsys):
    # trace files that carry the v_im_residual column (and its header line)
    # of earlier versions read, and analyse, as the same file without them
    plain, legacy = tmp_path / "plain.csv", tmp_path / "legacy.csv"
    assert main(["simulate", "--config", str(fast_cfg), "--out",
                 str(plain)]) == 0
    lines = plain.read_text().splitlines()
    cut = next(k for k, ln in enumerate(lines) if not ln.startswith("#"))
    legacy.write_text("\n".join(
        lines[:cut] + ["# max_imag_residual = 4.4408920985006262e-16",
                       lines[cut] + ",v_im_residual"]
        + [ln + ",-2.2204460492503131e-16" for ln in lines[cut + 1:]])
        + "\n")
    want, got = read_trace_csv(plain), read_trace_csv(legacy)
    assert got.tau_s.tobytes() == want.tau_s.tobytes()
    assert got.v.tobytes() == want.v.tobytes()
    capsys.readouterr()
    for command in (["spectrum", "--out", str(tmp_path / "s.csv")], ["fit"]):
        reports = []
        for trace in (plain, legacy):
            assert main([command[0], str(trace), *command[1:], "--json"]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] == reports[1]


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
