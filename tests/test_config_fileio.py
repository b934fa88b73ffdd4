import re
from pathlib import Path

import numpy as np
import pytest

from eseem.config import (SCHEMA, ConfigError, Range, load_preset,
                          parse_config, preset_path)
from eseem.engine import EchoTrace
from eseem.fileio import (read_spectrum_csv, read_trace_csv,
                          write_spectrum_csv, write_trace_csv)
from eseem.spectral import fft_magnitude

GOOD_CFG = """
[system]
s = 3/2
i = 1
a_hz = 15.8e6
f_e_hz = 9.67e9
g = 2.0036

[sequence]
theta1_deg = 90
theta2_deg = 120
phase2_deg = 45

[tau]
start_s = 1e-6
stop_s = 100e-6
points = 64

[ensemble]
sigma_rad = 0.2
nodes = 21

[run]
engine = average-hamiltonian
detect_m_i = -1,0,1
t2_s = 210e-6
resonance_offset_hz = 0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_full_config(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, GOOD_CFG))
    assert cfg.system.s == 1.5 and cfg.system.i == 1.0
    assert cfg.pulse1.angle == pytest.approx(np.pi / 2)
    assert cfg.pulse2.angle == pytest.approx(2 * np.pi / 3)
    assert cfg.pulse2.phase == pytest.approx(np.pi / 4)
    assert cfg.tau_grid.size == 64
    assert cfg.detect_m_i == [-1.0, 0.0, 1.0]
    assert cfg.t2_s == pytest.approx(210e-6)
    assert cfg.distribution.nodes == 21
    assert cfg.echo["sequence.theta2_deg"] == "120"
    exp = cfg.experiment(-1.0)
    assert exp.detect_m_i == -1.0


def test_missing_block_names_field(tmp_path):
    text = GOOD_CFG.replace("[tau]", "[tau_oops]")
    with pytest.raises(ConfigError) as err:
        parse_config(write_cfg(tmp_path, text))
    assert err.value.field == "tau"


def test_bad_values_report_paths(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write_cfg(tmp_path, GOOD_CFG.replace(
            "points = 64", "points = 1")))
    assert "tau.points" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config(write_cfg(tmp_path, GOOD_CFG.replace(
            "engine = average-hamiltonian", "engine = euler")))
    assert err.value.field == "run.engine"
    with pytest.raises(ConfigError) as err:
        parse_config(write_cfg(tmp_path, GOOD_CFG.replace(
            "a_hz = 15.8e6", "a_hz = fifteen")))
    assert err.value.field == "system.a_hz"
    # too coarse for the stepped engine, whatever engine the run uses
    for steps in ("10", "0", "-40"):
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, GOOD_CFG.replace(
                "t2_s = 210e-6", f"t2_s = 210e-6\nsteps_per_period = {steps}")))
        assert err.value.field == "run.steps_per_period"


FINITE = "phase2_deg = 45\npulse_model = finite\n"


@pytest.mark.parametrize("old, new, field", [
    ("theta1_deg = 90", "theta1_deg = 0", "sequence.theta1_deg"),
    ("theta2_deg = 120", "theta2_deg = 400", "sequence.theta2_deg"),
    ("phase2_deg = 45", "pulse_model = finit", "sequence.pulse_model"),
    ("phase2_deg = 45", FINITE + "t_p1_s = 56e-9\nt_p2_s = 0",
     "sequence.t_p2_s"),
    ("phase2_deg = 45", FINITE + "t_p2_s = 112e-9", "sequence.t_p1_s"),
    ("sigma_rad = 0.2", "sigma_rad = -0.31", "ensemble.sigma_rad"),
    ("nodes = 21", "nodes = 20", "ensemble.nodes"),
    ("stop_s = 100e-6", "stop_s = 1e-6", "tau.stop_s"),
    ("s = 3/2", "s = 0", "system.s"),
], ids=["theta1-zero", "theta2-above-360", "pulse-model", "t_p2-zero",
        "t_p1-missing", "sigma-negative", "nodes-even", "stop-not-above-start",
        "no-electron-spin"])
def test_errors_name_the_key(tmp_path, old, new, field):
    with pytest.raises(ConfigError) as err:
        parse_config(write_cfg(tmp_path, GOOD_CFG.replace(old, new)))
    assert err.value.field == field


def test_readme_lists_every_schema_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = dict(re.findall(r"^\| `(\w+\.\w+)` \|(.*)$", readme, re.M))
    assert sorted(rows) == sorted(f"{block}.{key}"
                                  for block, keys in SCHEMA.items()
                                  for key in keys)
    # the bounds in the README are the table's
    for block, keys in SCHEMA.items():
        for key, spec in keys.items():
            if len(spec) == 3 and isinstance(spec[2], Range):
                assert str(spec[2]) in rows[f"{block}.{key}"], key


def test_frame_frequency_exclusivity(tmp_path):
    text = GOOD_CFG.replace("f_e_hz = 9.67e9",
                            "f_e_hz = 9.67e9\nf_mw_hz = 9.6e9")
    with pytest.raises(ConfigError) as err:
        parse_config(write_cfg(tmp_path, text))
    assert "resonance_offset_hz" in err.value.field
    # with the offset removed, an explicit frame frequency is accepted
    ok = text.replace("resonance_offset_hz = 0\n", "")
    cfg = parse_config(write_cfg(tmp_path, ok, name="ok.cfg"))
    assert cfg.resonance_offset_hz is None
    assert cfg.system.f_mw_hz == pytest.approx(9.6e9)


def test_composite_parsing(tmp_path):
    text = GOOD_CFG.replace("phase2_deg = 45",
                            "phase2_deg = 0\ncomposite = 90@0,180@90,90@0")
    cfg = parse_config(write_cfg(tmp_path, text))
    segs = cfg.pulse2.composite
    assert len(segs) == 3
    assert segs[1] == (pytest.approx(np.pi), pytest.approx(np.pi / 2))
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, text.replace(
            "90@0,180@90,90@0", "90:0"), name="bad.cfg"))


def test_presets_load():
    for name in ("nc60", "nc60_mi_minus1", "nc60_mi_0", "nc60_composite"):
        cfg = load_preset(name)
        assert cfg.system.a_hz == pytest.approx(15.8e6)
        assert cfg.t2_s == pytest.approx(210e-6)
        assert cfg.pulse1.duration_s == pytest.approx(56e-9)
        assert cfg.pulse2.duration_s == pytest.approx(112e-9)
        assert cfg.distribution.sigma == pytest.approx(0.31)
    assert load_preset("nc60_composite").pulse2.composite is not None
    with pytest.raises(ConfigError):
        preset_path("nc61")


def test_trace_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tau = np.linspace(1e-6, 2e-4, 97)
    v = rng.normal(size=97) * np.pi
    trace = EchoTrace(tau_s=tau, v=v, metadata={"engine": "test", "m_i": 1.0},
                      v_im=np.full(97, 1e-16))
    path = tmp_path / "t.csv"
    write_trace_csv(path, trace, extra_meta={"note": "x"}, im_residual=True)
    back = read_trace_csv(path)
    assert np.array_equal(back.tau_s, tau)
    assert np.array_equal(back.v, v)
    assert back.metadata["engine"] == "test"
    assert back.metadata["note"] == "x"
    text = path.read_text()
    assert "v_im_residual" in text
    assert text.splitlines()[0].startswith("# generated")


def test_spectrum_roundtrip(tmp_path):
    tau = np.linspace(0, 1e-4, 64)
    trace = EchoTrace(tau_s=tau, v=np.cos(2 * np.pi * 30e3 * tau))
    spec = fft_magnitude(trace)
    path = tmp_path / "s.csv"
    write_spectrum_csv(path, spec, extra_meta={"source": "t.csv"})
    meta, freq, mag = read_spectrum_csv(path)
    assert np.array_equal(freq, spec.freq_hz)
    assert np.array_equal(mag, spec.magnitude)
    assert meta["window"] == "hann"


def test_readers_reject_wrong_schema(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("# a = b\nfoo,bar\n1,2\n")
    with pytest.raises(ValueError):
        read_trace_csv(path)
    with pytest.raises(ValueError):
        read_spectrum_csv(path)
