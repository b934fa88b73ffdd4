import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eseem.cli import main
from eseem.config import (SCHEMA, ConfigError, Range, load_preset,
                          parse_config, preset_path)
from eseem.engine import EchoTrace
from eseem.fileio import (FLOAT_FMT, ROW_BLOCK, read_spectrum_csv,
                          read_trace_csv, write_spectrum_csv, write_trace_csv)
from eseem.spectral import Spectrum, fft_magnitude

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
    assert (cfg.experiments[0].system.s == 1.5
            and cfg.experiments[0].system.i == 1.0)
    assert cfg.experiments[0].pulse1.angle == pytest.approx(np.pi / 2)
    assert cfg.experiments[0].pulse2.angle == pytest.approx(2 * np.pi / 3)
    assert cfg.experiments[0].pulse2.phase == pytest.approx(np.pi / 4)
    assert cfg.experiments[0].tau_grid.size == 64
    assert cfg.detect_m_i == [-1.0, 0.0, 1.0]
    assert cfg.experiments[0].t2_s == pytest.approx(210e-6)
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


@pytest.mark.parametrize("old, new, field", [
    ("f_e_hz = 9.67e9", "f_e_hz = 9.67e9\nf_mw_hz = 9.6e9", "system.f_mw_hz"),
    ("t2_s = 210e-6", "t2_s = 210e-6\nsteps_per_period = 40",
     "run.steps_per_period"),
], ids=["system.f_mw_hz", "run.steps_per_period"])
def test_removed_settings_exit_2_naming_the_field(tmp_path, capsys, old,
                                                   new, field):
    # run.resonance_offset_hz alone places the frame, and the stepped
    # engine's substep count is engine.STEPS_PER_PERIOD: neither old key
    # is a setting any more, so each is an unknown key
    cfg = write_cfg(tmp_path, GOOD_CFG.replace(old, new))
    with pytest.raises(ConfigError) as err:
        parse_config(cfg)
    assert err.value.field == field
    assert main(["simulate", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert f"{field}: unknown" in capsys.readouterr().err
    # without the key the run places the frame on the detected line
    assert parse_config(write_cfg(tmp_path, GOOD_CFG.replace(
        "resonance_offset_hz = 0\n", ""), name="ok.cfg")
        ).experiments[0].resonance_offset_hz == 0.0


def test_composite_parsing(tmp_path):
    text = GOOD_CFG.replace("phase2_deg = 45",
                            "phase2_deg = 0\ncomposite = 90@0,180@90,90@0")
    cfg = parse_config(write_cfg(tmp_path, text))
    segs = cfg.experiments[0].pulse2.composite
    assert len(segs) == 3
    assert segs[1] == (pytest.approx(np.pi), pytest.approx(np.pi / 2))
    with pytest.raises(ConfigError):
        parse_config(write_cfg(tmp_path, text.replace(
            "90@0,180@90,90@0", "90:0"), name="bad.cfg"))


def test_presets_load():
    for name in ("nc60", "nc60_mi_minus1", "nc60_mi_0", "nc60_composite"):
        cfg = load_preset(name)
        assert cfg.experiments[0].system.a_hz == pytest.approx(15.8e6)
        assert cfg.experiments[0].t2_s == pytest.approx(210e-6)
        assert cfg.experiments[0].pulse1.duration_s == pytest.approx(56e-9)
        assert cfg.experiments[0].pulse2.duration_s == pytest.approx(112e-9)
        assert cfg.distribution.sigma == pytest.approx(0.31)
    composite = load_preset("nc60_composite").experiments[0]
    assert composite.pulse2.composite is not None
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


def test_trace_t2_reads_back_as_float_or_none(tmp_path):
    path = tmp_path / "t.csv"

    def round_trip(t2_s):
        write_trace_csv(path, EchoTrace(tau_s=np.arange(4.0), v=np.ones(4),
                                        metadata={"t2_s": t2_s}))
        return read_trace_csv(path).metadata["t2_s"]

    assert round_trip(None) is None
    assert round_trip(210e-6) == 210e-6


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


def per_row_rows(*columns):
    """The data lines of the per-row writer the block writer replaced."""
    return "".join(",".join(FLOAT_FMT % x for x in row) + "\n"
                   for row in zip(*columns))


EDGE_FLOATS = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                        -1.7976931348623157e308, 1.0, -3.0, 2.0 ** 53, 1e22,
                        0.1, np.pi, 1e-300])


@pytest.mark.parametrize("n", [0, 1, len(EDGE_FLOATS), ROW_BLOCK + 3])
def test_writers_match_per_row_reference(tmp_path, n):
    values = np.resize(EDGE_FLOATS, n)
    tau = np.arange(n, dtype=float) * 1e-6
    v_im = values[::-1].copy()
    trace = EchoTrace(tau_s=tau, v=values, metadata={"k": 1}, v_im=v_im)
    path = tmp_path / "t.csv"
    write_trace_csv(path, trace, im_residual=True)
    text = path.read_text()
    head = "\n".join(text.splitlines()[:3]) + "\n"
    assert head.endswith("tau_s,v,v_im_residual\n")
    assert text == head + per_row_rows(tau, values, v_im)
    spec = Spectrum(freq_hz=tau, magnitude=values, window="hann",
                    zero_pad_factor=1, n_time=n, dt_s=1e-6)
    write_spectrum_csv(path, spec)
    text = path.read_text()
    cut = text.index("freq_hz,magnitude\n") + len("freq_hz,magnitude\n")
    assert text[cut:] == per_row_rows(tau, values)


def test_spectrum_writer_memory_is_bounded(tmp_path):
    # two writes whose row counts differ by 8x: the peak stays under 2 MiB
    # and does not grow with the rows.  A writer that held every row would
    # add about 1.2 MB between them; 64 KiB of slack covers the allocator
    peaks = []
    for n in (2 * ROW_BLOCK, 16 * ROW_BLOCK):
        freq = np.linspace(0.0, 1e6, n)
        spec = Spectrum(freq_hz=freq, magnitude=np.sqrt(freq), window="hann",
                        zero_pad_factor=1, n_time=n, dt_s=1e-6)
        tracemalloc.start()
        try:
            write_spectrum_csv(tmp_path / "big.csv", spec)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2 * 2 ** 20
    assert peaks[1] <= peaks[0] + 64 * 2 ** 10


def test_reader_accepts_crlf_blank_and_late_comment_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"# engine = x\r\n\r\ntau_s,v\r\n1e-6,0.5\r\n  \r\n"
                     b"  # note = late\r\n2e-6 , -0\r\n")
    trace = read_trace_csv(path)
    assert trace.metadata["engine"] == "x"
    assert trace.metadata["note"] == "late"
    assert trace.tau_s.tolist() == [1e-6, 2e-6]
    assert trace.v.tolist() == [0.5, 0.0]
    assert np.signbit(trace.v[1])


@pytest.mark.parametrize("body", [
    "tau_s,v\n",                 # only a header
    "tau_s,v\n1,2\n3,4,5\n",      # ragged row
    "tau_s,v\n1,2\n3,90@0\n",     # non-numeric cell
    "tau_s,v\n1,\n",              # empty cell
])
def test_reader_rejects_malformed_tables(tmp_path, body):
    path = tmp_path / "t.csv"
    path.write_text("# a = b\n" + body)
    with pytest.raises(ValueError):
        read_trace_csv(path)
