"""CSV reading/writing for traces and spectra.

Trace schema: ``tau_s,v`` (plus ``v_im_residual`` on request); spectrum
schema: ``freq_hz,magnitude``.  Values are written with 17 significant
digits so float64 round-trips bit-exactly.  Header comment lines echo the
full run configuration for provenance; the ``generated`` timestamp line is
the only line that changes from run to run.  When the ``SOURCE_DATE_EPOCH``
environment variable holds a Unix time in whole seconds, that line shows
that time instead of the clock, so two runs write identical bytes; any
other value is a ``ConfigError``.
"""

from __future__ import annotations

import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import ConfigError
from .engine import EchoTrace
from .spectral import Spectrum

FLOAT_FMT = "%.17g"


def _generated() -> datetime:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return datetime.now(timezone.utc)
    try:
        if not epoch.isdigit():
            raise ValueError(epoch)
        return datetime.fromtimestamp(int(epoch), timezone.utc)
    except (ValueError, OverflowError, OSError) as err:
        raise ConfigError("SOURCE_DATE_EPOCH", "need whole seconds since "
                          f"1970, got {epoch!r}") from err


def _header_lines(meta: dict) -> list[str]:
    lines = [f"# generated = {_generated().isoformat()}"]
    for key in sorted(meta):
        lines.append(f"# {key} = {meta[key]}")
    return lines


def write_trace_csv(path: str | Path, trace: EchoTrace,
                    extra_meta: dict | None = None,
                    im_residual: bool = False) -> None:
    meta = dict(trace.metadata)
    if extra_meta:
        meta.update(extra_meta)
    cols = ["tau_s", "v"]
    data = [trace.tau_s, trace.v]
    if im_residual:
        cols.append("v_im_residual")
        vim = trace.v_im if trace.v_im is not None else np.zeros_like(trace.v)
        data.append(vim)
    with open(path, "w") as fh:
        for line in _header_lines(meta):
            fh.write(line + "\n")
        fh.write(",".join(cols) + "\n")
        for row in zip(*data):
            fh.write(",".join(FLOAT_FMT % x for x in row) + "\n")


def write_spectrum_csv(path: str | Path, spec: Spectrum,
                       extra_meta: dict | None = None) -> None:
    meta = {"window": spec.window, "zero_pad_factor": spec.zero_pad_factor,
            "n_time": spec.n_time, "dt_s": spec.dt_s}
    if extra_meta:
        meta.update(extra_meta)
    with open(path, "w") as fh:
        for line in _header_lines(meta):
            fh.write(line + "\n")
        fh.write("freq_hz,magnitude\n")
        for f, m in zip(spec.freq_hz, spec.magnitude):
            fh.write(f"{FLOAT_FMT % f},{FLOAT_FMT % m}\n")


def _read_csv(path: str | Path) -> tuple[dict, list[str], np.ndarray]:
    meta: dict[str, str] = {}
    rows = []
    columns: list[str] = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    meta[key.strip()] = value.strip()
                continue
            if not columns:
                columns = [c.strip() for c in line.split(",")]
                continue
            rows.append([float(x) for x in line.split(",")])
    if not columns or not rows:
        raise ValueError(f"no tabular data in {path}")
    return meta, columns, np.asarray(rows)


def read_trace_csv(path: str | Path) -> EchoTrace:
    meta, columns, data = _read_csv(path)
    try:
        k_tau = columns.index("tau_s")
        k_v = columns.index("v")
    except ValueError as err:
        raise ValueError(f"{path} is not a trace file (columns {columns})") from err
    parsed_meta: dict = dict(meta)
    if "t2_s" in meta and meta["t2_s"] not in ("None", ""):
        parsed_meta["t2_s"] = float(meta["t2_s"])
    return EchoTrace(tau_s=data[:, k_tau], v=data[:, k_v], metadata=parsed_meta)


def read_spectrum_csv(path: str | Path) -> tuple[dict, np.ndarray, np.ndarray]:
    meta, columns, data = _read_csv(path)
    try:
        k_f = columns.index("freq_hz")
        k_m = columns.index("magnitude")
    except ValueError as err:
        raise ValueError(f"{path} is not a spectrum file (columns {columns})") from err
    return meta, data[:, k_f], data[:, k_m]
