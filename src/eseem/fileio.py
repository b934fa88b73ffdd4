"""CSV reading/writing for traces and spectra.

Trace schema: ``tau_s,v`` (the reader ignores other columns); spectrum
schema: ``freq_hz,magnitude``.  Values are written with 17 significant
digits so float64 round-trips bit-exactly.  Header comment lines echo the
full run configuration for provenance; the ``generated`` timestamp line is
the only line that changes from run to run.  When the ``SOURCE_DATE_EPOCH``
environment variable holds a Unix time in whole seconds, that line shows
that time instead of the clock, so two runs write identical bytes; any
other value is a ``ConfigError``.  A multi-line value is written on one
header line, its lines joined by a space.

Both writers share one table writer that formats ``ROW_BLOCK`` rows per
``%`` call, which keeps a long spectrum's memory small.  The reader takes
``# key = value`` lines as metadata wherever they stand, skips blank lines,
names the columns from the first other line and parses the rest with one
``np.loadtxt`` call.  A ragged row or a non-numeric cell is a ``ValueError``
naming the file and the line of the first, and the column of a cell; so is
a trace whose tau or v column holds a non-finite cell (nan, inf).
"""

from __future__ import annotations

import os
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .config import ConfigError
from .engine import EchoTrace

if TYPE_CHECKING:  # writing a trace does not load the spectral layer
    from .spectral import Spectrum

FLOAT_FMT = "%.17g"
# rows formatted per write call; bounds the memory a long table takes
ROW_BLOCK = 1024


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
        # a multi-line config value would break the comment line
        value = " ".join(str(meta[key]).splitlines())
        lines.append(f"# {key} = {value}")
    return lines


def _write_table(path: str | Path, meta: dict, columns: list[str],
                 data: list[np.ndarray]) -> None:
    """Header comments, the column line, then one ``FLOAT_FMT`` row per
    index of the equal-length ``data`` columns, formatted ``ROW_BLOCK`` rows
    at a time."""
    row_fmt = ",".join([FLOAT_FMT] * len(columns)) + "\n"
    with open(path, "w") as fh:
        for line in _header_lines(meta):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        n = len(data[0])
        for k in range(0, n, ROW_BLOCK):
            block = np.column_stack([col[k:k + ROW_BLOCK] for col in data])
            fh.write(row_fmt * len(block) % tuple(block.ravel().tolist()))


def write_trace_csv(path: str | Path, trace: EchoTrace,
                    extra_meta: dict | None = None) -> None:
    _write_table(path, {**trace.metadata, **(extra_meta or {})},
                 ["tau_s", "v"], [trace.tau_s, trace.v])


def write_spectrum_csv(path: str | Path, spec: Spectrum,
                       extra_meta: dict | None = None) -> None:
    meta = {"window": spec.window, "zero_pad_factor": spec.zero_pad_factor,
            "n_time": spec.n_time, "dt_s": spec.dt_s, **(extra_meta or {})}
    _write_table(path, meta, ["freq_hz", "magnitude"],
                 [spec.freq_hz, spec.magnitude])


def _read_csv(path: str | Path
              ) -> tuple[dict, list[str], np.ndarray, list[int]]:
    """Metadata from every ``# key = value`` line, the column names from the
    first other non-blank line, the rows after it as one float array, and
    the file's line number (from 1) of each row."""
    meta: dict[str, str] = {}
    columns: list[str] = []
    rows: list[str] = []
    numbers: list[int] = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        elif not line:
            continue
        elif columns:
            rows.append(line)
            numbers.append(number)
        else:
            columns = [c.strip() for c in line.split(",")]
    if not rows:
        raise ValueError(f"no tabular data in {path}")
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError as err:
        # name the first ragged row or non-numeric cell, as numpy does not
        width = rows[0].count(",") + 1
        for row, number in zip(rows, numbers):
            cells = row.split(",")
            if len(cells) != width:
                raise ValueError(f"{path}, line {number}: {len(cells)} "
                                 f"columns, not {width}") from None
            for k, cell in enumerate(cells):
                if not _reads_as_float(cell):
                    name = dict(enumerate(columns)).get(k, f"column {k + 1}")
                    raise ValueError(f"{path}, line {number}: {name} is not a "
                                     f"number ({cell.strip()})") from None
        raise ValueError(f"{path}: {err}") from None
    return meta, columns, data, numbers


def _reads_as_float(cell: str) -> bool:
    """Whether ``np.loadtxt`` reads the CSV cell ``cell`` as a number: its
    parser, not Python's ``float``, which also takes cells such as ``1_0``
    or non-ASCII digits.  An empty cell is not a number (``np.loadtxt``
    would skip it as an empty line)."""
    try:
        return bool(cell.strip()) and np.loadtxt(
            [cell], delimiter=",", comments=None).size == 1
    except ValueError:
        return False


def read_trace_csv(path: str | Path) -> EchoTrace:
    meta, columns, data, numbers = _read_csv(path)
    try:
        k_tau = columns.index("tau_s")
        k_v = columns.index("v")
    except ValueError as err:
        raise ValueError(f"{path} is not a trace file (columns {columns})") from err
    cols = sorted((k_tau, k_v))  # in file order
    bad = np.argwhere(~np.isfinite(data[:, cols]))
    if bad.size:
        row, k = bad[0]
        raise ValueError(f"{path}, line {numbers[row]}: {columns[cols[k]]} "
                         f"is not finite ({data[row, cols[k]]})")
    t2 = meta.get("t2_s")  # typed: a float, or None without T2
    typed = {**meta, "t2_s": None if t2 in (None, "None", "") else float(t2)}
    return EchoTrace(tau_s=data[:, k_tau], v=data[:, k_v], metadata=typed)


def read_spectrum_csv(path: str | Path) -> tuple[dict, np.ndarray, np.ndarray]:
    meta, columns, data, _ = _read_csv(path)
    try:
        k_f = columns.index("freq_hz")
        k_m = columns.index("magnitude")
    except ValueError as err:
        raise ValueError(f"{path} is not a spectrum file (columns {columns})") from err
    return meta, data[:, k_f], data[:, k_m]
