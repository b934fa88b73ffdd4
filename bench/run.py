"""Benchmark of the eseem package: end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; eseem is imported from ``src/``.
Workloads (see BENCHMARK.json for why each exists):

* ``preset-pipeline``: simulate -> spectrum -> fit on the three presets;
* ``trace-grid``: single traces on every engine;
* ``validate-suite``: the invariant suite.

``--seconds`` sizes a run: each workload makes ``seconds / pass_seconds``
passes over the same items (``pass_seconds`` is set per workload), a fixed
count rather than a time limit, so every commit does the same work.  With ``--trace 0`` the passes run
untraced and the end-to-end metrics are printed; with ``--trace 1`` (at
least two passes) untraced and traced passes alternate and the per-layer
metrics are printed.  Every pass must give outputs bit-identical to the
first.

The speed of a shared machine drifts by tens of percent over tens of
seconds, so timings are averaged over the whole run (``run_s`` is the mean
pass time; an item's latency is its mean over the passes, and
``item_p50_s`` and ``item_tail_s`` are taken over items), and every
end-to-end time is scaled to a nominal machine speed: every 50 ms of a
pass, and after each set-up, one block of a fixed numpy kernel is timed
(its time is left out of the item's), and times are multiplied by
``REF_NOMINAL_S`` over the block's mean time in the run.  The report lines
give the wall-clock figures and the scale.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit, as BENCHMARK.json lists
them).  The lines before it hold the run manifest and a report.  Spans of a
traced run are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import LAYERS, MOVES, Tracer, layer_metrics
from workloads import WORKLOADS, ItemResult

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
REF_NOMINAL_S = 1e-3     # nominal time of one block of the reference kernel
REF_ITERATIONS = 10
PROBE_PERIOD_S = 0.05
SETUP_PROBE_BLOCKS = 20
TAIL_BEYOND = 10
MIN_ATTRIBUTED = 0.9
CHECK_TIMES = [name.removeprefix("validation.check_s.") for name in MOVES
               if name.startswith("validation.check_s.")]

# a fresh interpreter: import eseem, then parse the workload's configs
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import eseem
from eseem.config import parse_config
for path in sys.argv[2:]:
    parse_config(path)
print(repr(time.perf_counter() - t0))
"""


class SpeedProbe:
    """Times blocks of a fixed kernel shaped like eseem's inner loop (12x12
    Hermitian eigendecomposition, exponential, products) but sharing none
    of its code, to measure the machine's speed while a run goes on."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        self._h = a + a.conj().T
        self.blocks = 0
        self.seconds = 0.0

    def block(self, *_signal_args) -> None:
        h = self._h
        t0 = perf_counter()
        for _ in range(REF_ITERATIONS):
            w, v = np.linalg.eigh(h)
            u = (v * np.exp(-1j * w)) @ v.conj().T
            u @ h @ u.conj().T
        self.seconds += perf_counter() - t0
        self.blocks += 1

    @contextmanager
    def sampling(self):
        """Run one block every ``PROBE_PERIOD_S`` of wall time from a
        SIGALRM handler, which Python runs between the program's bytecodes;
        callers subtract the blocks' time from what they measure."""
        previous = signal.signal(signal.SIGALRM, self.block)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def block_s(self) -> float:
        return self.seconds / self.blocks

    def scale(self) -> float:
        """Factor taking a wall time to seconds at the nominal speed."""
        return REF_NOMINAL_S / self.block_s()


def tail_value(samples: list[float], beyond: int = TAIL_BEYOND) -> float:
    """Value at the highest percentile with at least ``beyond`` samples
    above it: the (n - beyond)-th smallest of n samples."""
    if len(samples) <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {len(samples)}")
    return sorted(samples)[len(samples) - beyond - 1]


def import_program():
    """Import eseem from the checkout's ``src/``; exits if it is absent."""
    if not (SRC / "eseem" / "__init__.py").is_file():
        raise SystemExit(f"error: no eseem sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import eseem
    import eseem.cli  # noqa: F401  (loads every layer module)
    return eseem


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def manifest(args, passes: int) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def setup_seconds(config_paths: list[Path]) -> float:
    """One fresh interpreter's import of eseem plus parsing the configs."""
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC),
         *(str(p) for p in config_paths)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(workload, probe: SpeedProbe | None, tracer=None):
    """Run every unit once, timed (less the speed probe's blocks), then
    evaluate the outputs untimed.  The pass time is the units' total."""
    outputs = []
    with (tracer.installed() if tracer else nullcontext(),
          probe.sampling() if probe else nullcontext()):
        for unit_id, call in workload.units():
            if tracer:
                tracer.run_id = unit_id
            probed = probe.seconds if probe else 0.0
            t0 = perf_counter()
            try:
                out, err = call(), None
            except Exception:
                out, err = None, traceback.format_exc()
            seconds = perf_counter() - t0
            if probe:
                seconds -= probe.seconds - probed
            outputs.append((unit_id, out, err, seconds))
    pass_s = sum(o[3] for o in outputs)
    items = []
    for unit_id, out, err, seconds in outputs:
        if err is None:
            try:
                items.extend(workload.evaluate(unit_id, out, seconds))
                continue
            except Exception:
                err = traceback.format_exc()
        items.append(ItemResult(unit_id, seconds, b"", error=err))
    return pass_s, items


def measure(workload, args, passes: int):
    """Returns (wall-clock values, items, problems, report lines, tracer or
    None, time scale)."""
    if args.trace:
        # per-layer times stay wall-clock: no probe runs inside the spans
        tracer = Tracer()
        plain, traced = [], []   # (pass_s, items[, first span, stop span])
        for k in range(passes):
            if k % 2:
                first = len(tracer.spans)
                traced.append(run_pass(workload, None, tracer)
                              + (first, len(tracer.spans)))
            else:
                plain.append(run_pass(workload, None))
        report = ["per-layer times are wall-clock seconds"]
    else:
        probe = SpeedProbe()
        setup = []
        for _ in range(SETUP_REPEATS):
            setup.append(setup_seconds(workload.config_paths))
            for _ in range(SETUP_PROBE_BLOCKS):
                probe.block()
        plain, traced = [run_pass(workload, probe) for _ in range(passes)], []
        report = [f"wall-clock seconds below; reported times are scaled by "
                  f"{probe.scale():.6g} (reference block mean "
                  f"{probe.block_s() * 1e3:.6g} ms over {probe.blocks} "
                  f"blocks, nominal {REF_NOMINAL_S * 1e3:g} ms)"]

    items = [it for p in plain + traced for it in p[1]]
    problems = [f"{it.item_id}: {it.error or f'ratio {it.ratio:.3g} > 1'}"
                for it in items if it.failed]
    reference = {it.item_id: it.digest for it in plain[0][1]}
    problems += [f"{it.item_id}: output differs from the first pass"
                 for it in items if it.digest != reference.get(it.item_id)]
    ratios = [it.ratio for it in items if it.ratio is not None]
    if not args.trace:
        timings = {}
        for _, pass_items in plain:
            for it in pass_items:
                timings.setdefault(it.item_id, []).append(it.seconds)
        lat = [statistics.fmean(t) for t in timings.values()]
        values = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.fmean(p[0] for p in plain),
            "item_p50_s": statistics.median(lat),
            "item_tail_s": tail_value(lat),
            "pass_frac": sum(not it.failed for it in items) / len(items),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_ratio": max(ratios),
        }
        report.append(f"passes {len(plain)}, items {len(lat)}, tail = item "
                      f"{len(lat) - TAIL_BEYOND} of {len(lat)} by latency")
        report.append(f"pass seconds {[p[0] for p in plain]}")
        report.append(f"setup seconds {setup}")
        report.append("wall-clock " + ", ".join(
            f"{k} {values[k]:.6g}" for k in ("setup_s", "run_s", "item_p50_s",
                                             "item_tail_s")))
        return values, items, problems, report, None, probe.scale()

    per_pass = []
    for pass_s, pass_items, first, stop in traced:
        m = layer_metrics(tracer.spans, first, stop, pass_s)
        seconds = {it.item_id: it.seconds for it in pass_items}
        for check_id in CHECK_TIMES:
            m[f"validation.check_s.{check_id}"] = seconds.get(check_id, 0.0)
        covered = 1.0 - m["trace.unattributed_s"] / pass_s
        if covered < MIN_ATTRIBUTED:
            problems.append(f"layer self times cover {covered:.1%} of the "
                            f"traced run, under {MIN_ATTRIBUTED:.0%}")
        per_pass.append(m)
    values = {key: statistics.fmean(m[key] for m in per_pass)
              for key in per_pass[0]}
    values["trace.overhead_s"] = (statistics.fmean(p[0] for p in traced)
                                  - statistics.fmean(p[0] for p in plain))
    return values, items, problems, report, tracer, 1.0


def trace_report(values: dict, metrics: list[dict]) -> list[str]:
    lines = [f"{m['name']:<44s}{values[m['name']]:14.6g} {m['unit']:<6s}"
             f" moves {MOVES[m['name']]}" for m in metrics]
    lines.append(f"{'layer':<14s}{'self_s':>12s}{'calls':>10s}")
    total = 0.0
    for layer in LAYERS:
        own = values[f"{layer}.self_s"]
        total += own
        lines.append(f"{layer:<14s}{own:12.4f}{values[f'{layer}.calls']:10.0f}")
    lines.append(f"{'unattributed':<14s}{values['trace.unattributed_s']:12.4f}")
    run_s = values["trace.run_s"]
    lines.append(f"self times sum {total:.4f} s = {total / run_s:.1%} of "
                 f"traced run_s {run_s:.4f} s; tracing overhead "
                 f"{values['trace.overhead_s']:.4f} s")
    return lines


def write_spans(tracer, args) -> Path:
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "run_id",
                              "tag", "work"],
                   "spans": [s.as_list() for s in tracer.spans]}, fh)
    return path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    eseem = import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](eseem, args.seed, workdir)
        passes = workload.passes(args.seconds, args.trace)
        values, items, problems, report, tracer, scale = measure(
            workload, args, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"manifest": manifest(args, passes)}))
    for line in report:
        print("# " + line)
    if tracer is not None:
        for line in trace_report(values, metrics):
            print("# " + line)
        print(f"# spans written to {write_spans(tracer, args)}")
    for problem in problems:
        print("# FAILED " + problem.replace("\n", "\n# "))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(items),
        "failed": sum(it.failed for it in items),
        "metrics": {m["name"]: {"value": values[m["name"]]
                                * (scale if m["unit"] in ("s", "us") else 1.0),
                                "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
