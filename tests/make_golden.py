"""Write ``golden_traces.txt``, the traces that ``test_golden.py`` holds
every change to: v at every 8th tau, to 17 digits, of

* the three bundled presets with their engine switched to
  average-hamiltonian (finite pulses, cp3, T2 as shipped), each averaged
  with ``shared_b1`` false and true;
* the ideal pi/2 - pi echo on the average-Hamiltonian engine on nc60's
  lines m_i = -1, 0 and +1, 512 tau from 1 to 200 us;
* the three presets as shipped (exact engine), each with ``shared_b1``
  false and true.

``arrays()`` is the one definition of these traces, for this script and
the test.  Regenerate by hand, and only when a change is meant to move
the named arrays (see ``test_golden.py``):

    PYTHONPATH=src python tests/make_golden.py
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from eseem.config import load_preset
from eseem.engine import EchoExperiment, run_two_pulse_echo
from eseem.ensemble import average_trace
from eseem.pulses import PulseSpec
from eseem.system import nc60_params

OUT = Path(__file__).with_name("golden_traces.txt")
PRESETS = ("nc60_mi_minus1", "nc60_mi_0", "nc60_composite")
LINES = ((-1.0, "minus1"), (0.0, "0"), (1.0, "plus1"))
TAU = np.linspace(1e-6, 200e-6, 512)
EVERY = 8  # keep v at every 8th tau

# the largest deviation a test accepts, relative to the array's max|v|.
# The exact engine's phases round apart by about 1e-9 of max|v| between
# LAPACK builds (2 ulp on the eigenvalues of H0 moved a preset average by
# 1.7e-9), so its arrays are held at the 40-digit fixture's 1e-8
AH_TOL = 1e-12
EXACT_TOL = 1e-8


def _preset_average(name: str, shared_b1: bool, engine: str | None = None):
    cfg = load_preset(name)
    exp = cfg.experiments[0]
    if engine is not None:
        exp = replace(exp, engine=engine)
    return average_trace(exp, replace(cfg.distribution, shared_b1=shared_b1))


def arrays() -> dict:
    """Column name -> (tau, v, tolerance), v of the whole trace."""
    out = {}
    for name in PRESETS:
        for shared in (False, True):
            trace = _preset_average(name, shared, "average-hamiltonian")
            out[f"ah_{name}_shared{int(shared)}"] = (trace.tau_s, trace.v,
                                                     AH_TOL)
    for m_i, label in LINES:
        trace = run_two_pulse_echo(EchoExperiment(
            system=nc60_params(), pulse1=PulseSpec(np.pi / 2),
            pulse2=PulseSpec(np.pi), tau_grid=TAU, detect_m_i=m_i))
        out[f"ah_ideal_mi_{label}"] = (trace.tau_s, trace.v, AH_TOL)
    for name in PRESETS:
        for shared in (False, True):
            trace = _preset_average(name, shared)
            out[f"exact_{name}_shared{int(shared)}"] = (trace.tau_s, trace.v,
                                                        EXACT_TOL)
    return out


def main():
    traces = arrays()
    columns = [TAU[::EVERY]] + [v[::EVERY] for _, v, _ in traces.values()]
    header = ("v at every 8th tau of the golden traces (tests/make_golden.py)"
              "\ntau_s " + " ".join(traces))
    np.savetxt(OUT, np.column_stack(columns), fmt="%.17g", header=header)
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
