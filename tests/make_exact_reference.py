"""Write ``exact_reference_nc60.txt``, the 40-digit reference of the ideal
pi/2 - pi echo on the three nc60 lines, which ``test_engine.py`` compares
the exact engine against.

The free evolution is evaluated in mpmath at 40 digits from the same
double-precision H0 that the engine diagonalizes: ``mp.eighe`` of each
block of equal M = m_s + m_i, the phases exp(-i w_k tau) and the frame
phases exp(+i w_mw m_s tau) in mp.  U(0, tau) and U(tau, 2 tau) are then
rounded to complex128 and contracted with the dense reference kernel of
``test_engine.py`` and the engine's own ideal pulses.  32 tau from 1 to
200 us, frame on each detected line (zero offset).

Run by hand (needs mpmath, which the tests never import):

    PYTHONPATH=src python tests/make_exact_reference.py
"""

from pathlib import Path

import mpmath as mp
import numpy as np

from eseem.engine import (EchoExperiment, detection_operator,
                          microwave_freq_hz, thermal_deviation)
from eseem.hamiltonians import h0_lab
from eseem.pulses import PulseSpec, rotation_operator
from eseem.system import nc60_params
from test_engine import _reference_echo_amplitude

OUT = Path(__file__).with_name("exact_reference_nc60.txt")
TAU = np.linspace(1e-6, 200e-6, 32)
LINES = (-1.0, 0.0, 1.0)
mp.mp.dps = 40


def block_eigen(h0, total):
    """(indices, eigenvalues, eigenvectors) in mp of each M block of h0."""
    out = []
    for m in np.unique(total):
        idx = np.flatnonzero(total == m)
        block = mp.matrix([[mp.mpc(complex(h0[r, c])) for c in idx]
                           for r in idx])
        w, v = mp.eighe(block)
        out.append((idx, w, v))
    return out


def propagators(blocks, m_s, omega, tau):
    """U(0, tau) and U(tau, 2 tau) in mp, rounded to complex128."""
    dim = m_s.size
    tau = mp.mpf(tau)
    frame = [mp.expj(omega * mp.mpf(m) * tau) for m in m_s]
    u1 = np.zeros((dim, dim), dtype=complex)
    u2 = np.zeros((dim, dim), dtype=complex)
    for idx, w, v in blocks:
        n = len(idx)
        phases = [mp.expj(-w[k] * tau) for k in range(n)]
        for a in range(n):
            for b in range(n):
                core = mp.fsum(v[a, k] * phases[k] * mp.conj(v[b, k])
                               for k in range(n))
                r, c = idx[a], idx[b]
                lab = frame[r] * core
                u1[r, c] = complex(lab)
                u2[r, c] = complex(frame[r] * lab * mp.conj(frame[c]))
    return u1, u2


def main():
    system = nc60_params()
    basis = system.basis
    h0 = h0_lab(system)
    m_s = basis.m_s_diagonal()
    blocks = block_eigen(h0, m_s + basis.m_i_diagonal())
    order = basis.electron_order()
    columns = [TAU]
    for m_i in LINES:
        exp = EchoExperiment(system=system, pulse1=PulseSpec(np.pi / 2),
                             pulse2=PulseSpec(np.pi), tau_grid=TAU,
                             detect_m_i=m_i, engine="exact-lab-frame",
                             resonance_offset_hz=0.0)
        f_mw = microwave_freq_hz(exp)
        omega = 2 * mp.pi * mp.mpf(f_mw)
        r1 = rotation_operator(exp.pulse1, system, 1.0, f_mw)
        r2 = rotation_operator(exp.pulse2, system, 1.0, f_mw)
        sigma0 = thermal_deviation(system)
        det_op = detection_operator(system, m_i)
        v = [_reference_echo_amplitude(*propagators(blocks, m_s, omega, t),
                                       r1, r2, sigma0, det_op,
                                       order == 1, order == -1).real
             for t in TAU]
        columns.append(np.array(v))
    header = ("40-digit reference of the ideal pi/2 - pi echo on nc60 "
              "(tests/make_exact_reference.py)\n"
              "tau_s v_mi_minus1 v_mi_0 v_mi_plus1")
    np.savetxt(OUT, np.column_stack(columns), fmt="%.17g", header=header)
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
