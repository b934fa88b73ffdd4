"""Electron spin echo envelope modulation toolkit for high-spin systems
with purely isotropic hyperfine coupling.

Simulates two-pulse echo experiments on a coupled electron-nucleus pair by
exact and perturbative density-matrix propagation, evaluates the matching
closed-form modulation expressions, averages over B1-inhomogeneity
ensembles, and extracts modulation frequencies and decay constants from
the resulting traces.
"""

from .analytic import (ModulationCoefficients, coefficients, v_center,
                       v_general, v_outer)
from .engine import (EchoExperiment, EchoTrace, free_evolution,
                     microwave_freq_hz, run_two_pulse_echo, validate_aht)
from .ensemble import (AngleDistribution, apply_t2, average_analytic_outer,
                       average_trace, i1_i2_ratio)
from .hamiltonians import (StickLine, delta_hz, epr_stick_spectrum, h0_lab,
                           h_avg0, h_avg1, h_rot_t, line_center_hz)
from .pulses import PulseSpec, composite_pi, electron_rotation, rotation_operator
from .spectral import (FitResult, PeakList, Spectrum, fft_magnitude,
                       find_peaks, fit_decay)
from .spinops import (ProductBasis, expm_hermitian, kron, multiplicity,
                      projections, projector_mi, spin_matrices)
from .system import SpinSystemParams, nc60_params

__version__ = "0.1.0"

__all__ = [
    "AngleDistribution", "EchoExperiment", "EchoTrace", "FitResult",
    "ModulationCoefficients", "PeakList", "ProductBasis", "PulseSpec",
    "SpinSystemParams", "Spectrum", "StickLine",
    "apply_t2", "average_analytic_outer", "average_trace", "coefficients",
    "composite_pi", "delta_hz", "electron_rotation",
    "epr_stick_spectrum", "expm_hermitian", "fft_magnitude", "find_peaks",
    "fit_decay", "free_evolution", "h0_lab", "h_avg0", "h_avg1", "h_rot_t",
    "i1_i2_ratio", "kron", "line_center_hz", "microwave_freq_hz",
    "multiplicity", "nc60_params", "projections", "projector_mi",
    "rotation_operator", "run_two_pulse_echo",
    "spin_matrices", "v_center", "v_general", "v_outer", "validate_aht",
    "__version__",
]
