"""Electron spin echo envelope modulation toolkit for high-spin systems
with purely isotropic hyperfine coupling.

Simulates two-pulse echo experiments on a coupled electron-nucleus pair by
exact and perturbative density-matrix propagation, evaluates the matching
closed-form modulation expressions, averages over B1-inhomogeneity
ensembles, and extracts modulation frequencies and decay constants from
the resulting traces.

Importing the package loads no submodule and no numpy (PEP 562): each
public name and each submodule is imported when it is first read, so a
process pays only for the layers it uses.  A name is read from its home
module on every access, not cached here.  The command line loads by
command:

* every command loads ``config`` and what it builds on (``engine``,
  ``ensemble``, ``pulses``, ``hamiltonians``, ``spinops``, ``system``),
  and ``spectral`` for the options' choices;
* ``simulate``, ``spectrum`` and ``fit`` add ``fileio``; ``analytic`` and
  ``sweep`` add ``fileio`` and ``analytic``; ``--svg`` adds ``svgplot``;
* ``validate`` adds ``validation`` and ``analytic``.

The ``eseem`` console script (``eseem.console:main``) also pins the BLAS
libraries to one thread unless the environment sets them; ``import eseem``
and ``python -m eseem.cli`` keep the library default.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> its home module
_HOMES = {
    **dict.fromkeys(("ModulationCoefficients", "coefficients", "v_center",
                     "v_general", "v_outer"), "analytic"),
    **dict.fromkeys(("EchoExperiment", "EchoTrace", "free_evolution",
                     "microwave_freq_hz", "run_two_pulse_echo",
                     "validate_aht"), "engine"),
    **dict.fromkeys(("AngleDistribution", "apply_t2",
                     "average_analytic_outer", "average_trace",
                     "i1_i2_ratio"), "ensemble"),
    **dict.fromkeys(("StickLine", "delta_hz", "epr_stick_spectrum", "h0_lab",
                     "h_avg0", "h_avg1", "h_rot_t", "line_center_hz"),
                    "hamiltonians"),
    **dict.fromkeys(("PulseSpec", "composite_pi", "electron_rotation",
                     "rotation_operator"), "pulses"),
    **dict.fromkeys(("FitResult", "PeakList", "Spectrum", "fft_magnitude",
                     "find_peaks", "fit_decay"), "spectral"),
    **dict.fromkeys(("ProductBasis", "expm_hermitian", "kron", "multiplicity",
                     "projections", "projector_mi", "spin_matrices"),
                    "spinops"),
    **dict.fromkeys(("SpinSystemParams", "nc60_params"), "system"),
}

_SUBMODULES = ("analytic", "cli", "config", "console", "engine", "ensemble",
               "fileio", "hamiltonians", "pulses", "spectral", "spinops",
               "svgplot", "system", "validation")

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(import_module(f".{_HOMES[name]}", __name__), name)
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
