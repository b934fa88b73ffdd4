"""Physical parameters of the coupled electron-nucleus pair.

All user-facing frequencies are linear (Hz); modules convert to angular
units internally.  The bundled preset describes an S=3/2 electron coupled
isotropically (a = 15.8 MHz) to an I=1 nucleus at X band (9.67 GHz,
g = 2.0036), the parameter set of nitrogen trapped in a C60 cage.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .spinops import ProductBasis, validate_spin

# CODATA 2022 values in SI units, as scipy.constants gives them (h is exact
# since the 2019 SI); written out so that importing the package loads no scipy
PLANCK_H = 6.62607015e-34
BOHR_MAGNETON = 9.2740100657e-24
NUCLEAR_MAGNETON = 5.0507837393e-27

# Nuclear g-factor of 14N (positive; magnetic moment +0.4037610 uN, I=1).
N14_G_FACTOR = 0.4037610

# Above this coupling-to-Zeeman ratio the second-order closed forms degrade.
PERTURBATIVE_RATIO_WARN = 0.05


@dataclass
class SpinSystemParams:
    """Constants of the hetero-spin pair.

    Parameters
    ----------
    s, i : float
        Electron and nuclear spin quantum numbers.
    a_hz : float
        Isotropic hyperfine coupling, linear frequency.
    f_e_hz : float
        Electron Zeeman frequency (> 0).
    f_i_hz : float or None
        Nuclear Zeeman frequency.  ``None`` derives the 14N value from the
        static field implied by ``f_e_hz`` and ``g``.
    g : float
        Electron g-factor, used only for field-unit conversions.

    The microwave (rotating-frame) frequency is not a constant of the pair:
    each experiment places it by its resonance offset from the detected
    line (:func:`eseem.engine.microwave_freq_hz`).
    """

    s: float
    i: float
    a_hz: float
    f_e_hz: float
    f_i_hz: float | None = None
    g: float = 2.0036

    def __post_init__(self):
        validate_spin(self.s)
        validate_spin(self.i)
        if self.f_e_hz <= 0:
            raise ValueError("f_e_hz must be positive")
        if self.g <= 0:
            raise ValueError("g must be positive")
        if self.f_i_hz is None:
            self.f_i_hz = nuclear_zeeman_hz_14n(self.f_e_hz, self.g)
        ratio = abs(self.a_hz) / self.f_e_hz
        if ratio > PERTURBATIVE_RATIO_WARN:
            warnings.warn(
                f"a/f_e = {ratio:.3g} exceeds {PERTURBATIVE_RATIO_WARN}; "
                "second-order closed forms are unreliable in this regime",
                stacklevel=2,
            )

    @property
    def basis(self) -> ProductBasis:
        return ProductBasis(self.s, self.i)

    @property
    def b0_tesla(self) -> float:
        """Static field implied by the electron Zeeman frequency."""
        return PLANCK_H * self.f_e_hz / (self.g * BOHR_MAGNETON)


def nuclear_zeeman_hz_14n(f_e_hz: float, g: float) -> float:
    """14N nuclear Zeeman frequency at the field set by (f_e_hz, g)."""
    b0 = PLANCK_H * f_e_hz / (g * BOHR_MAGNETON)
    return N14_G_FACTOR * NUCLEAR_MAGNETON * b0 / PLANCK_H


def nc60_params(**overrides) -> SpinSystemParams:
    """S=3/2, I=1 preset: a=15.8 MHz, f_e=9.67 GHz, g=2.0036."""
    kwargs = dict(s=1.5, i=1.0, a_hz=15.8e6, f_e_hz=9.67e9, g=2.0036)
    kwargs.update(overrides)
    return SpinSystemParams(**kwargs)
