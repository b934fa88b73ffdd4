"""Spin Hamiltonians of the isotropically coupled hetero-spin pair.

Builds, in angular units (rad/s) on the electron-major product basis:

* the lab-frame Hamiltonian  we*Sz - wI*Iz + a*S.I,
* its rotating-frame transform at the microwave frequency (time dependent),
* the secular (zeroth-order) average Hamiltonian  Om*Sz - wI*Iz + a*Sz*Iz,
* the first-order average correction
  (d/2)*[(I(I+1)-Iz^2)*Sz - (S(S+1)-Sz^2)*Iz],  d = a^2/we,

plus fixed-m_i reduced blocks and the second-order stick spectrum.

The second-order shift d is reported in linear units as ``delta_hz`` so the
kilohertz-scale modulation frequencies read directly off experiment-style
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinops import kron, multiplicity, projections, raising_operator, spin_matrices
from .system import BOHR_MAGNETON, PLANCK_H, SpinSystemParams

TWO_PI = 2.0 * np.pi


def delta_hz(p: SpinSystemParams) -> float:
    """Second-order hyperfine shift a^2/f_e in Hz, the fundamental
    modulation frequency of the high-spin echo mechanism."""
    return p.a_hz ** 2 / p.f_e_hz


def _operators(p: SpinSystemParams):
    sxe, sye, sze = spin_matrices(p.s)
    sxn, syn, szn = spin_matrices(p.i)
    ie = np.eye(multiplicity(p.s))
    in_ = np.eye(multiplicity(p.i))
    return sxe, sye, sze, sxn, syn, szn, ie, in_


def h0_lab(p: SpinSystemParams) -> np.ndarray:
    """Lab-frame Hamiltonian we*Sz - wI*Iz + a*S.I (angular units).

    Hermitian, dimension (2s+1)(2i+1); commutes with Sz+Iz, so it is block
    diagonal in the total projection.
    """
    sxe, sye, sze, sxn, syn, szn, ie, in_ = _operators(p)
    coupling = kron(sxe, sxn) + kron(sye, syn) + kron(sze, szn)
    return TWO_PI * (p.f_e_hz * kron(sze, in_)
                     - p.f_i_hz * kron(ie, szn)
                     + p.a_hz * coupling)


def _f_mw_effective(p: SpinSystemParams, f_mw_hz: float | None) -> float:
    if f_mw_hz is not None:
        return f_mw_hz
    if p.f_mw_hz is not None:
        return p.f_mw_hz
    return p.f_e_hz


def h_avg0(p: SpinSystemParams, f_mw_hz: float | None = None) -> np.ndarray:
    """Secular average Hamiltonian Om*Sz - wI*Iz + a*Sz*Iz (angular units).

    ``Om = 2*pi*(f_e - f_mw)`` is the rotating-frame electron offset.
    Diagonal in the product basis; supports no echo modulation on its own.
    """
    f_mw = _f_mw_effective(p, f_mw_hz)
    _, _, sze, _, _, szn, ie, in_ = _operators(p)
    return TWO_PI * ((p.f_e_hz - f_mw) * kron(sze, in_)
                     - p.f_i_hz * kron(ie, szn)
                     + p.a_hz * kron(sze, szn))


def h_avg1(p: SpinSystemParams) -> np.ndarray:
    """First-order average-Hamiltonian correction (angular units).

    (d/2)*[(I(I+1)-Iz^2)*Sz - (S(S+1)-Sz^2)*Iz] with d = a^2/we.  Diagonal;
    the Sz^2*Iz piece is the only part that produces state-dependent level
    shifts within a fixed-m_i manifold and hence all modulation effects.
    """
    d_ang = TWO_PI * delta_hz(p)
    _, _, sze, _, _, szn, ie, in_ = _operators(p)
    qi = p.i * (p.i + 1)
    qs = p.s * (p.s + 1)
    return 0.5 * d_ang * (kron(sze, qi * in_ - szn @ szn)
                          - kron(qs * ie - sze @ sze, szn))


def h_rot_t(p: SpinSystemParams, t: float,
            f_mw_hz: float | None = None) -> np.ndarray:
    """Rotating-frame Hamiltonian at time ``t`` (angular units).

    Exact unitary transform of :func:`h0_lab` by exp(+i*w_mw*Sz*t), minus
    the frame term w_mw*Sz:

        Om*Sz - wI*Iz + a*[Sz*Iz + (Sx*Ix + Sy*Iy)*cos(w_mw*t)
                                 + (Sx*Iy - Sy*Ix)*sin(w_mw*t)]

    At t=0 this equals h0_lab - w_mw*Sz, and its average over one microwave
    period is :func:`h_avg0`.
    """
    f_mw = _f_mw_effective(p, f_mw_hz)
    w_mw = TWO_PI * f_mw
    sxe, sye, sze, sxn, syn, szn, ie, in_ = _operators(p)
    c = np.cos(w_mw * t)
    s = np.sin(w_mw * t)
    osc = (kron(sxe, sxn) + kron(sye, syn)) * c \
        + (kron(sxe, syn) - kron(sye, sxn)) * s
    return TWO_PI * ((p.f_e_hz - f_mw) * kron(sze, in_)
                     - p.f_i_hz * kron(ie, szn)
                     + p.a_hz * (kron(sze, szn) + osc))


def reduced_block(h: np.ndarray, p: SpinSystemParams, m_i: float,
                  rtol: float = 1e-9) -> np.ndarray:
    """Extract the (2s+1)-dimensional fixed-``m_i`` block of ``h``.

    Valid only for operators without cross-m_i elements (diagonal average
    Hamiltonians, ideal pulse propagators); rejects inputs whose coupling
    out of the manifold exceeds ``rtol`` times the largest entry.
    """
    basis = p.basis
    idx = basis.mi_indices(m_i)
    other = np.setdiff1d(np.arange(basis.dim), idx)
    scale = max(1.0, float(np.abs(h).max()))
    if other.size and np.abs(h[np.ix_(idx, other)]).max() > rtol * scale:
        raise ValueError(f"operator couples m_i={m_i} to other manifolds")
    return h[np.ix_(idx, idx)]


@dataclass(frozen=True)
class StickLine:
    """One allowed electron transition of the field-swept spectrum."""

    m_i: float
    m_s_upper: float
    f_offset_hz: float     # transition frequency minus the g-factor center
    b_offset_ut: float     # same offset converted to field units
    intensity: float       # |<upper| S+ |lower>|^2


def epr_stick_spectrum(p: SpinSystemParams) -> list[StickLine]:
    """Allowed-transition stick spectrum from exact diagonalization.

    Eigenstates of :func:`h0_lab` are labeled by their dominant basis state
    (the isotropic mixing is tiny in the perturbative regime).  For each
    m_i, adjacent-m_s transition frequencies are eigenvalue differences and
    intensities are squared S+ matrix elements, giving the 3:4:3 pattern
    with splittings of order a^2/f_e for the outer manifolds of an S=3/2
    system.

    Frequency offsets are relative to the g-factor center ``f_e_hz``; field
    offsets use B = h*f/(g*beta).
    """
    basis = p.basis
    w, v = np.linalg.eigh(h0_lab(p))
    labels = [int(np.argmax(np.abs(v[:, k]))) for k in range(basis.dim)]
    if len(set(labels)) != basis.dim:
        raise ValueError("could not uniquely label eigenstates; "
                         "system too far from the perturbative regime")
    by_label = {labels[k]: k for k in range(basis.dim)}
    splus = kron(raising_operator(p.s), np.eye(multiplicity(p.i)))

    hz_per_rad = 1.0 / TWO_PI
    tesla_per_hz = PLANCK_H / (p.g * BOHR_MAGNETON)
    lines = []
    for m_i in projections(p.i):
        for m_s in projections(p.s)[:-1]:
            k_up = by_label[basis.index_of(m_s, m_i)]
            k_lo = by_label[basis.index_of(m_s - 1, m_i)]
            f_t = (w[k_up] - w[k_lo]) * hz_per_rad
            inten = abs(v[:, k_up].conj() @ splus @ v[:, k_lo]) ** 2
            off = f_t - p.f_e_hz
            lines.append(StickLine(
                m_i=float(m_i), m_s_upper=float(m_s),
                f_offset_hz=float(off),
                b_offset_ut=float(off * tesla_per_hz * 1e6),
                intensity=float(inten)))
    return lines


def line_center_hz(p: SpinSystemParams, m_i: float) -> float:
    """Second-order center of the ``m_i`` hyperfine line.

    f_e + a*m_i + (d/2)*(I(I+1) - m_i^2); the frequency a selective
    experiment sits on when detecting that line with zero offset.
    """
    d = delta_hz(p)
    return p.f_e_hz + p.a_hz * m_i + 0.5 * d * (p.i * (p.i + 1) - m_i ** 2)
