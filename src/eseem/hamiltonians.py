"""Spin Hamiltonians of the isotropically coupled hetero-spin pair.

Builds, in angular units (rad/s) on the electron-major product basis:

* the lab-frame Hamiltonian  we*Sz - wI*Iz + a*S.I,
* its rotating-frame transform at the microwave frequency (time dependent),
* the secular (zeroth-order) average Hamiltonian  Om*Sz - wI*Iz + a*Sz*Iz,
* the first-order average correction
  (d/2)*[(I(I+1)-Iz^2)*Sz - (S(S+1)-Sz^2)*Iz],  d = a^2/we,

plus each line's allowed transitions and the second-order stick spectrum.

The product-space operators these builders combine (Sz, Iz, Sz*Iz, the two
transverse couplings and the two terms of the first-order correction) are
built once per (s, i) pair and cached read-only; every builder returns a
fresh, writable matrix.  :func:`h_rot_t` takes one time or an array of
times.

The second-order shift d is reported in linear units as ``delta_hz`` so the
kilohertz-scale modulation frequencies read directly off experiment-style
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .spinops import kron, multiplicity, projections, raising_operator, spin_matrices
from .system import BOHR_MAGNETON, PLANCK_H, SpinSystemParams

TWO_PI = 2.0 * np.pi


def delta_hz(p: SpinSystemParams) -> float:
    """Second-order hyperfine shift a^2/f_e in Hz, the fundamental
    modulation frequency of the high-spin echo mechanism."""
    return p.a_hz ** 2 / p.f_e_hz


class _ProductOperators(NamedTuple):
    """Product-space operators of one (s, i) pair, combined by the
    Hamiltonian builders; every array is read-only."""

    sz: np.ndarray          # Sz x 1
    iz: np.ndarray          # 1 x Iz
    sz_iz: np.ndarray       # Sz x Iz
    flip_flop: np.ndarray   # Sx x Ix + Sy x Iy
    cross: np.ndarray       # Sx x Iy - Sy x Ix
    sz_quad: np.ndarray     # Sz x (I(I+1) - Iz^2)
    iz_quad: np.ndarray     # (S(S+1) - Sz^2) x Iz


@lru_cache(maxsize=None)
def _product_operators(s: float, i: float) -> _ProductOperators:
    sxe, sye, sze = spin_matrices(s)
    sxn, syn, szn = spin_matrices(i)
    ie = np.eye(multiplicity(s))
    in_ = np.eye(multiplicity(i))
    ops = _ProductOperators(
        sz=kron(sze, in_),
        iz=kron(ie, szn),
        sz_iz=kron(sze, szn),
        flip_flop=kron(sxe, sxn) + kron(sye, syn),
        cross=kron(sxe, syn) - kron(sye, sxn),
        sz_quad=kron(sze, i * (i + 1) * in_ - szn @ szn),
        iz_quad=kron(s * (s + 1) * ie - sze @ sze, szn))
    for op in ops:
        op.flags.writeable = False
    return ops


def h0_lab(p: SpinSystemParams) -> np.ndarray:
    """Lab-frame Hamiltonian we*Sz - wI*Iz + a*S.I (angular units).

    Hermitian, dimension (2s+1)(2i+1); commutes with Sz+Iz, so it is block
    diagonal in the total projection.
    """
    ops = _product_operators(p.s, p.i)
    return TWO_PI * (p.f_e_hz * ops.sz - p.f_i_hz * ops.iz
                     + p.a_hz * (ops.flip_flop + ops.sz_iz))


def _f_mw_effective(p: SpinSystemParams, f_mw_hz: float | None) -> float:
    """The frame frequency ``f_mw_hz``, or the bare electron Zeeman one."""
    return p.f_e_hz if f_mw_hz is None else f_mw_hz


def h_avg0(p: SpinSystemParams, f_mw_hz: float | None = None) -> np.ndarray:
    """Secular average Hamiltonian Om*Sz - wI*Iz + a*Sz*Iz (angular units).

    ``Om = 2*pi*(f_e - f_mw)`` is the rotating-frame electron offset;
    ``f_mw_hz`` defaults to f_e.  Diagonal in the product basis; supports
    no echo modulation on its own.
    """
    f_mw = _f_mw_effective(p, f_mw_hz)
    ops = _product_operators(p.s, p.i)
    return TWO_PI * ((p.f_e_hz - f_mw) * ops.sz - p.f_i_hz * ops.iz
                     + p.a_hz * ops.sz_iz)


def h_avg1(p: SpinSystemParams) -> np.ndarray:
    """First-order average-Hamiltonian correction (angular units).

    (d/2)*[(I(I+1)-Iz^2)*Sz - (S(S+1)-Sz^2)*Iz] with d = a^2/we.  Diagonal;
    the Sz^2*Iz piece is the only part that produces state-dependent level
    shifts within a fixed-m_i manifold and hence all modulation effects.
    """
    d_ang = TWO_PI * delta_hz(p)
    ops = _product_operators(p.s, p.i)
    return 0.5 * d_ang * (ops.sz_quad - ops.iz_quad)


def h_rot_t(p: SpinSystemParams, t: float | np.ndarray,
            f_mw_hz: float | None = None) -> np.ndarray:
    """Rotating-frame Hamiltonian at time ``t`` (angular units).

    Exact unitary transform of :func:`h0_lab` by exp(+i*w_mw*Sz*t), minus
    the frame term w_mw*Sz:

        Om*Sz - wI*Iz + a*[Sz*Iz + (Sx*Ix + Sy*Iy)*cos(w_mw*t)
                                 + (Sx*Iy - Sy*Ix)*sin(w_mw*t)]

    ``t`` may be an array; the result then has shape ``t.shape + (d, d)``,
    each matrix equal to the scalar call at that time.  At t=0 this equals
    h0_lab - w_mw*Sz, and its average over one microwave period is
    :func:`h_avg0`.
    """
    f_mw = _f_mw_effective(p, f_mw_hz)
    w_mw = TWO_PI * f_mw
    ops = _product_operators(p.s, p.i)
    wt = w_mw * np.asarray(t, dtype=float)[..., None, None]
    osc = ops.flip_flop * np.cos(wt) + ops.cross * np.sin(wt)
    return TWO_PI * ((p.f_e_hz - f_mw) * ops.sz - p.f_i_hz * ops.iz
                     + p.a_hz * (ops.sz_iz + osc))


def labeled_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the Hermitian ``h``, column k the
    eigenstate whose dominant basis state is k; ``ValueError`` when two
    share one, as far from the perturbative regime."""
    w, v = np.linalg.eigh(h)
    labels = np.argmax(np.abs(v), axis=0)
    if len(set(labels.tolist())) != len(w):
        raise ValueError("could not uniquely label eigenstates; "
                         "system too far from the perturbative regime")
    order = np.argsort(labels)
    return w[order], v[:, order]


def transitions(p: SpinSystemParams) -> list[tuple[float, float, int, int]]:
    """Every allowed electron transition m_s - 1 -> m_s at fixed m_i, as
    (m_i, upper m_s, upper index, lower index) in ``p.basis``; m_i
    descending, then m_s.  A line's transitions are the rows of its m_i."""
    basis = p.basis
    return [(float(m_i), float(m_s), basis.index_of(m_s, m_i),
             basis.index_of(m_s - 1, m_i))
            for m_i in projections(p.i) for m_s in projections(p.s)[:-1]]


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
    by :func:`labeled_eigh` (the isotropic mixing is tiny in the
    perturbative regime).  For each of :func:`transitions`, the
    frequency is an eigenvalue difference and the intensity a squared S+
    matrix element, giving the 3:4:3 pattern with splittings of order
    a^2/f_e for the outer manifolds of an S=3/2 system.

    Frequency offsets are relative to the g-factor center ``f_e_hz``; field
    offsets use B = h*f/(g*beta).
    """
    w, v = labeled_eigh(h0_lab(p))
    splus = kron(raising_operator(p.s), np.eye(multiplicity(p.i)))

    hz_per_rad = 1.0 / TWO_PI
    tesla_per_hz = PLANCK_H / (p.g * BOHR_MAGNETON)
    lines = []
    for m_i, m_s, k_up, k_lo in transitions(p):
        off = (w[k_up] - w[k_lo]) * hz_per_rad - p.f_e_hz
        inten = abs(v[:, k_up].conj() @ splus @ v[:, k_lo]) ** 2
        lines.append(StickLine(
            m_i=m_i, m_s_upper=m_s, f_offset_hz=float(off),
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
