import numpy as np
import pytest

from eseem.hamiltonians import h_avg0, h_avg1
from eseem.pulses import (PulseSpec, composite_pi, electron_rotation,
                          rotation_operator)
from eseem.spinops import is_unitary, kron, multiplicity, spin_matrices
from eseem.system import nc60_params


def spin32_rotation_closed_form(theta):
    """Trigonometric closed form of the on-resonance spin-3/2 rotation."""
    c3 = np.cos(theta / 2) ** 3
    s3 = np.sin(theta / 2) ** 3
    cc = np.cos(3 * theta / 2)
    ss = np.sin(3 * theta / 2)
    a = (1j / np.sqrt(3)) * (s3 + ss)
    g = -(1 / np.sqrt(3)) * (c3 - cc)
    b = -(1j / 3) * (s3 - 2 * ss)
    e = (c3 + 2 * cc) / 3
    return np.array([
        [c3, a, g, -1j * s3],
        [a, e, b, g],
        [g, b, e, a],
        [-1j * s3, g, a, c3]])


@pytest.mark.parametrize("theta", [0.3, np.pi / 2, 1.9, np.pi, 5.1])
def test_rotation_matches_closed_form(theta):
    got = electron_rotation(theta, 0.0, 1.5)
    assert np.abs(got - spin32_rotation_closed_form(theta)).max() <= 1e-12


def test_perfect_pi_is_minus_i_antidiagonal():
    got = electron_rotation(np.pi, 0.0, 1.5)
    assert np.abs(got - (-1j) * np.fliplr(np.eye(4))).max() <= 1e-12


def test_half_pi_turns_sz_into_sy():
    # the single-quantum coherence pattern (+/- i sqrt(3)/2, +/- i) of Sy
    sy, sz = spin_matrices(1.5)[1:]
    r = electron_rotation(np.pi / 2, 0.0, 1.5)
    got = r @ sz @ r.conj().T
    assert np.abs(got - sy).max() <= 1e-12
    assert got[0, 1] == pytest.approx(-1j * np.sqrt(3) / 2, abs=1e-12)
    assert got[1, 2] == pytest.approx(-1j, abs=1e-12)


@pytest.mark.parametrize("pulse", [PulseSpec(angle=1.1, phase=0.4),
                                   composite_pi()], ids=["single", "cp3"])
@pytest.mark.parametrize("scale", [0.8, 1.0, 1.13])
@pytest.mark.parametrize("s, i", [(0.5, 0.5), (1.0, 1.0), (1.5, 1.0),
                                  (2.5, 1.5)])
def test_rotation_operator_ideal_is_nuclear_identity(s, i, scale, pulse):
    p = nc60_params(s=s, i=i)
    u = rotation_operator(pulse, p, scale)
    electron = np.eye(multiplicity(s), dtype=complex)
    for angle, phase in pulse.segments():
        electron = electron_rotation(scale * angle, phase, s) @ electron
    expected = kron(electron, np.eye(multiplicity(i)))
    assert np.abs(u - expected).max() <= 1e-12
    assert is_unitary(u)


def test_composite_pi_nets_a_pi_rotation():
    # (pi/2)x (pi)y (pi/2)x composes to a pi rotation about y, up to a
    # global phase; a refocusing pulse of full flip angle either way
    p = nc60_params()
    u = rotation_operator(composite_pi(), p)
    ref = rotation_operator(PulseSpec(angle=np.pi, phase=np.pi / 2), p)
    phase = u[0, 9] / ref[0, 9]  # electron corner, nuclear-diagonal element
    assert abs(abs(phase) - 1.0) <= 1e-12
    assert np.abs(u - phase * ref).max() <= 1e-10


def test_composite_scaling_applies_to_all_segments():
    p = nc60_params()
    scale = 1.07
    u = rotation_operator(composite_pi(), p, scale=scale)
    segs = [electron_rotation(scale * a, ph, 1.5)
            for a, ph in composite_pi().composite]
    expected = kron(segs[2] @ segs[1] @ segs[0], np.eye(3))
    assert np.abs(u - expected).max() <= 1e-12


def test_finite_pulse_approaches_ideal_for_short_durations():
    p = nc60_params()
    ideal = rotation_operator(PulseSpec(angle=np.pi), p)
    finite = rotation_operator(
        PulseSpec(angle=np.pi, model="finite", duration_s=1e-12), p,
        f_mw_hz=p.f_e_hz)
    assert np.abs(finite - ideal).max() <= 1e-3
    shorter = rotation_operator(
        PulseSpec(angle=np.pi, model="finite", duration_s=1e-13), p,
        f_mw_hz=p.f_e_hz)
    assert np.abs(shorter - ideal).max() <= 1e-4


def test_finite_pulse_realistic_duration_is_unitary():
    p = nc60_params()
    u = rotation_operator(
        PulseSpec(angle=np.pi, model="finite", duration_s=112e-9), p,
        f_mw_hz=p.f_e_hz + p.a_hz)
    assert is_unitary(u)


def test_pulse_spec_validation():
    with pytest.raises(ValueError):
        PulseSpec(angle=0.0)
    with pytest.raises(ValueError):
        PulseSpec(angle=7.0)
    with pytest.raises(ValueError):
        PulseSpec(angle=np.pi, model="finite")
    with pytest.raises(ValueError):
        PulseSpec(angle=np.pi, model="gaussian")
    with pytest.raises(ValueError):
        PulseSpec(angle=np.pi, composite=())
    spec = PulseSpec(angle=np.pi)
    assert spec.segments() == ((np.pi, 0.0),)


@pytest.mark.parametrize("s,i", [(1.5, 1.0), (0.5, 0.5), (2.5, 1.5)])
def test_finite_pulse_is_block_diagonal_in_m_i(s, i):
    # one electron block per m_i, exactly zero between them, equal to the
    # dense exponential of drive + internal Hamiltonian to roundoff
    p = nc60_params(s=s, i=i)
    f_mw = p.f_e_hz + 0.3e6
    cp3 = composite_pi()
    pulse = PulseSpec(cp3.angle, model="finite", duration_s=112e-9,
                      composite=cp3.composite)
    u = rotation_operator(pulse, p, 1.07, f_mw)
    m_i = p.basis.m_i_diagonal()
    assert np.all(u[m_i[:, None] != m_i[None, :]] == 0.0)
    h_int = h_avg0(p, f_mw) + h_avg1(p)
    sx, sy, _ = spin_matrices(s)
    w1 = pulse.angle / pulse.duration_s
    dense = np.eye(p.basis.dim)
    for angle, phase in pulse.segments():
        drive = kron(sx * np.cos(phase) + sy * np.sin(phase),
                     np.eye(p.basis.dim_i))
        h = h_int - 1.07 * w1 * drive
        w, v = np.linalg.eigh(h)
        dense = (v * np.exp(-1j * w * angle / w1)) @ v.conj().T @ dense
    assert np.abs(u - dense).max() <= 1e-13
