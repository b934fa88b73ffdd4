import numpy as np
import pytest

from eseem.hamiltonians import (TWO_PI, _product_operators, delta_hz,
                                epr_stick_spectrum, h0_lab, h_avg0, h_avg1,
                                h_rot_t, labeled_eigh, line_center_hz,
                                transitions)
from eseem.spinops import kron, multiplicity, projections, spin_matrices
from eseem.system import (BOHR_MAGNETON, NUCLEAR_MAGNETON, PLANCK_H,
                          SpinSystemParams, nc60_params)


@pytest.fixture
def preset():
    return nc60_params()


def mi_block(h, p, m_i):
    """The (2s+1)-dimensional fixed-``m_i`` block of ``h``."""
    idx = p.basis.mi_indices(m_i)
    return h[np.ix_(idx, idx)]


def test_delta_value(preset):
    assert abs(delta_hz(preset) - 15.8e6 ** 2 / 9.67e9) <= 1.0
    assert round(delta_hz(preset) / 1e3) == 26  # reads as "26 kHz"


def test_delta_scaling(preset):
    assert delta_hz(nc60_params(a_hz=0.0)) == 0.0
    assert delta_hz(nc60_params(a_hz=2 * 15.8e6)) == \
        pytest.approx(4 * delta_hz(preset), rel=1e-14)


def test_h0_lab_decoupled_is_diagonal():
    p = nc60_params(a_hz=0.0)
    h = h0_lab(p)
    assert np.abs(h - np.diag(np.diag(h))).max() <= 1e-9
    ms = p.basis.m_s_diagonal()
    mi = p.basis.m_i_diagonal()
    expected = TWO_PI * (p.f_e_hz * ms - p.f_i_hz * mi)
    assert np.allclose(np.diag(h).real, expected)


def test_h0_lab_conserves_total_projection(preset):
    h = h0_lab(preset)
    fz = kron(spin_matrices(1.5)[2], np.eye(3)) + \
        kron(np.eye(4), spin_matrices(1.0)[2])
    scale = np.abs(h).max()
    assert np.abs(h @ fz - fz @ h).max() <= 1e-12 * scale
    assert np.abs(h - h.conj().T).max() <= 1e-12 * scale


def test_h0_lab_exact_vs_second_order_levels(preset):
    # exact eigendecomposition agrees with the second-order diagonal up to
    # the neglected third-order scale a^3/f_e^2
    w_exact = np.linalg.eigvalsh(h0_lab(preset))
    h_pert = h_avg0(preset, f_mw_hz=0.0) + h_avg1(preset)
    w_pert = np.sort(np.diag(h_pert).real)
    third_order_hz = abs(preset.a_hz) ** 3 / preset.f_e_hz ** 2
    worst_hz = np.abs(w_exact - w_pert).max() / TWO_PI
    assert worst_hz <= 5 * third_order_hz
    assert worst_hz > 0.1 * third_order_hz  # the scale is real, not slack


def test_h_avg0_diagonal_entry(preset):
    f_mw = 9.6e9
    h = h_avg0(preset, f_mw_hz=f_mw)
    assert np.abs(h - np.diag(np.diag(h))).max() == 0.0
    k = preset.basis.index_of(1.5, 1.0)
    expected = TWO_PI * (1.5 * (preset.f_e_hz - f_mw)
                         - preset.f_i_hz + 1.5 * preset.a_hz)
    assert np.diag(h).real[k] == pytest.approx(expected, rel=1e-14)


def test_h_avg0_matches_lab_frame_when_decoupled():
    p = nc60_params(a_hz=0.0)
    f_mw = 9.67e9
    sz = kron(spin_matrices(1.5)[2], np.eye(3))
    got = h_avg0(p, f_mw_hz=f_mw)
    assert np.abs(got - (h0_lab(p) - TWO_PI * f_mw * sz)).max() <= 1e-3


def test_h_avg1_second_order_pattern(preset):
    d_ang = TWO_PI * delta_hz(preset)
    h1 = h_avg1(preset)
    basis = preset.basis
    diag = np.diag(h1).real
    # m_i = +1 manifold: corrections (0, -3d/2, -2d, -3d/2) up to a part
    # linear in m_s (the published rearrangement convention)
    idx = basis.mi_indices(1.0)
    target = -np.array([0.0, 1.5, 2.0, 1.5]) * d_ang
    ms = np.array([1.5, 0.5, -0.5, -1.5])
    residual = diag[idx] - target
    coeffs = np.polyfit(ms, residual, 1)
    affine = np.polyval(coeffs, ms)
    assert np.abs(residual - affine).max() <= 1e-9 * d_ang
    # differences against the top level reproduce the pattern directly
    rel = diag[idx] - diag[idx][0]
    lin = np.polyval(np.polyfit(ms, rel - target, 1), ms)
    assert np.abs(rel - target - lin).max() <= 1e-9 * d_ang


def test_h_avg1_mi0_block_has_no_quadratic_structure(preset):
    # the Sz^2*Iz term vanishes at m_i=0: level corrections are affine in m_s
    h1 = h_avg1(preset)
    idx = preset.basis.mi_indices(0.0)
    diag = np.diag(h1).real[idx]
    ms = np.array([1.5, 0.5, -0.5, -1.5])
    affine = np.polyval(np.polyfit(ms, diag, 1), ms)
    assert np.abs(diag - affine).max() <= 1e-9 * TWO_PI * delta_hz(preset)


def test_h_rot_t_is_exact_frame_transform(preset):
    # at any t, h_rot_t equals W(t) h0 W(t)^+ - w_mw*Sz with W = e^{+i w t Sz}
    f_mw = 9.67e9
    w_mw = TWO_PI * f_mw
    sz_diag = preset.basis.m_s_diagonal()
    h0 = h0_lab(preset)
    for t in (0.0, 3.7e-11, 8.131e-11):
        w = np.exp(1j * w_mw * sz_diag * t)
        expected = (w[:, None] * h0 * w.conj()[None, :]) \
            - w_mw * np.diag(sz_diag)
        got = h_rot_t(preset, t, f_mw_hz=f_mw)
        assert np.abs(got - expected).max() <= 1e-10 * np.abs(h0).max()
        assert np.abs(got - got.conj().T).max() <= 1e-10 * np.abs(h0).max()


def test_h_rot_t_period_average_is_secular(preset):
    f_mw = 9.67e9
    n = 1024
    period = 1.0 / f_mw
    acc = sum(h_rot_t(preset, (k + 0.5) * period / n, f_mw_hz=f_mw)
              for k in range(n)) / n
    target = h_avg0(preset, f_mw_hz=f_mw)
    assert np.abs(acc - target).max() <= 1e-10 * np.abs(target).max()


def test_h_rot_t_static_when_decoupled():
    p = nc60_params(a_hz=0.0)
    h1 = h_rot_t(p, 0.0, f_mw_hz=9.67e9)
    h2 = h_rot_t(p, 0.77e-10, f_mw_hz=9.67e9)
    assert np.abs(h1 - h2).max() <= 1e-9


def kron_reference(p, f_mw, t):
    """h0_lab, h_avg0, h_avg1 and h_rot_t(t) built term by term from kron,
    in the builders' order of operations."""
    sxe, sye, sze = spin_matrices(p.s)
    sxn, syn, szn = spin_matrices(p.i)
    ie, in_ = np.eye(multiplicity(p.s)), np.eye(multiplicity(p.i))
    h0 = TWO_PI * (p.f_e_hz * kron(sze, in_) - p.f_i_hz * kron(ie, szn)
                   + p.a_hz * (kron(sxe, sxn) + kron(sye, syn)
                               + kron(sze, szn)))
    avg0 = TWO_PI * ((p.f_e_hz - f_mw) * kron(sze, in_)
                     - p.f_i_hz * kron(ie, szn) + p.a_hz * kron(sze, szn))
    avg1 = 0.5 * TWO_PI * delta_hz(p) * (
        kron(sze, p.i * (p.i + 1) * in_ - szn @ szn)
        - kron(p.s * (p.s + 1) * ie - sze @ sze, szn))
    c, s = np.cos(TWO_PI * f_mw * t), np.sin(TWO_PI * f_mw * t)
    osc = (kron(sxe, sxn) + kron(sye, syn)) * c \
        + (kron(sxe, syn) - kron(sye, sxn)) * s
    rot = TWO_PI * ((p.f_e_hz - f_mw) * kron(sze, in_)
                    - p.f_i_hz * kron(ie, szn)
                    + p.a_hz * (kron(sze, szn) + osc))
    return h0, avg0, avg1, rot


@pytest.mark.parametrize("s, i", [(1.5, 1.0), (0.5, 0.5), (2.5, 1.5)])
def test_builders_match_kron_reference_bit_for_bit(s, i):
    p = nc60_params(s=s, i=i)
    f_mw = p.f_e_hz + 3e6
    t = 3.7e-11
    want = kron_reference(p, f_mw, t)
    got = (h0_lab(p), h_avg0(p, f_mw), h_avg1(p), h_rot_t(p, t, f_mw))
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_h_rot_t_array_equals_scalar_calls(preset):
    f_mw = preset.f_e_hz + 1e6
    t = np.linspace(0.0, 2.5 / f_mw, 37)
    stack = h_rot_t(preset, t, f_mw)
    assert stack.shape == (37, 12, 12)
    for k, tk in enumerate(t):
        assert stack[k].tobytes() == h_rot_t(preset, tk, f_mw).tobytes()
    grid = h_rot_t(preset, t.reshape(1, 37, 1), f_mw)
    assert grid.shape == (1, 37, 1, 12, 12)
    assert grid.tobytes() == stack.tobytes()
    assert h_rot_t(preset, 1e-11, f_mw).shape == (12, 12)


@pytest.mark.parametrize("build", [
    h0_lab, lambda p: h_avg0(p, p.f_e_hz), h_avg1,
    lambda p: h_rot_t(p, 3.7e-11, p.f_e_hz),
    lambda p: h_rot_t(p, np.array([0.0, 3.7e-11]), p.f_e_hz)],
    ids=["h0_lab", "h_avg0", "h_avg1", "<lambda>0", "<lambda>1"])
def test_builders_return_fresh_writable_arrays(preset, build):
    first = build(preset)
    before = first.copy()
    assert first.flags.writeable
    first[...] = 7.0
    assert build(preset).tobytes() == before.tobytes()


def test_operator_table_is_read_only_and_built_once_per_pair():
    from eseem.validation import run_checks
    ops = _product_operators(1.5, 1.0)
    for op in ops:
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 1.0
    _product_operators.cache_clear()
    run_checks()
    info = _product_operators.cache_info()
    assert info.misses == info.currsize >= 1
    assert info.hits > info.misses


def test_reduced_block_on_resonance(preset):
    d_ang = TWO_PI * delta_hz(preset)
    f_mw = line_center_hz(preset, 1.0)
    h = h_avg0(preset, f_mw_hz=f_mw) + h_avg1(preset)
    block = mi_block(h, preset, 1.0)
    diag = np.diag(block).real
    # zero offset: after the constant shift only the quadratic part is left,
    # delta on the outer levels and nothing on the inner ones
    assert np.abs(diag - diag[1] - np.array([d_ang, 0, 0, d_ang])).max() \
        <= 1e-9 * d_ang


def test_reduced_block_mi0_affine(preset):
    h = h_avg0(preset, f_mw_hz=preset.f_e_hz) + h_avg1(preset)
    block = mi_block(h, preset, 0.0)
    diag = np.diag(block).real
    ms = np.array([1.5, 0.5, -0.5, -1.5])
    affine = np.polyval(np.polyfit(ms, diag, 1), ms)
    assert np.abs(diag - affine).max() <= 1e-9 * TWO_PI * delta_hz(preset)


def test_reduced_block_spin_half_no_relative_shift():
    # for s=1/2 the quadratic correction pulls both levels equally, so the
    # within-block splitting carries only the offset-like Sz term
    p = nc60_params(s=0.5)
    d_ang = TWO_PI * delta_hz(p)
    h1 = h_avg1(p)
    q_i = p.i * (p.i + 1)
    for m_i in (1.0, 0.0, -1.0):
        block = mi_block(h1, p, m_i)
        diag = np.diag(block).real
        splitting = diag[0] - diag[1]
        assert splitting == pytest.approx(0.5 * d_ang * (q_i - m_i ** 2),
                                          abs=1e-9 * d_ang)


def test_stick_spectrum_pattern(preset):
    lines = epr_stick_spectrum(preset)
    assert len(lines) == 9
    d = delta_hz(preset)
    for m_i in (1.0, -1.0):
        group = sorted((l for l in lines if l.m_i == m_i),
                       key=lambda l: l.f_offset_hz)
        intens = [l.intensity for l in group]
        assert intens[0] / intens[1] == pytest.approx(0.75, rel=1e-4)
        assert intens[2] / intens[1] == pytest.approx(0.75, rel=1e-4)
        spacings = np.diff([l.f_offset_hz for l in group])
        assert np.abs(spacings - d).max() <= 0.005 * d
        b_split = np.diff([l.b_offset_ut for l in group])
        assert np.abs(b_split - 0.9).max() <= 0.05
    # the central manifold is degenerate through second order; the exact
    # eigenvalues split it only at the third-order scale a^3/f_e^2, two
    # orders of magnitude below the outer-group splitting
    center = [l.f_offset_hz for l in lines if l.m_i == 0.0]
    third_order_hz = abs(preset.a_hz) ** 3 / preset.f_e_hz ** 2
    assert np.ptp(center) <= 10 * third_order_hz
    assert np.ptp(center) <= 0.02 * d


@pytest.mark.parametrize("s,i", [(1.5, 1.0), (2.5, 1.5), (0.5, 0.5)])
def test_transitions_table(s, i):
    p = nc60_params(s=s, i=i)
    rows = transitions(p)
    assert len(rows) == multiplicity(i) * round(2 * s)
    m_s, m_i = p.basis.m_s_diagonal(), p.basis.m_i_diagonal()
    for line, upper, up, lo in rows:
        # one m_s step up within one m_i manifold
        assert m_i[up] == m_i[lo] == line
        assert m_s[up] == upper and m_s[lo] == upper - 1
    # m_i descending, then m_s descending
    assert [row[:2] for row in rows] == [
        (float(a), float(b)) for a in projections(i)
        for b in projections(s)[:-1]]
    assert [(l.m_i, l.m_s_upper) for l in epr_stick_spectrum(p)] == [
        row[:2] for row in rows]
    if s == 0.5:
        assert rows == [(0.5, 0.5, 0, 2), (-0.5, 0.5, 1, 3)]


def test_stick_spectrum_decoupled():
    lines = epr_stick_spectrum(nc60_params(a_hz=0.0))
    assert max(abs(l.f_offset_hz) for l in lines) <= 1e-3


def test_stick_intensity_sum_independent_of_a():
    for a_hz in (15.8e6, 3.0e6):
        lines = epr_stick_spectrum(nc60_params(a_hz=a_hz))
        for m_i in (1.0, 0.0, -1.0):
            got = sum(l.intensity for l in lines if l.m_i == m_i)
            assert got == pytest.approx(10.0, rel=1e-5)


def test_labeled_eigh_orders_by_dominant_basis_state(preset):
    w, v = labeled_eigh(h0_lab(preset))
    assert np.array_equal(np.argmax(np.abs(v), axis=0), np.arange(w.size))
    assert np.allclose(h0_lab(preset) @ v, v * w, rtol=0, atol=1e-3)
    # an equal mix of two basis states labels both eigenstates alike
    with pytest.raises(ValueError, match="uniquely label"):
        labeled_eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_params_validation():
    with pytest.raises(ValueError):
        SpinSystemParams(s=1.5, i=1.0, a_hz=1e6, f_e_hz=-1.0)
    with pytest.warns(UserWarning):
        SpinSystemParams(s=1.5, i=1.0, a_hz=1e9, f_e_hz=9.67e9)
    p = nc60_params()
    assert p.f_i_hz == pytest.approx(1.061e6, rel=1e-3)
    assert p.b0_tesla == pytest.approx(0.3448, rel=1e-3)


def test_physical_constants_equal_scipy_codata():
    # written out to keep scipy off the import path; bit-equal to scipy's
    from scipy.constants import physical_constants
    assert PLANCK_H == physical_constants["Planck constant"][0]
    assert BOHR_MAGNETON == physical_constants["Bohr magneton"][0]
    assert NUCLEAR_MAGNETON == physical_constants["nuclear magneton"][0]
