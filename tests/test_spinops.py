import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eseem.spinops import (ProductBasis, expm_hermitian, is_hermitian,
                           is_unitary, kron, multiplicity, projections,
                           projector_mi, spin_matrices, validate_spin)

HALF_SPINS = [k / 2 for k in range(1, 11)]


def test_spin_half_matrices_are_half_paulis():
    sx, sy, sz = spin_matrices(0.5)
    assert np.allclose(sx, 0.5 * np.array([[0, 1], [1, 0]]))
    assert np.allclose(sy, 0.5 * np.array([[0, -1j], [1j, 0]]))
    assert np.allclose(sz, 0.5 * np.array([[1, 0], [0, -1]]))


def test_sz_descending_diagonal():
    _, _, sz = spin_matrices(1.5)
    assert np.allclose(np.diag(sz), [1.5, 0.5, -0.5, -1.5])


def test_sy_squared_trace_closed_form():
    # independent oracle: Tr Sy^2 = s(s+1)(2s+1)/3
    for s in (0.5, 1.0, 1.5, 2.5):
        _, sy, _ = spin_matrices(s)
        expected = s * (s + 1) * (2 * s + 1) / 3
        assert np.trace(sy @ sy).real == pytest.approx(expected, abs=1e-12)
    assert np.trace(spin_matrices(1.5)[1] @ spin_matrices(1.5)[1]).real == \
        pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("s", HALF_SPINS)
def test_commutator_and_casimir(s):
    sx, sy, sz = spin_matrices(s)
    assert np.abs(sx @ sy - sy @ sx - 1j * sz).max() <= 1e-12
    casimir = sx @ sx + sy @ sy + sz @ sz
    assert np.abs(casimir - s * (s + 1) * np.eye(multiplicity(s))).max() <= 1e-12


def test_validate_spin_rejects_bad_values():
    with pytest.raises(ValueError):
        validate_spin(0.3)
    with pytest.raises(ValueError):
        validate_spin(-0.5)
    assert validate_spin(2.5) == 2.5


def test_kron_identities():
    assert np.allclose(kron(np.eye(2), np.eye(3)), np.eye(6))
    got = kron(np.diag([1, -1]), np.diag([1, 0]))
    assert np.allclose(got, np.diag([1, 0, -1, 0]))


def test_kron_equals_numpy_kron():
    # each entry is the one complex product np.kron forms: bit-identical
    rng = np.random.default_rng(7)
    shapes = [(2, 3), (4, 3), (3, 2), (4, 4)]
    for shape_a in shapes:
        for shape_b in shapes:
            a = rng.normal(size=shape_a) + 1j * rng.normal(size=shape_a)
            b = rng.normal(size=shape_b) + 1j * rng.normal(size=shape_b)
            assert np.array_equal(kron(a, b), np.kron(a, b))
            assert np.array_equal(kron(a.real, b), np.kron(a.real, b))


def test_kron_ordering_matches_product_basis():
    _, _, sz = spin_matrices(1.5)
    got = kron(sz, np.eye(3))
    expected = np.repeat([1.5, 0.5, -0.5, -1.5], 3)
    assert np.allclose(np.diag(got), expected)


def test_expm_zero_generator_is_identity():
    assert np.allclose(expm_hermitian(np.zeros((4, 4)), 2.7), np.eye(4))


def test_expm_pi_rotation_antidiagonal():
    # exp(+i*pi*Sx) for s=3/2 is the -i-filled anti-diagonal; the opposite
    # generator sign gives the complex conjugate
    sx = spin_matrices(1.5)[0]
    minus_i_flip = -1j * np.fliplr(np.eye(4))
    assert np.abs(expm_hermitian(-sx, np.pi) - minus_i_flip).max() <= 1e-12
    assert np.abs(expm_hermitian(sx, np.pi) - minus_i_flip.conj()).max() <= 1e-12


def test_expm_spin32_closed_form_rotation():
    # trigonometric closed form of exp(+i*theta*Sx) for s=3/2
    theta = 0.8137
    c3 = np.cos(theta / 2) ** 3
    s3 = np.sin(theta / 2) ** 3
    cc = np.cos(3 * theta / 2)
    ss = np.sin(3 * theta / 2)
    a = (1j / np.sqrt(3)) * (s3 + ss)
    g = -(1 / np.sqrt(3)) * (c3 - cc)
    b = -(1j / 3) * (s3 - 2 * ss)
    e = (c3 + 2 * cc) / 3
    expected = np.array([
        [c3, a, g, -1j * s3],
        [a, e, b, g],
        [g, b, e, a],
        [-1j * s3, g, a, c3]])
    got = expm_hermitian(-spin_matrices(1.5)[0], theta)
    assert np.abs(got - expected).max() <= 1e-12


def test_expm_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        expm_hermitian(bad, 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 6), st.floats(0.05, 3.0), st.floats(0.05, 3.0),
       st.integers(0, 2 ** 31 - 1))
def test_expm_composition(dim, t1, t2, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    lhs = expm_hermitian(h, t1) @ expm_hermitian(h, t2)
    rhs = expm_hermitian(h, t1 + t2)
    assert np.abs(lhs - rhs).max() <= 1e-10
    assert is_unitary(lhs)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_kron_mixed_product(seed):
    rng = np.random.default_rng(seed)
    da, db = rng.integers(2, 5), rng.integers(2, 4)
    mats = []
    for dim in (da, db, da, db):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mats.append((m + m.conj().T) / 2)
    a, b, c, d = mats
    assert np.abs(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d)).max() <= 1e-12


def test_projector_mi_basics():
    assert np.allclose(projector_mi(1.0, 1.0), np.diag([1, 0, 0]))
    assert np.allclose(projector_mi(1.0, 0.0), np.diag([0, 1, 0]))
    total = sum(projector_mi(1.0, m) for m in (-1.0, 0.0, 1.0))
    assert np.allclose(total, np.eye(3))
    p = projector_mi(2.5, -1.5)
    assert np.allclose(p @ p, p)
    with pytest.raises(ValueError):
        projector_mi(1.0, 0.5)


def test_product_basis_indexing():
    basis = ProductBasis(1.5, 1.0)
    assert basis.dim == 12
    assert basis.index_of(1.5, 1.0) == 0
    assert basis.index_of(1.5, -1.0) == 2
    assert basis.index_of(-1.5, -1.0) == 11
    # index rule (s - m_s)*(2i+1) + (i - m_i)
    for m_s in projections(1.5):
        for m_i in projections(1.0):
            expected = int(round((1.5 - m_s) * 3 + (1.0 - m_i)))
            assert basis.index_of(m_s, m_i) == expected
    assert list(basis.mi_indices(1.0)) == [0, 3, 6, 9]
    order = basis.electron_order()
    assert order[0, 3] == 1 and order[3, 0] == -1 and order[0, 6] == 2


def test_hermitian_unitary_predicates():
    sx = spin_matrices(1.0)[0]
    assert is_hermitian(sx)
    assert is_unitary(expm_hermitian(sx, 0.3))
    assert not is_unitary(2 * np.eye(3))
