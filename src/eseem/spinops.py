"""Dense complex spin algebra: angular-momentum operators, tensor products,
and unitary propagators for arbitrary spin quantum numbers.

Conventions
-----------
* Spin quantum numbers are passed as floats (``0.5``, ``1``, ``1.5`` ...);
  twice the value must be a non-negative integer.
* Single-spin matrices are written in the basis of descending projection,
  so ``Sz = diag(s, s-1, ..., -s)``.
* The coupled electron-nuclear product basis is electron-major with both
  projections descending: ``index = (s - m_s)*(2i+1) + (i - m_i)``.
* Matrices are plain ``numpy`` arrays of ``complex128``; all operations here
  are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Absolute entrywise tolerances for matrices with entries of order unity.
# These two knobs control every hermiticity/unitarity gate in the package.
HERMITIAN_ATOL = 1e-12
UNITARY_ATOL = 1e-10


def validate_spin(s: float) -> float:
    """Check that ``s`` is a non-negative integer or half-integer."""
    two_s = 2.0 * s
    if s < 0 or abs(two_s - round(two_s)) > 1e-12:
        raise ValueError(f"spin must be a non-negative half-integer, got {s}")
    return s


def multiplicity(s: float) -> int:
    """Number of projection states 2s+1."""
    validate_spin(s)
    return int(round(2 * s)) + 1


def projections(s: float) -> np.ndarray:
    """Projection quantum numbers in descending order, s, s-1, ..., -s."""
    d = multiplicity(s)
    return s - np.arange(d)


def spin_matrices(s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Construct (Sx, Sy, Sz) for spin ``s`` via ladder operators.

    Returns Hermitian ``(2s+1)``-dimensional matrices in the descending-
    projection basis, so Sz is ``diag(s, ..., -s)`` and the raising operator
    populates the first superdiagonal.
    """
    m = projections(s)
    d = len(m)
    sz = np.diag(m).astype(complex)
    sp = np.zeros((d, d), dtype=complex)
    for k in range(d - 1):
        mm = m[k + 1]
        sp[k, k + 1] = np.sqrt(s * (s + 1) - mm * (mm + 1))
    sm = sp.conj().T
    sx = (sp + sm) / 2
    sy = (sp - sm) / 2j
    return sx, sy, sz


def raising_operator(s: float) -> np.ndarray:
    """S+ in the descending-projection basis."""
    sx, sy, _ = spin_matrices(s)
    return sx + 1j * sy


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with electron-major layout.

    ``kron(A, B)[ (i*dB + k), (j*dB + l) ] = A[i, j] * B[k, l]``, which keeps
    the coupled-basis ordering of :class:`ProductBasis` when ``A`` acts on
    the electron and ``B`` on the nucleus.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def projector_mi(i: float, m_i: float) -> np.ndarray:
    """Diagonal projector onto the nuclear projection ``m_i``.

    Idempotent, rank one in the nuclear space.
    """
    m = projections(i)
    sel = np.abs(m - m_i) < 1e-9
    if not sel.any():
        raise ValueError(f"projection {m_i} invalid for spin {i}")
    return np.diag(sel.astype(float)).astype(complex)


def is_hermitian(mat: np.ndarray, atol: float = HERMITIAN_ATOL) -> bool:
    return bool(np.abs(mat - mat.conj().T).max() <= atol)


def is_unitary(mat: np.ndarray, atol: float = UNITARY_ATOL) -> bool:
    eye = np.eye(mat.shape[0])
    return bool(np.abs(mat @ mat.conj().T - eye).max() <= atol)


def expm_hermitian(h: np.ndarray, t: float = 1.0, *,
                   atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Unitary propagator exp(-i*h*t) of a Hermitian generator, or of each
    generator of a stack of shape (..., n, n).

    Uses the eigendecomposition exp(-i*h*t) = V exp(-i*diag(w)*t) V+, which
    is exact up to eigensolver accuracy for the small dense matrices used
    here and preserves unitarity by construction.

    Raises ``ValueError`` if any matrix is not Hermitian to ``atol`` (scaled
    by its largest entry when that exceeds unity).
    """
    h = np.asarray(h, dtype=complex)
    skew = np.abs(h - h.conj().swapaxes(-1, -2))
    # each matrix's scale is at least 1, so only a skew above atol can fail
    if skew.max() > atol and np.any(
            skew.max(axis=(-2, -1))
            > atol * np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))):
        raise ValueError("generator is not Hermitian")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)[..., None, :]) @ v.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class ProductBasis:
    """Coupled electron (s) / nuclear (i) product basis bookkeeping.

    Electron-major ordering with projections descending:
    ``index = (s - m_s)*(2i+1) + (i - m_i)``.  The first row of any operator
    in this basis therefore belongs to the stretched state (m_s=s, m_i=i).
    """

    s: float
    i: float

    def __post_init__(self):
        validate_spin(self.s)
        validate_spin(self.i)

    @property
    def dim_s(self) -> int:
        return multiplicity(self.s)

    @property
    def dim_i(self) -> int:
        return multiplicity(self.i)

    @property
    def dim(self) -> int:
        return self.dim_s * self.dim_i

    def index_of(self, m_s: float, m_i: float) -> int:
        ks = round(self.s - m_s)
        ki = round(self.i - m_i)
        if not (0 <= ks < self.dim_s and 0 <= ki < self.dim_i):
            raise ValueError(f"projection pair ({m_s}, {m_i}) out of range")
        return int(ks) * self.dim_i + int(ki)

    def m_s_diagonal(self) -> np.ndarray:
        """Electron projection of each basis state."""
        return np.repeat(projections(self.s), self.dim_i)

    def m_i_diagonal(self) -> np.ndarray:
        """Nuclear projection of each basis state."""
        return np.tile(projections(self.i), self.dim_s)

    def mi_indices(self, m_i: float) -> np.ndarray:
        """Basis indices of the fixed-``m_i`` manifold, descending in m_s."""
        sel = np.abs(self.m_i_diagonal() - m_i) < 1e-9
        if not sel.any():
            raise ValueError(f"projection {m_i} invalid for spin {self.i}")
        return np.nonzero(sel)[0]

    def electron_order(self) -> np.ndarray:
        """Integer matrix of electron coherence orders m_s(row) - m_s(col)."""
        ms = self.m_s_diagonal()
        return np.rint(ms[:, None] - ms[None, :]).astype(int)
