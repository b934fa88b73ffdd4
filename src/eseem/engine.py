"""Two-pulse echo propagation with selectable evolution engines.

Sequence and observable
-----------------------
The simulated experiment is theta1 - tau - theta2 - tau - echo.  The
deviation density matrix starts as sigma0 = -Sz (the high-temperature
thermal deviation for a positive electron Zeeman term; the sign makes the
primary echo amplitude positive), is rotated, propagated, refocused and
propagated again, and the echo amplitude is

    V(tau) = Re Tr[ sigma(2 tau) * (Sy x P_mi) ],

with P_mi the nuclear projector implementing line-selective detection.

Echo pathway selection
----------------------
Only density-matrix components that traverse electron coherence order
+1 -> -1 (or -1 -> +1) across the refocusing pulse are retained.  These are
exactly the components whose resonance-offset phase cancels at the echo
time; everything else dephases across the inhomogeneous ensemble and is
removed experimentally by phase cycling and echo-shape integration.  The
selection is implemented exactly with coherence-order masks in the product
basis, which makes the computed V(tau) independent of the resonance offset
and equal to the closed-form modulation expressions at every pulse angle.

Engines
-------
Each engine only supplies free-evolution propagators that start at t = 0.
``_Propagator.elements`` gives U(0, tau) for a whole tau grid at once, at
any set of its elements (exactly the identity's at tau = 0); the echo
kernel asks only for those the engine can make nonzero
(``_Propagator.diagonal``): the 28 of 144 inside M blocks, or the 12 on
the diagonal on the average-Hamiltonian engine.  ``_Propagator.stack`` is
the every-element case, an (n_tau, d, d) stack.
``_Propagator`` and :class:`EchoExperiment` check the engine with one
``_check_engine``.  The experiment alone places the rotating frame, its
``resonance_offset_hz`` below the detected line (:func:`microwave_freq_hz`).
The rotating-frame Hamiltonian obeys h_rot(t + t0) = R(t0) h_rot(t) R(t0)^H
with the diagonal R(t) = exp(+i*w_mw*Sz*t), so for every engine
U(t0, t0 + tau) = R(t0) U(0, tau) R(t0)^H; ``_Propagator.translate`` applies
that one conjugation.  R takes only the 2S+1 values of m_s, and is formed
on those.

average-hamiltonian
    Diagonal evolution under h_avg0 + h_avg1 (second-order secular
    dynamics; the fast default): the diagonal phases, zero elsewhere.
exact-lab-frame
    Rotating-frame propagator assembled from the exact lab Hamiltonian,
    U(0, tau) = exp(+i*w_mw*Sz*tau) exp(-i*H0*tau);
    machine-precision reference dynamics, vectorized over tau from the
    eigendecomposition of H0's M blocks: the phases exp(-i w_k tau) times the
    requested columns of the flattened projectors v_k v_k^H, one
    (n_tau x d) (d x n_elements) product, times each row's frame phase.
    The eigenpairs and projectors are built once per distinct H0 in a
    process (``_lab_spectrum``, keyed on its bytes).
stepped-rotating-frame
    Time-ordered product of unitary midpoint substeps of the periodic
    rotating-frame Hamiltonian, ``STEPS_PER_PERIOD`` = 40 per microwave
    period (a fixed numerical setting, not an option); converges
    quadratically in the substep to the exact engine.
    h_rot(t) = R(t) H' R(t)^H, so each substep is R(t_k) E R(t_k)^H with one
    E = exp(-i H' dt): one eigh of H' per factory.  Whole periods come from
    the eigenphases of the unitary period product P, found by one eigh of
    the Hermitian (P + P^H)/2 + c (P - P^H)/(2i), c = 1/sqrt(3)
    (``_unitary_eigen``; like ``np.linalg.eigh``, it returns (values,
    vectors)).  The tau grid is taken in one pass: the whole periods of
    every tau in one product, and the remainders' midpoint runs stacked,
    each with its own substep count, their powers in
    ``np.linalg.matrix_power``'s order (``_matrix_powers``), so each
    U(0, tau) is the one-tau result bit for bit.

Echo kernel
-----------
One kernel contracts the propagators of every engine, in two stages.  The
free evolution enters as U1(tau) = U(0, tau) and G(tau) = U2(tau)^H D U2(tau),
with U2(tau) = U(tau, 2 tau) = R(tau) U1(tau) R(tau)^H and D the detection
operator, because Tr[U2 Z U2^H D] = Tr[Z G].

Two conservation laws decide which elements can be nonzero.  The free
evolution conserves M = m_s + m_i (the hyperfine coupling a S.I only trades
m_s for m_i), and the pulses act on the electron alone, so they conserve
m_i.  ``_supports`` derives four index sets from the basis once per
(S, I, m_i) and U1 pattern; the counts are for S = 3/2, I = 1 (d = 12):

* rho1, the +1 coherences after pulse 1: electron order +1 with m_i
  unchanged (9 of 144);
* X = U1 rho1 U1^H: M up by 1 (25);
* the refocused pairs (i, j): order -1 with |M_j - M_i| = 1, the only
  pairs where G can be nonzero (12 of the 27 of order -1);
* D = Sy x P_mi: its nonzeros (6).

The kernel checks these laws rather than assume them, and raises
``LinAlgError`` rather than drop signal when an element between blocks
exceeds ``CONSERVATION_TOL`` times the largest element of its matrix.  M is
checked once on what generates the free evolution (H0, H' and P; the
average-Hamiltonian engine's is diagonal), whose blocks of equal M are then
diagonalized one at a time (``_m_block_eigen``), so every U(0, tau) is
exactly zero between them; m_i is checked on every pulse propagator.

Per experiment (``_EchoPlan``), everything that does not depend on the
pulse scales of an ensemble node is built once: the products
W[tau, e] = U1[a_q, k_r] conj U1[b_q, l_r] over the 55 links e = (q, r)
between an X element q = (a, b) and a rho1 element r = (k, l) in the same
M block, so that X = W @ (rho1 spread over the links); one table G of
G[j, i] and then G[i, j] (the Hermitian completion) at the pairs each
reaches, from the gathered U1 elements and their frame phases; the T2
damping (1 without T2); and one factory per pulse that maps an array of
scales to a stack of propagators.  W and G read U1 only inside M blocks,
its 28 elements.  Of the 6 x 12 terms D[k, l] conj U2[k, j] U2[l, i] of G
at the refocused pairs, only those with k in the M block of j and l in
that of i survive, at most one per pair: 8 on an outer line and 10 on the
central one, and G is exactly zero at the other pairs, so each term keeps
only those.  W and G are built ``TAU_BLOCK`` points at a time, which
bounds the temporaries whatever the grid size, with R(tau) formed once per
block for both U1 and U2.

On the average-Hamiltonian engine U1 is diagonal, and the same sets taken
on the diagonal keep only what it can make nonzero: its 12 elements, the 9
links that carry each rho1 element onto itself, 3 terms of G per line and
term (k = j and l = i: the nonzeros of D), so 6 columns, and 18 K links,
``k_split`` = 9; X keeps its 25 columns.  Every term dropped is exactly
zero there, so the amplitude is the M-block contraction's to roundoff.

Pulse 2 enters through K[q, p] = R2[i_p, a_q] conj R2[j_p, b_q], with the
refocused elements (R2 X R2^H)[i_p, j_p] = sum_q X[a_q, b_q] K[q, p].  As
R2 conserves m_i, K can be nonzero only where m_i(a_q) = m_i(i_p) and
m_i(b_q) = m_i(j_p): each column c of G meets 2S elements q of X, its K
links, 24 of the 300 entries of K per G term on an outer line and 30 on
the central one.  The amplitude
sum_p (R2 X R2^H)[i_p, j_p] G[j_p, i_p] + conj(...) G[i_p, j_p] is then
one product of the link products X[:, q] G[:, c], an (n_tau, 48) array on
an outer line and (n_tau, 60) on the central one, with K at the links; K
and X are conjugated at those of G[i, j], from ``k_split`` on; the
product is taken a ``TAU_BLOCK`` at a time, like its factors.  G[i, j]
is taken as computed, not as conj G[j, i], so the imaginary part is a real
roundoff residual, and ``max_imag_residual`` is its largest magnitude; for
an ensemble average, that of the averaged amplitude.

Per ensemble average, ``_EchoPlan.tabulate`` takes the node scales and
calls each pulse factory once, for all nodes together, and keeps per
scale the +1 coherences rho1 after pulse 1 and K at its links after
pulse 2.  The link products are built one ``TAU_BLOCK`` at a time and
memoized on the pulse-1 scale, which stays fixed over the nodes unless
both pulses share the B1 factor, so each node costs one (n_tau, 48|60)
product with its K; ``_EchoPlan.amplitudes`` takes any number of pulse-2
scales in that one product.  With a shared B1 factor each node has its
own pulse-1 scale and builds its own link products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .hamiltonians import (TWO_PI, _f_mw_effective, delta_hz, h0_lab, h_avg0,
                           h_avg1, h_rot_t, line_center_hz)
from .pulses import PulseSpec, _scaled_propagator
from .spinops import (ProductBasis, kron, multiplicity, projection,
                      projections, projector_mi, spin_matrices)
from .system import SpinSystemParams

ENGINES = ("average-hamiltonian", "exact-lab-frame", "stepped-rotating-frame")

# the stepped engine's midpoint substeps per microwave period, read when
# its propagator is built
STEPS_PER_PERIOD = 40

# tau points per block when the plan builds W and G from U1, and the link
# products from W and G (see "Echo kernel" above): it bounds the (block, 28)
# U1 elements, the (block, 25) coherences X and their products.
# 128 ran about 5 % faster than 64 on 512-point traces; building the whole
# grid at once raised the peak RSS by 0.7-1.6 MB
TAU_BLOCK = 128

# the stepped engine's one-period product P: the weight c of its Hermitian
# form in _unitary_eigen, and the largest off-diagonal of Q^H P Q accepted
# (roundoff gives at most 1e-14 on the presets; a mixed pair gives about
# the gap between its two eigenphases)
_UNITARY_MIX = 1.0 / np.sqrt(3.0)
UNITARY_OFFDIAG_TOL = 1e-12

# the largest element a free-evolution generator (H0, H' or P) may have
# between M blocks, or a pulse propagator between m_i blocks, relative to its
# largest element: the echo kernel contracts only the elements these
# conservation laws allow.  The generators and the pulses have exact zeros
# there
CONSERVATION_TOL = 1e-10


@dataclass
class EchoTrace:
    """Echo amplitude sampled on a tau grid (arbitrary units, signed)."""

    tau_s: np.ndarray
    v: np.ndarray
    metadata: dict = field(default_factory=dict)
    v_im: np.ndarray | None = None

    def __post_init__(self):
        self.tau_s = np.asarray(self.tau_s, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.tau_s.shape != self.v.shape:
            raise ValueError("tau_s and v must have equal lengths")
        if not np.all(np.isfinite(self.tau_s)):
            raise ValueError("tau values must be finite")
        if not np.all(np.isfinite(self.v)):
            raise ValueError("echo amplitudes must be finite")


@dataclass
class EchoExperiment:
    """Specification of one two-pulse echo run; ``detect_m_i`` is stored
    as the exact projection :func:`~eseem.spinops.projection` gives."""

    system: SpinSystemParams
    pulse1: PulseSpec
    pulse2: PulseSpec
    tau_grid: np.ndarray
    detect_m_i: float
    engine: str = "average-hamiltonian"
    resonance_offset_hz: float = 0.0
    t2_s: float | None = None

    def __post_init__(self):
        self.tau_grid = np.asarray(self.tau_grid, dtype=float)
        _check_engine(self.engine)
        if self.tau_grid.ndim != 1 or self.tau_grid.size == 0:
            raise ValueError("tau_grid must be a non-empty 1-d array")
        if np.any(self.tau_grid < 0) or np.any(np.diff(self.tau_grid) <= 0):
            raise ValueError("tau_grid must be non-negative and strictly increasing")
        self.detect_m_i = projection(self.system.i, self.detect_m_i)
        if self.t2_s is not None and self.t2_s <= 0:
            raise ValueError("t2_s must be positive")
        if not np.isfinite(self.resonance_offset_hz):
            raise ValueError("resonance_offset_hz must be finite")


def _check_engine(engine: str) -> None:
    """Raise ``ValueError`` unless ``engine`` is one of ``ENGINES``."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")


def _ideal_echo(p: SpinSystemParams, tau, *, m_i: float = 1.0,
                theta2: float = np.pi, engine: str = "average-hamiltonian",
                offset: float = 0.0, **kw) -> EchoExperiment:
    """The pi/2 - theta2 echo with ideal pulses, the frame ``offset`` Hz
    off the detected line; ``kw`` goes to :class:`EchoExperiment`."""
    return EchoExperiment(system=p, pulse1=PulseSpec(np.pi / 2),
                          pulse2=PulseSpec(theta2), tau_grid=tau,
                          detect_m_i=m_i, engine=engine,
                          resonance_offset_hz=offset, **kw)


def microwave_freq_hz(exp: EchoExperiment) -> float:
    """Rotating-frame frequency for the run: ``resonance_offset_hz`` below
    the detected line center (offset = line - frame), on the line itself by
    default."""
    return line_center_hz(exp.system, exp.detect_m_i) - exp.resonance_offset_hz


def detection_operator(system: SpinSystemParams, m_i: float) -> np.ndarray:
    """Sy x P_mi, the line-selective transverse detection operator."""
    return _detection_operator(system.s, system.i, m_i).copy()


@lru_cache(maxsize=None)
def _detection_operator(s: float, i: float, m_i: float) -> np.ndarray:
    """Read-only :func:`detection_operator`, built once per (S, I, m_i)."""
    out = kron(spin_matrices(s)[1], projector_mi(i, m_i))
    out.flags.writeable = False
    return out


def _check_conserved(u: np.ndarray, leak: np.ndarray, what: str,
                     label: str) -> None:
    """Raise unless the elements on the ``leak`` mask of the matrix ``u``, or
    of each matrix of a stack, stay within ``CONSERVATION_TOL`` of that
    matrix's largest element."""
    mag = np.abs(u)
    worst = mag[..., leak].max(axis=-1, initial=0.0)
    bad = worst > CONSERVATION_TOL * mag.max(axis=(-2, -1))
    if bad.any():
        raise np.linalg.LinAlgError(
            f"{what} does not conserve {label}: element "
            f"{worst[bad].max():.3g} between {label} blocks")


def _unitary_eigen(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenphases phi and eigenvectors Q of a unitary u, u = Q e^(i phi) Q^H,
    or of each unitary of a stack; (values, vectors), as ``np.linalg.eigh``.

    The Hermitian (u + u^H)/2 + c (u - u^H)/(2i) has the eigenvalues
    cos(phi) + c sin(phi) on the same eigenvectors, so its ``eigh`` gives Q.
    Two eigenphases placed symmetrically about atan(c) share an eigenvalue
    and would be mixed; c = 1/sqrt(3) (30 degrees) keeps the common pairs
    +-phi and phi, pi - phi apart.  A mixed pair shows as an off-diagonal
    Q^H u Q above ``UNITARY_OFFDIAG_TOL``, and then this raises rather than
    return a wrong propagator.
    """
    c = _UNITARY_MIX
    herm = 0.5 * (u + _dagger(u)) + (c / 2j) * (u - _dagger(u))
    q = np.linalg.eigh(herm)[1]
    t = _dagger(q) @ u @ q
    diag = np.diagonal(t, axis1=-2, axis2=-1)
    offdiag = np.abs(t[..., ~np.eye(t.shape[-1], dtype=bool)]).max(initial=0.0)
    if offdiag > UNITARY_OFFDIAG_TOL:
        raise np.linalg.LinAlgError(
            f"period propagator not diagonalized: off-diagonal {offdiag:.3g}")
    return np.angle(diag), q


@lru_cache(maxsize=None)
def _m_blocks(s: float, i: float) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The blocks of equal M = m_s + m_i, one (n_blocks, size) array of basis
    indices per block size, and the (d, d) mask of the elements between
    blocks; read-only, built once per (S, I)."""
    basis = ProductBasis(s, i)
    total = basis.m_s_diagonal() + basis.m_i_diagonal()
    blocks = [np.flatnonzero(total == m) for m in projections(s + i)]
    stacks = tuple(np.array([idx for idx in blocks if idx.size == size])
                   for size in sorted({idx.size for idx in blocks}))
    between = total[:, None] != total
    for arr in (*stacks, between):
        arr.flags.writeable = False
    return stacks, between


def _m_block_eigen(decompose, a: np.ndarray, s: float, i: float
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (d,) and eigenvectors (d, d), exactly zero between M
    blocks, of ``a`` on the basis of (S, I) = (``s``, ``i``), which must
    conserve M (:func:`_check_conserved`).  ``decompose``
    (``np.linalg.eigh`` or :func:`_unitary_eigen`) takes the stack of blocks
    of each size and returns (values, vectors).
    """
    stacks, between = _m_blocks(s, i)
    _check_conserved(a, between, "free evolution", "M")
    values = np.empty(a.shape[0])
    vectors = np.zeros(a.shape, dtype=complex)
    for rows in stacks:
        sub = (rows[:, :, None], rows[:, None, :])
        values[rows], vectors[sub] = decompose(a[sub])
    return values, vectors


@lru_cache(maxsize=32)
def _lab_spectrum(h0: bytes, s: float, i: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The M-block eigenvalues w_k and eigenvectors v_k
    (:func:`_m_block_eigen`) of the lab Hamiltonian whose complex bytes are
    ``h0``, and row k the projector v_k v_k^H, flattened; read-only and
    decomposed once per distinct H0, so M is checked on every H0 met."""
    dim = multiplicity(s) * multiplicity(i)
    w0, v0 = _m_block_eigen(np.linalg.eigh, np.frombuffer(
        h0, dtype=complex).reshape(dim, dim), s, i)
    projectors = (v0.T[:, :, None] * v0.conj().T[:, None, :]
                  ).reshape(dim, dim * dim)
    for arr in (w0, v0, projectors):
        arr.flags.writeable = False
    return w0, v0, projectors


def _matrix_powers(a: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``np.linalg.matrix_power(a[k], n[k])`` for each matrix of the stack
    ``a`` and each exponent of the 1-d int array ``n``, bit for bit: the
    same products in the same order, (a a) a for n = 3 and otherwise the
    binary powers of a, multiplied in from the lowest set bit."""
    if (n == n.max(initial=0)).all():  # one exponent: matrix_power itself
        return np.linalg.matrix_power(a, int(n.max(initial=0)))
    out = np.empty_like(a)
    out[...] = np.eye(a.shape[-1])
    z = a
    for bit in range(int(n.max(initial=0)).bit_length()):
        if bit:
            z = z @ z
        on = ((n >> bit) & 1) == 1
        first = on & ((n & ((1 << bit) - 1)) == 0)
        if first.any():
            out[first] = z[first]
        later = on & ~first
        if bit == 1 and (n == 3).any():
            out[n == 3] = z[n == 3] @ out[n == 3]
            later &= n != 3
        if later.any():
            out[later] = out[later] @ z[later]
    return out


class _Propagator:
    """Free-evolution propagator factory for one engine/frame, with the
    expensive diagonalizations cached across tau points.

    :meth:`elements` gives U(0, tau) at any set of elements for a tau grid;
    :meth:`stack` is its every-element case.  Every U(0, tau) is exactly
    zero between M blocks (:func:`_m_block_eigen`), and ``diagonal`` states
    whether it is also zero off the diagonal (the average-Hamiltonian
    engine): the pattern the echo kernel's supports follow.
    """

    def __init__(self, engine: str, system: SpinSystemParams, f_mw_hz: float):
        _check_engine(engine)
        self.engine = engine
        self.system = system
        self.f_mw_hz = f_mw_hz
        dim = system.basis.dim
        self._eye = np.eye(dim, dtype=complex)
        # the 2S+1 distinct m_s and the level of each basis state
        # (electron-major basis), for the frame rotation
        self._m_s = projections(system.s)
        self._level = np.repeat(np.arange(self._m_s.size), system.basis.dim_i)
        self.diagonal = engine == "average-hamiltonian"
        if self.diagonal:
            h = h_avg0(system, f_mw_hz) + h_avg1(system)
            self._phases = np.diag(h).real
        elif engine == "exact-lab-frame":
            self._w0, self._v0, self._projectors = _lab_spectrum(
                np.asarray(h0_lab(system), dtype=complex).tobytes(),
                system.s, system.i)
        else:
            self._steps = STEPS_PER_PERIOD
            self._w, self._v = _m_block_eigen(
                np.linalg.eigh, h_rot_t(system, 0.0, f_mw_hz), system.s,
                system.i)
            period = self._midpoint_run(self._steps,
                                        1.0 / (f_mw_hz * self._steps))
            # per M block: a dense eigenbasis may mix close eigenphases of
            # two blocks, and raising it to millions of periods spreads that
            # roundoff between the blocks
            self._angles, self._q = _m_block_eigen(_unitary_eigen, period,
                                                   system.s, system.i)

    def elements(self, tau, flat: np.ndarray,
                 frame: np.ndarray | None = None) -> np.ndarray:
        """U(0, tau[k]) at the flat indices ``flat`` (row * d + column),
        shape (n_tau, flat.size); at tau = 0 exactly the identity's
        elements.  ``frame`` may pass in the diagonal of R(tau) for the
        column tau[:, None], as :meth:`_frame` forms it."""
        tau = np.asarray(tau, dtype=float)
        if (tau < 0).any():
            raise ValueError("tau must be non-negative")
        rows, cols = np.divmod(flat, self._eye.shape[0])
        if self.engine == "average-hamiltonian":
            out = np.zeros((tau.size, flat.size), dtype=complex)
            diag = rows == cols
            out[:, diag] = np.exp(-1j * self._phases[rows[diag]]
                                  * tau[:, None])
        elif self.engine == "exact-lab-frame":
            # exp(-i H0 tau) = sum_k e^(-i w_k tau) v_k v_k^H, one product
            # with the requested columns of the projectors, then R(tau)
            if frame is None:
                frame = self._frame(tau[:, None])
            phases = np.exp(-1j * self._w0 * tau[:, None])
            out = frame[:, rows] * (phases @ self._projectors[:, flat])
        else:
            out = self._stepped(tau).reshape(-1, self._eye.size)[:, flat]
        out[tau == 0.0] = self._eye.ravel()[flat]
        return out

    def stack(self, tau) -> np.ndarray:
        """Propagators U(0, tau[k]), shape (n_tau, d, d): :meth:`elements`
        at every element."""
        dim = self._eye.shape[0]
        return self.elements(tau, np.arange(dim * dim)).reshape(-1, dim, dim)

    def translate(self, t_start, u) -> np.ndarray:
        """U(t_start, t_start + tau) = R(t_start) U(0, tau) R(t_start)^H for
        one propagator ``u`` or a stack with one ``t_start`` per matrix."""
        r = self._frame(np.asarray(t_start, dtype=float)[..., None])
        return (r[..., :, None] * u) * r[..., None, :].conj()

    def _frame(self, t: float | np.ndarray) -> np.ndarray:
        """Diagonal of the frame rotation R(t) = exp(+i*w_mw*Sz*t), formed
        on the 2S+1 distinct m_s."""
        return np.exp(1j * TWO_PI * self.f_mw_hz * self._m_s * t
                      )[..., self._level]

    def _midpoint_run(self, n_sub, dt) -> np.ndarray:
        """Product of ``n_sub`` midpoint substeps of length ``dt`` from t = 0,
        R(t_last) (E R(-dt))^(n_sub-1) E R(t_0)^H with t_k = (k + 1/2) dt;
        for 1-d arrays ``n_sub`` and ``dt``, a stack of one per pair."""
        shape, n_sub = np.shape(n_sub), np.reshape(n_sub, -1)
        dt = np.reshape(dt, (-1, 1))
        e = (self._v * np.exp(-1j * self._w * dt)[:, None, :]
             ) @ self._v.conj().T
        u = _matrix_powers(e * self._frame(-dt)[:, None, :], n_sub - 1) @ e
        u = ((self._frame((n_sub[:, None] - 0.5) * dt)[:, :, None] * u)
             * self._frame(0.5 * dt).conj()[:, None, :])
        return u.reshape(shape + u.shape[1:])

    def _stepped(self, tau) -> np.ndarray:
        """U(0, tau) for a scalar ``tau``, or a stack of one per tau of an
        array: whole periods from the eigenphases, then the remainder's
        midpoint run, each tau with its own substep count."""
        tau = np.asarray(tau, dtype=float)
        period = 1.0 / self.f_mw_hz
        dt = period / self._steps
        n_periods = np.floor(tau.reshape(-1) / period + 1e-9).astype(int)
        remainder = tau.reshape(-1) - n_periods * period
        # whole periods from the eigenphases, multiplied exactly
        u = (self._q * np.exp(1j * n_periods[:, None] * self._angles
                              )[:, None, :]) @ self._q.conj().T
        rest = remainder > 1e-16
        if rest.any():
            # R(n_periods * period) is a scalar, so the rest starts at t = 0
            n_sub = np.maximum(
                1, np.ceil(remainder[rest] / dt - 1e-9).astype(int))
            u[rest] = self._midpoint_run(n_sub, remainder[rest] / n_sub
                                         ) @ u[rest]
        return u.reshape(tau.shape + u.shape[1:])


def free_evolution(engine: str, system: SpinSystemParams, tau: float,
                   t_start: float = 0.0, *, f_mw_hz: float | None = None
                   ) -> np.ndarray:
    """Unitary free-evolution propagator over [t_start, t_start + tau].

    ``f_mw_hz`` defaults to the bare electron Zeeman frequency.  For one-off
    calls; batch users should reuse :class:`_Propagator` via
    :func:`run_two_pulse_echo`.
    """
    prop = _Propagator(engine, system, _f_mw_effective(system, f_mw_hz))
    return prop.translate(t_start, prop.stack([tau])[0])


def thermal_deviation(system: SpinSystemParams) -> np.ndarray:
    """Initial deviation density matrix, -Sz x 1 (traceless).

    The sign is the physical one for a positive electron Zeeman term
    (lower-energy projections are more populated) and makes the two-pulse
    echo amplitude positive at small tau.
    """
    return _thermal_deviation(system.s, system.i).copy()


@lru_cache(maxsize=None)
def _thermal_deviation(s: float, i: float) -> np.ndarray:
    """Read-only :func:`thermal_deviation`, built once per (S, I)."""
    out = kron(-spin_matrices(s)[2], np.eye(multiplicity(i)))
    out.flags.writeable = False
    return out


def _blocks(n: int):
    """Slices of ``TAU_BLOCK`` rows covering n rows."""
    return (slice(start, start + TAU_BLOCK) for start in range(0, n, TAU_BLOCK))


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class _Supports:
    """The elements the echo kernel contracts for one (S, I, detected m_i)
    and U1 pattern (``diagonal``, see :attr:`_Propagator.diagonal`), as
    (row, column) index arrays; the counts are for S = 3/2, I = 1, M blocks
    first and the diagonal (the average-Hamiltonian engine) in brackets.

    rho    electron order +1 with m_i unchanged: rho1 (9)
    x      M up by 1: X = U1 rho1 U1^H (25)
    pairs  (i, j) of order -1 with |M_j - M_i| = 1: the refocused elements
           where G = U2^H D U2 can be nonzero (12)
    det    the nonzeros of D = Sy x P_mi (6)

    ``links`` holds the (q, r) with U1[a_q, k_r] and U1[b_q, l_r] in the
    pattern: the rho1 elements r that U1 carries onto each X element q
    (55 [9]).  ``mi_leak`` marks the elements that change m_i.

    ``u1`` holds the flat indices row * d + column of U1's elements in the
    pattern (28 [12] of 144), all that the kernel reads of U1.  ``w`` gives,
    per link, the positions in ``u1`` of U1[a_q, k_r] and U1[b_q, l_r].
    ``g`` gives the columns of G, those of G[j, i] then those of G[i, j]:
    the pair p that G reaches through the pattern (shifted by the pair
    count for G[i, j]), the one element e of D that reaches it, and the
    positions of the two U1 elements it takes (16 columns on an outer line,
    20 on the central line [6 on each]).

    ``k`` holds the K links (q, c) of every column c, column by column: the
    X elements q where K[q, p] = R2[i_p, a_q] conj R2[j_p, b_q] can be
    nonzero, that is where m_i(a_q) = m_i(i_p) and m_i(b_q) = m_i(j_p), 2S
    per column (48 on an outer line, 60 on the central line [18]).  The
    first ``k_split`` (24 or 30 [9]) are those of G[j, i]; K and X are
    conjugated at the rest.
    """

    rho: tuple[np.ndarray, np.ndarray]
    x: tuple[np.ndarray, np.ndarray]
    pairs: tuple[np.ndarray, np.ndarray]
    det: tuple[np.ndarray, np.ndarray]
    links: tuple[np.ndarray, np.ndarray]
    mi_leak: np.ndarray
    u1: np.ndarray
    w: tuple[np.ndarray, np.ndarray]
    g: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    k: tuple[np.ndarray, np.ndarray]
    k_split: int


@lru_cache(maxsize=None)
def _supports(s: float, i: float, m_i: float, diagonal: bool) -> _Supports:
    basis = ProductBasis(s, i)
    order = basis.electron_order()
    nuclear = basis.m_i_diagonal()
    d_mi = nuclear[:, None] - nuclear[None, :]
    d_m = order + d_mi  # change of M, exact in floats
    line = nuclear == m_i
    rho = np.nonzero((order == 1) & (d_mi == 0))
    x = np.nonzero(d_m == 1)
    pairs = np.nonzero((order == -1) & (np.abs(d_m) == 1))
    det = np.nonzero((np.abs(order) == 1) & line[:, None] & line)
    # where U1 can be nonzero (_Propagator.diagonal)
    inside = np.eye(d_m.shape[0], dtype=bool) if diagonal else d_m == 0
    links = np.nonzero(inside[x[0][:, None], rho[0]]
                       & inside[x[1][:, None], rho[1]])
    pos = np.full(d_m.shape, -1)
    pos[inside] = np.arange(np.count_nonzero(inside))
    (a, b), (k, l), (q, r) = x, rho, links
    # G[j, i] (t = 0), then G[i, j] (t = 1): G[rows_p, cols_p] sums
    # D[dk_e, dl_e] conj U1[dk_e, rows_p] U1[dl_e, cols_p] over e (times
    # frame phases); inside M blocks dk_e has the M of rows_p and the
    # detected m_i, so at most one e reaches p
    (dk, dl), rows, cols = det, np.array(pairs[::-1]), np.array(pairs)
    t, e, p = np.nonzero(inside[dk[:, None], rows[:, None]]
                         & inside[dl[:, None], cols[:, None]])
    g = (p + t * pairs[0].size, e, pos[dk[e], rows[t, p]],
         pos[dl[e], cols[t, p]])
    # K links: the pulses conserve m_i, so R2[i_p, a_q] needs
    # m_i(a_q) = m_i(i_p); each column meets 2S elements of X, one m_s step
    c, q_k = np.nonzero((nuclear[pairs[0][p], None] == nuclear[a])
                        & (nuclear[pairs[1][p], None] == nuclear[b]))
    if not np.array_equal(c, np.repeat(np.arange(p.size), int(2 * s))):
        raise AssertionError("K links are not 2S per pair")
    sup = _Supports(
        rho=rho, x=x, pairs=pairs, det=det, links=links,
        mi_leak=d_mi != 0,
        u1=np.flatnonzero(inside), w=(pos[a[q], k[r]], pos[b[q], l[r]]),
        g=g, k=(q_k, c), k_split=int(np.count_nonzero(t[c] == 0)))
    for value in vars(sup).values():  # one instance serves every plan
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
    return sup


class _EchoPlan:
    """Everything of one echo experiment that does not depend on the pulse
    scales of an ensemble node, built once; see "Echo kernel" above.

    Holds the supports, the products W(tau) of U1 elements along the links,
    G(tau) = U2^H D U2 at the pairs each of its two terms reaches (one
    table, G[j, i] then G[i, j]), the T2 damping, one batched propagator
    factory per pulse, the per-scale tables of :meth:`tabulate`, and a
    one-entry memo of the link products of the pulse-1 coherences X(tau)
    with G, keyed on ``scale1``.  W and G come from U1 at the elements its
    engine can make nonzero (``_Supports.u1``: 28 inside M blocks, or the
    12 on the diagonal); the engine leaves U1 exactly zero outside them
    (see :class:`_Propagator`).  W, G, the link products and the amplitudes
    are built one ``TAU_BLOCK`` of tau at a time.
    """

    def __init__(self, exp: EchoExperiment):
        system = exp.system
        self.f_mw_hz = microwave_freq_hz(exp)
        prop = _Propagator(exp.engine, system, self.f_mw_hz)
        self.supports = sup = _supports(system.s, system.i, exp.detect_m_i,
                                        prop.diagonal)
        self._sigma0 = _thermal_deviation(system.s, system.i)
        w_a, w_b = sup.w
        (i, j), (d_k, d_l) = sup.pairs, sup.det
        d_vals = _detection_operator(system.s, system.i,
                                     exp.detect_m_i)[sup.det]
        tau = exp.tau_grid
        p, e, c_k, c_l = sup.g
        # per column of G: its pair's rows, the one element of D it takes,
        # and the first column of G[i, j]
        g_split, pair = np.count_nonzero(p < i.size), p % i.size
        i, j, d_k, d_l, d_vals = i[pair], j[pair], d_k[e], d_l[e], d_vals[e]
        self._w = np.empty((tau.size, w_a.size), dtype=complex)
        self._g = np.empty((tau.size, p.size), dtype=complex)
        for blk in _blocks(tau.size):
            rot = prop._frame(tau[blk, None])  # for U1 and for U2
            u1 = prop.elements(tau[blk], sup.u1, rot)
            self._w[blk] = u1[:, w_a] * u1[:, w_b].conj()
            # U2 = R U1 R^H with the diagonal frame rotation R: its phases
            # factor out of G = U2^H D U2, which takes one element e of D at
            # each pair it reaches; G[i, j] has the conjugate pair phases
            pair_rot = rot[:, j] * rot[:, i].conj()
            np.conjugate(pair_rot[:, g_split:], out=pair_rot[:, g_split:])
            self._g[blk] = pair_rot * (
                rot[:, d_k].conj() * rot[:, d_l] * d_vals
                * u1[:, c_k].conj() * u1[:, c_l])
        self.damping = _t2_damping(tau, exp.t2_s)
        self._pulse1 = _scaled_propagator(exp.pulse1, system, self.f_mw_hz)
        self._pulse2 = _scaled_propagator(exp.pulse2, system, self.f_mw_hz)
        self._rho1, self._k = {}, {}
        self._products_scale = self._products = None

    def tabulate(self, scales1: np.ndarray, scales2: np.ndarray) -> None:
        """Propagate each pulse at all of its node scales (1-d arrays) in one
        batched call, and keep per scale what the amplitudes read of it: the
        +1 coherences rho1 after pulse 1, and K after pulse 2 at its links
        (those of G[j, i], then the conjugate at those of G[i, j]).
        Replaces the tables of the previous call."""
        sup = self.supports
        (a, b), (k, l), (i, j) = sup.x, sup.rho, sup.pairs
        r1, r2 = self._pulse1(scales1), self._pulse2(scales2)
        _check_conserved(np.concatenate([r1, r2]), sup.mi_leak,
                         "pulse propagator", "m_i")
        rho = (r1 @ self._sigma0 @ _dagger(r1))[:, k, l]
        # K[q, p] = R2[i_p, a_q] conj R2[j_p, b_q], p the pair of column c
        q, c = sup.k
        p = sup.g[0][c] % i.size
        k2 = r2[:, i[p], a[q]] * r2[:, j[p], b[q]].conj()
        np.conjugate(k2[:, sup.k_split:], out=k2[:, sup.k_split:])
        self._rho1 = dict(zip(scales1.tolist(), rho))
        self._k = dict(zip(scales2.tolist(), k2))

    def _spread(self, scale1: float) -> np.ndarray:
        """The tabulated rho1 of ``scale1`` spread over the links, so that
        X = W @ spread: X[a_q, b_q] = sum of W[:, e] rho1[k_r, l_r] over
        its links."""
        sup = self.supports
        q, r = sup.links
        spread = np.zeros((q.size, sup.x[0].size), dtype=complex)
        spread[np.arange(q.size), q] = self._rho1[scale1][r]
        return spread

    def _link_products(self, scale1: float) -> np.ndarray:
        """X[:, q] G[:, c] at the K links (q, c), with X conjugated from
        ``k_split`` on (the links of G[i, j]), shape (n_tau, n_k), memoized
        on ``scale1``.  The links of each column c of G are adjacent, so G
        multiplies them by broadcasting."""
        if scale1 != self._products_scale:
            spread, n_g = self._spread(scale1), self._g.shape[1]
            q = self.supports.k[0]
            conj = slice(self.supports.k_split, None)
            out = np.empty((self._w.shape[0], q.size), dtype=complex)
            for blk in _blocks(out.shape[0]):
                x = self._w[blk] @ spread
                # "clip" (the indices are in range) writes straight to out
                np.take(x, q, axis=1, out=out[blk], mode="clip")
                np.conjugate(out[blk, conj], out=out[blk, conj])
                per_pair = out[blk].reshape(x.shape[0], n_g, -1)
                per_pair *= self._g[blk, :, None]
            self._products, self._products_scale = out, scale1
        return self._products

    def amplitudes(self, scale1: float, scales2: np.ndarray) -> np.ndarray:
        """Complex echo amplitudes at every tau for the pulse-1 scale
        ``scale1`` and each pulse-2 scale of the 1-d array ``scales2``, shape
        (n_tau, n), read from the tables of :meth:`tabulate`; scales missing
        from them are tabulated on their own."""
        keys = np.asarray(scales2, dtype=float).tolist()
        if scale1 not in self._rho1 or any(s not in self._k for s in keys):
            self.tabulate(np.array([scale1]), np.array(keys))
        # Tr[(Z + Z^H) G] over the refocused elements Z[i_p, j_p] =
        # (R2 X R2^H)[i_p, j_p] = sum_q X[a_q, b_q] K[q, p]: one product of
        # the link products with K at its links, a block of tau at a time
        k = np.stack([self._k[s] for s in keys], axis=1)
        products = self._link_products(scale1)
        out = np.empty((products.shape[0], k.shape[1]), dtype=complex)
        for blk in _blocks(out.shape[0]):
            np.matmul(products[blk], k, out=out[blk])
        return out


def run_two_pulse_echo(exp: EchoExperiment, *, scale1: float = 1.0,
                       scale2: float = 1.0, plan: _EchoPlan | None = None
                       ) -> EchoTrace:
    """Run the two-pulse echo experiment and sample V at each tau.

    ``scale1``/``scale2`` multiply the pulse rotation angles (used by the
    ensemble module for B1-inhomogeneity averaging; composites scale all
    segments together).  ``plan`` takes the experiment's :class:`_EchoPlan`,
    which an ensemble average builds once and shares across its nodes; the
    trace is the same with or without it.  The trace is multiplied by the
    plan's damping, exp(-2*tau/T2), or 1 when ``t2_s`` is not set.
    """
    if plan is None:
        plan = _EchoPlan(exp)
    amp = plan.amplitudes(scale1, np.array([scale2]))[:, 0]
    return _echo_trace(exp, plan.f_mw_hz, amp.real * plan.damping,
                       amp.imag.copy())


def _t2_damping(tau, t2_s: float | None):
    """The phenomenological echo decay exp(-2*tau/T2), or 1 without T2."""
    return 1.0 if t2_s is None else np.exp(-2.0 * tau / t2_s)


def _echo_trace(exp: EchoExperiment, f_mw_hz: float, v: np.ndarray,
                v_im: np.ndarray, **meta) -> EchoTrace:
    """The trace of ``exp`` at amplitudes ``v`` and residual ``v_im``, labelled
    with its run facts, ``f_mw_hz``, max |v_im| and ``meta``."""
    meta = {"engine": exp.engine, "m_i": exp.detect_m_i,
            "theta1_rad": exp.pulse1.angle, "theta2_rad": exp.pulse2.angle,
            "pulse2_composite": exp.pulse2.composite is not None,
            "f_mw_hz": f_mw_hz, "t2_s": exp.t2_s,
            "max_imag_residual": float(np.abs(v_im).max()), **meta}
    return EchoTrace(tau_s=exp.tau_grid.copy(), v=v, metadata=meta, v_im=v_im)


def _fit_single_cosine(tau: np.ndarray, v: np.ndarray, f0: float) -> float:
    """Least-squares fit of v ~ c0 + c1*cos(2*pi*f*tau) + s1*sin(2*pi*f*tau),
    that is of a cosine with a free phase; returns f."""
    from .spectral import _separable_fit

    def columns(x):
        ph = TWO_PI * x[0] * tau
        return np.stack([np.ones_like(tau), np.cos(ph), np.sin(ph)], axis=1)

    return float(_separable_fit(v, columns, [f0]).x[0])


def validate_aht(system: SpinSystemParams, tau_max: float = 30e-6,
                 n_points: int = 25) -> dict:
    """Cross-validate the secular average-Hamiltonian dynamics.

    Runs the ideal pi/2 - pi echo of the largest m_i up to 1 on all three
    engines over ``tau_max`` and reports the pairwise trace deviations and
    fitted modulation frequencies.  The exact and average-Hamiltonian
    engines differ through third-order hyperfine terms, so their modulation
    frequencies agree to a relative accuracy of order a/we; the stepped
    engine adds its own quadratic integration error on top of that.  A
    perturbative-regime warning is set when a/we exceeds 0.05.
    """
    m_i = float(next(m for m in projections(system.i) if m <= 1.0))
    a_over_we = abs(system.a_hz) / system.f_e_hz
    tau = np.linspace(tau_max / n_points, tau_max, n_points)
    d_hz = delta_hz(system)

    traces = {engine: run_two_pulse_echo(_ideal_echo(system, tau, m_i=m_i,
                                                     engine=engine))
              for engine in ENGINES}

    v_ah = traces["average-hamiltonian"].v
    scale = max(np.abs(v_ah).max(), 1e-30)
    report = {
        "a_over_we": a_over_we,
        "freq_rel_bound": max(5.0 * a_over_we, 1e-10),
        "perturbative_warning": a_over_we > 0.05,
        "tau_max_s": tau_max,
        "m_i": m_i,
        "delta_hz": d_hz,
    }
    if d_hz > 0:
        freqs = {engine: _fit_single_cosine(tau, trace.v, 2.0 * d_hz)
                 for engine, trace in traces.items()}
        f_ah = freqs["average-hamiltonian"]
        report["modulation_freq_hz"] = freqs
        report["freq_rel_dev_exact"] = abs(freqs["exact-lab-frame"] - f_ah) / f_ah
        report["freq_rel_dev_stepped"] = abs(
            freqs["stepped-rotating-frame"] - f_ah) / f_ah
    else:
        report["modulation_freq_hz"] = None
        report["freq_rel_dev_exact"] = 0.0
        report["freq_rel_dev_stepped"] = 0.0
    report["v_rel_dev_exact"] = float(
        np.abs(traces["exact-lab-frame"].v - v_ah).max() / scale)
    report["v_rel_dev_stepped"] = float(
        np.abs(traces["stepped-rotating-frame"].v - v_ah).max() / scale)
    report["passed"] = bool(
        report["freq_rel_dev_exact"] <= report["freq_rel_bound"]
        and report["freq_rel_dev_stepped"] <= 0.01)
    return report
