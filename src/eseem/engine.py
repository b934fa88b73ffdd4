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
``_Propagator.stack`` builds U(0, tau) for a whole tau grid at once, as an
(n_tau, d, d) stack (exactly the identity at tau = 0).  The rotating-frame
Hamiltonian obeys h_rot(t + t0) = R(t0) h_rot(t) R(t0)^H with the diagonal
R(t) = exp(+i*w_mw*Sz*t), so for every engine
U(t0, t0 + tau) = R(t0) U(0, tau) R(t0)^H; ``_Propagator.translate`` applies
that one conjugation.

average-hamiltonian
    Diagonal evolution under h_avg0 + h_avg1 (second-order secular
    dynamics; the fast default): a stack of diagonal phases.
exact-lab-frame
    Rotating-frame propagator assembled from the exact lab Hamiltonian,
    U(0, tau) = exp(+i*w_mw*Sz*tau) exp(-i*H0*tau);
    machine-precision reference dynamics, vectorized over tau from one
    eigendecomposition of H0.
stepped-rotating-frame
    Time-ordered product of unitary midpoint substeps of the periodic
    rotating-frame Hamiltonian; converges quadratically in the substep to
    the exact engine.  h_rot(t) = R(t) H' R(t)^H, so each substep is
    R(t_k) E R(t_k)^H with one E = exp(-i H' dt): one eigh of H' per
    factory.  Whole periods come from the eigenphases of the unitary period
    product P, found for each block of equal M = m_s + m_i by one eigh of
    the Hermitian (P + P^H)/2 + c (P - P^H)/(2i), c = 1/sqrt(3)
    (``_unitary_eigen``).

Echo kernel
-----------
One kernel contracts the stacks for every engine, in two stages.  The
free evolution enters as U1(tau) = U(0, tau) and G(tau) = U2(tau)^H D U2(tau),
with U2(tau) = U(tau, 2 tau) = R(tau) U1(tau) R(tau)^H and D the detection
operator, because Tr[U2 Z U2^H D] = Tr[Z G].

Two conservation laws decide which elements can be nonzero.  The free
evolution conserves M = m_s + m_i (the hyperfine coupling a S.I only trades
m_s for m_i), and the pulses act on the electron alone, so they conserve
m_i.  ``_supports`` derives four index sets from the basis once per
(S, I, m_i); the counts are for S = 3/2, I = 1 (d = 12):

* rho1, the +1 coherences after pulse 1: electron order +1 with m_i
  unchanged (9 of 144);
* X = U1 rho1 U1^H: M up by 1 (25);
* the refocused pairs (i, j): order -1 with |M_j - M_i| = 1, the only
  pairs where G can be nonzero (12 of the 27 of order -1);
* D = Sy x P_mi: its nonzeros (6).

The kernel checks these laws rather than assume them: an element of the
U1 stack between M blocks, or of a pulse propagator between m_i blocks,
above ``CONSERVATION_TOL`` times the largest element raises
``LinAlgError`` rather than drop signal.

Per experiment (``_EchoPlan``), everything that does not depend on the
pulse scales of an ensemble node is built once: the products
W[tau, e] = U1[a_q, k_r] conj U1[b_q, l_r] over the 55 links e = (q, r)
between an X element q = (a, b) and a rho1 element r = (k, l) in the same
M block, so that X = W @ (rho1 spread over the links); G[j, i] and G[i, j]
at the refocused pairs, the second for the Hermitian completion, summed
over D's nonzeros from the gathered U1 elements and their frame phases;
the T2 damping (1 without T2); one scale -> propagator factory per pulse;
and X(tau), memoized on the pulse-1 scale, which stays fixed over the nodes
unless both pulses share the B1 factor.  The stacks are built in blocks of
``TAU_BLOCK`` points, which bounds the temporaries whatever the grid size.

Per node, the refocused elements S = (R2 X R2^H)[i, j] are one product
X @ K of the (n_tau, 25) coherences with the (25, 12) matrix
K[q, p] = R2[i_p, a_q] conj R2[j_p, b_q], and the amplitude is
sum S G[j, i] + conj(S) G[i, j].  The imaginary part is kept as the
roundoff residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .hamiltonians import (TWO_PI, _f_mw_effective, delta_hz, h0_lab, h_avg0,
                           h_avg1, h_rot_t, line_center_hz)
from .pulses import PulseSpec, _scaled_propagator
from .spinops import (ProductBasis, kron, multiplicity, projector_mi,
                      spin_matrices)
from .system import SpinSystemParams

ENGINES = ("average-hamiltonian", "exact-lab-frame", "stepped-rotating-frame")

MIN_STEPS_PER_PERIOD = 20

# tau points per block when building the stacks (see "Echo kernel" above);
# 128 ran about 5 % faster than 64 on 512-point traces
TAU_BLOCK = 128

# the stepped engine's one-period product P: the weight c of its Hermitian
# form in _unitary_eigen, and the largest off-diagonal of Q^H P Q accepted
# (roundoff gives at most 1e-14 on the presets; a mixed pair gives about
# the gap between its two eigenphases)
_UNITARY_MIX = 1.0 / np.sqrt(3.0)
UNITARY_OFFDIAG_TOL = 1e-12

# the largest element a free-evolution propagator may have between M blocks,
# or a pulse propagator between m_i blocks, relative to its largest element:
# the echo kernel contracts only the elements these conservation laws allow.
# The pulses and the average-Hamiltonian engine leave exact zeros.  Roundoff
# leaks 1.4e-14 at most from the stepped engine, whose whole periods are
# exactly block diagonal, and from the dense eigh of H0 in the exact engine
# 1e-15 on the presets, 4e-13 at S = 5/2, I = 3/2 and 1e-12 over 1 ms at a
# level crossing between M blocks (a = 2 f_I)
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
        if not np.all(np.isfinite(self.v)):
            raise ValueError("echo amplitudes must be finite")


@dataclass
class EchoExperiment:
    """Specification of one two-pulse echo run."""

    system: SpinSystemParams
    pulse1: PulseSpec
    pulse2: PulseSpec
    tau_grid: np.ndarray
    detect_m_i: float
    engine: str = "average-hamiltonian"
    resonance_offset_hz: float | None = None
    t2_s: float | None = None
    steps_per_period: int = 40

    def __post_init__(self):
        self.tau_grid = np.asarray(self.tau_grid, dtype=float)
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.tau_grid.ndim != 1 or self.tau_grid.size == 0:
            raise ValueError("tau_grid must be a non-empty 1-d array")
        if np.any(self.tau_grid < 0) or np.any(np.diff(self.tau_grid) <= 0):
            raise ValueError("tau_grid must be non-negative and strictly increasing")
        # validates the projection against the nuclear spin
        projector_mi(self.system.i, self.detect_m_i)
        if self.t2_s is not None and self.t2_s <= 0:
            raise ValueError("t2_s must be positive")
        if self.steps_per_period < MIN_STEPS_PER_PERIOD:
            raise ValueError(
                f"stepped engine substep too coarse: need >= "
                f"{MIN_STEPS_PER_PERIOD} steps per microwave period")


def microwave_freq_hz(exp: EchoExperiment) -> float:
    """Rotating-frame frequency for the run.

    ``resonance_offset_hz`` positions the frame relative to the detected
    line center (offset = line - frame); if unset, an explicit
    ``system.f_mw_hz`` is used; otherwise the frame sits exactly on the
    detected line.
    """
    if exp.resonance_offset_hz is not None and exp.system.f_mw_hz is not None:
        raise ValueError("give either resonance_offset_hz or f_mw_hz, not both")
    center = line_center_hz(exp.system, exp.detect_m_i)
    if exp.resonance_offset_hz is not None:
        return center - exp.resonance_offset_hz
    if exp.system.f_mw_hz is not None:
        return exp.system.f_mw_hz
    return center


def detection_operator(system: SpinSystemParams, m_i: float) -> np.ndarray:
    """Sy x P_mi, the line-selective transverse detection operator."""
    _, sy, _ = spin_matrices(system.s)
    return kron(sy, projector_mi(system.i, m_i))


def _check_conserved(u: np.ndarray, leak: np.ndarray, what: str,
                     label: str) -> None:
    """Raise unless the elements of ``u`` (a matrix or a stack of them) on
    the ``leak`` mask stay within ``CONSERVATION_TOL`` of its scale."""
    mag = np.abs(u)
    worst = mag[..., leak].max(initial=0.0)
    if worst > CONSERVATION_TOL * mag.max():
        raise np.linalg.LinAlgError(
            f"{what} propagator does not conserve {label}: element "
            f"{worst:.3g} between {label} blocks")


def _total_m_blocks(system: SpinSystemParams) -> list[np.ndarray]:
    """Basis indices of each value of M = m_s + m_i, which H0 conserves."""
    basis = system.basis
    total = basis.m_s_diagonal() + basis.m_i_diagonal()
    return [np.nonzero(total == m)[0] for m in np.unique(total)]


def _unitary_eigen(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvectors Q and eigenphases phi of a unitary u, u = Q e^(i phi) Q^H,
    or of each unitary of a stack.

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
    return q, np.angle(diag)


def _unitary_eigen_blocks(u: np.ndarray, blocks: list[np.ndarray]
                          ) -> tuple[np.ndarray, np.ndarray]:
    """``_unitary_eigen`` of a unitary that is block diagonal on ``blocks``,
    one stack of blocks per block size; Q is exactly zero between blocks."""
    q = np.zeros(u.shape, dtype=complex)
    angles = np.empty(u.shape[0])
    for size in sorted({idx.size for idx in blocks}):
        rows = np.array([idx for idx in blocks if idx.size == size])
        sub = (rows[:, :, None], rows[:, None, :])
        q[sub], angles[rows] = _unitary_eigen(u[sub])
    return q, angles


class _Propagator:
    """Free-evolution propagator factory for one engine/frame, with the
    expensive diagonalizations cached across tau points."""

    def __init__(self, engine: str, system: SpinSystemParams,
                 f_mw_hz: float, steps_per_period: int = 40):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        self.engine = engine
        self.system = system
        self.f_mw_hz = f_mw_hz
        self.steps_per_period = steps_per_period
        dim = system.basis.dim
        self._eye = np.eye(dim, dtype=complex)
        self._mz = system.basis.m_s_diagonal()
        if engine == "average-hamiltonian":
            h = h_avg0(system, f_mw_hz) + h_avg1(system)
            self._phases = np.diag(h).real
        elif engine == "exact-lab-frame":
            self._w0, self._v0 = np.linalg.eigh(h0_lab(system))
            # row k holds the projector v_k v_k^H, flattened
            self._projectors = (self._v0.T[:, :, None]
                                * self._v0.conj().T[:, None, :]
                                ).reshape(dim, dim * dim)
        else:
            if steps_per_period < MIN_STEPS_PER_PERIOD:
                raise ValueError(
                    f"stepped engine substep too coarse: need >= "
                    f"{MIN_STEPS_PER_PERIOD} steps per microwave period")
            self._w, self._v = np.linalg.eigh(h_rot_t(system, 0.0, f_mw_hz))
            period = self._midpoint_run(steps_per_period,
                                        1.0 / (f_mw_hz * steps_per_period))
            # one eigenbasis per M block: a dense one may mix close
            # eigenphases of two blocks, and raising it to millions of
            # periods spreads that roundoff between the blocks
            self._q, self._angles = _unitary_eigen_blocks(
                period, _total_m_blocks(system))

    def stack(self, tau) -> np.ndarray:
        """Propagators U(0, tau[k]), shape (n_tau, d, d); every propagator
        with tau = 0 is exactly the identity."""
        tau = np.asarray(tau, dtype=float)
        if np.any(tau < 0):
            raise ValueError("tau must be non-negative")
        if self.engine == "average-hamiltonian":
            out = np.zeros(tau.shape + self._eye.shape, dtype=complex)
            diag = np.arange(self._eye.shape[0])
            out[:, diag, diag] = np.exp(-1j * self._phases * tau[:, None])
        elif self.engine == "exact-lab-frame":
            # exp(-i H0 tau) = sum_k e^(-i w_k tau) v_k v_k^H, one product
            phases = np.exp(-1j * self._w0 * tau[:, None])
            core = (phases @ self._projectors).reshape(
                tau.shape + self._eye.shape)
            out = self._frame(tau[:, None])[:, :, None] * core
        else:
            out = np.array([self._stepped(t) for t in tau])
        out[tau == 0.0] = self._eye
        return out

    def translate(self, t_start, u) -> np.ndarray:
        """U(t_start, t_start + tau) = R(t_start) U(0, tau) R(t_start)^H for
        one propagator ``u`` or a stack with one ``t_start`` per matrix."""
        r = self._frame(np.asarray(t_start, dtype=float)[..., None])
        return (r[..., :, None] * u) * r[..., None, :].conj()

    def _frame(self, t: float | np.ndarray) -> np.ndarray:
        """Diagonal of the frame rotation R(t) = exp(+i*w_mw*Sz*t)."""
        return np.exp(1j * TWO_PI * self.f_mw_hz * self._mz * t)

    def _midpoint_run(self, n_sub: int, dt: float) -> np.ndarray:
        """Product of ``n_sub`` midpoint substeps of length ``dt`` from t = 0,
        R(t_last) (E R(-dt))^(n_sub-1) E R(t_0)^H with t_k = (k + 1/2) dt."""
        e = (self._v * np.exp(-1j * self._w * dt)) @ self._v.conj().T
        u = np.linalg.matrix_power(e * self._frame(-dt), n_sub - 1) @ e
        return ((self._frame((n_sub - 0.5) * dt)[:, None] * u)
                * self._frame(0.5 * dt).conj())

    def _stepped(self, tau: float) -> np.ndarray:
        period = 1.0 / self.f_mw_hz
        dt = period / self.steps_per_period
        n_periods = int(np.floor(tau / period + 1e-9))
        remainder = tau - n_periods * period
        # whole periods from the eigenphases, multiplied exactly
        u = (self._q * np.exp(1j * n_periods * self._angles)) @ self._q.conj().T
        if remainder > 1e-16:
            # R(n_periods * period) is a scalar, so the rest starts at t = 0
            n_sub = max(1, int(np.ceil(remainder / dt - 1e-9)))
            u = self._midpoint_run(n_sub, remainder / n_sub) @ u
        return u


def free_evolution(engine: str, system: SpinSystemParams, tau: float,
                   t_start: float = 0.0, *, f_mw_hz: float | None = None,
                   steps_per_period: int = 40) -> np.ndarray:
    """Unitary free-evolution propagator over [t_start, t_start + tau].

    ``f_mw_hz`` defaults to the system's frame (or the bare electron Zeeman
    frequency).  For one-off calls; batch users should reuse
    :class:`_Propagator` via :func:`run_two_pulse_echo`.
    """
    prop = _Propagator(engine, system, _f_mw_effective(system, f_mw_hz),
                       steps_per_period)
    return prop.translate(t_start, prop.stack([tau])[0])


def thermal_deviation(system: SpinSystemParams) -> np.ndarray:
    """Initial deviation density matrix, -Sz x 1 (traceless).

    The sign is the physical one for a positive electron Zeeman term
    (lower-energy projections are more populated) and makes the two-pulse
    echo amplitude positive at small tau.
    """
    _, _, sz = spin_matrices(system.s)
    return kron(-sz, np.eye(multiplicity(system.i)))


def _dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class _Supports:
    """The elements the echo kernel contracts for one (S, I, detected m_i),
    as (row, column) index arrays; the counts are for S = 3/2, I = 1.

    rho    electron order +1 with m_i unchanged: rho1 (9)
    x      M up by 1: X = U1 rho1 U1^H (25)
    pairs  (i, j) of order -1 with |M_j - M_i| = 1: the refocused elements
           where G = U2^H D U2 can be nonzero (12)
    det    the nonzeros of D = Sy x P_mi (6)

    ``links`` holds the (q, r) with M(a_q) = M(k_r): the rho1 elements r
    that U1 carries onto each X element q (55).  ``m_leak`` and ``mi_leak``
    mark the elements that change M and m_i.
    """

    rho: tuple[np.ndarray, np.ndarray]
    x: tuple[np.ndarray, np.ndarray]
    pairs: tuple[np.ndarray, np.ndarray]
    det: tuple[np.ndarray, np.ndarray]
    links: tuple[np.ndarray, np.ndarray]
    m_leak: np.ndarray
    mi_leak: np.ndarray


@lru_cache(maxsize=None)
def _supports(s: float, i: float, m_i: float) -> _Supports:
    basis = ProductBasis(s, i)
    order = basis.electron_order()
    nuclear = basis.m_i_diagonal()
    total = basis.m_s_diagonal() + nuclear
    d_mi = nuclear[:, None] - nuclear[None, :]
    d_m = order + d_mi  # change of M, exact in floats
    line = np.abs(nuclear - m_i) < 1e-9
    rho = np.nonzero((order == 1) & (d_mi == 0))
    x = np.nonzero(d_m == 1)
    sup = _Supports(
        rho=rho, x=x,
        pairs=np.nonzero((order == -1) & (np.abs(d_m) == 1)),
        det=np.nonzero((np.abs(order) == 1) & line[:, None] & line),
        links=np.nonzero(total[x[0], None] == total[rho[0]]),
        m_leak=d_m != 0, mi_leak=d_mi != 0)
    for value in vars(sup).values():  # one instance serves every plan
        for arr in value if isinstance(value, tuple) else (value,):
            arr.flags.writeable = False
    return sup


class _EchoPlan:
    """Everything of one echo experiment that does not depend on the pulse
    scales of an ensemble node, built once; see "Echo kernel" above.

    Holds the supports, the products W(tau) of U1 elements along the links,
    G(tau) = U2^H D U2 at the refocused pairs, the T2 damping, one scale ->
    propagator factory per pulse, and a one-entry memo of the pulse-1
    coherences X(tau) keyed on ``scale1``.
    """

    def __init__(self, exp: EchoExperiment):
        system = exp.system
        self.f_mw_hz = microwave_freq_hz(exp)
        prop = _Propagator(exp.engine, system, self.f_mw_hz,
                           exp.steps_per_period)
        self.supports = sup = _supports(system.s, system.i, exp.detect_m_i)
        self._sigma0 = thermal_deviation(system)
        (a, b), (k, l), (i, j) = sup.x, sup.rho, sup.pairs
        q, r = sup.links
        d_k, d_l = sup.det
        d_vals = detection_operator(system, exp.detect_m_i)[sup.det]
        # flat indices row * dim + column into each propagator of the stack:
        # W[:, e] = U1[a_q, k_r] conj U1[b_q, l_r] for the link e = (q, r),
        # and the U1 elements that G[j_p, i_p] and G[i_p, j_p] take through
        # D's elements (k_e, l_e)
        dim = system.basis.dim
        ak, bl = a[q] * dim + k[r], b[q] * dim + l[r]
        kj, li = d_k[:, None] * dim + j, d_l[:, None] * dim + i
        ki, lj = d_k[:, None] * dim + i, d_l[:, None] * dim + j
        tau = exp.tau_grid
        self._w = np.empty((tau.size, q.size), dtype=complex)
        self._g_ji = np.empty((tau.size, i.size), dtype=complex)
        self._g_ij = np.empty_like(self._g_ji)
        for start in range(0, tau.size, TAU_BLOCK):
            blk = slice(start, start + TAU_BLOCK)
            u1 = prop.stack(tau[blk])
            _check_conserved(u1, sup.m_leak, "free evolution", "M")
            u1 = u1.reshape(u1.shape[0], -1)
            self._w[blk] = u1[:, ak] * u1[:, bl].conj()
            # U2 = R(tau) U1 R(tau)^H with the diagonal frame rotation R: its
            # phases factor out of each sum over D's elements
            rot = prop._frame(tau[blk, None])
            d_rot = (rot[:, d_k].conj() * rot[:, d_l] * d_vals)[:, :, None]
            pair_rot = rot[:, j] * rot[:, i].conj()
            self._g_ji[blk] = pair_rot * (
                d_rot * u1[:, kj].conj() * u1[:, li]).sum(axis=1)
            self._g_ij[blk] = pair_rot.conj() * (
                d_rot * u1[:, ki].conj() * u1[:, lj]).sum(axis=1)
        self.damping = (1.0 if exp.t2_s is None
                        else np.exp(-2.0 * tau / exp.t2_s))
        self._pulse1 = _scaled_propagator(exp.pulse1, system, self.f_mw_hz)
        self._pulse2 = _scaled_propagator(exp.pulse2, system, self.f_mw_hz)
        self._x_scale = None
        self._x = None

    def _pulse(self, factory, scale: float) -> np.ndarray:
        u = factory(scale)
        _check_conserved(u, self.supports.mi_leak, "pulse", "m_i")
        return u

    def _coherences(self, scale1: float) -> np.ndarray:
        """X(tau) = U1 rho1 U1^H at its support, shape (n_tau, n_x), with
        rho1 the +1 coherences after pulse 1."""
        if scale1 != self._x_scale:
            sup = self.supports
            r1 = self._pulse(self._pulse1, scale1)
            rho = (r1 @ self._sigma0 @ r1.conj().T)[sup.rho]
            # X[a_q, b_q] = sum of W[:, e] rho1[k_r, l_r] over its links
            q, r = sup.links
            spread = np.zeros((q.size, sup.x[0].size), dtype=complex)
            spread[np.arange(q.size), q] = rho[r]
            self._x = self._w @ spread
            self._x_scale = scale1
        return self._x

    def amplitudes(self, scale1: float, scale2: float) -> np.ndarray:
        """Complex echo amplitude at every tau for the given pulse scales."""
        x = self._coherences(scale1)
        r2 = self._pulse(self._pulse2, scale2)
        (a, b), (i, j) = self.supports.x, self.supports.pairs
        # S[:, p] = (R2 X R2^H)[i_p, j_p] = sum_q X[a_q, b_q] K[q, p]
        k = r2[i, a[:, None]] * r2[j, b[:, None]].conj()
        s = x @ k
        # Tr[(Z + Z^H) G] over the refocused elements Z[i, j] = S
        return (s * self._g_ji + s.conj() * self._g_ij).sum(axis=1)


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
    amp = plan.amplitudes(scale1, scale2)
    v = amp.real * plan.damping
    v_im = amp.imag.copy()
    meta = {
        "engine": exp.engine,
        "m_i": exp.detect_m_i,
        "theta1_rad": exp.pulse1.angle,
        "theta2_rad": exp.pulse2.angle,
        "pulse2_composite": exp.pulse2.composite is not None,
        "f_mw_hz": plan.f_mw_hz,
        "t2_s": exp.t2_s,
        "max_imag_residual": float(np.abs(v_im).max()),
    }
    return EchoTrace(tau_s=exp.tau_grid.copy(), v=v, metadata=meta, v_im=v_im)


def _fit_single_cosine(tau: np.ndarray, v: np.ndarray,
                       f0: float) -> tuple[float, float]:
    """Least-squares fit of v ~ c0 + c1*cos(2*pi*f*tau) + s1*sin(2*pi*f*tau),
    that is of a cosine with a free phase; returns (f, rms residual)."""
    from .spectral import _separable_fit

    def columns(x):
        ph = TWO_PI * x[0] * tau
        return np.stack([np.ones_like(tau), np.cos(ph), np.sin(ph)], axis=1)

    fit = _separable_fit(v, columns, [f0])
    return float(fit.x[0]), float(np.sqrt(np.mean(fit.residual ** 2)))


def validate_aht(system: SpinSystemParams, tau_max: float = 30e-6,
                 n_points: int = 25, *, m_i: float | None = None,
                 steps_per_period: int = 40) -> dict:
    """Cross-validate the secular average-Hamiltonian dynamics.

    Runs the ideal pi/2 - pi echo on all three engines over ``tau_max`` and
    reports the pairwise trace deviations and fitted modulation frequencies.
    The exact and average-Hamiltonian engines differ through third-order
    hyperfine terms, so their modulation frequencies agree to a relative
    accuracy of order a/we; the stepped engine adds its own quadratic
    integration error on top of that.  A perturbative-regime warning is set
    when a/we exceeds 0.05.
    """
    if m_i is None:
        m_i = min(system.i, 1.0)
    a_over_we = abs(system.a_hz) / system.f_e_hz
    tau = np.linspace(tau_max / n_points, tau_max, n_points)
    d_hz = delta_hz(system)

    traces = {}
    for engine in ENGINES:
        exp = EchoExperiment(
            system=system,
            pulse1=PulseSpec(angle=np.pi / 2),
            pulse2=PulseSpec(angle=np.pi),
            tau_grid=tau, detect_m_i=m_i, engine=engine,
            resonance_offset_hz=0.0, steps_per_period=steps_per_period)
        traces[engine] = run_two_pulse_echo(exp)

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
        freqs = {}
        for engine in ENGINES:
            freqs[engine], _ = _fit_single_cosine(tau, traces[engine].v,
                                                  2.0 * d_hz)
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
