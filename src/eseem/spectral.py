"""Spectral analysis of echo decays: FFT magnitude spectra, peak picking
with parabolic interpolation, and damped-cosine model fitting.

Echo decays carry a large DC baseline, so traces are mean-subtracted and
Hann-windowed by default before transforming; zero padding refines the
frequency grid for peak interpolation.  The frequency axis is the
modulation frequency versus tau (cycles per second of interpulse delay).

Fits are separable (variable projection): a small bounded
Levenberg-Marquardt solver in numpy moves the nonlinear parameters, and the
linear amplitudes are solved by least squares at every trial point.  The
two-cosine fit starts from the exact least-squares profile over the
modulation frequency, evaluated on a whole frequency grid by two FFTs
(a harmonic least-squares periodogram), not from the spectrum peaks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import EchoTrace
from .hamiltonians import TWO_PI

WINDOWS = ("rectangular", "hann")
BASELINES = ("mean", "exp", "none")


@dataclass
class Spectrum:
    """Magnitude spectrum on a uniform frequency grid from 0 to Nyquist."""

    freq_hz: np.ndarray
    magnitude: np.ndarray
    window: str
    zero_pad_factor: int
    n_time: int
    dt_s: float

    def magnitude_at(self, f_hz: float) -> float:
        """Linearly interpolated magnitude at an arbitrary frequency."""
        return float(np.interp(f_hz, self.freq_hz, self.magnitude))


@dataclass
class PeakList:
    peaks: list[tuple[float, float]] = field(default_factory=list)

    def frequencies(self) -> list[float]:
        return [f for f, _ in self.peaks]


def _window_array(window: str, n: int) -> np.ndarray:
    if window == "rectangular":
        return np.ones(n)
    if window == "hann":
        return np.hanning(n)
    raise ValueError(f"unknown window {window!r}")


def _uniform_step(tau: np.ndarray) -> float:
    """The step of a uniform tau grid (relative tolerance 1e-9)."""
    steps = np.diff(tau)
    dt = steps.mean()
    if np.abs(steps - dt).max() > 1e-9 * dt:
        raise ValueError("non-uniform tau grid")
    return float(dt)


def _exp_baseline(tau: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Best-fit c*exp(-2*tau/T2) baseline of a damped trace."""
    if np.abs(v).max() == 0:
        return np.zeros_like(v)
    fit = _separable_fit(v, _exp_columns(tau), [_envelope_rate_guess(tau, v)])
    return v + fit.residual


def fft_magnitude(trace: EchoTrace, window: str = "hann",
                  zero_pad_factor: int = 4, baseline: str = "mean") -> Spectrum:
    """Baseline-corrected, windowed, zero-padded magnitude spectrum.

    Requires a uniform tau grid (relative tolerance 1e-9).  ``baseline``
    removes the large DC content that would otherwise mask the kilohertz
    modulation peaks: ``mean`` subtracts the trace mean (default),
    ``exp`` subtracts a fitted c*exp(-2*tau/T2) decay (sharper low-frequency
    rejection for T2-damped traces), ``none`` transforms the raw trace.
    """
    if zero_pad_factor < 1:
        raise ValueError("zero_pad_factor must be a positive integer")
    if baseline not in BASELINES:
        raise ValueError(f"unknown baseline mode {baseline!r}")
    tau = trace.tau_s
    if tau.size < 4:
        raise ValueError("trace too short for spectral analysis")
    dt = _uniform_step(tau)
    if baseline == "mean":
        x = trace.v - trace.v.mean()
    elif baseline == "exp":
        x = trace.v - _exp_baseline(tau, trace.v)
    else:
        x = trace.v.copy()
    w = _window_array(window, x.size)
    n_pad = int(zero_pad_factor) * x.size
    spec = np.abs(np.fft.rfft(x * w, n=n_pad))
    freq = np.fft.rfftfreq(n_pad, d=dt)
    return Spectrum(freq_hz=freq, magnitude=spec, window=window,
                    zero_pad_factor=int(zero_pad_factor),
                    n_time=x.size, dt_s=float(dt))


def find_peaks(spec: Spectrum, rel_threshold: float = 0.05) -> PeakList:
    """Strict local maxima above ``rel_threshold`` * max magnitude,
    refined by parabolic interpolation on the log magnitude."""
    mag = spec.magnitude
    if mag.size < 3 or mag.max() <= 0:
        return PeakList()
    floor = rel_threshold * mag.max()
    inner = mag[1:-1]
    is_peak = (inner > mag[:-2]) & (inner > mag[2:]) & (inner >= floor)
    peaks = []
    tiny = 1e-300
    for k in np.nonzero(is_peak)[0] + 1:
        la, lb, lc = np.log(mag[k - 1] + tiny), np.log(mag[k] + tiny), \
            np.log(mag[k + 1] + tiny)
        denom = la - 2 * lb + lc
        shift = 0.0 if denom == 0 else 0.5 * (la - lc) / denom
        shift = float(np.clip(shift, -0.5, 0.5))
        f = (k + shift) * (spec.freq_hz[1] - spec.freq_hz[0])
        height = float(np.exp(lb - 0.25 * (la - lc) * shift))
        peaks.append((float(f), height))
    peaks.sort()
    return PeakList(peaks=peaks)


FIT_MODELS = ("exp", "exp-two-cosine")
# step, residual and gradient tolerance of every fit, and its evaluation cap
FIT_TOL = 1e-10
MAX_EVALUATIONS = 200
# relative forward-difference step of the Jacobian
_JAC_STEP = float(np.sqrt(np.finfo(float).eps))
# zero padding of the two-cosine profile: a grid step of 1/(8*T) for a trace
# of length T
PROFILE_PAD = 8


@dataclass
class FitResult:
    """``delta_resolved`` (two-cosine model only, else None) is whether the
    fitted delta completes a cycle over the trace, delta * T >= 1; below
    that the trace cannot tell a slow modulation from the decay."""

    model: str
    params: dict
    residual_norm: float
    converged: bool
    n_evaluations: int
    delta_resolved: bool | None = None


@dataclass
class _SeparableFit:
    """Solution x, amplitudes c and residual columns(x) @ c - v of one
    variable-projection fit, whether it met a tolerance within the cap, and
    the number of ``columns`` evaluations it spent."""

    x: np.ndarray
    amplitudes: np.ndarray
    residual: np.ndarray
    converged: bool
    n_evaluations: int

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.residual))


def _separable_fit(v: np.ndarray, columns, x0) -> _SeparableFit:
    """Variable-projection least squares of v ~ columns(x) @ c.

    Only the nonlinear parameters x (bounded below by 0) are iterated; at
    every trial x the linear amplitudes c are the ``lstsq`` solution for the
    (n, k) matrix ``columns(x)`` (Golub & Pereyra, SIAM J. Numer. Anal. 10,
    413, 1973).  The iteration is Levenberg-Marquardt with Marquardt's
    diagonal scaling on a forward-difference Jacobian of the projected
    residual, with steps projected onto x >= 0.  It stops when an accepted
    step lowers the squared residual by at most ``FIT_TOL`` relative, when a
    step is at most ``FIT_TOL`` of |x|, or when every free gradient component
    is at most ``FIT_TOL`` in cosine with the residual (the tests of MINPACK's
    lmdif), and gives up after ``MAX_EVALUATIONS`` evaluations of
    ``columns``, Jacobian columns included.
    """
    n_evaluations = 0

    def evaluate(x):
        nonlocal n_evaluations
        n_evaluations += 1
        a = columns(x)
        c = np.linalg.lstsq(a, v, rcond=None)[0]
        return a @ c - v, c

    x = np.maximum(np.asarray(x0, dtype=float), 0.0)
    r, c = evaluate(x)
    cost = r @ r
    damping, growth, scale = 1e-3, 2.0, np.zeros(x.size)
    converged = False
    while not converged and n_evaluations + x.size < MAX_EVALUATIONS:
        h = _JAC_STEP * np.maximum(1.0, x)  # forward, so x + h stays >= 0
        jac = np.stack([(evaluate(x + dx)[0] - r) / dx[k]
                        for k, dx in enumerate(np.diag(h))], axis=1)
        grad = jac.T @ r
        cosine = np.abs(grad) / np.maximum(
            np.linalg.norm(jac, axis=0) * np.sqrt(cost), np.finfo(float).tiny)
        free = (x > 0) | (grad < 0)  # at the bound, only a move into x > 0
        if cosine[free].max(initial=0.0) <= FIT_TOL:
            converged = True
            break
        jtj = jac.T @ jac
        scale = np.maximum(scale, np.diag(jtj))
        system = jtj[np.ix_(free, free)]
        while n_evaluations < MAX_EVALUATIONS:
            step = np.zeros(x.size)  # parameters held at the bound stay
            step[free] = np.linalg.lstsq(
                system + damping * np.diag(scale[free]), -grad[free],
                rcond=None)[0]
            trial = np.maximum(x + step, 0.0)
            step = trial - x
            small_step = (np.linalg.norm(step)
                          <= FIT_TOL * (FIT_TOL + np.linalg.norm(x)))
            r_trial, c_trial = evaluate(trial)
            cost_trial = r_trial @ r_trial
            predicted = -(2 * grad @ step + step @ jtj @ step)
            if cost_trial < cost:
                gain = (cost - cost_trial) / predicted if predicted > 0 else 1
                converged = small_step or cost - cost_trial <= FIT_TOL * cost
                x, r, c, cost = trial, r_trial, c_trial, cost_trial
                damping *= max(1 / 3, 1 - (2 * gain - 1) ** 3)
                growth = 2.0
                break
            if small_step:
                converged = True
                break
            damping *= growth
            growth *= 2.0
    return _SeparableFit(x=x, amplitudes=c, residual=r,
                         converged=bool(converged),
                         n_evaluations=n_evaluations)


def _exp_columns(tau: np.ndarray):
    """The decay exp(-r*tau) as one column, for x = [r] with r = 2/T2."""
    return lambda x: np.exp(-x[0] * tau)[:, None]


def _envelope_rate_guess(tau: np.ndarray, v: np.ndarray) -> float:
    """Decay rate 2/T2 from a log-linear fit of the |v| upper envelope."""
    n_bins = max(4, tau.size // 32)
    edges = np.linspace(0, tau.size, n_bins + 1, dtype=int)
    ts, amps = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi > lo:
            k = lo + int(np.argmax(np.abs(v[lo:hi])))
            ts.append(tau[k])
            amps.append(abs(v[k]))
    ts = np.asarray(ts)
    amps = np.asarray(amps)
    good = amps > 1e-12 * amps.max()
    if good.sum() < 2:
        raise ValueError("degenerate trace: no usable envelope")
    slope, _ = np.polyfit(ts[good], np.log(amps[good]), 1)
    return float(-slope) if slope < 0 else 0.2 / (tau[-1] - tau[0])


def _two_cosine_columns(tau: np.ndarray):
    """exp(-r*tau) * [1, cos(2*pi*d*tau), cos(4*pi*d*tau)], x = [d, r]."""
    def columns(x):
        ph = TWO_PI * x[0] * tau
        return np.exp(-x[1] * tau)[:, None] * np.stack(
            [np.ones_like(tau), np.cos(ph), np.cos(2 * ph)], axis=1)
    return columns


def _two_cosine_profile(tau: np.ndarray, v: np.ndarray,
                        rate: float) -> tuple[np.ndarray, np.ndarray]:
    """min over c of |v - A(d) c|^2 for A(d) = _two_cosine_columns at rate r,
    exactly, on the grid d_k = k / (PROFILE_PAD * n * dt) with 4 d_k below
    the sampling rate 1/dt, that is 1 <= k < PROFILE_PAD * n / 4.

    The profile is |v|^2 - b^T G^-1 b with the Gram matrix
    G[p, q] = sum e^2 cos(2 pi p d tau) cos(2 pi q d tau) and
    b[p] = sum e v cos(2 pi p d tau), e = exp(-r*tau).  By
    cos x cos y = (cos(x - y) + cos(x + y)) / 2, G needs the cosine sums of
    e^2 at 0..4 d and b those of e*v at 0..2 d; one zero-padded FFT of each
    gives them on the whole grid, since m*d_k falls on FFT bin m*k
    (Zechmeister & Kuerster, A&A 496, 577, 2009).  The grid starts at
    tau[0], not 0, hence the phase factor.  Returns (d_k, profile).
    """
    dt = _uniform_step(tau)
    n_fft = PROFILE_PAD * tau.size
    k = np.arange(1, n_fft // 4)  # 4 d_k below the sampling rate
    e = np.exp(-rate * tau)

    def cosine_sums(w, harmonics):  # (harmonics + 1, k.size)
        bins = np.arange(harmonics + 1)[:, None] * k
        phase = np.exp(-1j * TWO_PI * bins / (n_fft * dt) * tau[0])
        return (np.fft.fft(w, n_fft)[bins] * phase).real

    c_ee = cosine_sums(e * e, 4)
    b = cosine_sums(e * v, 2).T
    gram = np.empty((k.size, 3, 3))
    for p in range(3):
        for q in range(3):
            gram[:, p, q] = 0.5 * (c_ee[abs(p - q)] + c_ee[p + q])
    fitted = np.einsum("kp,kp->k", b,
                       np.linalg.solve(gram, b[..., None])[..., 0])
    return k / (n_fft * dt), v @ v - fitted


def _lowest_minima(profile: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` lowest interior local minima of ``profile``,
    or of its global minimum when it has none."""
    inner = profile[1:-1]
    minima = np.nonzero((inner < profile[:-2]) & (inner <= profile[2:]))[0] + 1
    if minima.size == 0:
        return np.array([np.argmin(profile)])
    return minima[np.argsort(profile[minima], kind="stable")[:count]]


def _t2(rate: float) -> float:
    """T2 = 2/rate; a rate at its bound 0 is no decay, T2 = inf."""
    return float(2.0 / rate) if rate > 0 else float("inf")


def fit_decay(trace: EchoTrace, model: str = "exp-two-cosine") -> FitResult:
    """Least-squares fit of an echo decay.

    Models
    ------
    ``exp``
        v = v0 * exp(-2*tau/T2); parameters (v0, t2_s).
    ``exp-two-cosine``
        v = exp(-2*tau/T2) * (c0 + c1*cos(2*pi*d*tau) + c2*cos(4*pi*d*tau));
        parameters (c0, c1, c2, delta_hz, t2_s).

    The decay rate 2/T2 starts from a log-linear envelope fit.  For the
    two-cosine model, with the rate held there, the least-squares residual
    over delta is evaluated exactly on a grid of step 1/(8*T) for a trace of
    length T (``_two_cosine_profile``; the tau grid must be uniform), and the
    fit is polished from its two lowest local minima; the lower final
    residual wins.  The fit is separable (variable projection): the solver
    moves only delta >= 0 and the decay rate 2/T2 >= 0, the amplitudes are
    solved linearly at every step, and it stops on step, residual or
    gradient tolerance ``FIT_TOL`` within ``MAX_EVALUATIONS`` model
    evaluations per start.  ``n_evaluations`` counts the model evaluations
    of every start and retry, Jacobian columns included.  A fitted delta
    below one cycle over the trace (a central-line trace has no modulation)
    sets ``delta_resolved`` false; the fit may still converge.
    """
    if model not in FIT_MODELS:
        raise ValueError(f"unknown fit model {model!r}")
    tau = trace.tau_s
    v = trace.v
    if np.abs(v).max() == 0:
        raise ValueError("degenerate trace: all amplitudes are zero")
    n_params = 2 if model == "exp" else 5
    if tau.size < 8 * n_params:
        raise ValueError(f"need at least {8 * n_params} points to fit {model}")
    r_guess = _envelope_rate_guess(tau, v)

    if model == "exp":
        best = _separable_fit(v, _exp_columns(tau), [r_guess])
        n_evaluations = best.n_evaluations
        params = {"v0": float(best.amplitudes[0]), "t2_s": _t2(best.x[0])}
    else:
        columns = _two_cosine_columns(tau)
        d_grid, profile = _two_cosine_profile(tau, v, r_guess)
        fits = [_separable_fit(v, columns, [d_grid[k], r_guess])
                for k in _lowest_minima(profile, 2)]
        best = min(fits, key=lambda f: f.norm)
        n_evaluations = sum(f.n_evaluations for f in fits)
        # a near-single-tone trace is described equally well by (d, c1, ~0)
        # and by the canonical second-harmonic form (d/2, ~0, c1); prefer the
        # latter when it fits essentially as well, so d stays the
        # fundamental shift; on a noiseless trace both norms are roundoff,
        # so the comparison has a floor at the solver tolerance
        if abs(best.amplitudes[2]) < 0.05 * abs(best.amplitudes[1]):
            d_fit, r_fit = best.x
            half = _separable_fit(v, columns, [d_fit / 2.0, r_fit])
            n_evaluations += half.n_evaluations
            if half.norm <= 1.01 * best.norm + FIT_TOL * np.linalg.norm(v):
                best = half
        c0, c1, c2 = best.amplitudes
        params = {"c0": float(c0), "c1": float(c1), "c2": float(c2),
                  "delta_hz": float(best.x[0]), "t2_s": _t2(best.x[1])}
        resolved = bool(best.x[0] * (tau[-1] - tau[0]) >= 1.0)
    return FitResult(model=model, params=params, residual_norm=best.norm,
                     converged=best.converged, n_evaluations=n_evaluations,
                     delta_resolved=None if model == "exp" else resolved)
