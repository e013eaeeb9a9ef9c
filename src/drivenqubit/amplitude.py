"""Excited-state amplitude A(t): closed form, exact-propagator oracle, decay rate.

A(t) is the survival amplitude of the upper dressed state; every observable
in the package derives from it.  Closed form:

    A(t) = exp(-M t/2) * (cosh(F t/4) + (2M/F) sinh(F t/4)),

with M, F the derived complex constants; at F = 0 the critically damped
limit exp(-M t/2)(1 + M t/2) applies.  The derivative is available
analytically,

    dA/dt = -(gamma*lam*(1+cos eta)^2 / (2F)) * exp(-M t/2) * sinh(F t/4),

so no finite differencing appears in any production path.

Both are written once, in ``_mode_form``: with z = F t/2 (Re F >= 0),
s+ = -M/2 + F/4 and phi = -expm1(-z)/z,

    A = exp(s+ t) (1 + expm1(-z)/2 + (M/2) t phi),
    dA/dt = (pref/4) t phi exp(s+ t).

exp(s+ t), 1 + expm1(-z)/2 and phi lie in the unit disc (Re s+ <= 0,
Re z >= 0) and nothing large cancels, so one form holds from t = 0 through
critical damping (F = 0, where phi = 1) to late times: no series switch.
``_mode_form``, elementwise in its constants and times, is the envelope
exp(s+ t) times the pieces before it (``_mode_pieces``).  It has two
entries.  ``amplitude_grid`` gives it one parameter set: time grids, the
witness and the decay-rate grid; ``amplitude_closed_form``,
``amplitude_derivative`` and ``decay_rate`` are its one-point views.
Times enter there, and every one must be finite and >= 0 (``_as_times``).
``_rows_form`` gives it the columns of many rows (``DerivedColumns``),
each time with the constants of its own row, bit for bit as
``amplitude_grid`` gives that row: the quadrature, the BLP measure and
``check`` call it, and the BLP finder reads the sign of Re(dA/dt conj A)
from the pieces alone (``_rows_rising``).  The one-row Leggett-Garg series
checks its steps itself and gives ``_mode_form`` their multiples, which
may overflow.

``amplitude_oracles`` is the independent reference that ``drivenqubit
check`` and the tests run: the exact propagator of the memory ODE on an even
grid, built from G alone and sharing no code with the closed form.  It
takes the columns of many parameter sets as one stack of G, each scaled and
squared to its own exponent, and gets the powers of the propagator by
doubling; ``amplitude_oracle_ode`` is its one-set view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DerivedColumns, DerivedParams, SystemParams, ValidationError, derive

__all__ = [
    "AmplitudePole",
    "AmplitudeTrajectory",
    "amplitude_closed_form",
    "amplitude_derivative",
    "amplitude_grid",
    "amplitude_oracle_ode",
    "amplitude_oracles",
    "decay_rate",
]

_EPS = np.finfo(float).eps
POLE_EPS = 1e-14
ORACLE_POINTS = 301  # evenly spaced times of an oracle trajectory, from 0 to t_max


class AmplitudePole(ArithmeticError):
    """Decay rate requested at a zero of A(t), where it diverges."""


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Sampled A(t) on an ordered time grid starting at 0.

    The amplitude starts at 1 and stays inside the unit disc; a loose 1e-9
    tolerance accommodates rounding on the oracle path (the closed form
    itself is contractive to 1e-12, asserted in the tests).
    """

    times: np.ndarray
    values: np.ndarray
    params: SystemParams

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        _check_grid(t, "times")
        v = np.asarray(self.values)
        if v.shape != t.shape:
            raise ValidationError("values must match the time grid")
        if abs(v[0] - 1.0) > 1e-9:
            raise ValidationError(f"trajectory must start at 1, got {v[0]}")
        if not np.max(np.abs(v)) <= 1.0 + 1e-9:
            raise ValidationError("trajectory escapes the unit disc or is not finite")


def _check_grid(t: np.ndarray, name: str) -> None:
    """Raise ValidationError unless t is a 1-D grid, finite and strictly
    increasing from 0; a NaN anywhere fails."""
    if not (t.ndim == 1 and t.size > 0 and t[0] == 0.0 and np.all(np.diff(t) > 0)
            and t[-1] < math.inf):
        raise ValidationError(f"{name} must be finite and strictly increasing from 0")


def _mode_pieces(M, F, t):
    """(B, t phi), elementwise in (M, F, t): A = B exp(s+ t) and
    dA/dt = (pref/4) t phi exp(s+ t).  t is an array of times; M and F
    (Re F >= 0) are scalars for one parameter set or arrays of t's shape,
    one value per time.  With z = F t / 2, em1 = expm1(-z) and
    phi = -em1 / z, B = 1 + em1/2 + (M/2) t phi.

    em1 is built from real functions of -z = a + 2ih (a <= 0):
    expm1(a) - 2 sin^2(h) e^a + 2i sin(h) cos(h) e^a, whose real part adds
    two terms <= 0, so no digit cancels.  t phi is taken as em1 / (-F/2),
    so |t phi| <= 4/|F| and no product overflows at large t; where
    |z| < eps, phi rounds to 1 and t phi is set to t, which covers F = 0
    (critical damping) and t = 0.  Complex products keep any temporary on
    the left and are never taken in place on a named array: numpy may swap
    operands to reuse a large temporary, and rounds an in-place complex
    product of one element differently.  So batched and one-row calls agree
    bit for bit.
    """
    a, h = (-0.5 * F.real) * t, (-0.25 * F.imag) * t
    sin_h = np.sin(h)
    u = 2.0 * sin_h * np.exp(a)
    em1 = np.empty(a.shape, dtype=complex)
    em1.real, em1.imag = np.expm1(a) - sin_h * u, np.cos(h) * u
    tiny = np.abs(F) * t < 2.0 * _EPS  # |z| < eps
    t_phi = np.where(tiny, t, em1 / np.where(tiny, 1.0, -0.5 * F))
    return 1.0 + 0.5 * (em1 + t_phi * M), t_phi


def _mode_form(M, F, t, s_plus, pref=None):
    """A(t), and dA/dt when ``pref`` (``coupling_prefactor``) is given:
    ``_mode_pieces`` times the envelope exp(s+ t), elementwise like them.

    Where the envelope is 0, a piece may be NaN (sin and cos of an infinite
    phase), and the product with it; A and dA/dt are 0 there, their limit.
    Every other cell keeps its bits, and a call whose envelope has no zero
    pays one test."""
    B, t_phi = _mode_pieces(M, F, t)
    e = np.exp(s_plus * t)
    A = B * e
    out = (A,) if pref is None else (A, 0.25 * pref * (t_phi * e))
    if not e.all():
        out = tuple(np.where((e == 0.0) & ~np.isfinite(x), 0.0, x) for x in out)
    return out[0] if pref is None else out


def _rows_form(rows: DerivedColumns, t, owner, derivative: bool = False):
    """``_mode_form`` of many rows, given by their columns: the times t take
    the constants of the rows ``rows.<col>[owner]``, so every value is what
    ``amplitude_grid`` gives its row, bit for bit.  ``owner`` is the row of
    each time (an index array shaped like t), ``slice(None)`` for one time
    per row along t's last axis, or ``(slice(None), None)`` for a grid t
    of every row (values shaped (rows, times)).  Returns A, or (A, dA/dt)
    with ``derivative``."""
    return _mode_form(rows.m_const[owner], rows.f_const[owner], t, rows.s_plus[owner],
                      rows.pref[owner] if derivative else None)


def _rows_rising(rows: DerivedColumns, t, owner):
    """Where h = Re(dA/dt conj A) > 0, rows and times as in ``_rows_form``:
    h = (|e|^2/4) pref Re(t phi conj B) with e = exp(s+ t) and B, t phi of
    ``_mode_pieces``, so the product without e has h's sign and does not
    underflow where |A| does."""
    B, t_phi = _mode_pieces(rows.m_const[owner], rows.f_const[owner], t)
    return rows.pref[owner] * (t_phi * np.conj(B)).real > 0


def _as_times(times) -> np.ndarray:
    """``times`` as a float array; raise ValidationError, naming the first
    bad entry, unless every one is finite and >= 0."""
    times = np.asarray(times, dtype=float)
    ok = (times >= 0.0) & (times < math.inf)
    if not ok.all():
        raise ValidationError(f"times must be finite and >= 0, got {times[~ok][0]}")
    return times


def amplitude_grid(dp: DerivedParams, times) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (A, dA/dt) over an array of finite times >= 0, shaped like
    ``times`` (formulas in ``_mode_form``)."""
    times = _as_times(times)
    A, dA = _mode_form(dp.m_const, dp.f_const, np.atleast_1d(times), dp.s_plus,
                       dp.coupling_prefactor)
    return A.reshape(times.shape), dA.reshape(times.shape)


def amplitude_closed_form(dp: DerivedParams, t: float) -> complex:
    """A(t) at one finite time t >= 0: the one-point view of ``amplitude_grid``."""
    return complex(amplitude_grid(dp, t)[0])


def amplitude_derivative(dp: DerivedParams, t: float) -> complex:
    """dA/dt at one finite time t >= 0: the one-point view of ``amplitude_grid``."""
    return complex(amplitude_grid(dp, t)[1])


def amplitude_trajectory(dp: DerivedParams, times) -> AmplitudeTrajectory:
    """Closed-form trajectory on the given grid."""
    A, _ = amplitude_grid(dp, times)
    return AmplitudeTrajectory(np.asarray(times, float), A, dp.params)


def amplitude_oracles(rows: DerivedColumns, t_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Independent A(t) of many parameter sets, given by their columns, at
    ``ORACLE_POINTS`` even times from 0 to t_max: the exact propagator of the
    memory dynamics.

    The integro-differential equation with exponential kernel is equivalent
    to the local pair y = (A, B), y' = G y,

        dA/dt = -cos^4(eta/2) * B,      A(0) = 1,
        dB/dt = (gamma*lam/2) A - M B,  B(0) = 0,

    where B is the running convolution of the kernel with A.  G is constant,
    so y_k = P^k y_0 with P = exp(G dt), by scaling and squaring (Moler and
    Van Loan, SIAM Rev. 45, 3 (2003), method 3): X = G dt is scaled by 2^-s
    to a 1-norm <= 1/2, 18 Taylor terms are summed and the sum squared s
    times.  All sets go as one (n, 2, 2) stack; each has its own s and is
    squared exactly s times.  The powers come by doubling: with y_0 .. y_{m-1}
    known, y_m .. y_{2m-1} = P^m (y_0 .. y_{m-1}) and P^2m = P^m P^m, so 9
    stacked products give all 301 points.  Each set's values depend on its
    own G alone: a batch gives each set the numbers it gets alone.

    The test oracle of the closed form, it calls none of it and takes only
    eta and M from ``derive_columns``, so ``drivenqubit check`` cannot catch
    an error there.  Returns (times, values), values shaped (n, ORACLE_POINTS).
    A horizon that gives no finite, increasing grid raises ValidationError;
    a G dt that overflows gives non-finite values, not a warning.
    """
    if not 0.0 < t_max < math.inf:
        raise ValidationError(f"t_max must be finite and > 0, got {t_max}")
    times = np.linspace(0.0, t_max, ORACLE_POINTS)
    _check_grid(times, "times")
    G = np.zeros((len(rows.eta), 2, 2), dtype=complex)
    G[:, 0, 1] = -np.cos(rows.eta / 2.0) ** 4
    G[:, 1, 0] = 0.5 * rows.gamma * rows.lam
    G[:, 1, 1] = -rows.m_const
    with np.errstate(over="ignore", invalid="ignore"):
        X = G * (t_max / (ORACLE_POINTS - 1))
        norm = np.abs(X).sum(axis=1).max(axis=1)
        s = np.maximum(np.frexp(norm)[1] + 1, 0)
        X = X * np.ldexp(1.0, -s)[:, None, None]
        P = term = np.broadcast_to(np.eye(2, dtype=complex), X.shape)
        for j in range(1, 19):
            term = term @ X / j
            P = P + term
        for k in range(int(s.max(initial=0))):
            P = np.where((k < s)[:, None, None], P @ P, P)
        y = np.zeros((len(rows.eta), 1, 2, 1), dtype=complex)
        y[:, 0, 0, 0] = 1.0
        while (m := y.shape[1]) < ORACLE_POINTS:
            y = np.concatenate([y, P[:, None] @ y[:, :ORACLE_POINTS - m]], axis=1)
            P = P @ P
    return times, y[:, :, 0, 0]


def amplitude_oracle_ode(params: SystemParams, t_max: float) -> AmplitudeTrajectory:
    """Independent A(t) at ``ORACLE_POINTS`` even times from 0 to t_max: the
    one-set view of ``amplitude_oracles``, the exact propagator of the
    memory ODE.  A horizon that gives no finite, increasing grid, or values
    that are not finite, raise ValidationError."""
    times, values = amplitude_oracles(DerivedColumns.of([derive(params)]), t_max)
    return AmplitudeTrajectory(times, values[0], params)


def _is_pole(dp: DerivedParams, t, abs_a):
    """Zeros of A: |A| <= POLE_EPS times the slow mode's envelope exp(Re s+ t).

    Relative to the envelope, so late-time decay is not mistaken for a zero;
    |A| = 0 is a pole even where the envelope underflows.
    """
    return np.logical_not(abs_a > POLE_EPS * np.exp(dp.s_plus.real * t))


def decay_rate(dp: DerivedParams, t: float) -> float:
    """Effective instantaneous decay rate -2 Re(dA/dt / A) at one time t: the
    one-point view of ``decay_rate_grid``, raising AmplitudePole at a zero
    of A (``_is_pole``), where the rate diverges."""
    rate = float(decay_rate_grid(dp, t))
    if math.isnan(rate):
        raise AmplitudePole(f"A(t) vanishes at t={t}; decay rate diverges")
    return rate


def decay_rate_grid(dp: DerivedParams, times) -> np.ndarray:
    """Vectorized decay rate -2 Re(dA/dt / A); NaN marks pole points
    (``_is_pole``).  The complex division does not underflow where |A|^2
    would."""
    times = np.asarray(times, dtype=float)
    A, dA = amplitude_grid(dp, times)
    out = np.full(times.shape, np.nan, dtype=float)
    ok = ~_is_pole(dp, times, np.abs(A))
    out[ok] = -2.0 * (dA[ok] / A[ok]).real
    return out
