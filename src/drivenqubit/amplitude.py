"""Excited-state amplitude A(t): closed form, ODE oracle, decay rate.

A(t) is the survival amplitude of the upper dressed state; every observable
in the package derives from it.  Closed form:

    A(t) = exp(-M t/2) * (cosh(F t/4) + (2M/F) sinh(F t/4)),

with M, F the derived complex constants; at F = 0 the critically damped
limit exp(-M t/2)(1 + M t/2) applies.  The derivative is available
analytically,

    dA/dt = -(gamma*lam*(1+cos eta)^2 / (2F)) * exp(-M t/2) * sinh(F t/4),

so no finite differencing appears in any production path.

Single times go through ``cmath``, which is about 20x cheaper per call than a
one-point numpy call; arrays of times go through numpy.  The numpy formula,
``_mode_form``, is written once, elementwise in (M, F, t).
``amplitude_grid`` gives it the constants of one parameter set: time grids,
the Leggett-Garg series, the witness and the decay-rate grid.  The
geometric-phase quadrature and the BLP refinement give it the constants of
each time's own row, with the row quotients of ``mode_constants`` (rounded
as ``amplitude_grid`` rounds them), so one call covers one Simpson level,
or one slice of brackets, of a whole sweep.
Both paths switch to the critically damped series at the same
``_SERIES_THRESHOLD``.  The ``cmath`` path serves the single-time functions:
``two_time_correlation`` (the independent route the tests hold
``lgi_series`` to), ``propagator`` and ``quantum_witness`` (with the witness
self-check), ``evolve_superposition`` and ``apply_channel``,
``phase.eigensystem``, ``nonmarkov.info_flux``, |A(t_max)| in the BLP
measure, and ``decay_rate``.

scipy is imported only inside ``amplitude_oracle_ode``, the independent
reference that ``drivenqubit check`` and the tests run, so the rest of the
package loads without it.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .params import DerivedParams, SystemParams, ValidationError, derive

__all__ = [
    "AmplitudePole",
    "IntegrationError",
    "AmplitudeTrajectory",
    "amplitude_closed_form",
    "amplitude_derivative",
    "amplitude_grid",
    "amplitude_oracle_ode",
    "decay_rate",
]

# |F| t below which A and dA/dt use the critically damped series
_SERIES_THRESHOLD = 1e-6
POLE_EPS = 1e-14


class AmplitudePole(ArithmeticError):
    """Decay rate requested at a zero of A(t), where it diverges."""


class IntegrationError(RuntimeError):
    """Adaptive ODE integration failed (step-size underflow or similar)."""


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Sampled A(t) on an ordered time grid starting at 0.

    The amplitude starts at 1 and stays inside the unit disc; a loose 1e-9
    tolerance accommodates integration error on the oracle path (the closed
    form itself is contractive to 1e-12, asserted in the tests).
    """

    times: np.ndarray
    values: np.ndarray
    params: SystemParams

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t[0] != 0.0 or np.any(np.diff(t) <= 0):
            raise ValidationError("times must be strictly increasing from 0")
        v = np.asarray(self.values)
        if v.shape != t.shape:
            raise ValidationError("values must match the time grid")
        if abs(v[0] - 1.0) > 1e-9:
            raise ValidationError(f"trajectory must start at 1, got {v[0]}")
        if np.max(np.abs(v)) > 1.0 + 1e-9:
            raise ValidationError("trajectory escapes the unit disc")


def amplitude_closed_form(dp: DerivedParams, t: float) -> complex:
    """Closed-form A(t) for a single time t >= 0."""
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    M, F = dp.m_const, dp.f_const
    if abs(F) * t < _SERIES_THRESHOLD:
        return cmath.exp(-0.5 * M * t) * (1.0 + 0.5 * M * t)
    ratio = 2.0 * M / F
    ep = cmath.exp((-0.5 * M + 0.25 * F) * t)
    em = cmath.exp((-0.5 * M - 0.25 * F) * t)
    return 0.5 * (1.0 + ratio) * ep + 0.5 * (1.0 - ratio) * em


def amplitude_derivative(dp: DerivedParams, t: float) -> complex:
    """Analytic dA/dt for a single time t >= 0."""
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    M, F = dp.m_const, dp.f_const
    pref = dp.coupling_prefactor
    if abs(F) * t < _SERIES_THRESHOLD:
        return pref * 0.25 * t * cmath.exp(-0.5 * M * t)
    ep = cmath.exp((-0.5 * M + 0.25 * F) * t)
    em = cmath.exp((-0.5 * M - 0.25 * F) * t)
    return pref / (2.0 * F) * (ep - em)


def _mode_form(M, F, t, pref=None, quotients=None):
    """A(t), and dA/dt when ``pref`` is given, elementwise in (M, F, pref, t).

    t is an array of times; M, F (complex) and ``pref`` (the
    ``coupling_prefactor``) are scalars for one parameter set or arrays of
    t's shape, one value per time.  Mode form A = c+ exp(s+ t) + c- exp(s- t)
    with s+- = -M/2 +- F/4, which never overflows (Re s+- <= 0 for physical
    parameters), and the critically damped series wherever |F| t is below
    ``_SERIES_THRESHOLD`` (everywhere when F = 0).  ``quotients``, shaped
    like M, are (2M/F, pref/(2F)) rounded once per parameter set by
    ``mode_constants``; a scalar M, F (one parameter set) may leave them
    out, and they are taken here by the same Python division.
    """
    small = ~(np.abs(F) * t >= _SERIES_THRESHOLD)  # |F| t is NaN at F = 0, t = inf
    if small.all():
        e = np.exp(-0.5 * M * t)
        A = e * (1.0 + 0.5 * M * t)
        return A if pref is None else (A, pref * 0.25 * t * e)
    ep = np.exp((-0.5 * M + 0.25 * F) * t)
    em = np.exp((-0.5 * M - 0.25 * F) * t)
    with np.errstate(divide="ignore", invalid="ignore"):  # F = 0 only where small
        if quotients is None:
            quotients = 2.0 * M / F, None if pref is None else pref / (2.0 * F)
        ratio, dA_coef = quotients
        A = 0.5 * (1.0 + ratio) * ep + 0.5 * (1.0 - ratio) * em
        dA = None if pref is None else dA_coef * (ep - em)
    if small.any():
        Ms, ts = M[small] if np.ndim(M) else M, t[small]
        e = np.exp(-0.5 * Ms * ts)
        A[small] = e * (1.0 + 0.5 * Ms * ts)
        if dA is not None:
            dA[small] = (pref[small] if np.ndim(pref) else pref) * 0.25 * ts * e
    return A if pref is None else (A, dA)


def mode_constants(dps) -> tuple[np.ndarray, ...]:
    """Arrays (M, F, pref, 2M/F, pref/(2F)), one value per parameter set.

    Indexed per time, they give ``_mode_form`` the constants of each time's
    own parameter set, with the quotients rounded by Python complex
    division, as ``amplitude_grid`` rounds them; so a batched evaluation
    matches ``amplitude_grid`` bit for bit.  The quotients of a set with
    F = 0 are never used (every time is in the series there) and read 0.
    """
    M = np.array([dp.m_const for dp in dps], dtype=complex)
    F = np.array([dp.f_const for dp in dps], dtype=complex)
    pref = np.array([dp.coupling_prefactor for dp in dps], dtype=float)
    ratio = np.array([2.0 * dp.m_const / dp.f_const if dp.f_const else 0j
                      for dp in dps], dtype=complex)
    dA_coef = np.array([dp.coupling_prefactor / (2.0 * dp.f_const) if dp.f_const else 0j
                        for dp in dps], dtype=complex)
    return M, F, pref, ratio, dA_coef


def amplitude_grid(dp: DerivedParams, times) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (A, dA/dt) over an array of times, shaped like ``times``
    (formulas in ``_mode_form``)."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValidationError("times must be >= 0")
    A, dA = _mode_form(dp.m_const, dp.f_const, np.atleast_1d(times),
                       dp.coupling_prefactor)
    return A.reshape(times.shape), dA.reshape(times.shape)


def amplitude_trajectory(dp: DerivedParams, times) -> AmplitudeTrajectory:
    """Closed-form trajectory on the given grid."""
    A, _ = amplitude_grid(dp, times)
    return AmplitudeTrajectory(np.asarray(times, float), A, dp.params)


def amplitude_oracle_ode(params: SystemParams, t_max: float, tol: float = 1e-10,
                         n_eval: int = 301) -> AmplitudeTrajectory:
    """Independent A(t) by adaptive integration of the memory dynamics.

    The integro-differential equation with exponential kernel is equivalent
    to the local pair

        dA/dt = -cos^4(eta/2) * B,      A(0) = 1,
        dB/dt = (gamma*lam/2) A - M B,  B(0) = 0,

    where B is the running convolution of the kernel with A.  This routine
    is the test oracle for the closed form and must stay independent of it.
    """
    from scipy.integrate import solve_ivp

    if tol <= 0:
        raise ValidationError(f"tol must be > 0, got {tol}")
    dp = derive(params)
    c4 = np.cos(dp.eta / 2.0) ** 4
    half_gl = 0.5 * params.gamma * params.lam
    M = dp.m_const

    def rhs(_t, y):
        a, b = y
        return [-c4 * b, half_gl * a - M * b]

    t_eval = np.linspace(0.0, t_max, n_eval)
    sol = solve_ivp(rhs, (0.0, t_max), [1.0 + 0.0j, 0.0 + 0.0j], method="DOP853",
                    t_eval=t_eval, rtol=tol, atol=tol * 1e-2)
    if not sol.success:
        raise IntegrationError(f"amplitude ODE integration failed: {sol.message}")
    return AmplitudeTrajectory(sol.t, sol.y[0], params)


def mode_rates(dp: DerivedParams) -> tuple[complex, complex]:
    """Rates (s+, s-) of the modes of A = c+ exp(s+ t) + c- exp(s- t).

    s+- = -M/2 +- F/4, F the principal root, so Re s+ >= Re s-: s+ is the
    slow mode.  With q = gamma*lam*(1+cos eta)^2 and D = F + 2M (Re D >= 2
    lam, so D never cancels), s+ = -q/(2D) is the cancellation-free form of
    -M/2 + F/4, which loses every digit when the coupling q is tiny.
    """
    q = -2.0 * dp.coupling_prefactor
    D = dp.f_const + 2.0 * dp.m_const
    return -q / (2.0 * D), -0.25 * D


def _is_pole(dp: DerivedParams, t, abs_a):
    """Zeros of A: |A| <= POLE_EPS times the slow mode's envelope exp(Re s+ t).

    Relative to the envelope, so late-time decay is not mistaken for a zero;
    |A| = 0 is a pole even where the envelope underflows.
    """
    return np.logical_not(abs_a > POLE_EPS * np.exp(mode_rates(dp)[0].real * t))


def decay_rate(dp: DerivedParams, t: float) -> float:
    """Effective instantaneous decay rate -2 Re(dA/dt / A) at time t.

    Diverges at zeros of A (``_is_pole``); those are reported as
    AmplitudePole rather than returned as huge numbers.  The complex
    division does not underflow where |A|^2 would.
    """
    a = amplitude_closed_form(dp, t)
    if _is_pole(dp, t, abs(a)):
        raise AmplitudePole(f"A(t) vanishes at t={t}; decay rate diverges")
    return -2.0 * (amplitude_derivative(dp, t) / a).real


def decay_rate_grid(dp: DerivedParams, times) -> np.ndarray:
    """Vectorized decay rate; NaN marks pole points (``_is_pole``)."""
    times = np.asarray(times, dtype=float)
    A, dA = amplitude_grid(dp, times)
    out = np.full(times.shape, np.nan, dtype=float)
    ok = ~_is_pole(dp, times, np.abs(A))
    out[ok] = -2.0 * (dA[ok] / A[ok]).real
    return out
