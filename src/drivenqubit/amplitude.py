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
one-point numpy call; arrays of times (time grids, the Leggett-Garg series,
each level of the geometric-phase quadrature) go through numpy.  Both paths
switch to the critically damped series at the same ``_SERIES_THRESHOLD``.
The ``cmath`` path serves the single-time functions: ``two_time_correlation``
(the independent route the tests hold ``lgi_series`` to), ``propagator`` and
``quantum_witness`` (with the witness self-check), ``evolve_superposition``
and ``apply_channel``, ``phase.eigensystem``, ``nonmarkov.info_flux``, the
tail bound |A(t_max)| of ``blp_measure``, and ``decay_rate``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

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


def amplitude_grid(dp: DerivedParams, times) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (A, dA/dt) over an array of times, shaped like ``times``.

    Mode form A = c+ exp(s+ t) + c- exp(s- t) with s+- = -M/2 +- F/4, which
    never overflows (Re s+- <= 0 for physical parameters), and the series
    limit wherever |F t| is below the switch.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ValidationError("times must be >= 0")
    M, F, pref = dp.m_const, dp.f_const, dp.coupling_prefactor
    tt = np.atleast_1d(times).ravel()
    small = np.abs(F) * tt < _SERIES_THRESHOLD
    if abs(F) == 0.0 or np.all(small):
        e = np.exp(-0.5 * M * tt)
        A = e * (1.0 + 0.5 * M * tt)
        dA = pref * 0.25 * tt * e
        return A.reshape(times.shape), dA.reshape(times.shape)
    ep = np.exp((-0.5 * M + 0.25 * F) * tt)
    em = np.exp((-0.5 * M - 0.25 * F) * tt)
    ratio = 2.0 * M / F
    A = 0.5 * (1.0 + ratio) * ep + 0.5 * (1.0 - ratio) * em
    dA = (pref / (2.0 * F)) * (ep - em)
    if np.any(small):
        e = np.exp(-0.5 * M * tt[small])
        A[small] = e * (1.0 + 0.5 * M * tt[small])
        dA[small] = pref * 0.25 * tt[small] * e
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


def decay_rate(dp: DerivedParams, t: float) -> float:
    """Effective instantaneous decay rate -2 Re(dA/dt / A) at time t.

    Diverges at zeros of A; those are reported as AmplitudePole rather than
    returned as huge numbers.
    """
    a = amplitude_closed_form(dp, t)
    if abs(a) < POLE_EPS:
        raise AmplitudePole(f"A(t) vanishes at t={t}; decay rate diverges")
    return -2.0 * (amplitude_derivative(dp, t) / a).real


def decay_rate_grid(dp: DerivedParams, times) -> np.ndarray:
    """Vectorized decay rate; NaN marks pole points (|A| < POLE_EPS)."""
    A, dA = amplitude_grid(dp, times)
    absA2 = np.abs(A) ** 2
    out = np.full(np.shape(times), np.nan, dtype=float)
    ok = np.abs(A) >= POLE_EPS
    out[ok] = -2.0 * (dA[ok] * np.conj(A[ok])).real / absA2[ok]
    return out
