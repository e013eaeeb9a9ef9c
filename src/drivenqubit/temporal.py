"""Temporal-quantumness diagnostics: two-time correlators, Leggett-Garg
inequalities, the blind-measurement propagator, the quantum witness and the
coherence-monotone envelope.

Measurement sequences start at t1 = 0 (the dynamics is not stationary), and
two-time quantities are always written with the later time first evaluated:
C(t_i, t_j) uses A(t_later) A*(t_earlier) and A(t_later - t_earlier).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitude import (_as_times, _check_grid, _mode_form, amplitude_closed_form,
                        amplitude_grid)
from .params import DerivedParams, ValidationError

__all__ = [
    "LgiResult",
    "WitnessResult",
    "two_time_correlation",
    "lgi_c3",
    "lgi_series",
    "propagator",
    "quantum_witness",
    "witness_probabilities",
    "witness_series",
    "coherence_monotone",
]


@dataclass(frozen=True)
class LgiResult:
    """Leggett-Garg combinations at step tau; classical bounds c3 <= 1, c4 <= 2."""

    tau: float
    c3: float
    c4: float
    violated3: bool
    violated4: bool


@dataclass(frozen=True)
class WitnessResult:
    """Quantum witness at delay tau."""

    tau: float
    w_q: float


def _correlation(cos2, sin2, a_j, a_i, a_s, phase):
    """C(t_i, t_j) from cos^2(theta), sin^2(theta), A(t_j), A(t_i),
    A(t_j - t_i) and e^{-i w_D (t_j - t_i)}, elementwise (formula in
    ``two_time_correlation``)."""
    return ((cos2 * a_j * np.conj(a_i) + sin2 * a_s) * phase).real


def two_time_correlation(dp: DerivedParams, theta: float, t_i: float,
                         t_j: float) -> float:
    """Symmetrized sigma_x correlator between times t_i <= t_j.

    Re[(cos^2(theta) A(t_j)A*(t_i) + sin^2(theta) A(t_j - t_i)) e^{-i w_D (t_j - t_i)}],
    the one-point view of ``_correlation``, A at the three times from one
    kernel call.
    """
    _as_times((t_i, t_j))
    if t_j < t_i:
        raise ValidationError("require t_i <= t_j (earlier measurement first)")
    s = t_j - t_i
    (a_j, a_i, a_s), _ = amplitude_grid(dp, [t_j, t_i, s])
    return float(_correlation(math.cos(theta) ** 2, math.sin(theta) ** 2, a_j, a_i, a_s,
                              np.exp(-1j * dp.omega_d * s)))


def lgi_series(dp: DerivedParams, theta: float, taus) -> tuple[np.ndarray, np.ndarray]:
    """Three- and four-time Leggett-Garg combinations over an array of steps.

    c3 = C(0,t) + C(t,2t) - C(0,2t) and c4 = C(0,t) + C(t,2t) + C(2t,3t)
    - C(0,3t) share their correlators, which need A only at tau, 2 tau,
    3 tau and 3 tau - 2 tau (A(0) = 1): one kernel call for the whole
    array.  Each correlator is ``_correlation``, elementwise.  The steps
    must be finite and >= 0; a derived step that overflows gives NaN
    cells, with no numpy warning.  Returns (c3, c4), shaped like ``taus``.
    """
    taus = _as_times(taus)
    cos2, sin2 = math.cos(theta) ** 2, math.sin(theta) ** 2
    # 3 tau - 2 tau rounds away from tau; C(2t, 3t) is taken at that step
    with np.errstate(over="ignore", invalid="ignore"):
        t3 = 3 * taus
        times = np.stack([taus, 2 * taus, t3, t3 - 2 * taus])
        A1, A2, A3, A23 = _mode_form(dp.m_const, dp.f_const, times, dp.s_plus)
        P1, P2, P3, P23 = np.exp(-1j * dp.omega_d * times)
        c01 = _correlation(cos2, sin2, A1, 1.0, A1, P1)
        c12 = _correlation(cos2, sin2, A2, A1, A1, P1)
        c02 = _correlation(cos2, sin2, A2, 1.0, A2, P2)
        c23 = _correlation(cos2, sin2, A3, A2, A23, P23)
        c03 = _correlation(cos2, sin2, A3, 1.0, A3, P3)
        return c01 + c12 - c02, c01 + c12 + c23 - c03


def lgi_c3(dp: DerivedParams, theta: float, tau: float) -> LgiResult:
    """Both Leggett-Garg combinations, c3 and c4, at one step tau, from one
    ``lgi_series`` call.  The name stays, though it says c3 alone, because
    ``tests/test_acceptance.py`` imports it."""
    c3, c4 = (float(c[0]) for c in lgi_series(dp, theta, [tau]))
    return LgiResult(tau=tau, c3=c3, c4=c4, violated3=c3 > 1.0, violated4=c4 > 2.0)


def propagator(dp: DerivedParams, t: float) -> np.ndarray:
    """Population propagator over the |+->=(|A>+-|B>)/sqrt(2) outcome pair.

    Columns are stochastic: entries in [0, 1], each column summing to 1;
    mixing is controlled by Re A(t).
    """
    return _propagator_matrix(amplitude_closed_form(dp, t).real)


def _propagator_matrix(re_a):
    """The stochastic matrix of ``propagator`` from Re A, shaped (2, 2) plus
    the shape of ``re_a``: a trailing case axis where Re A is an array."""
    return 0.5 * np.array([[1.0 + re_a, 1.0 - re_a], [1.0 - re_a, 1.0 + re_a]])


def witness_probabilities(dp: DerivedParams, theta: float,
                          tau: float) -> tuple[float, float]:
    """(p_plus, p_plus_blind) at time tau via the propagator route.

    p_plus is the undisturbed probability of the + outcome; p_plus_blind
    inserts a nonselective +/- measurement at tau/2, composing the two
    half-interval propagators.  The one-point view of ``_witness_route``.
    """
    re_a1 = amplitude_closed_form(dp, tau).real
    re_ah = amplitude_closed_form(dp, tau / 2.0).real
    p_free, p_blind = _witness_route(theta, re_a1, re_ah)
    return float(p_free), float(p_blind)


def _witness_route(theta, re_a1, re_ah):
    """(p_plus, p_plus_blind) from theta, Re A(tau) and Re A(tau/2),
    elementwise (route of ``witness_probabilities``)."""
    sin2 = np.sin(2 * theta)
    p0 = 0.5 * np.array([1.0 + sin2, 1.0 - sin2])
    half = _propagator_matrix(re_ah)
    p_blind = _apply(half, _apply(half, p0))
    return _apply(_propagator_matrix(re_a1), p0)[0], p_blind[0]


def _apply(P, p):
    """P p, case by case along the trailing axes of ``_propagator_matrix``."""
    return P[:, 0] * p[0] + P[:, 1] * p[1]


def _witness(dp: DerivedParams, theta: float, taus: np.ndarray):
    """(w_q, A(tau)) over an array of delays, A(tau) and A(tau/2) from one
    kernel call."""
    (a1, ah), _ = amplitude_grid(dp, np.stack([taus, taus / 2.0]))
    return _witness_form(theta, a1, ah), a1


def _witness_form(theta, a1, ah):
    """w_q from theta, A(tau) and A(tau/2), elementwise (formula in
    ``quantum_witness``)."""
    return np.abs(np.sin(2 * theta) * (2.0 * a1.real - 2.0 * ah.real**2)) / 4.0


def quantum_witness(dp: DerivedParams, theta: float, tau: float) -> WitnessResult:
    """Blind-measurement witness |p_plus - p_plus_blind| in closed form.

    w_q = (1/4)|sin(2 theta) (A(tau) + A*(tau) - (A(tau/2) + A*(tau/2))^2 / 2)|;
    positive values certify coherence at the intermediate time.  The
    one-point view of ``witness_series``.
    """
    w, _ = _witness(dp, theta, np.array([tau], dtype=float))
    return WitnessResult(tau=tau, w_q=float(w[0]))


def coherence_monotone(dp: DerivedParams, taus) -> np.ndarray:
    """Upper envelope of |A(tau)|/2 on the given grid.

    Piecewise-linear interpolation through the interior local maxima of
    |A|/2 (grid endpoints included as knots), clipped from below by the
    curve itself so the envelope never dips under it.  Without interior
    maxima (monotone decay) the envelope degenerates to the curve.
    """
    taus = _envelope_grid(taus)
    return _monotone(taus, np.abs(amplitude_grid(dp, taus)[0]))


def _envelope_grid(taus) -> np.ndarray:
    """``taus`` as a float grid of the envelope, checked before any kernel
    call: it must rise strictly from 0 over at least 3 finite points."""
    taus = np.asarray(taus, dtype=float)
    if taus.ndim != 1 or taus.size < 3:
        raise ValidationError("need a grid of at least 3 points")
    _check_grid(taus, "grid")
    return taus


def _monotone(taus: np.ndarray, abs_a: np.ndarray) -> np.ndarray:
    """Upper envelope of abs_a / 2 on the grid taus (see
    ``coherence_monotone``, and ``_envelope_grid`` for the grid)."""
    half = 0.5 * abs_a
    interior = 1 + np.flatnonzero(
        (half[1:-1] > half[:-2]) & (half[1:-1] >= half[2:])
    )
    if interior.size == 0:
        return half
    knots = np.concatenate(([0], interior, [taus.size - 1]))
    env = np.interp(taus, taus[knots], half[knots])
    return np.maximum(env, half)


def witness_series(dp: DerivedParams, theta: float, taus):
    """(w_q, envelope) arrays over a tau grid, from one kernel call; the
    envelope is the coherence monotone on the same grid."""
    taus = _envelope_grid(taus)
    w, a1 = _witness(dp, theta, taus)
    return w, _monotone(taus, np.abs(a1))
