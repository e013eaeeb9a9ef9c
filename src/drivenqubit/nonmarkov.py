"""Trace-distance information flux and the BLP memory measure.

For any antipodal pure pair with polar angle alpha the evolved trace
distance is D(t) = sqrt(cos^2(alpha) |A|^4 + sin^2(alpha) |A|^2), strictly
increasing in |A|; hence the sign of the flux is pair-independent and the
backflow intervals are exactly the intervals where |A| grows.  Only the
magnitude of the accumulated backflow depends on alpha, which reduces the
pair maximization to a one-dimensional search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .amplitude import amplitude_closed_form, amplitude_derivative, amplitude_grid
from .params import DerivedParams, SystemParams, ValidationError, derive
from .states import BlochVector

__all__ = [
    "BackflowIntervals",
    "BlpResult",
    "antipodal_pair",
    "info_flux",
    "backflow_intervals",
    "blp_measure",
]

MIN_GRID_POINTS = 10_000
MAX_GRID_POINTS = 4_000_000
POINTS_PER_CYCLE = 1024
TRUNCATION_EPS = 1e-4
_PAIR_ATOL = 1e-9


@dataclass(frozen=True)
class BackflowIntervals:
    """Disjoint ordered intervals with positive information flux inside."""

    intervals: tuple[tuple[float, float], ...]
    d_values: tuple[tuple[float, float], ...]
    amp_values: tuple[tuple[float, float], ...]
    t_max: float


@dataclass(frozen=True)
class BlpResult:
    """Accumulated backflow maximized over antipodal pure pairs."""

    n_measure: float
    best_pair: tuple[BlochVector, BlochVector]
    t_max: float
    alpha: float
    residual_bound: float
    truncated: bool
    intervals: BackflowIntervals


def antipodal_pair(alpha: float, azimuth: float = 0.0):
    """Antipodal pure pair at polar angle alpha from the |A> pole."""
    v = BlochVector.from_angles(alpha, azimuth)
    return v, v.antipode()


def _pair_coefficients(pair) -> tuple[float, float]:
    v1, v2 = pair
    if abs(v1.x + v2.x) > _PAIR_ATOL or abs(v1.y + v2.y) > _PAIR_ATOL \
            or abs(v1.z + v2.z) > _PAIR_ATOL:
        raise ValidationError("pair must be antipodal")
    if abs(v1.norm() - 1.0) > _PAIR_ATOL:
        raise ValidationError("pair must be pure (unit Bloch vectors)")
    a = v1.z
    b = math.hypot(v1.x, v1.y)
    return a, b


def _distance(x, a: float, b: float):
    """Trace distance as a function of x = |A| for pair coefficients (a, b)."""
    return np.sqrt(a * a * x**4 + b * b * x * x)


def info_flux(dp: DerivedParams, pair, t: float) -> float:
    """Time derivative of the trace distance of the evolved pair at time t.

    Positive values mark information flowing back from the cavity.  At
    isolated zeros of A the distance has a kink; NaN is returned there.
    """
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    a, b = _pair_coefficients(pair)
    amp = amplitude_closed_form(dp, t)
    x = abs(amp)
    d = _distance(x, a, b)
    if d < 1e-150:
        return math.nan
    h = (amplitude_derivative(dp, t) * amp.conjugate()).real  # = x * dx/dt
    return float((2.0 * a * a * x * x + b * b) * h / d)


def _grid_points(dp: DerivedParams, t_max: float) -> int:
    # |A| carries the mode frequencies Im(-M/2 +- F/4), never the bare
    # dressed frequency; the scan density tracks the fastest of those
    rate = max(dp.params.gamma, dp.params.lam,
               abs(dp.m_const.imag) / 2.0 + abs(dp.f_const.imag) / 4.0)
    n = int(math.ceil(POINTS_PER_CYCLE * rate * t_max / (2.0 * math.pi)))
    return min(MAX_GRID_POINTS, max(MIN_GRID_POINTS, n))


def _amp_extrema(dp: DerivedParams, t_max: float, points: int | None = None):
    """Refined times of the extrema of |A| on (0, t_max).

    Scans a dense grid for sign changes of d|A|^2/dt and refines each
    bracket by bisection; returns (times, kinds) with kind +1 for a minimum
    of |A| and -1 for a maximum.
    """
    n = points or _grid_points(dp, t_max)
    ts = np.linspace(0.0, t_max, n)
    A, dA = amplitude_grid(dp, ts)
    h = (dA * np.conj(A)).real
    sgn = np.sign(h)
    # skip the t = 0 point, where h vanishes identically
    change = np.flatnonzero(sgn[1:-1] * sgn[2:] < 0)
    if change.size == 0:
        return np.empty(0), np.empty(0, dtype=int)
    lo = ts[change + 1]
    hi = ts[change + 2]
    h_lo = h[change + 1]

    for _ in range(64):
        mid = 0.5 * (lo + hi)
        Am, dAm = amplitude_grid(dp, mid)
        hm = (dAm * np.conj(Am)).real
        same = (hm > 0) == (h_lo > 0)
        lo = np.where(same, mid, lo)
        h_lo = np.where(same, hm, h_lo)
        hi = np.where(same, hi, mid)
        if np.max(hi - lo) < 1e-10:
            break
    if np.max(hi - lo) >= 1e-10:
        raise ValidationError("bracket refinement failed to converge")
    times = 0.5 * (lo + hi)
    kinds = np.where(h_lo < 0, 1, -1)  # h rising through 0: minimum of |A|
    return times, kinds


def _interval_data(dp: DerivedParams, t_max: float, points: int | None = None):
    """Pair-independent interval skeleton: (t_start, t_end) and |A| there.

    An interval still open at the horizon is truncated at t_max; the missed
    tail is covered by the truncation bound of the measure.
    """
    if t_max <= 0:
        raise ValidationError(f"t_max must be > 0, got {t_max}")
    times, kinds = _amp_extrema(dp, t_max, points)
    spans = []
    k = 0
    while k < len(times):
        if kinds[k] == 1:
            start = times[k]
            end = times[k + 1] if k + 1 < len(times) else t_max
            spans.append((float(start), float(end)))
            k += 2
        else:
            k += 1
    if spans:
        ends = np.array([list(p) for p in spans]).ravel()
        x = np.abs(amplitude_grid(dp, ends)[0])
        amps = tuple((float(x[2 * i]), float(x[2 * i + 1])) for i in range(len(spans)))
    else:
        amps = ()
    return tuple(spans), amps


def backflow_intervals(dp: DerivedParams, pair, t_max: float,
                       points: int | None = None) -> BackflowIntervals:
    """Intervals of growing trace distance for the given antipodal pair."""
    a, b = _pair_coefficients(pair)
    spans, amps = _interval_data(dp, t_max, points)
    dvals = tuple(
        (float(_distance(xs, a, b)), float(_distance(xe, a, b))) for xs, xe in amps
    )
    return BackflowIntervals(intervals=spans, d_values=dvals, amp_values=amps,
                             t_max=t_max)


def blp_measure(params: SystemParams, t_max: float = 100.0, alpha_grid: int = 91,
                azimuth: float = 0.0, points: int | None = None) -> BlpResult:
    """Backflow measure maximized over antipodal pure pairs.

    The azimuth never enters the distance, so the search runs over the polar
    angle alpha in [0, pi/2]: a coarse grid of ``alpha_grid`` points followed
    by a bounded scalar refinement to 1e-4.  The measure integrates to the
    horizon t_max; the residual beyond it is bounded by 2|A(t_max)| and
    reported, with ``truncated`` set when |A(t_max)| >= 1e-4.
    """
    if alpha_grid < 2:
        raise ValidationError("alpha_grid must be >= 2")
    dp = derive(params)
    tail = abs(amplitude_closed_form(dp, t_max))
    truncated = tail >= TRUNCATION_EPS
    if truncated and t_max < 100.0 / params.gamma:
        raise ValidationError(
            "t_max too small: require |A(t_max)| < 1e-4 or t_max >= 100/gamma"
        )
    spans, amps = _interval_data(dp, t_max, points)
    xs = np.array([p[0] for p in amps])
    xe = np.array([p[1] for p in amps])

    def gain(alpha: float) -> float:
        if xs.size == 0:
            return 0.0
        a, b = math.cos(alpha), math.sin(alpha)
        return float(np.sum(_distance(xe, a, b) - _distance(xs, a, b)))

    alphas = np.linspace(0.0, math.pi / 2, alpha_grid)
    gains = np.array([gain(al) for al in alphas])
    k = int(np.argmax(gains))
    best_alpha, best_gain = float(alphas[k]), float(gains[k])
    if xs.size:
        lo = alphas[max(0, k - 1)]
        hi = alphas[min(alpha_grid - 1, k + 1)]
        res = minimize_scalar(lambda al: -gain(al), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-4})
        if res.success and -res.fun > best_gain:
            best_alpha, best_gain = float(res.x), float(-res.fun)
    pair = antipodal_pair(best_alpha, azimuth)
    ca, sa = math.cos(best_alpha), math.sin(best_alpha)
    dvals = tuple(
        (float(_distance(x0, ca, sa)), float(_distance(x1, ca, sa)))
        for x0, x1 in amps
    )
    return BlpResult(
        n_measure=best_gain,
        best_pair=pair,
        t_max=t_max,
        alpha=best_alpha,
        residual_bound=2.0 * tail,
        truncated=truncated,
        intervals=BackflowIntervals(spans, dvals, amps, t_max),
    )
