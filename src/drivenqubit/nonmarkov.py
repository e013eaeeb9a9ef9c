"""Trace-distance information flux and the BLP memory measure.

For an antipodal pure pair at polar angle alpha, with u = cos^2(alpha), the
evolved trace distance is D = f(|A|, u), f(x, u) = x sqrt(1 - u(1 - x^2)),
strictly increasing in |A|; hence the sign of the flux is pair-independent
and the backflow intervals are exactly the intervals where |A| grows.  Only
the magnitude of the accumulated backflow depends on the pair, and only
through u (the azimuth never enters), so the pair maximization is a search
over u in [0, 1].  Each f is concave in u, so a branch and bound with
closed-form bounds certifies the maximum to rounding, with no grid and no
local optimizer (the measure: Breuer, Laine, Piilo, PRL 103, 210401 (2009);
optimal pairs are antipodal and pure: Wissmann et al., PRA 86, 062108
(2012)).

The extrema of |A| are the sign changes of d|A|^2/dt.  In the two-mode form
of A that slope is a positive envelope times a e^{kt} + b e^{-kt} +
Re(C e^{iwt}), whose derivatives have closed-form bounds.  A bracket finder
uses them to certify every gap of its grid (no root, at most one root, or
split it), so no sign change can hide between grid points whatever their
spacing; each bracket is then refined to 1e-10 and confirmed on the
amplitude kernel, in one kernel call that also gives |A| at the extrema.
A bracket the kernel does not confirm, or extrema that do not alternate,
raise ValidationError rather than pass a wrong interval list on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitude import (amplitude_closed_form, amplitude_derivative, amplitude_grid,
                        mode_rates)
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

TRUNCATION_EPS = 1e-4
_PAIR_ATOL = 1e-9
_ROOT_TOL = 1e-10  # width of a refined extremum bracket
_ROUNDING = 16 * np.finfo(float).eps
_CHUNK = 1 << 18  # initial gaps of the bracket finder per pass
_NEWTON_STEPS = 6


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


def _pair_u(pair) -> float:
    """u = cos^2(alpha) of an antipodal pure pair, alpha its polar angle."""
    v1, v2 = pair
    if abs(v1.x + v2.x) > _PAIR_ATOL or abs(v1.y + v2.y) > _PAIR_ATOL \
            or abs(v1.z + v2.z) > _PAIR_ATOL:
        raise ValidationError("pair must be antipodal")
    if abs(v1.norm() - 1.0) > _PAIR_ATOL:
        raise ValidationError("pair must be pure (unit Bloch vectors)")
    return min(v1.z * v1.z, 1.0)


def _distance(x, u):
    """Trace distance f(x, u) = x sqrt(1 - u(1 - x^2)) at x = |A|, u = cos^2(alpha)."""
    return x * np.sqrt((1.0 - u) + u * (x * x))


def info_flux(dp: DerivedParams, pair, t: float) -> float:
    """Time derivative of the trace distance of the evolved pair at time t.

    Positive values mark information flowing back from the cavity.  At
    isolated zeros of A the distance has a kink; NaN is returned there.
    """
    if t < 0:
        raise ValidationError(f"t must be >= 0, got {t}")
    u = _pair_u(pair)
    amp = amplitude_closed_form(dp, t)
    x = abs(amp)
    d = _distance(x, u)
    if d < 1e-150:
        return math.nan
    h = (amplitude_derivative(dp, t) * amp.conjugate()).real  # = x * dx/dt
    return float(((1.0 - u) + 2.0 * u * x * x) * h / d)


def _flux_coefficients(dp: DerivedParams):
    """Constants (a, b, C, k, w) of the two-mode form of the |A|^2 slope.

    With A = c+ exp(s+ t) + c- exp(s- t) and s+- = -M/2 +- F/4,

        d|A|^2/dt = 2 exp(-Re M t) g(t),
        g(t) = a exp(kt) + b exp(-kt) + Re(C exp(iwt)),

    a = |c+|^2 Re s+, b = |c-|^2 Re s-, C = c+ conj(c-) (s+ + conj s-),
    k = Re F/2, w = Im F/2.  With q = gamma*lam*(1+cos eta)^2 and
    D = F + 2M (Re D >= 2 lam, so D never cancels), c- = -q/(F D) and
    s+ = -q/(2D) (``mode_rates``) are the cancellation-free forms of
    (1 - 2M/F)/2 and -M/2 + F/4, which lose every digit when the coupling q
    is tiny.
    """
    M, F = dp.m_const, dp.f_const
    q = -2.0 * dp.coupling_prefactor
    D = F + 2.0 * M
    c_plus, c_minus = D / (2.0 * F), -q / (F * D)
    s_plus, s_minus = mode_rates(dp)
    a = abs(c_plus) ** 2 * s_plus.real
    b = abs(c_minus) ** 2 * s_minus.real
    C = c_plus * c_minus.conjugate() * (s_plus + s_minus.conjugate())
    return a, b, C, 0.5 * F.real, 0.5 * F.imag


def _flux_form(coef, t: np.ndarray):
    """G = exp(-kt) g = a + b exp(-2kt) + Re(C exp((iw - k) t)), G' and exp(-2kt).

    G has the sign of d|A|^2/dt and never overflows (k >= 0).
    """
    a, b, C, k, w = coef
    z = complex(-k, w)
    e2 = np.exp(-2.0 * k * t)
    ce = C * np.exp(z * t)
    return a + b * e2 + ce.real, -2.0 * k * b * e2 + (z * ce).real, e2


def _node_data(coef, t: np.ndarray) -> np.ndarray:
    """Rows G, G', their rounding bounds, and bounds on |G'|, |G''| from t on.

    Both exponentials of G decay, so the derivative bounds taken at a gap's
    left end hold across the gap.
    """
    a, b, C, k, w = coef
    g, dg, e2 = _flux_form(coef, t)
    env = abs(C) * np.sqrt(e2)
    speed = math.hypot(k, w)
    lip1 = 2.0 * k * abs(b) * e2 + speed * env
    lip2 = 4.0 * k * k * abs(b) * e2 + speed * speed * env
    # evaluation error, including that of the rounded exponent arguments
    err_g = _ROUNDING * (abs(a) + abs(b) * e2 + env + t * lip1)
    err_dg = _ROUNDING * (lip1 + t * lip2)
    return np.array([g, dg, err_g, err_dg, lip1, lip2])


def _flux_brackets(coef, t: np.ndarray):
    """Gaps of the node grid t over which G certifiably changes sign once.

    A gap whose end values exceed the Lipschitz bound of G times its width
    holds no root; a gap on which G' certifiably keeps its sign holds at
    most one, present iff G changes sign at its ends.  Every other gap is
    halved.  A gap narrower than the refinement tolerance, or on which G
    cannot vary by more than its rounding error, is judged by the signs of
    its ends, so the halving always stops.
    """
    v = _node_data(coef, t)
    if t[0] == 0.0:
        v[0, 0] = 0.0  # dA/dt = 0 at t = 0; G turns negative right after it
    lo, hi, left, right = t[:-1], t[1:], v[:, :-1], v[:, 1:]
    out_lo, out_hi = [], []
    while lo.size:
        dt = hi - lo
        no_root = (np.abs(left[0]) + np.abs(right[0]) - left[2] - right[2]
                   > left[4] * dt)
        monotone = (np.abs(left[1]) + np.abs(right[1]) - left[3] - right[3]
                    > left[5] * dt)
        at_floor = (dt <= _ROOT_TOL) | (left[4] * dt <= left[2] + right[2])
        judged = ~no_root & (monotone | at_floor)
        hit = judged & ((left[0] > 0) != (right[0] > 0))
        out_lo.append(lo[hit])
        out_hi.append(hi[hit])
        split = ~no_root & ~judged
        lo, hi, left, right = lo[split], hi[split], left[:, split], right[:, split]
        mid = 0.5 * (lo + hi)
        vm = _node_data(coef, mid)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        left = np.concatenate([left, vm], axis=1)
        right = np.concatenate([vm, right], axis=1)
    lo, hi = np.concatenate(out_lo), np.concatenate(out_hi)
    order = np.argsort(lo)
    return lo[order], hi[order]


def _h_grid(dp: DerivedParams, t: np.ndarray) -> np.ndarray:
    """h = Re(dA/dt conj(A)) = |A| d|A|/dt from the amplitude kernel."""
    A, dA = amplitude_grid(dp, t)
    return (dA * np.conj(A)).real


def _bisect(dp: DerivedParams, lo, hi, h_lo):
    """Halve brackets of a sign change of h until narrower than _ROOT_TOL."""
    for _ in range(64):
        if lo.size == 0 or np.max(hi - lo) < _ROOT_TOL:
            break
        mid = 0.5 * (lo + hi)
        hm = _h_grid(dp, mid)
        same = (hm > 0) == (h_lo > 0)
        lo = np.where(same, mid, lo)
        h_lo = np.where(same, hm, h_lo)
        hi = np.where(same, hi, mid)
    if lo.size and np.max(hi - lo) >= _ROOT_TOL:
        raise ValidationError("bracket refinement failed to converge")
    return 0.5 * (lo + hi)


def _refine(dp: DerivedParams, coef, lo: np.ndarray, hi: np.ndarray):
    """Times of the sign changes of h in the brackets, their kinds and |A| there.

    G at each bracket's right end gives the direction of its sign change.
    Newton steps on G, held inside the bracket, estimate the root.  One
    kernel call then gives h at both ends of every bracket and at the
    estimate +-0.45 _ROOT_TOL, and |A| at the estimate.  A bracket whose
    ends show no sign change of h, or one against G's direction, means G and
    the kernel disagree, and raises.  Where h changes sign across the
    estimate, that narrow bracket is the result; every other bracket is
    bisected on h.
    """
    n = lo.size
    if n == 0:
        return np.empty(0), np.empty(0, dtype=int), np.empty(0)
    rising = _flux_form(coef, hi)[0] > 0  # h rising through 0: minimum of |A|
    left, right, x = lo, hi, 0.5 * (lo + hi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            g, dg, _ = _flux_form(coef, x)
            past = (g > 0) == rising
            left, right = np.where(past, left, x), np.where(past, x, right)
            x = x - g / dg
            x = np.where((x >= left) & (x <= right), x, 0.5 * (left + right))
    left = np.maximum(x - 0.45 * _ROOT_TOL, lo)
    right = np.minimum(x + 0.45 * _ROOT_TOL, hi)
    times = 0.5 * (left + right)
    A, dA = amplitude_grid(dp, np.concatenate([lo, hi, left, right, times]))
    h = (dA[:4 * n] * np.conj(A[:4 * n])).real.reshape(4, n)
    pos = h > 0
    if np.any(pos[0] == pos[1]):
        raise ValidationError("extremum bracket shows no sign change of d|A|/dt")
    if np.any(pos[1] != rising):
        raise ValidationError("extremum bracket: the kernel and the two-mode form "
                              "disagree on the direction of d|A|/dt")
    amp = np.abs(A[4 * n:])
    bad = (pos[2] == rising) | (pos[3] != rising)
    if np.any(bad):
        times[bad] = _bisect(dp, lo[bad], hi[bad], h[0, bad])
        amp[bad] = np.abs(amplitude_grid(dp, times[bad])[0])
    return times, np.where(rising, 1, -1), amp


def _amp_extrema(dp: DerivedParams, t_max: float):
    """Refined times of the extrema of |A| on (0, t_max), their kinds and |A|.

    Brackets the sign changes of d|A|^2/dt with the certified finder on its
    two-mode form, starting from gaps of an eighth of the beat period
    pi/(4|w|), and refines each bracket on the amplitude kernel; returns
    (times, kinds, |A| there) with kind +1 for a minimum of |A| and -1 for a
    maximum.  |A| falls from t = 0, so the kinds must alternate starting
    with a minimum; any other sequence raises.
    """
    none = np.empty(0), np.empty(0, dtype=int), np.empty(0)
    if dp.f_const.imag == 0.0:
        # critical or overdamped: M is real, A real, positive and decreasing
        return none
    coef = _flux_coefficients(dp)
    a, b, C, _, w = coef
    if a == 0.0 and b == 0.0 and C == 0.0:
        return none  # decoupled qubit: |A| = 1 throughout
    n = max(1, math.ceil(4.0 * abs(w) * t_max / math.pi))
    parts = []
    for start in range(0, n, _CHUNK):
        nodes = t_max * (np.arange(start, min(n, start + _CHUNK) + 1) / n)
        parts.append(_refine(dp, coef, *_flux_brackets(coef, nodes)))
    times, kinds, amps = (np.concatenate(p) for p in zip(*parts))
    if kinds.size and (kinds[0] != 1 or np.any(kinds[1:] == kinds[:-1])):
        raise ValidationError("extrema of |A| do not alternate")
    return times, kinds, amps


def _interval_data(dp: DerivedParams, t_max: float):
    """Pair-independent interval skeleton: starts, ends and |A| at both.

    An interval still open at the horizon is truncated at t_max; the missed
    tail is covered by the truncation bound of the measure.
    """
    if t_max <= 0:
        raise ValidationError(f"t_max must be > 0, got {t_max}")
    times, _, x = _amp_extrema(dp, t_max)  # minimum, maximum, minimum, ...
    starts, ends, xs, xe = times[0::2], times[1::2], x[0::2], x[1::2]
    if ends.size < starts.size:
        ends = np.append(ends, t_max)
        xe = np.append(xe, abs(amplitude_closed_form(dp, t_max)))
    return starts, ends, xs, xe


def _intervals(data, u: float, t_max: float) -> BackflowIntervals:
    """Backflow intervals of the pair with u = cos^2(alpha)."""
    starts, ends, xs, xe = data
    return BackflowIntervals(
        intervals=tuple(zip(starts.tolist(), ends.tolist())),
        d_values=tuple(zip(_distance(xs, u).tolist(), _distance(xe, u).tolist())),
        amp_values=tuple(zip(xs.tolist(), xe.tolist())),
        t_max=t_max,
    )


def backflow_intervals(dp: DerivedParams, pair, t_max: float) -> BackflowIntervals:
    """Intervals of growing trace distance for the given antipodal pair."""
    return _intervals(_interval_data(dp, t_max), _pair_u(pair), t_max)


def _gain_nodes(xs: np.ndarray, xe: np.ndarray, u: np.ndarray):
    """Gain, P' and s(xs, u) at each node u; see ``_max_gain``.

    Each interval's term is written without cancellation,
    f(xe, u) - f(xs, u) = (xe - xs)(xe + xs)(1 - u(1 - xe^2 - xs^2))
    / (f(xe, u) + f(xs, u)).  f(x, u) = x s(x, u) with
    s = sqrt(1 - u(1 - x^2)), and P' = -sum xe (1 - xe^2) / (2 s(xe, u)).
    Where a denominator vanishes (x = 0 at u = 1) the term is 0.
    """
    u = u[:, None]
    v = 1.0 - u
    se = np.sqrt(v + u * (xe * xe))
    ss = np.sqrt(v + u * (xs * xs))
    den = xe * se + xs * ss
    num = (xe - xs) * (xe + xs) * (v + u * (xe * xe + xs * xs))
    term = np.divide(num, den, out=np.zeros_like(den), where=den > 0)
    slope = np.divide(xe * (1.0 - xe * xe), se, out=np.zeros_like(se), where=se > 0)
    return term.sum(axis=1), -0.5 * slope.sum(axis=1), ss


def _max_gain(xs: np.ndarray, xe: np.ndarray) -> tuple[float, float]:
    """Certified maximum of gain(u) = sum_i f(xe_i, u) - f(xs_i, u) on [0, 1].

    Returns (gain, u) with u = cos^2(alpha) of the best pair.  Both ends are
    evaluated first; a tie keeps u = 1, the polar pair.  Then branch and
    bound: P = sum f(xe, u) and Q = sum f(xs, u) are concave in u, so on a
    sub-interval P lies below its tangent at either end and Q above its
    chord, whose slope -sum xs(1 - xs^2) / (s(xs, u0) + s(xs, u1)) needs no
    difference of Q values.  The gain therefore lies below the lower
    envelope of two lines through the end values; a sub-interval whose
    bound does not exceed the best gain found by more than a rounding
    allowance scaled to it is dropped, every other one is halved and its
    midpoint evaluated, and only a midpoint that beats the best by more
    than the allowance replaces it.  A sub-interval with no representable
    midpoint is judged by its ends, so the halving always stops.
    """
    if xs.size == 0:
        return 0.0, 1.0
    cs = xs * (1.0 - xs * xs)
    g, p, s = _gain_nodes(xs, xe, np.array([0.0, 1.0]))
    k = int(g[1] >= g[0])
    best, best_u = float(g[k]), float(k)
    lo, hi = np.zeros(1), np.ones(1)
    left, right = (g[:1], p[:1], s[:1]), (g[1:], p[1:], s[1:])
    while True:
        (g0, p0, s0), (g1, p1, s1) = left, right
        width = hi - lo
        chord = -(cs / (s0 + s1)).sum(axis=1)
        a0, a1 = p0 - chord, p1 - chord  # slopes of the two bounding lines
        inner = (a0 > 0.0) & (a1 < 0.0)
        cross = np.divide(g1 - g0 - a1 * width, a0 - a1, out=np.zeros_like(width),
                          where=inner)
        bound = np.where(a0 <= 0.0, g0,
                         np.where(a1 >= 0.0, g1, g0 + a0 * np.clip(cross, 0.0, width)))
        allowance = _ROUNDING * abs(best)
        mid = 0.5 * (lo + hi)
        live = (bound > best + allowance) & (lo < mid) & (mid < hi)
        if not live.any():
            return best, best_u
        lo, hi, mid = lo[live], hi[live], mid[live]
        left = tuple(a[live] for a in left)
        right = tuple(a[live] for a in right)
        at_mid = _gain_nodes(xs, xe, mid)
        j = int(np.argmax(at_mid[0]))
        if at_mid[0][j] > best + allowance:
            best, best_u = float(at_mid[0][j]), float(mid[j])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        left = tuple(np.concatenate(pair) for pair in zip(left, at_mid))
        right = tuple(np.concatenate(pair) for pair in zip(at_mid, right))


def blp_measure(params: SystemParams, t_max: float = 100.0,
                azimuth: float = 0.0) -> BlpResult:
    """Backflow measure maximized over antipodal pure pairs.

    The azimuth never enters the distance; the polar angle alpha of the
    best pair comes from the certified maximum over u = cos^2(alpha) in
    [0, 1] (``_max_gain``), exact at the ends alpha = 0 and pi/2.  The
    measure integrates to the horizon t_max; the residual beyond it is
    bounded by 2|A(t_max)| and reported, with ``truncated`` set when
    |A(t_max)| >= 1e-4.
    """
    dp = derive(params)
    tail = abs(amplitude_closed_form(dp, t_max))
    truncated = tail >= TRUNCATION_EPS
    if truncated and t_max < 100.0 / params.gamma:
        raise ValidationError(
            "t_max too small: require |A(t_max)| < 1e-4 or t_max >= 100/gamma"
        )
    data = _interval_data(dp, t_max)  # starts, ends, |A| at both
    n_measure, u = _max_gain(*data[2:])
    alpha = math.atan2(math.sqrt(1.0 - u), math.sqrt(u))
    return BlpResult(
        n_measure=n_measure,
        best_pair=antipodal_pair(alpha, azimuth),
        t_max=t_max,
        alpha=alpha,
        residual_bound=2.0 * tail,
        truncated=truncated,
        intervals=_intervals(data, u, t_max),
    )
