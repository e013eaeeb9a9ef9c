"""Trace-distance information flux and the BLP memory measure.

For any antipodal pure pair with polar angle alpha the evolved trace
distance is D(t) = sqrt(cos^2(alpha) |A|^4 + sin^2(alpha) |A|^2), strictly
increasing in |A|; hence the sign of the flux is pair-independent and the
backflow intervals are exactly the intervals where |A| grows.  Only the
magnitude of the accumulated backflow depends on alpha, which reduces the
pair maximization to a one-dimensional search.

The extrema of |A| are the sign changes of d|A|^2/dt.  In the two-mode form
of A that slope is a positive envelope times a e^{kt} + b e^{-kt} +
Re(C e^{iwt}), whose derivatives have closed-form bounds.  A bracket finder
uses them to certify every gap of its grid (no root, at most one root, or
split it), so no sign change can hide between grid points whatever their
spacing; each bracket is then refined on the amplitude kernel to 1e-10.
A bracket the kernel does not confirm, or extrema that do not alternate,
raise ValidationError rather than pass a wrong interval list on.
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


def _flux_coefficients(dp: DerivedParams):
    """Constants (a, b, C, k, w) of the two-mode form of the |A|^2 slope.

    With A = c+ exp(s+ t) + c- exp(s- t) and s+- = -M/2 +- F/4,

        d|A|^2/dt = 2 exp(-Re M t) g(t),
        g(t) = a exp(kt) + b exp(-kt) + Re(C exp(iwt)),

    a = |c+|^2 Re s+, b = |c-|^2 Re s-, C = c+ conj(c-) (s+ + conj s-),
    k = Re F/2, w = Im F/2.  With q = gamma*lam*(1+cos eta)^2 and
    D = F + 2M (Re D >= 2 lam, so D never cancels), c- = -q/(F D) and
    s+ = -q/(2D) are the cancellation-free forms of (1 - 2M/F)/2 and
    -M/2 + F/4, which lose every digit when the coupling q is tiny.
    """
    M, F = dp.m_const, dp.f_const
    q = -2.0 * dp.coupling_prefactor
    D = F + 2.0 * M
    c_plus, c_minus = D / (2.0 * F), -q / (F * D)
    s_plus, s_minus = -q / (2.0 * D), -0.25 * D
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
    """Times of the sign changes of h in the brackets, and their kinds.

    Every bracket must show a sign change of h at its ends; one that does
    not means G and the amplitude kernel disagree, and raises.  Newton steps
    on G, held inside each bracket, estimate the root; where h changes sign
    across the estimate +-0.45 _ROOT_TOL, that narrow bracket is the result,
    and every other bracket is bisected on h.
    """
    h_lo = _h_grid(dp, lo)
    if np.any((h_lo > 0) == (_h_grid(dp, hi) > 0)):
        raise ValidationError("extremum bracket shows no sign change of d|A|/dt")
    rising = h_lo <= 0  # h rising through 0: minimum of |A|
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
    pos = _h_grid(dp, np.concatenate([left, right])) > 0
    ok = (pos[:x.size] != rising) & (pos[x.size:] == rising)
    times = 0.5 * (left + right)
    times[~ok] = _bisect(dp, lo[~ok], hi[~ok], h_lo[~ok])
    return times, np.where(rising, 1, -1)


def _amp_extrema(dp: DerivedParams, t_max: float):
    """Refined times of the extrema of |A| on (0, t_max).

    Brackets the sign changes of d|A|^2/dt with the certified finder on its
    two-mode form, starting from gaps of an eighth of the beat period
    pi/(4|w|), and refines each bracket on the amplitude kernel; returns
    (times, kinds) with kind +1 for a minimum of |A| and -1 for a maximum.
    |A| falls from t = 0, so the kinds must alternate starting with a
    minimum; any other sequence raises.
    """
    none = np.empty(0), np.empty(0, dtype=int)
    if dp.f_const.imag == 0.0:
        # critical or overdamped: M is real, A real, positive and decreasing
        return none
    coef = _flux_coefficients(dp)
    a, b, C, _, w = coef
    if a == 0.0 and b == 0.0 and C == 0.0:
        return none  # decoupled qubit: |A| = 1 throughout
    n = max(1, math.ceil(4.0 * abs(w) * t_max / math.pi))
    times, kinds = [], []
    for start in range(0, n, _CHUNK):
        nodes = t_max * (np.arange(start, min(n, start + _CHUNK) + 1) / n)
        tt, kk = _refine(dp, coef, *_flux_brackets(coef, nodes))
        times.append(tt)
        kinds.append(kk)
    kinds = np.concatenate(kinds)
    if kinds.size and (kinds[0] != 1 or np.any(kinds[1:] == kinds[:-1])):
        raise ValidationError("extrema of |A| do not alternate")
    return np.concatenate(times), kinds


def _interval_data(dp: DerivedParams, t_max: float):
    """Pair-independent interval skeleton: (t_start, t_end) and |A| there.

    An interval still open at the horizon is truncated at t_max; the missed
    tail is covered by the truncation bound of the measure.
    """
    if t_max <= 0:
        raise ValidationError(f"t_max must be > 0, got {t_max}")
    times, _ = _amp_extrema(dp, t_max)  # minimum, maximum, minimum, ...
    starts = times[0::2]
    ends = np.append(times[1::2], t_max)[:starts.size]
    x = np.abs(amplitude_grid(dp, np.concatenate([starts, ends]))[0])
    return (tuple(zip(starts.tolist(), ends.tolist())),
            tuple(zip(x[:starts.size].tolist(), x[starts.size:].tolist())))


def backflow_intervals(dp: DerivedParams, pair, t_max: float) -> BackflowIntervals:
    """Intervals of growing trace distance for the given antipodal pair."""
    a, b = _pair_coefficients(pair)
    spans, amps = _interval_data(dp, t_max)
    dvals = tuple(
        (float(_distance(xs, a, b)), float(_distance(xe, a, b))) for xs, xe in amps
    )
    return BackflowIntervals(intervals=spans, d_values=dvals, amp_values=amps,
                             t_max=t_max)


def blp_measure(params: SystemParams, t_max: float = 100.0, alpha_grid: int = 91,
                azimuth: float = 0.0) -> BlpResult:
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
    spans, amps = _interval_data(dp, t_max)
    xs = np.array([p[0] for p in amps])
    xe = np.array([p[1] for p in amps])

    def gain(a, b):
        """Accumulated backflow for pair coefficients (a, b); broadcasts."""
        return np.sum(_distance(xe, a, b) - _distance(xs, a, b), axis=-1)

    alphas = np.linspace(0.0, math.pi / 2, alpha_grid)
    gains = gain(np.cos(alphas)[:, None], np.sin(alphas)[:, None])
    k = int(np.argmax(gains))
    best_alpha, best_gain = float(alphas[k]), float(gains[k])
    if xs.size:
        lo = alphas[max(0, k - 1)]
        hi = alphas[min(alpha_grid - 1, k + 1)]
        res = minimize_scalar(lambda al: -float(gain(math.cos(al), math.sin(al))),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-4})
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
