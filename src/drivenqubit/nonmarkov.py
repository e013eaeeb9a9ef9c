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
fail the row with a ValidationError rather than pass a wrong interval list
on.

The rows of a sweep are evaluated together (``blp_measures``;
``blp_measure`` is its one-row view).  The initial gaps of all rows are
taken in (row, time) order, each with the index of its row, and every
array carries the constants of its own rows: the finder, the Newton steps,
the kernel confirmation and the bisection fallback run on slices of at
most ``_CHUNK`` initial gaps, a cap across rows that bounds the peak
memory, and one branch and bound searches the pairs of all rows.  A row's
result depends on its own data alone, and a row that fails records its
error while the others go on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .amplitude import _mode_form, amplitude_grid, mode_constants, mode_rates
from .params import DerivedParams, SystemParams, ValidationError, derive
from .states import BlochVector

__all__ = [
    "BackflowIntervals",
    "BlpResult",
    "antipodal_pair",
    "info_flux",
    "backflow_intervals",
    "blp_measure",
    "blp_measures",
]

TRUNCATION_EPS = 1e-4
_PAIR_ATOL = 1e-9
_ROOT_TOL = 1e-10  # width of a refined extremum bracket
_ROUNDING = 16 * np.finfo(float).eps
_CHUNK = 4096  # initial gaps of the bracket finder per pass, across rows
_NEWTON_STEPS = 6
_NEWTON_MORE = 24  # for the brackets the first steps leave unconfirmed


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
    A, dA = amplitude_grid(dp, t)
    amp = complex(A)
    x = abs(amp)
    d = _distance(x, u)
    if d < 1e-150:
        return math.nan
    h = (complex(dA) * amp.conjugate()).real  # = x * dx/dt
    return float(((1.0 - u) + 2.0 * u * x * x) * h / d)


def _flux_coefficients(dp: DerivedParams):
    """Constants (a, b, C, k, w) of the two-mode form of the |A|^2 slope.

    With A = c+ exp(s+ t) + c- exp(s- t) and s+- = -M/2 +- F/4,

        d|A|^2/dt = 2 exp(-Re M t) g(t),
        g(t) = a exp(kt) + b exp(-kt) + Re(C exp(iwt)),

    a = |c+|^2 Re s+, b = |c-|^2 Re s-, C = c+ conj(c-) (s+ + conj s-),
    k = Re F/2, w = Im F/2.  The rates, the root F (Re F >= 0) and the
    weights c+ = -2 s-/F, c- = 2 s+/F come from ``mode_rates``, whose s+
    is free of the cancellation in -M/2 + F/4 (and so c- of that in
    (1 - 2M/F)/2) when the coupling is tiny.
    """
    s_plus, s_minus, F = mode_rates(dp)
    c_plus, c_minus = -2.0 * s_minus / F, 2.0 * s_plus / F
    a = abs(c_plus) ** 2 * s_plus.real
    b = abs(c_minus) ** 2 * s_minus.real
    C = c_plus * c_minus.conjugate() * (s_plus + s_minus.conjugate())
    return a, b, C, 0.5 * F.real, 0.5 * F.imag


class _Flux(NamedTuple):
    """Constants a, b, C, k of ``_flux_coefficients``, with |C|, hypot(k, w)
    and z = -k + iw as Python rounds them; one entry per row of a table, or
    per point once gathered with ``at``."""

    a: np.ndarray
    b: np.ndarray
    C: np.ndarray
    k: np.ndarray
    abs_c: np.ndarray
    speed: np.ndarray
    z: np.ndarray

    @classmethod
    def of(cls, coefs) -> "_Flux":
        """Table of the per-row tuples (a, b, C, k, w)."""
        coefs = list(coefs)
        a, b, k, abs_c, speed = np.array(
            [(a, b, k, abs(C), math.hypot(k, w)) for a, b, C, k, w in coefs],
            dtype=float).reshape(-1, 5).T
        C, z = np.array([(C, complex(-k, w)) for _, _, C, k, w in coefs],
                        dtype=complex).reshape(-1, 2).T
        return cls(a, b, C, k, abs_c, speed, z)

    def at(self, index) -> "_Flux":
        return _Flux(*(col[index] for col in self))


def _flux_form(c: _Flux, t: np.ndarray):
    """G = exp(-kt) g = a + b exp(-2kt) + Re(C exp((iw - k) t)), G' and exp(-2kt).

    G has the sign of d|A|^2/dt and never overflows (k >= 0).  ``c`` holds
    the constants of each point of t.
    """
    e2 = np.exp(-2.0 * c.k * t)
    ce = c.C * np.exp(c.z * t)
    return c.a + c.b * e2 + ce.real, -2.0 * c.k * c.b * e2 + (c.z * ce).real, e2


def _node_data(c: _Flux, t: np.ndarray) -> np.ndarray:
    """Rows G, G', their rounding bounds, and bounds on |G'|, |G''| from t on.

    Both exponentials of G decay, so the derivative bounds taken at a gap's
    left end hold across the gap.
    """
    g, dg, e2 = _flux_form(c, t)
    env = c.abs_c * np.sqrt(e2)
    abs_b = np.abs(c.b)
    lip1 = 2.0 * c.k * abs_b * e2 + c.speed * env
    lip2 = 4.0 * c.k * c.k * abs_b * e2 + c.speed * c.speed * env
    # evaluation error, including that of the rounded exponent arguments
    err_g = _ROUNDING * (np.abs(c.a) + abs_b * e2 + env + t * lip1)
    err_dg = _ROUNDING * (lip1 + t * lip2)
    return np.array([g, dg, err_g, err_dg, lip1, lip2])


def _flux_brackets(flux: _Flux, t: np.ndarray, owner: np.ndarray):
    """Gaps of the node grids over which G certifiably changes sign once.

    t holds the increasing node grid of each row, one after the other, and
    ``owner`` the row of each node in the table ``flux``; the gaps are those
    between consecutive nodes of one row.  Returns (lo, hi, owner) of the
    brackets in (row, time) order.

    A gap whose end values exceed the Lipschitz bound of G times its width
    holds no root; a gap on which G' certifiably keeps its sign holds at
    most one, present iff G changes sign at its ends.  Every other gap is
    halved.  A gap narrower than the refinement tolerance, or on which G
    cannot vary by more than its rounding error, is judged by the signs of
    its ends, so the halving always stops.
    """
    v = _node_data(flux.at(owner), t)
    v[0, t == 0.0] = 0.0  # dA/dt = 0 at t = 0; G turns negative right after it
    # views: the first pass copies only the gaps it splits
    lo, hi, own, left, right = t[:-1], t[1:], owner[:-1], v[:, :-1], v[:, 1:]
    other = owner[1:] != own  # a row's last node and the next row's first
    found = [(t[:0], t[:0], owner[:0])]
    while lo.size:
        dt = hi - lo
        no_root = other | (np.abs(left[0]) + np.abs(right[0]) - left[2] - right[2]
                           > left[4] * dt)
        other = False
        monotone = (np.abs(left[1]) + np.abs(right[1]) - left[3] - right[3]
                    > left[5] * dt)
        at_floor = (dt <= _ROOT_TOL) | (left[4] * dt <= left[2] + right[2])
        judged = ~no_root & (monotone | at_floor)
        hit = judged & ((left[0] > 0) != (right[0] > 0))
        found.append((lo[hit], hi[hit], own[hit]))
        split = ~no_root & ~judged
        lo, hi, own = lo[split], hi[split], own[split]
        left, right = left[:, split], right[:, split]
        mid = 0.5 * (lo + hi)
        vm = _node_data(flux.at(own), mid)
        lo, hi, own = (np.concatenate([lo, mid]), np.concatenate([mid, hi]),
                       np.concatenate([own, own]))
        left = np.concatenate([left, vm], axis=1)
        right = np.concatenate([vm, right], axis=1)
    lo, hi, own = (np.concatenate(col) for col in zip(*found))
    order = np.lexsort((lo, own))
    return lo[order], hi[order], own[order]


def _amplitude(modes, t: np.ndarray, owner: np.ndarray):
    """(A, dA/dt) at times t, each with the constants of its own row
    (``modes`` from ``mode_constants``)."""
    M, F, pref, s_plus = (col[owner] for col in modes)
    return _mode_form(M, F, t, s_plus, pref)


def _bisect(modes, lo, hi, rising, owner):
    """Halve each bracket of a sign change of h (upwards where ``rising``)
    until it is narrower than _ROOT_TOL.

    Returns the midpoints and where 64 halvings did not get there.
    """
    lo, hi = lo.copy(), hi.copy()
    for _ in range(64):
        i = np.flatnonzero(hi - lo >= _ROOT_TOL)
        if i.size == 0:
            break
        mid = 0.5 * (lo[i] + hi[i])
        A, dA = _amplitude(modes, mid, owner[i])
        past = ((dA * np.conj(A)).real > 0) == rising[i]
        lo[i] = np.where(past, lo[i], mid)
        hi[i] = np.where(past, mid, hi[i])
    return 0.5 * (lo + hi), hi - lo >= _ROOT_TOL


def _newton(c: _Flux, left, right, x, rising, steps: int):
    """Newton steps on G from x, held inside the brackets [left, right] of
    its sign change; each step also narrows the bracket to x's side."""
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(steps):
            g, dg, _ = _flux_form(c, x)
            past = (g > 0) == rising
            left, right = np.where(past, left, x), np.where(past, x, right)
            x = x - g / dg
            x = np.where((x >= left) & (x <= right), x, 0.5 * (left + right))
    return left, right, x


def _confirm(modes, lo, hi, x, rising, owner):
    """One kernel call: h at the bracket ends and at x +- 0.45 _ROOT_TOL, |A| at x.

    Returns (h at the ends, the narrow bracket's midpoints, |A| there, and
    where h fails to change sign across the narrow bracket).
    """
    n = lo.size
    left = np.maximum(x - 0.45 * _ROOT_TOL, lo)
    right = np.minimum(x + 0.45 * _ROOT_TOL, hi)
    times = 0.5 * (left + right)
    A, dA = _amplitude(modes, np.concatenate([lo, hi, left, right, times]),
                       np.tile(owner, 5))
    pos = (dA[:4 * n] * np.conj(A[:4 * n])).real.reshape(4, n) > 0
    return pos[:2], times, np.abs(A[4 * n:]), (pos[2] == rising) | (pos[3] != rising)


def _fail(failures: dict, rows, message: str) -> None:
    """Record the error of each row in ``rows`` that has none yet."""
    for r in set(rows.tolist()):
        failures.setdefault(r, ValidationError(message))


def _refine(flux: _Flux, modes, lo, hi, owner):
    """Times of the sign changes of h in the brackets, their kinds and |A| there.

    G at each bracket's right end gives the direction of its sign change.
    Newton steps on G, held inside the bracket, estimate the root.  One
    kernel call then gives h at both ends of every bracket and at the
    estimate +-0.45 _ROOT_TOL, and |A| at the estimate.  A bracket whose
    ends show no sign change of h, or one against G's direction, means G and
    the kernel disagree, and fails its row.  Where h changes sign across the
    estimate, that narrow bracket is the result.  The other brackets, whose
    Newton steps had not yet converged, go on with up to _NEWTON_MORE steps
    on G and are confirmed again in one kernel call; only a bracket that
    still fails is bisected on h.  Returns (times, kinds, |A|, failures),
    failures mapping a row to its ValidationError.
    """
    failures: dict = {}
    if lo.size == 0:
        return lo, np.empty(0, dtype=int), lo, failures
    c = flux.at(owner)
    rising = _flux_form(c, hi)[0] > 0  # h rising through 0: minimum of |A|
    left, right, x = _newton(c, lo, hi, 0.5 * (lo + hi), rising, _NEWTON_STEPS)
    ends, times, amp, bad = _confirm(modes, lo, hi, x, rising, owner)
    _fail(failures, owner[ends[0] == ends[1]],
          "extremum bracket shows no sign change of d|A|/dt")
    _fail(failures, owner[ends[1] != rising],
          "extremum bracket: the kernel and the two-mode form disagree on the "
          "direction of d|A|/dt")
    bad &= ~np.isin(owner, list(failures))
    if bad.any():
        b_own, b_lo, b_hi, b_rising = owner[bad], lo[bad], hi[bad], rising[bad]
        x = _newton(c.at(bad), left[bad], right[bad], x[bad], b_rising, _NEWTON_MORE)[2]
        _, b_times, b_amp, still = _confirm(modes, b_lo, b_hi, x, b_rising, b_own)
        if still.any():
            s_own = b_own[still]
            b_times[still], stuck = _bisect(modes, b_lo[still], b_hi[still],
                                            b_rising[still], s_own)
            _fail(failures, s_own[stuck], "bracket refinement failed to converge")
            b_amp[still] = np.abs(_amplitude(modes, b_times[still], s_own)[0])
        times[bad], amp[bad] = b_times, b_amp
    return times, np.where(rising, 1, -1), amp, failures


def _amp_extrema(dps, t_maxes):
    """Refined times of the extrema of |A| on (0, t_max) of every row, their
    kinds and |A| there.

    Brackets the sign changes of d|A|^2/dt with the certified finder on its
    two-mode form, starting from gaps of an eighth of the beat period
    pi/(4|w|), and refines each bracket on the amplitude kernel; kind +1
    marks a minimum of |A| and -1 a maximum.  The initial gaps of all rows
    are taken in (row, time) order, ``_CHUNK`` at a time.  |A| falls from
    t = 0, so the kinds of a row must alternate starting with a minimum;
    any other sequence fails the row.  Returns (times, kinds, amps, owner,
    errors): the extrema of the rows that did not fail, in (row, time)
    order, the row of each, and per row its ValidationError or None.
    """
    n_rows = len(dps)
    failures: dict = {}
    counts = np.zeros(n_rows, dtype=int)  # initial gaps per row
    coefs = []
    for i, (dp, t_max) in enumerate(zip(dps, t_maxes)):
        coef = (0.0, 0.0, 0j, 0.0, 0.0)
        if not t_max > 0:
            failures[i] = ValidationError(f"t_max must be > 0, got {t_max}")
        elif dp.f_const.imag != 0.0:
            # (else critical or overdamped: M is real, A real, positive and
            # decreasing)
            coef = _flux_coefficients(dp)
            a, b, C, _, w = coef
            if a != 0.0 or b != 0.0 or C != 0.0:  # else decoupled: |A| = 1
                counts[i] = max(1, math.ceil(4.0 * abs(w) * t_max / math.pi))
        coefs.append(coef)
    flux, modes = _Flux.of(coefs), mode_constants(dps)
    t_max = np.array(t_maxes, dtype=float)
    stop = np.cumsum(counts)
    start = stop - counts
    parts = [(np.empty(0), np.empty(0, dtype=int), np.empty(0), np.empty(0, dtype=int))]
    for g0 in range(0, int(stop[-1]) if n_rows else 0, _CHUNK):
        g1 = g0 + _CHUNK
        rows = np.flatnonzero((start < g1) & (stop > g0) & (counts > 0))
        # each row's first gap in the slice, and its nodes there: gaps + 1
        first = np.maximum(g0 - start[rows], 0)
        size = np.minimum(g1 - start[rows], counts[rows]) - first + 1
        owner = np.repeat(rows, size)
        index = (np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
                 + np.repeat(first, size))
        lo, hi, owner = _flux_brackets(flux, t_max[owner] * (index / counts[owner]),
                                       owner)
        times, kinds, amps, failed = _refine(flux, modes, lo, hi, owner)
        parts.append((times, kinds, amps, owner))
        for r, exc in failed.items():
            failures.setdefault(r, exc)
            counts[r] = 0  # a failed row's later gaps are not searched
    times, kinds, amps, owner = (np.concatenate(col) for col in zip(*parts))
    first = np.ones(owner.size, dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    _fail(failures, owner[np.where(first, kinds != 1, kinds == np.roll(kinds, 1))],
          "extrema of |A| do not alternate")
    keep = ~np.isin(owner, list(failures))
    errors = [failures.get(i) for i in range(n_rows)]
    return times[keep], kinds[keep], amps[keep], owner[keep], errors


def _interval_data(dps, t_maxes):
    """Pair-independent interval skeleton of every row.

    Returns ((starts, ends, xs, xe, owner), errors): the intervals of all
    rows in (row, time) order with |A| at both ends and the row of each,
    and per row its ValidationError or None.  An interval still open at the
    horizon is truncated at t_max; the missed tail is covered by the
    truncation bound of the measure.
    """
    times, _, x, owner, errors = _amp_extrema(dps, t_maxes)  # min, max, min, ...
    n_ext = np.bincount(owner, minlength=len(dps))
    n_iv = (n_ext + 1) // 2
    iv_start = np.cumsum(n_iv) - n_iv
    pos = np.arange(owner.size) - np.repeat(np.cumsum(n_ext) - n_ext, n_ext)
    iv, is_min = iv_start[owner] + pos // 2, pos % 2 == 0
    starts, ends, xs, xe = (np.empty(n_iv.sum()) for _ in range(4))
    starts[iv[is_min]], xs[iv[is_min]] = times[is_min], x[is_min]
    ends[iv[~is_min]], xe[iv[~is_min]] = times[~is_min], x[~is_min]
    open_rows = np.flatnonzero(n_ext % 2)
    last = iv_start[open_rows] + n_iv[open_rows] - 1
    ends[last] = [t_maxes[r] for r in open_rows.tolist()]
    xe[last] = np.abs(_amplitude(mode_constants([dps[r] for r in open_rows.tolist()]),
                                 ends[last], np.arange(open_rows.size))[0])
    return (starts, ends, xs, xe, np.repeat(np.arange(len(dps)), n_iv)), errors


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
    data, errors = _interval_data([dp], [t_max])
    if errors[0] is not None:
        raise errors[0]
    return _intervals(data[:4], _pair_u(pair), t_max)


def _gain_nodes(xs: np.ndarray, xe: np.ndarray, u: np.ndarray, node: np.ndarray,
                n_nodes: int):
    """Gain and P' at each node, and s(xs, u) at each of its pairs; see
    ``_max_gain``.

    xs, xe and u are given per pair (one node, one interval of the node's
    row); ``node`` is the node of each pair, and each node's sums run over
    its pairs in order.  Each interval's term is written without
    cancellation, f(xe, u) - f(xs, u) = (xe - xs)(xe + xs)(1 - u(1 - xe^2 -
    xs^2)) / (f(xe, u) + f(xs, u)).  f(x, u) = x s(x, u) with
    s = sqrt(1 - u(1 - x^2)), and P' = -sum xe (1 - xe^2) / (2 s(xe, u)).
    Where a denominator vanishes (x = 0 at u = 1) the term is 0.
    """
    v = 1.0 - u
    se = np.sqrt(v + u * (xe * xe))
    ss = np.sqrt(v + u * (xs * xs))
    den = xe * se + xs * ss
    num = (xe - xs) * (xe + xs) * (v + u * (xe * xe + xs * xs))
    term = np.divide(num, den, out=np.zeros_like(den), where=den > 0)
    slope = np.divide(xe * (1.0 - xe * xe), se, out=np.zeros_like(se), where=se > 0)
    return (np.bincount(node, term, n_nodes), -0.5 * np.bincount(node, slope, n_nodes),
            ss)


def _pairs(count: np.ndarray, first: np.ndarray):
    """Node and interval index of each pair of nodes holding ``count``
    intervals each, from interval ``first`` on."""
    node = np.repeat(np.arange(count.size), count)
    return node, np.arange(node.size) + np.repeat(first - np.cumsum(count) + count, count)


def _max_gain(xs: np.ndarray, xe: np.ndarray, owner: np.ndarray, n_rows: int):
    """Certified maximum of gain(u) = sum_i f(xe_i, u) - f(xs_i, u) on [0, 1]
    for every row; the intervals are given in row order, ``owner`` the row
    of each.

    Returns (gain, u) per row, u = cos^2(alpha) of the best pair; a row
    without intervals gets (0, 1).  Both ends are evaluated first; a tie
    keeps u = 1, the polar pair.  Then one branch and bound for all rows:
    P = sum f(xe, u) and Q = sum f(xs, u) are concave in u, so on a
    sub-interval P lies below its tangent at either end and Q above its
    chord, whose slope -sum xs(1 - xs^2) / (s(xs, u0) + s(xs, u1)) needs no
    difference of Q values.  The gain therefore lies below the lower
    envelope of two lines through the end values; a sub-interval whose
    bound does not exceed its row's best gain by more than a rounding
    allowance scaled to it is dropped, every other one is halved and its
    midpoint evaluated, and only a midpoint that beats its row's best by
    more than the allowance replaces it.  A sub-interval with no
    representable midpoint is judged by its ends, so the halving always
    stops.  Each row's sums and choices run over its own data alone.
    """
    count = np.bincount(owner, minlength=n_rows)
    first = np.cumsum(count) - count
    best, best_u = np.zeros(n_rows), np.ones(n_rows)
    own = np.flatnonzero(count)  # the row of each sub-interval
    if own.size == 0:
        return best, best_u
    cs = xs * (1.0 - xs * xs)
    node, iv = _pairs(np.tile(count[own], 2), np.tile(first[own], 2))
    g, p, s = _gain_nodes(xs[iv], xe[iv], (node >= own.size).astype(float), node,
                          2 * own.size)
    polar = g[own.size:] >= g[:own.size]
    best[own] = np.where(polar, g[own.size:], g[:own.size])
    best_u[own] = polar
    lo, hi = np.zeros(own.size), np.ones(own.size)
    half = node < own.size
    left = (g[:own.size], p[:own.size], s[half])
    right = (g[own.size:], p[own.size:], s[~half])
    while True:
        (g0, p0, s0), (g1, p1, s1) = left, right
        node, iv = _pairs(count[own], first[own])
        width = hi - lo
        chord = -np.bincount(node, cs[iv] / (s0 + s1), own.size)
        a0, a1 = p0 - chord, p1 - chord  # slopes of the two bounding lines
        inner = (a0 > 0.0) & (a1 < 0.0)
        cross = np.divide(g1 - g0 - a1 * width, a0 - a1, out=np.zeros_like(width),
                          where=inner)
        bound = np.where(a0 <= 0.0, g0,
                         np.where(a1 >= 0.0, g1, g0 + a0 * np.clip(cross, 0.0, width)))
        target = best[own] + _ROUNDING * np.abs(best[own])
        mid = 0.5 * (lo + hi)
        live = (bound > target) & (lo < mid) & (mid < hi)
        if not live.any():
            return best, best_u
        lo, hi, mid, own, target = lo[live], hi[live], mid[live], own[live], target[live]
        kept = live[node]
        left = (g0[live], p0[live], s0[kept])
        right = (g1[live], p1[live], s1[kept])
        node, iv = _pairs(count[own], first[own])
        at_mid = _gain_nodes(xs[iv], xe[iv], mid[node], node, own.size)
        # each row's first midpoint of greatest gain
        top = np.full(n_rows, -np.inf)
        np.maximum.at(top, own, at_mid[0])
        cand = np.flatnonzero(at_mid[0] == top[own])
        j = cand[np.unique(own[cand], return_index=True)[1]]
        j = j[at_mid[0][j] > target[j]]
        best[own[j]], best_u[own[j]] = at_mid[0][j], mid[j]
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        own = np.concatenate([own, own])
        left = tuple(np.concatenate(pair) for pair in zip(left, at_mid))
        right = tuple(np.concatenate(pair) for pair in zip(at_mid, right))


def _alpha(u: float) -> float:
    """Polar angle alpha of the pair with u = cos^2(alpha)."""
    return math.atan2(math.sqrt(1.0 - u), math.sqrt(u))


def _measures(params_seq, t_maxes):
    """(gain, u, |A(t_max)|, interval skeleton, errors) of every row; see
    ``blp_measures``."""
    n = len(params_seq)
    dps = [derive(params) for params in params_seq]
    t = np.array(t_maxes, dtype=float)
    positive = t > 0
    tails = np.abs(_amplitude(mode_constants(dps), np.where(positive, t, 0.0),
                              np.arange(n))[0])
    bad = ~positive | ((tails >= TRUNCATION_EPS)
                       & (t < [100.0 / dp.params.gamma for dp in dps]))
    errors: list = [None] * n
    for i in np.flatnonzero(bad).tolist():
        errors[i] = ValidationError(
            "t_max too small: require |A(t_max)| < 1e-4 or t_max >= 100/gamma"
            if positive[i] else f"t_max must be > 0, got {t_maxes[i]}")
    tails[bad] = np.nan
    live = np.flatnonzero(~bad)
    (starts, ends, xs, xe, owner), live_errors = _interval_data(
        [dps[i] for i in live.tolist()], t[live].tolist())
    gain, u = np.full(n, np.nan), np.full(n, np.nan)
    gain[live], u[live] = _max_gain(xs, xe, owner, live.size)
    for i, exc in zip(live.tolist(), live_errors):
        if exc is not None:
            errors[i] = exc
            gain[i] = u[i] = tails[i] = np.nan
    return gain, u, tails, (starts, ends, xs, xe, live[owner]), errors


def blp_measures(params_seq, t_maxes):
    """Backflow measures of many parameter sets in one batched pass.

    Row i integrates to the horizon t_maxes[i].  Returns (n_measure, alpha,
    residual_bound, truncated, errors): per row the measure, the polar
    angle of the best pair, the residual bound 2|A(t_max)|, whether
    |A(t_max)| >= 1e-4 (see ``blp_measure``), and the ValidationError that
    stopped the row or None; a failed row reads NaN and not truncated.
    Each row's result depends on its own data alone.
    """
    gain, u, tails, _, errors = _measures(params_seq, t_maxes)
    alpha = np.array([_alpha(v) for v in u.tolist()])
    return gain, alpha, 2.0 * tails, tails >= TRUNCATION_EPS, errors


def blp_measure(params: SystemParams, t_max: float = 100.0,
                azimuth: float = 0.0) -> BlpResult:
    """Backflow measure maximized over antipodal pure pairs; the one-row view
    of ``blp_measures``, raising the row's error.

    The azimuth never enters the distance; the polar angle alpha of the
    best pair comes from the certified maximum over u = cos^2(alpha) in
    [0, 1] (``_max_gain``), exact at the ends alpha = 0 and pi/2.  The
    measure integrates to the horizon t_max; the residual beyond it is
    bounded by 2|A(t_max)| and reported, with ``truncated`` set when
    |A(t_max)| >= 1e-4.  A horizon that leaves |A(t_max)| >= 1e-4 must
    reach 100/gamma.
    """
    gain, u, tails, data, errors = _measures([params], [t_max])
    if errors[0] is not None:
        raise errors[0]
    u, tail = float(u[0]), float(tails[0])
    alpha = _alpha(u)
    return BlpResult(
        n_measure=float(gain[0]),
        best_pair=antipodal_pair(alpha, azimuth),
        t_max=t_max,
        alpha=alpha,
        residual_bound=2.0 * tail,
        truncated=tail >= TRUNCATION_EPS,
        intervals=_intervals(data[:4], u, t_max),
    )
