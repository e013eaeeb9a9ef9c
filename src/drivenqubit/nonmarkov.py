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
on.  Divided by e^{kt}, the slope's sign is G = a + b e^{-2kt} +
Re(C e^{(iw-k)t}), and |G - a| <= (|b| + |C|) e^{-kt}: from t_h =
ln(2 (|b| + |C|)/|a|)/k on (k > 0, a != 0), G keeps the sign of a with
|G| >= |a|/2, a margin far above its rounding error.  So no extremum lies
past t_h, and the search stops there.

The rows of a sweep are evaluated together (``blp_measures``;
``blp_measure`` is its one-row view).  Every array carries the constants of
its own rows: the kernel's ``mode_constants``, and the finder's two-mode
table, work budgets and search horizons, derived from them elementwise.
The initial gaps of all rows are taken in (row, time) order, each with the
index of its row: the finder, the Newton steps, the kernel confirmation and
the bisection fallback run on slices of at most ``_CHUNK`` initial gaps, a
cap across rows that bounds the peak memory, and one branch and bound
searches the pairs of all rows.  A row's result depends on its own data
alone.  One list, made by ``_row_setup``, holds each row's first error:
every stage records a failure there and skips the rows that have one, so a
failed row stops while the others go on.  A row whose model constants
overflow, whose horizon is not finite and > 0, or whose search would need
more than ``_MAX_GAPS`` initial gaps fails before any kernel call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .amplitude import _check_time, _mode_form, amplitude_grid, mode_constants
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
_MAX_GAPS = 2 ** 23  # initial gaps of one row: its work budget
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
    _check_time(t)
    u = _pair_u(pair)
    A, dA = amplitude_grid(dp, t)
    amp = complex(A)
    x = abs(amp)
    d = _distance(x, u)
    if d < 1e-150:
        return math.nan
    h = (complex(dA) * amp.conjugate()).real  # = x * dx/dt
    return float(((1.0 - u) + 2.0 * u * x * x) * h / d)


class _Flux(NamedTuple):
    """Constants of the two-mode form of the |A|^2 slope, with |C|,
    hypot(k, w) and z = -k + iw; one entry per row of a table (``of``), or
    per point once gathered with ``at``.

    With A = c+ exp(s+ t) + c- exp(s- t) and s+- = -M/2 +- F/4,

        d|A|^2/dt = 2 exp(-Re M t) g(t),
        g(t) = a exp(kt) + b exp(-kt) + Re(C exp(iwt)),

    a = |c+|^2 Re s+, b = |c-|^2 Re s-, C = c+ conj(c-) (s+ + conj s-),
    k = Re F/2, w = Im F/2.
    """

    a: np.ndarray
    b: np.ndarray
    C: np.ndarray
    k: np.ndarray
    abs_c: np.ndarray
    speed: np.ndarray
    z: np.ndarray

    @classmethod
    def of(cls, modes, live: np.ndarray) -> "_Flux":
        """Table of every row, from the rows' ``mode_constants``.

        The root F (Re F >= 0) and the slow rate s+ are those of the kernel
        (``mode_rates``); s- = -(F + 2M)/4 and the weights c+ = -2 s-/F,
        c- = 2 s+/F follow.  That s+ is free of the cancellation in
        -M/2 + F/4 (and so c- of that in (1 - 2M/F)/2) when the coupling is
        tiny.  Rows outside the mask
        ``live``, rows with w = 0 (critical or overdamped: M is real, A
        real, positive and decreasing) and decoupled rows (a = b = C = 0:
        |A| = 1) get zero constants, so a row has extrema only where w != 0.
        """
        live = live & (modes[1].imag != 0.0)
        M, F, _, s_plus = (col[live] for col in modes)
        s_minus = -0.25 * (F + 2.0 * M)
        c_plus, c_minus = -2.0 * s_minus / F, 2.0 * s_plus / F
        a = np.abs(c_plus) ** 2 * s_plus.real
        b = np.abs(c_minus) ** 2 * s_minus.real
        C = c_plus * np.conj(c_minus) * (s_plus + np.conj(s_minus))
        k, w = 0.5 * F.real, 0.5 * F.imag
        coupled = (a != 0.0) | (b != 0.0) | (C != 0.0)
        rows = np.flatnonzero(live)[coupled]
        cols = (a, b, C, k, np.hypot(C.real, C.imag), np.hypot(k, w), -k + 1j * w)
        table = cls(*(np.zeros(live.size, dtype=col.dtype) for col in cols))
        for out, col in zip(table, cols):
            out[rows] = col[coupled]
        return table

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


def _failed(errors: list) -> np.ndarray:
    """Where the per-row ``errors`` list holds an error."""
    return np.array([e is not None for e in errors], dtype=bool)


def _fail(errors: list, rows, message: str) -> None:
    """Record a ValidationError for each row in ``rows`` that has no error yet."""
    for r in set(rows.tolist()):
        if errors[r] is None:
            errors[r] = ValidationError(message)


def _refine(flux: _Flux, modes, lo, hi, owner, errors: list):
    """Times of the sign changes of h in the brackets, their kinds and |A| there.

    G at each bracket's right end gives the direction of its sign change.
    Each round takes Newton steps on G, held inside the bracket, to estimate
    the root; one kernel call then gives h at both ends of every bracket
    and at the estimate +-0.45 _ROOT_TOL, and |A| at the estimate.  A
    bracket whose ends show no sign change of h, or one against G's
    direction, means G and the kernel disagree, and fails its row.  Where h
    changes sign across the estimate, that narrow bracket is the result.
    The first round takes _NEWTON_STEPS steps; the brackets whose steps had
    not yet converged go on with up to _NEWTON_MORE, and only a bracket that
    still fails is bisected on h.  A failed bracket records its row's error
    in ``errors``.  Returns (times, kinds, |A|).
    """
    c = flux.at(owner)
    rising = _flux_form(c, hi)[0] > 0  # h rising through 0: minimum of |A|
    times, amp = np.empty(lo.size), np.empty(lo.size)
    todo = np.arange(lo.size)  # brackets not yet confirmed
    left, right, x = lo, hi, 0.5 * (lo + hi)
    for steps in (_NEWTON_STEPS, _NEWTON_MORE):
        if todo.size == 0:
            break
        t_own, t_lo, t_hi, t_rising = owner[todo], lo[todo], hi[todo], rising[todo]
        left, right, x = _newton(c.at(todo), left, right, x, t_rising, steps)
        ends, times[todo], amp[todo], bad = _confirm(modes, t_lo, t_hi, x, t_rising, t_own)
        _fail(errors, t_own[ends[0] == ends[1]],
              "extremum bracket shows no sign change of d|A|/dt")
        _fail(errors, t_own[ends[1] != t_rising],
              "extremum bracket: the kernel and the two-mode form disagree on the "
              "direction of d|A|/dt")
        bad &= ~_failed(errors)[t_own]
        todo, left, right, x = todo[bad], left[bad], right[bad], x[bad]
    if todo.size:
        t_own = owner[todo]
        times[todo], stuck = _bisect(modes, lo[todo], hi[todo], rising[todo], t_own)
        _fail(errors, t_own[stuck], "bracket refinement failed to converge")
        amp[todo] = np.abs(_amplitude(modes, times[todo], t_own)[0])
    return times, np.where(rising, 1, -1), amp


def _search_horizon(c: _Flux) -> np.ndarray:
    """Times t_h = ln(2 (|b| + |C|)/|a|)/k from which G keeps the sign of a,
    with |G| >= |a|/2 (module docstring); 0 where that log is negative, and
    inf where k = 0 or a = 0."""
    cut = (c.k > 0.0) & (c.a != 0.0)
    ratio = 2.0 * (np.abs(c.b) + c.abs_c) / np.where(cut, np.abs(c.a), 1.0)
    return np.where(cut, np.log(np.maximum(ratio, 1.0)) / np.where(cut, c.k, 1.0), np.inf)


def _gap_counts(c: _Flux, t_max: np.ndarray) -> np.ndarray:
    """Initial gaps ceil(4|w| t_max/pi) of the search grids to t_max, an
    eighth of the beat period pi/(4|w|) each; inf where that overflows."""
    with np.errstate(over="ignore"):
        return np.ceil(4.0 * np.abs(c.z.imag) * t_max / math.pi)


def _amp_extrema(t_max: np.ndarray, modes, flux: _Flux, gaps: np.ndarray,
                 errors: list):
    """Refined times of the extrema of |A| on (0, t_max) of every row, their
    kinds and |A| there, from the rows' ``mode_constants``, two-mode table,
    initial gap counts and ``errors`` (``_row_setup``).

    Brackets the sign changes of d|A|^2/dt with the certified finder on its
    two-mode form, starting from gaps of an eighth of the beat period
    pi/(4|w|), and refines each bracket on the amplitude kernel; kind +1
    marks a minimum of |A| and -1 a maximum.  Only the gaps up to the
    horizon t_h of ``_search_horizon`` are searched (plus one; all of them
    where t_h >= t_max): past t_h, G keeps the sign of a with |G| >= |a|/2,
    so no extremum lies there.  The grid is still the one to t_max, so
    every searched node and bracket is that of a search to t_max.  The
    initial gaps of all rows are taken in (row, time) order, ``_CHUNK`` at
    a time.  |A| falls from t = 0, so the kinds of a row must alternate
    starting with a minimum; any other sequence fails the row.  Rows with
    an error are not searched.  Returns (times, kinds, amps, owner): the
    extrema of the other rows in (row, time) order, and the row of each.
    """
    n_rows = len(errors)
    rows = np.flatnonzero((gaps > 0) & ~_failed(errors))
    search = np.zeros(n_rows, dtype=int)  # the first gaps of each row, searched
    reach = np.minimum(_search_horizon(flux.at(rows)) / t_max[rows], 1.0)
    search[rows] = np.minimum(gaps[rows], np.ceil(gaps[rows] * reach) + 1.0)
    stop = np.cumsum(search)
    start = stop - search
    parts = [(np.empty(0), np.empty(0, dtype=int), np.empty(0), np.empty(0, dtype=int))]
    for g0 in range(0, int(stop[-1]) if n_rows else 0, _CHUNK):
        g1 = g0 + _CHUNK
        rows = np.flatnonzero((start < g1) & (stop > g0) & (search > 0))
        # each row's first gap in the slice, and its nodes there: gaps + 1
        first = np.maximum(g0 - start[rows], 0)
        size = np.minimum(g1 - start[rows], search[rows]) - first + 1
        owner = np.repeat(rows, size)
        index = (np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)
                 + np.repeat(first, size))
        lo, hi, owner = _flux_brackets(flux, t_max[owner] * (index / gaps[owner]),
                                       owner)
        parts.append((*_refine(flux, modes, lo, hi, owner, errors), owner))
        search[_failed(errors)] = 0  # a failed row's later gaps are not searched
    times, kinds, amps, owner = (np.concatenate(col) for col in zip(*parts))
    first = np.ones(owner.size, dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    _fail(errors, owner[np.where(first, kinds != 1, kinds == np.roll(kinds, 1))],
          "extrema of |A| do not alternate")
    keep = ~_failed(errors)[owner]
    return times[keep], kinds[keep], amps[keep], owner[keep]


def _interval_data(t_max: np.ndarray, modes, flux: _Flux, gaps: np.ndarray,
                   tails: np.ndarray, errors: list):
    """Pair-independent interval skeleton of every row, from the rows'
    ``mode_constants``, two-mode table, initial gap counts, tails
    |A(t_max)| and errors (``_row_setup``).

    Returns (starts, ends, xs, xe, owner): the intervals of the rows
    without an error in (row, time) order, with |A| at both ends and the
    row of each.  An interval still open at the horizon is truncated at
    t_max; the missed tail is covered by the truncation bound of the measure.
    """
    times, _, x, owner = _amp_extrema(t_max, modes, flux, gaps, errors)  # min, max, min, ...
    # a row left rising at the horizon ends at (t_max, |A(t_max)|); sorted
    # stably by row, every row then holds (min, max) pairs
    open_rows = np.flatnonzero(np.bincount(owner, minlength=len(errors)) % 2)
    owner = np.concatenate([owner, open_rows])
    order = np.argsort(owner, kind="stable")
    times = np.concatenate([times, t_max[open_rows]])[order]
    x = np.concatenate([x, tails[open_rows]])[order]
    return times[0::2], times[1::2], x[0::2], x[1::2], owner[order][0::2]


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
    t = np.array([t_max], dtype=float)
    modes, flux, gaps, tails, errors = _row_setup([dp], t)
    data = _interval_data(t, modes, flux, gaps, tails, errors)
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


def _alpha(u: np.ndarray) -> np.ndarray:
    """Polar angles alpha of the pairs with u = cos^2(alpha)."""
    return np.arctan2(np.sqrt(1.0 - u), np.sqrt(u))


def _row_setup(dps, t_max: np.ndarray):
    """(modes, flux, gaps, tails, errors): the rows' ``mode_constants``,
    two-mode table (``_Flux.of``), initial gaps of their extrema search to
    t_max, tails |A(t_max)| and the pass's one list of row errors (None
    where a row has none yet), computed once per pass.

    A row whose model constants overflow (``DerivedParams.overflow``) gets
    an ``OverflowError``, and one whose t_max is not finite and > 0 a
    ``ValidationError``; so does a row whose extrema search would need more
    than ``_MAX_GAPS`` initial gaps (``_gap_counts``).  None of them goes to
    the kernel, and its tail is NaN; so the kernel phase |w| t_max of a
    searched row is at most 2^21 pi.  ``gaps`` holds at least 1 for every
    other oscillating row, and 0 for the rest: the rows to search.
    """
    errors: list = [None] * len(dps)
    for i, dp in enumerate(dps):
        if (reason := dp.overflow()) is not None:
            errors[i] = OverflowError(reason)
        elif not 0.0 < t_max[i] < math.inf:
            errors[i] = ValidationError(f"t_max must be finite and > 0, got {t_max[i]}")
    modes = mode_constants(dps)
    flux = _Flux.of(modes, ~_failed(errors))
    rows = np.flatnonzero(flux.z.imag != 0.0)
    counts = _gap_counts(flux.at(rows), t_max[rows])
    over = counts > _MAX_GAPS
    for r, g in zip(rows[over].tolist(), counts[over].tolist()):
        errors[r] = ValidationError(f"the extrema search needs {g:.0f} initial gaps, "
                                    f"over the budget of {_MAX_GAPS} per row")
    gaps = np.zeros(len(dps), dtype=int)
    gaps[rows[~over]] = np.maximum(counts[~over], 1.0)
    live = np.flatnonzero(~_failed(errors))
    tails = np.full(len(dps), np.nan)
    tails[live] = np.abs(_amplitude(modes, t_max[live], live)[0])
    return modes, flux, gaps, tails, errors


def _measures(params_seq, t_maxes):
    """(gain, u, |A(t_max)|, interval skeleton, errors) of every row; see
    ``blp_measures``."""
    dps = [derive(params) for params in params_seq]
    t = np.array(t_maxes, dtype=float)
    modes, flux, gaps, tails, errors = _row_setup(dps, t)
    short = (tails >= TRUNCATION_EPS) & (t < [100.0 / dp.params.gamma for dp in dps])
    _fail(errors, np.flatnonzero(short),
          "t_max too small: require |A(t_max)| < 1e-4 or t_max >= 100/gamma")
    starts, ends, xs, xe, owner = _interval_data(t, modes, flux, gaps, tails, errors)
    gain, u = _max_gain(xs, xe, owner, len(dps))
    failed = _failed(errors)
    gain[failed] = u[failed] = tails[failed] = np.nan
    return gain, u, tails, (starts, ends, xs, xe, owner), errors


def blp_measures(params_seq, t_maxes):
    """Backflow measures of many parameter sets in one batched pass.

    Row i integrates to the horizon t_maxes[i].  Returns (n_measure, alpha,
    residual_bound, truncated, errors): per row the measure, the polar
    angle of the best pair, the residual bound 2|A(t_max)|, whether
    |A(t_max)| >= 1e-4 (see ``blp_measure``), and the error that stopped
    the row or None; a failed row reads NaN and not truncated.  The error
    is an ``OverflowError`` for a row whose model constants overflow
    (``DerivedParams.overflow``), else a ValidationError: a horizon that is
    not finite and > 0 or too short, a search over its work budget of
    ``_MAX_GAPS`` initial gaps, or extrema that fail their checks; a row
    keeps its first error.  Each row's result depends on its own data alone.
    """
    gain, u, tails, _, errors = _measures(params_seq, t_maxes)
    return gain, _alpha(u), 2.0 * tails, tails >= TRUNCATION_EPS, errors


def blp_measure(params: SystemParams, t_max: float = 100.0) -> BlpResult:
    """Backflow measure maximized over antipodal pure pairs; the one-row view
    of ``blp_measures``, raising the row's error.

    The azimuth never enters the distance, so the best pair is reported at
    azimuth 0; its polar angle alpha comes from the certified maximum over
    u = cos^2(alpha) in [0, 1] (``_max_gain``), exact at the ends alpha = 0
    and pi/2.  The measure integrates to the horizon t_max; the residual
    beyond it is bounded by 2|A(t_max)| and reported, with ``truncated``
    set when |A(t_max)| >= 1e-4.  A horizon that leaves |A(t_max)| >= 1e-4
    must reach 100/gamma.
    """
    gain, u, tails, data, errors = _measures([params], [t_max])
    if errors[0] is not None:
        raise errors[0]
    alpha, u, tail = float(_alpha(u)[0]), float(u[0]), float(tails[0])
    return BlpResult(
        n_measure=float(gain[0]),
        best_pair=antipodal_pair(alpha),
        t_max=t_max,
        alpha=alpha,
        residual_bound=2.0 * tail,
        truncated=tail >= TRUNCATION_EPS,
        intervals=_intervals(data[:4], u, t_max),
    )
