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
of A that slope is a positive envelope times g = a e^{kt} + b e^{-kt} +
Re(C e^{iwt}), k >= 0 (``_Flux``).  Taking w > 0 (C conjugated otherwise)
and phi = arg C, g/|C| = h = cos(wt + phi) + p with p = (a e^{kt} +
b e^{-kt})/|C|; p'' = k^2 p, so p is convex where positive and concave
where negative.  The finder cuts [0, t_max] where wt + phi is a multiple of
pi/2 (``_phase``).  On each piece cos keeps one sign, concave where positive
and convex where negative (``_pieces``):

- where cos and p share a sign, h has no root;
- elsewhere h is concave or convex, so it has at most two roots: exactly
  one if the piece's ends differ in sign, and none or two if they share
  one.  Then h' is monotone, and the sign of h at its one extremum decides
  (``_turns``); if the ends have the sign of cos, h keeps it between them
  (a concave h lies above its chord, a convex one below);
- a piece that holds p's zero (a b < 0) needs no cut there: on one side
  of it cos and p share a sign, and on the other h is concave or convex
  with h = cos of the piece's sign at the zero, so the ends decide;
- at k = 0, p is constant and h monotone on every piece: the ends decide
  (the roots solve cos(wt + phi) = -p);
- no root lies where |p| > 1.  {|p| <= 1} is one interval; its right end
  t2 = ln x/k, x = (|C| + sqrt(|C|^2 - 4ab))/(2|a|), solves a quadratic in
  e^{kt} (``_horizon``; inf where k = 0 or a = 0).  The search takes the
  pieces up to the one that holds t2, and one more.

dA/dt = 0 at t = 0 and h < 0 right after it, so G = e^{-kt} g (``_flux_form``)
is read there as 0, and negative.  Every value of G at a cut or at an
extremum carries a rounding bar (``_bars``), the rounding of the cut
included (|w| t eps); a piece whose extremum lies within its bar is judged
by the signs of its ends.  Each bracket is then refined to 1e-10 in two
stages: Newton steps on the two-mode form, whose estimate the amplitude
kernel confirms, and bisection on the kernel for the brackets it leaves
unconfirmed.  The kernel's sign of d|A|/dt is read without the envelope
exp(s+ t) (``amplitude._rows_rising``), so it holds where |A| underflows at
long horizons.
A bracket whose ends the kernel does not confirm, or extrema that do not
alternate, fail the row with a ValidationError rather than pass a wrong
interval list on.

The rows of a sweep are evaluated together, from their columns
(``blp_measures`` takes their ``DerivedColumns``; ``blp_measure`` is its
one-row view).  Every array carries the constants of its own rows, and
every stage is elementwise in the rows, so a row's result depends on its
own data alone: the finder takes the pieces of all rows in slices and
refines their brackets in batches (``amplitude_extrema``), and the branch
and bound the pairs of runs of rows (``_max_gain``).  The finder hands each
row over as the ends of the monotone segments of |A| on [0, t_max]: t = 0,
the extrema and t_max, so its consumers only compare consecutive points.
One list holds each row's first error: every stage records a failure there
and skips the rows that have one, so a failed row stops while the others
go on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .amplitude import _rows_form, _rows_rising, amplitude_grid
from .params import (DerivedColumns, DerivedParams, SystemParams, ValidationError, _cat,
                     _take, derive, fail, failed)
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
_CHUNK = 4096  # pieces of the bracket finder, or intervals of the pair search,
               # per pass across rows
_QUARTER = 0.5 * math.pi
_MAX_PIECES = 2 ** 22  # pieces of one row's search (``_counts``): its work budget
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


def _s(x, u):
    """s(x, u) = sqrt(1 - u(1 - x^2)), so that the trace distance is x s(x, u)."""
    return np.sqrt((1.0 - u) + u * (x * x))


def _distance(x, u):
    """Trace distance f(x, u) = x s(x, u) at x = |A|, u = cos^2(alpha)."""
    return x * _s(x, u)


def info_flux(dp: DerivedParams, pair, t: float) -> float:
    """Time derivative of the trace distance of the evolved pair at time t.

    Positive values mark information flowing back from the cavity.  At
    isolated zeros of A the distance has a kink; NaN is returned there.
    """
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
    per point once gathered with ``_take``.

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
    def of(cls, rows: DerivedColumns, live: np.ndarray) -> "_Flux":
        """Table of every row, from the rows' columns.

        F (Re F >= 0) and the slow rate s+ are the kernel's; s- = -(F + 2M)/4
        and the weights c+ = -2 s-/F, c- = 2 s+/F follow.  Rows outside the
        mask ``live``, rows with w = 0 (critical or overdamped: A is real,
        positive and decreasing) and decoupled rows (a = b = C = 0: |A| = 1)
        get zero constants, so only rows with w != 0 have extrema.
        """
        live = live & (rows.f_const.imag != 0.0)
        F, s_plus = rows.f_const[live], rows.s_plus[live]
        c_plus, c_minus, s_minus = _modes(rows.m_const[live], F, s_plus)
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


def _modes(M, F, s_plus):
    """(c+, c-, s-) of the two-mode form A = c+ exp(s+ t) + c- exp(s- t):
    s- = -(F + 2M)/4, c+ = -2 s-/F and c- = 2 s+/F (infinite at F = 0)."""
    s_minus = -0.25 * (F + 2.0 * M)
    return -2.0 * s_minus / F, 2.0 * s_plus / F, s_minus


def envelope_time(rows: DerivedColumns, level) -> np.ndarray:
    """Per row, the time from which |A| < level for sure: where the envelope
    (|c+| + |c-|) exp(Re s+ t) >= |A| falls below it (Re s- <= Re s+ < 0).
    Infinite where the weights are (F = 0) or Re s+ rounds to 0."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        c_plus, c_minus, _ = _modes(rows.m_const, rows.f_const, rows.s_plus)
        t = np.log(level / (np.abs(c_plus) + np.abs(c_minus))) / rows.s_plus.real
    return np.where(t >= 0.0, t, np.inf)


class _Todo(NamedTuple):
    """Brackets of sign changes of h under refinement, one entry each: the
    ends, the row and the direction (h rising through 0: a minimum of |A|)."""

    lo: np.ndarray
    hi: np.ndarray
    own: np.ndarray
    rising: np.ndarray


class _Extrema(NamedTuple):
    """Points of |A|: times, kinds (+1 a minimum, -1 a maximum, 0 an end of
    [0, t_max]), |A| there and the row of each."""

    times: np.ndarray
    kinds: np.ndarray
    amps: np.ndarray
    owner: np.ndarray


_NO_BRACKETS = _Todo(np.empty(0), np.empty(0), np.empty(0, dtype=int),
                     np.empty(0, dtype=bool))
_NO_EXTREMA = _Extrema(np.empty(0), np.empty(0, dtype=int), np.empty(0),
                       np.empty(0, dtype=int))


def _flux_form(c: _Flux, t: np.ndarray):
    """G = exp(-kt) g = a + b exp(-2kt) + Re(C exp((iw - k) t)), G' and exp(-2kt).

    G has the sign of d|A|^2/dt and never overflows (k >= 0).  ``c`` holds
    the constants of each point of t.
    """
    e2 = np.exp(-2.0 * c.k * t)
    ce = c.C * np.exp(c.z * t)
    return c.a + c.b * e2 + ce.real, -2.0 * c.k * c.b * e2 + (c.z * ce).real, e2


def _bars(c: _Flux, t: np.ndarray, e2: np.ndarray):
    """Rounding bars of G and G' at t (e2 = exp(-2kt) from ``_flux_form``),
    the rounding of the exponents' arguments included."""
    env = c.abs_c * np.sqrt(e2)
    abs_b = np.abs(c.b)
    lip1 = 2.0 * c.k * abs_b * e2 + c.speed * env
    lip2 = 4.0 * c.k * c.k * abs_b * e2 + c.speed * c.speed * env
    return (_ROUNDING * (np.abs(c.a) + abs_b * e2 + env + t * lip1),
            _ROUNDING * (lip1 + t * lip2))


def _phase(c: _Flux):
    """|w| and phi = arg C (of conj C where w < 0): the oscillating term of G
    is |C| e^{-kt} cos(|w| t + phi), and the cuts lie where its phase is a
    multiple of pi/2."""
    return np.abs(c.z.imag), np.angle(np.where(c.z.imag > 0.0, c.C, np.conj(c.C)))


def _counts(c: _Flux, t_max: np.ndarray) -> np.ndarray:
    """Pieces searched per row (w != 0), as floats: those up to the one that
    holds t_max, or the horizon t2 (``_horizon``) if it comes first, and one
    more, so that the last cut, clipped to t_max, ends the search there."""
    w, phi = _phase(c)
    with np.errstate(invalid="ignore", over="ignore"):
        n, m = (np.floor((w * t + phi) / _QUARTER) - np.floor(phi / _QUARTER)
                for t in (t_max, _horizon(c)))
    return np.fmin(n, m).clip(0.0) + 2.0  # t2 is NaN where C = a = 0


def _horizon(c: _Flux) -> np.ndarray:
    """t2: the right end of {|p| <= 1}, past which G keeps the sign of a
    (module docstring); inf where k = 0 or a = 0."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = np.sqrt(np.maximum(c.abs_c * c.abs_c - 4.0 * c.a * c.b, 0.0))
        span = np.log(c.abs_c + root) - np.log(2.0 * np.abs(c.a))
        return np.where(c.k > 0.0, span / np.where(c.k > 0.0, c.k, 1.0), np.inf)


def _pieces(flux: _Flux, t_max: np.ndarray, owner: np.ndarray, q: np.ndarray) -> _Todo:
    """The brackets of the sign changes of G on the pieces of rows ``owner``
    from their nodes q to q + 1: node 0 at t = 0, node q at the row's q-th
    cut, clipped to its t_max.  The rules of the module docstring; where
    the ends share a sign against that of cos, p has it too (or h would
    keep the sign of cos), so the piece goes to the extremum test
    (``_turns``) unless k = 0."""
    c = _take(flux, owner)
    w, phi = _phase(c)
    j = np.floor(phi / _QUARTER) + q  # the quarter of the piece right of each node
    with np.errstate(over="ignore"):  # a cut past the largest float is past t_max
        t = np.where(q > 0, np.clip((j * _QUARTER - phi) / w, 0.0, t_max[owner]), 0.0)
    g, dg, _ = _flux_form(c, t)
    up = (g > 0.0) & (t > 0.0)  # dA/dt = 0 at t = 0; G turns negative right after it
    left = np.flatnonzero(owner[1:] == owner[:-1])  # the left node of each piece
    hit = left[up[left] != up[left + 1]]
    cos_up = (j[left] + 1.0) % 4.0 < 2.0
    same = left[(up[left] == up[left + 1]) & (cos_up != up[left + 1]) & (c.k[left] > 0.0)]
    # h' turns against the ends' sign s inside: s H < 0 at the left end, > 0 at the right
    s, hd = np.where(up[same], 1.0, -1.0), dg + c.k * g  # H = G' + kG = exp(-kt) |C| h'
    inside = (s * hd[same] < 0.0) & (s * hd[same + 1] > 0.0)
    same = same[inside]
    two, x = _turns(_take(c, same), t[same], t[same + 1], s[inside], hd[same], hd[same + 1])
    two = same[two]
    return _cat([_Todo(t[hit], t[hit + 1], owner[hit], up[hit + 1]),
                 _Todo(t[two], x, owner[two], ~up[two + 1]),
                 _Todo(x, t[two + 1], owner[two], up[two + 1])])


def _turns(c: _Flux, lo, hi, s, hd_lo, hd_hi):
    """The pieces (lo, hi) whose ends share the sign s and that hold two sign
    changes of G: (their index, a point x between the two, where G has the
    other sign).

    h is concave (s < 0) or convex (s > 0) on each piece, so h' is
    monotone, and H = G' + kG = exp(-kt) |C| h' (``hd_lo``, ``hd_hi`` at
    the ends) turns against s once, inside the piece: at the extremum of h.
    Secant steps on H, each held in the bracket of that turn that the last
    one leaves, approach it; G, G' and so H at each step come from
    ``_flux_form``, as in ``_pieces``, so H's bar is G's bar times k plus
    that of G'.  A point x where G has the sign -s beyond its bar proves
    the two roots; the tangent of h at x bounds h on the bracket from the
    side of s, so s G(x) - |H(x)| (hi - lo) above the bars of G and H
    proves there is none.  A piece that proves neither within 64
    steps, or by a bracket narrower than _ROOT_TOL, has its extremum within
    its bar, and is judged by its ends: no root.
    """
    live = np.arange(lo.size)
    found = [(np.empty(0, dtype=int), np.empty(0))]
    for _ in range(64):
        x = (lo * hd_hi - hi * hd_lo) / (hd_hi - hd_lo)
        g, dg, e2 = _flux_form(c, x)
        hd = dg + c.k * g
        bar_g, bar_dg = _bars(c, x, e2)
        past = s * hd < 0.0  # the turn lies right of x
        lo, hi = np.where(past, x, lo), np.where(past, hi, x)
        hd_lo, hd_hi = np.where(past, hd, hd_lo), np.where(past, hd_hi, hd)
        two = -s * g > bar_g
        none = s * g - np.abs(hd) * (hi - lo) > bar_g + (bar_dg + c.k * bar_g) * (hi - lo)
        found.append((live[two], x[two]))
        keep = ~(two | none) & (hi - lo > _ROOT_TOL)
        if not keep.any():
            break
        c, lo, hi, s, live = _take(c, keep), lo[keep], hi[keep], s[keep], live[keep]
        hd_lo, hd_hi = hd_lo[keep], hd_hi[keep]
    return tuple(np.concatenate(col) for col in zip(*found))


def _extrema(rows: DerivedColumns, times: np.ndarray, todo: _Todo) -> _Extrema:
    """The extrema of refined brackets ``todo`` at ``times``, with |A| there."""
    return _Extrema(times, np.where(todo.rising, 1, -1),
                    np.abs(_rows_form(rows, times, todo.own)), todo.own)


def _bisect(rows: DerivedColumns, todo: _Todo, errors: list) -> _Extrema:
    """The extrema of brackets of sign changes of h, each halved on the
    kernel until it is narrower than _ROOT_TOL; a bracket that 64 halvings
    do not get there fails its row in ``errors``."""
    if todo.lo.size == 0:
        return _NO_EXTREMA
    lo, hi = todo.lo.copy(), todo.hi.copy()
    for _ in range(64):
        i = np.flatnonzero(hi - lo >= _ROOT_TOL)
        if i.size == 0:
            break
        mid = 0.5 * (lo[i] + hi[i])
        past = _rows_rising(rows, mid, todo.own[i]) == todo.rising[i]
        lo[i] = np.where(past, lo[i], mid)
        hi[i] = np.where(past, mid, hi[i])
    fail(errors, todo.own, hi - lo >= _ROOT_TOL,
         lambda _: ValidationError("bracket refinement failed to converge"))
    return _extrema(rows, 0.5 * (lo + hi), todo)


def _newton(c: _Flux, todo: _Todo) -> np.ndarray:
    """Estimates of the sign changes of G: _NEWTON_STEPS Newton steps from each
    bracket's midpoint, held inside the bracket, which each step narrows to
    the estimate's side."""
    left, right = todo.lo, todo.hi
    x = 0.5 * (left + right)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            g, dg, _ = _flux_form(c, x)
            past = (g > 0) == todo.rising
            left, right = np.where(past, left, x), np.where(past, x, right)
            x = x - g / dg
            x = np.where((x >= left) & (x <= right), x, 0.5 * (left + right))
    return x


def _confirm(rows: DerivedColumns, lo, hi, x, rising, owner):
    """The kernel's check of the brackets (lo, hi) and estimates x: (h > 0
    at the ends, the midpoints of the narrow brackets x +- 0.45 _ROOT_TOL,
    and where h fails to change sign across a narrow bracket).  The signs
    of h take four kernel calls, one per set of points, so no call is
    larger than the batch."""
    left = np.maximum(x - 0.45 * _ROOT_TOL, lo)
    right = np.minimum(x + 0.45 * _ROOT_TOL, hi)
    pos = [_rows_rising(rows, t, owner) for t in (lo, hi, left, right)]
    return np.array(pos[:2]), 0.5 * (left + right), (pos[2] == rising) | (pos[3] != rising)


def _live(table, errors: list):
    """The entries of a ``_Todo`` whose rows have no error in ``errors``."""
    return _take(table, ~failed(errors)[table.own])


def _refine(flux: _Flux, rows: DerivedColumns, todo: _Todo, errors: list):
    """One refinement round: _NEWTON_STEPS Newton steps on G for each bracket
    (``_newton``), then the kernel's check (``_confirm``).

    A bracket whose ends show no sign change of h, or one against G's
    direction, means G and the kernel disagree, and fails its row in
    ``errors``.  An end where |G| lies within its rounding bound is a root
    within rounding, a cut that landed on one: the sign of h there is
    noise, so it is taken from the bracket and only the other end is
    checked.  Where h changes sign across the estimate, that narrow bracket
    is the result.  Returns (the extrema of the brackets done, the brackets
    left unconfirmed); the brackets of failed rows count as done.
    """
    if todo.lo.size == 0:
        return _NO_EXTREMA, todo
    x = _newton(_take(flux, todo.own), todo)
    ends, times, bad = _confirm(rows, todo.lo, todo.hi, x, todo.rising, todo.own)
    flat, backward = ends[0] == ends[1], ends[1] != todo.rising
    unsure = np.flatnonzero(flat | backward)
    if unsure.size:
        c = _take(flux, np.tile(todo.own[unsure], 2))
        t = np.concatenate([todo.lo[unsure], todo.hi[unsure]])
        g, _, e2 = _flux_form(c, t)
        at_root = (np.abs(g) <= _bars(c, t, e2)[0]).reshape(2, -1)
        rising = todo.rising[unsure]
        ends[:, unsure] = np.where(at_root, [~rising, rising], ends[:, unsure])
        flat, backward = ends[0] == ends[1], ends[1] != todo.rising
    fail(errors, todo.own, flat, lambda _: ValidationError(
        "extremum bracket shows no sign change of d|A|/dt"))
    fail(errors, todo.own, backward, lambda _: ValidationError(
        "extremum bracket: the kernel and the two-mode form disagree on the "
        "direction of d|A|/dt"))
    bad &= ~failed(errors)[todo.own]
    return _extrema(rows, times[~bad], _take(todo, ~bad)), _take(todo, bad)


def _interval_data(ext: _Extrema):
    """Pair-independent interval skeleton of every row, from its monotone
    segments (``amplitude_extrema``): (starts, ends, xs, xe, owner), the
    segments that start at a minimum, where |A| rises, in (row, time)
    order, with |A| at both ends and the row of each.  An interval still
    open at the horizon ends at t_max; the missed tail is covered by the
    truncation bound of the measure.
    """
    i = np.flatnonzero(ext.kinds == 1)
    return ext.times[i], ext.times[i + 1], ext.amps[i], ext.amps[i + 1], ext.owner[i]


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
    rows = DerivedColumns.of([dp])
    errors = rows.errors()
    ext = amplitude_extrema(rows, np.array([t_max], dtype=float), errors)
    if errors[0] is not None:
        raise errors[0]
    return _intervals(_interval_data(ext)[:4], _pair_u(pair), t_max)


def _gain_nodes(xs: np.ndarray, xe: np.ndarray, u, node: np.ndarray,
                n_nodes: int):
    """Gain and P' at each node; see ``_max_gain``.

    xs and xe are given per pair (one node, one interval of the node's row),
    u per pair or once for all; ``node`` is the node of each pair, and each
    node's sums run over its pairs in order.  Each interval's term is
    written without cancellation, f(xe, u) - f(xs, u) = (xe - xs)(xe + xs)
    (1 - u(1 - xe^2 - xs^2)) / (f(xe, u) + f(xs, u)), f(x, u) = x s(x, u)
    (``_s``), and P' = -sum xe (1 - xe^2) / (2 s(xe, u)).  Where a
    denominator vanishes (x = 0 at u = 1) the term is 0.
    """
    se = _s(xe, u)
    den = xe * se + xs * _s(xs, u)
    num = (xe - xs) * (xe + xs) * ((1.0 - u) + u * (xe * xe + xs * xs))
    term = np.divide(num, den, out=np.zeros_like(den), where=den > 0)
    slope = np.divide(xe * (1.0 - xe * xe), se, out=np.zeros_like(se), where=se > 0)
    return np.bincount(node, term, n_nodes), -0.5 * np.bincount(node, slope, n_nodes)


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
    stops.  Each row's sums and choices run over its own data alone, so
    the rows are searched in runs of at most ``_CHUNK`` intervals (a row
    with more is searched alone), which bounds the peak memory.
    """
    best, best_u = np.zeros(n_rows), np.ones(n_rows)
    stop = np.cumsum(np.bincount(owner, minlength=n_rows))
    r0 = 0
    while r0 < n_rows:
        i0 = stop[r0 - 1] if r0 else 0
        r1 = max(int(np.searchsorted(stop, i0 + _CHUNK, side="right")), r0 + 1)
        i1 = stop[r1 - 1]
        best[r0:r1], best_u[r0:r1] = _branch_and_bound(xs[i0:i1], xe[i0:i1],
                                                       owner[i0:i1] - r0, r1 - r0)
        r0 = r1
    return best, best_u


def _branch_and_bound(xs: np.ndarray, xe: np.ndarray, owner: np.ndarray, n_rows: int):
    """The search of ``_max_gain`` over the rows of one run."""
    count = np.bincount(owner, minlength=n_rows)
    first = np.cumsum(count) - count
    best, best_u = np.zeros(n_rows), np.ones(n_rows)
    own = np.flatnonzero(count)  # the row of each sub-interval
    if own.size == 0:
        return best, best_u
    cs = xs * (1.0 - xs * xs)
    node, iv = _pairs(count[own], first[own])
    # the gain and P' at each sub-interval's ends
    (g0, p0), (g1, p1) = (_gain_nodes(xs[iv], xe[iv], u, node, own.size) for u in (0.0, 1.0))
    polar = g1 >= g0
    best[own] = np.where(polar, g1, g0)
    best_u[own] = polar
    lo, hi = np.zeros(own.size), np.ones(own.size)
    while True:
        node, iv = _pairs(count[own], first[own])
        width = hi - lo
        x = xs[iv]
        chord = -np.bincount(node, cs[iv] / (_s(x, lo[node]) + _s(x, hi[node])), own.size)
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
        g0, p0, g1, p1 = g0[live], p0[live], g1[live], p1[live]
        node, iv = _pairs(count[own], first[own])
        gm, pm = _gain_nodes(xs[iv], xe[iv], mid[node], node, own.size)
        # each row's first midpoint of greatest gain
        top = np.full(n_rows, -np.inf)
        np.maximum.at(top, own, gm)
        cand = np.flatnonzero(gm == top[own])
        j = cand[np.unique(own[cand], return_index=True)[1]]
        j = j[gm[j] > target[j]]
        best[own[j]], best_u[own[j]] = gm[j], mid[j]
        lo, hi, own = np.concatenate([lo, mid]), np.concatenate([mid, hi]), np.tile(own, 2)
        g0, p0 = np.concatenate([g0, gm]), np.concatenate([p0, pm])
        g1, p1 = np.concatenate([gm, g1]), np.concatenate([pm, p1])


def _alpha(u: np.ndarray) -> np.ndarray:
    """Polar angles alpha of the pairs with u = cos^2(alpha)."""
    return np.arctan2(np.sqrt(1.0 - u), np.sqrt(u))


def amplitude_extrema(rows: DerivedColumns, t_max, errors: list) -> _Extrema:
    """The ends of the monotone segments of |A| on [0, t_max[i]] of every
    row i that has no error in ``errors``, in (row, time) order: the one
    entry point of the finder, for the BLP pass and the geometric phase.
    Each such row gets (0, |A| = 1), then its certified extrema (kind +1 a
    minimum of |A|, -1 a maximum), then (t_max, |A(t_max)|); the two ends
    have kind 0.

    A row whose t_max is not finite and > 0 gets a ``ValidationError`` in
    ``errors``, and so does one whose search takes more than ``_MAX_PIECES``
    pieces (``_counts``: those to min(t_max, t2), and one more), before any
    piece is made.  A searched row's t_max may lie far past its t2, where
    the envelope is 0, so its tail |A(t_max)| reads 0 (``_mode_form``).  The
    pieces of the other rows are taken in (row, time) order, in slices of
    ``_CHUNK``, a cap across rows that bounds the peak memory, and
    bracketed (``_pieces``).  The brackets are carried and take one
    refinement round (``_refine``) in batches of about ``_CHUNK`` (once they
    reach it, or after the last slice), and every bracket that a batch
    leaves unconfirmed is bisected on the kernel (``_bisect``) in one call
    at the end.  Every stage is elementwise, so the extrema do not depend on
    the slicing or the batches.  |A| falls from t = 0, so the kinds of a
    row must alternate starting with a minimum, or the row fails.  A failed
    row is searched no further, its carried brackets are dropped, and it
    gets no points.
    """
    t_max = np.asarray(t_max, dtype=float)
    fail(errors, np.arange(t_max.size), ~((0.0 < t_max) & (t_max < math.inf)),
         lambda i: ValidationError(f"t_max must be finite and > 0, got {t_max[i]}"))
    flux = _Flux.of(rows, ~failed(errors))
    search = np.flatnonzero(flux.z.imag != 0.0)
    pieces = _counts(_take(flux, search), t_max[search])
    over = pieces > _MAX_PIECES
    fail(errors, search, over, lambda i: ValidationError(
        f"the extrema search needs {pieces[i]:.15g} quarter-period "
        f"pieces, over the budget of {_MAX_PIECES} per row"))
    count = np.zeros(t_max.size, dtype=int)
    count[search[~over]] = pieces[~over]
    stop = np.cumsum(count)
    start = stop - count
    total = int(stop[-1]) if count.size else 0
    # carried: the brackets awaiting refinement and those it leaves unconfirmed
    parts, todo, unsure = [_NO_EXTREMA], [], [_NO_BRACKETS]
    for p0 in range(0, total, _CHUNK):
        p1 = p0 + _CHUNK
        live = np.flatnonzero((start < p1) & (stop > p0) & (count > 0))
        # each row's first piece in the slice, and its nodes there: pieces + 1
        first = np.maximum(p0 - start[live], 0)
        size = np.minimum(p1 - start[live], count[live]) - first + 1
        owner = np.repeat(live, size)
        q = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size - first, size)
        todo.append(_pieces(flux, t_max, owner, q))
        if p1 >= total or sum(c.lo.size for c in todo) >= _CHUNK:
            done, more = _refine(flux, rows, _live(_cat(todo), errors), errors)
            parts.append(done)
            unsure.append(more)
            todo = []
            count[failed(errors)] = 0  # a failed row's later pieces are not searched
    parts.append(_bisect(rows, _live(_cat(unsure), errors), errors))
    live = np.flatnonzero(~failed(errors))
    # a decay exponent past -inf gives |A| = 0, its limit, also where the kernel
    # phase is past inf (a searched row far past its t2); a phase past inf under
    # an envelope above 0 (a decoupled row) gives NaN, and the row reads invalid
    with np.errstate(over="ignore", invalid="ignore"):
        tails = np.abs(_rows_form(rows, t_max[live], live))
    ends = np.zeros(live.size, dtype=int)
    ext = _cat([_Extrema(np.zeros(live.size), ends, np.ones(live.size), live), *parts,
                _Extrema(t_max[live], ends, tails, live)])
    ext = _take(ext, np.lexsort((ext.times, ext.owner)))
    # each row's first extremum follows its start, of kind 0, and is a minimum
    prev = np.roll(ext.kinds, 1)
    fail(errors, ext.owner, (ext.kinds != 0) & (ext.kinds != np.where(prev == 0, 1, -prev)),
         lambda _: ValidationError("extrema of |A| do not alternate"))
    return _take(ext, ~failed(errors)[ext.owner])


def _measures(rows: DerivedColumns, t_maxes):
    """(gain, u, |A(t_max)|, interval skeleton, errors) of every row; see
    ``blp_measures``.  A row's tail |A(t_max)| is its last point from the
    finder (NaN for a failed row), and its intervals its rising segments
    (``_interval_data``)."""
    t = np.array(t_maxes, dtype=float)
    errors = rows.errors()
    ext = amplitude_extrema(rows, t, errors)
    last = np.flatnonzero(ext.kinds == 0)[1::2]  # each row's (t_max, |A(t_max)|)
    tails = np.full(t.size, np.nan)
    tails[ext.owner[last]] = ext.amps[last]
    short = (tails >= TRUNCATION_EPS) & (t < 100.0 / rows.gamma)
    if short.any():
        fail(errors, np.arange(t.size), short, lambda _: ValidationError(
            "t_max too small: require |A(t_max)| < 1e-4 or t_max >= 100/gamma"))
        ext = _take(ext, ~short[ext.owner])
    starts, ends, xs, xe, owner = _interval_data(ext)
    del ext  # the skeleton holds what the pair search needs
    gain, u = _max_gain(xs, xe, owner, t.size)
    bad = failed(errors)
    gain[bad] = u[bad] = tails[bad] = np.nan
    return gain, u, tails, (starts, ends, xs, xe, owner), errors


def blp_measures(rows: DerivedColumns, t_maxes):
    """Backflow measures of many parameter sets, given by their columns
    (``derive_columns``), in one batched pass.

    Row i integrates to the horizon t_maxes[i].  Returns (n_measure, alpha,
    residual_bound, truncated, errors): per row the measure, the polar
    angle of the best pair, the residual bound 2|A(t_max)|, whether
    |A(t_max)| >= 1e-4 (see ``blp_measure``), and the error that stopped
    the row or None; a failed row reads NaN and not truncated.  The error
    is an ``OverflowError`` for a row whose model constants overflow, else a
    ValidationError: a horizon that is not finite and > 0 or too short, a
    search over its work budget of ``_MAX_PIECES`` pieces, or extrema
    that fail their checks.  Each row's result depends on its own data alone.
    """
    gain, u, tails, _, errors = _measures(rows, t_maxes)
    return gain, _alpha(u), 2.0 * tails, tails >= TRUNCATION_EPS, errors


def blp_measure(params: SystemParams, t_max: float = 100.0) -> BlpResult:
    """Backflow measure maximized over antipodal pure pairs; the one-row view
    of ``blp_measures``, raising the row's error.  The azimuth never enters
    the distance, so the best pair is reported at azimuth 0; its polar angle
    alpha comes from the certified maximum over u = cos^2(alpha) in [0, 1]
    (``_max_gain``).  The measure integrates to the horizon t_max; the
    residual beyond it is bounded by 2|A(t_max)|, and ``truncated`` is set
    when |A(t_max)| >= 1e-4, where t_max must reach 100/gamma.
    """
    gain, u, tails, data, errors = _measures(DerivedColumns.of([derive(params)]), [t_max])
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
