"""Adaptive Gauss-Kronrod quadrature of many integrals at once, on given pieces.

Used for the geometric phase, where a whole sweep of rows is integrated
together, each row on its own pieces.  Cross-checked against
scipy.integrate.quad in the tests.

``gauss_kronrod_many`` integrates f over the pieces of every integral.  Each
interval takes the 15-point Kronrod sum K and the 7-point Gauss sum G on its
nodes (QUADPACK's ``qk15``: Piessens et al., QUADPACK (1983)).  The
intervals are processed level by level: every interval pending at one depth,
across all integrals, goes to the integrand in slices of at most ``_SLICE``
intervals, one array call ``f(x, owner)`` per slice, where ``owner`` holds
the index of the integral each abscissa belongs to.  f returns its values
and a bound on the rounding error of each.  An interval of width w of
integral i is accepted when |K - G| is at most its share ``tol_i w / L_i``
of the tolerance (L_i the total width of the integral's pieces), or at most
the rounding of K - G that the bounds allow; otherwise it is halved.  Each
interval is judged on its own data alone, and each integral's accepted
sums are added once, in the order the levels produced them, so an integral's
value, nodes and failure do not depend on the other integrals or on the
slicing.  ``gauss_kronrod`` is the one-integral view; it also returns the
abscissae its integrand was called with.

An integral fails, records its ``QuadratureError`` and stops splitting,
while the others go on, when one of its intervals has sums that are not
finite, when one is still rejected after ``_MAX_DEPTH`` halvings, or when
the |K - G| of its intervals accepted on rounding alone add up to more than
its tolerance: the tolerance lies below the rounding floor of its sums.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .params import fail, failed

__all__ = ["QuadratureError", "gauss_kronrod", "gauss_kronrod_many"]

_EPS = np.finfo(float).eps
_MAX_DEPTH = 60  # halvings of an interval before its integral fails
_SLICE = 420  # intervals per integrand call: 6,300 nodes

# the 15 Kronrod nodes on [-1, 1], their weights, and the weights of the
# 7-point Gauss rule on the odd ones (0 on the others)
_XK = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                0.207784955007898467600689403773245, 0.0])
_WK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([0.0, 0.129484966168869693270611432679082, 0.0,
                0.279705391489276667901467771423780, 0.0,
                0.381830050505118944950369775488975, 0.0,
                0.417959183673469387755102040816327])
_X = np.concatenate([-_XK[:-1], _XK[::-1]])
_W_K = np.concatenate([_WK[:-1], _WK[::-1]])
_W_G = np.concatenate([_WG[:-1], _WG[::-1]])


class QuadratureError(RuntimeError):
    """Requested tolerance not reached within the subdivision budget."""


def _sums(lo, hi, fx, bar):
    """(K, G, rounding) of intervals, fx and bar shaped (15, intervals):
    the Kronrod and Gauss sums and the bound on the rounding of K - G.
    Each is accumulated node by node, elementwise in the intervals."""
    h = 0.5 * (hi - lo)
    k = g = r = 0.0
    for j in range(15):
        k = k + _W_K[j] * fx[j]
        g = g + _W_G[j] * fx[j]
        r = r + abs(_W_K[j] - _W_G[j]) * bar[j]
    return h * k, h * g, h * r


def gauss_kronrod_many(f: Callable, lo, hi, owner, tol):
    """Integrate f over the pieces (lo_j, hi_j) of integral owner_j, to the
    absolute tolerance tol_i of each integral i.

    f takes an array of abscissae and the array of their integral indices
    and returns (values, bounds on their rounding errors), arrays of their
    shape.  Returns (values, error_estimates, failures): float arrays with
    NaN for a failed integral, and per integral the ``QuadratureError`` that
    stopped it, or None.  An error estimate is the sum over its intervals of
    |K - G| plus the rounding of K - G: an estimate, not a bound.
    """
    lo, hi, tol = (np.array(v, dtype=float, ndmin=1) for v in (lo, hi, tol))
    owner = np.array(owner, dtype=int, ndmin=1)
    n = tol.size
    failures: list[QuadratureError | None] = [None] * n
    every = np.arange(n)
    fail(failures, every, ~(tol > 0),
         lambda i: QuadratureError(f"tol must be > 0, got {tol[i]}"))
    with np.errstate(divide="ignore", invalid="ignore"):  # integrals without pieces
        share = tol / np.bincount(owner, hi - lo, n)  # tolerance per unit width
    keep = (tol > 0)[owner] & (hi > lo)
    level = [lo[keep], hi[keep], owner[keep]]
    accepted = []  # (owner, value, estimate, rounding-only estimate) per slice
    depth = 0
    while level[0].size:
        split = []
        for s in range(0, level[0].size, _SLICE):
            a, b, own = (col[s:s + _SLICE] for col in level)
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            x = mid + half * _X[:, None]
            fx, bar = (np.asarray(v, dtype=float).reshape(15, -1)
                       for v in f(x.ravel(), np.tile(own, 15)))
            k, g, rounding = _sums(a, b, fx, bar)
            diff = np.abs(k - g)
            by_tol = diff <= share[own] * (b - a)
            done = by_tol | (diff <= rounding)
            if depth >= _MAX_DEPTH:
                fail(failures, own, ~done, lambda i: QuadratureError(
                    f"max depth {_MAX_DEPTH} reached on [{a[i]}, {b[i]}] "
                    f"with residual {diff[i]:.3e}"))
            fail(failures, own, ~np.isfinite(diff), lambda i: QuadratureError(
                f"Gauss-Kronrod sums on [{a[i]}, {b[i]}] are not finite"))
            accepted.append((own[done], k[done], (diff + rounding)[done],
                             np.where(by_tol, 0.0, diff)[done]))
            more = ~done & np.isfinite(diff)
            split.append((a[more], mid[more], b[more], own[more]))
        # the left halves of the split intervals, then their right halves
        a, mid, b, own = (np.concatenate(col) for col in zip(*split))
        live = ~failed(failures)[own]
        level = [np.concatenate([a[live], mid[live]]), np.concatenate([mid[live], b[live]]),
                 np.concatenate([own[live], own[live]])]
        depth += 1

    own, k, est, floor = (np.concatenate(col) for col in zip(
        (np.empty(0, dtype=int), np.empty(0), np.empty(0), np.empty(0)), *accepted))
    values, errors, floors = (np.bincount(own, col, n).astype(float) for col in (k, est, floor))
    fail(failures, every, floors > tol, lambda i: QuadratureError(
        f"tolerance {tol[i]:.3e} is below the rounding floor {floors[i]:.3e} "
        f"of its Gauss-Kronrod sums"))
    bad = failed(failures)
    values[bad] = errors[bad] = np.nan
    return values, errors, failures


def gauss_kronrod(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  tol: float = 1e-9):
    """Integrate f over [a, b] to absolute tolerance tol.

    f takes an array of abscissae and returns the array of its values, each
    taken to be exact to 16 eps relative.  Returns (value, error_estimate,
    nodes) where nodes is the array of all abscissae at which f was
    evaluated, in evaluation order.  Raises ``QuadratureError`` where
    ``gauss_kronrod_many`` records one.
    """
    calls = [np.empty(0)]

    def recorded(x, _):
        calls.append(x)
        fx = np.asarray(f(x), dtype=float)
        return fx, 16.0 * _EPS * np.abs(fx)

    values, errors, failures = gauss_kronrod_many(recorded, [a], [b], [0], [tol])
    if failures[0] is not None:
        raise failures[0]
    return float(values[0]), float(errors[0]), np.concatenate(calls)
