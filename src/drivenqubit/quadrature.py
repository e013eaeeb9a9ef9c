"""Adaptive Simpson quadrature of many integrals at once, with node recording.

Used for the geometric phase, where the evaluation nodes must be available
afterwards (the eigendecomposition is re-verified at every node by the test
suite), and where a whole sweep of rows is integrated together.
Cross-checked against scipy.integrate.quad in the tests.

``adaptive_simpson_many`` integrates f over [a_i, b_i] to tol_i for every i.
The intervals are processed level by level: every interval pending at one
depth, across all integrals, goes to the integrand in one array call
``f(x, owner)``, where ``owner`` holds the index of the integral each
abscissa belongs to.  An interval at depth k of integral i has the
tolerance ``tol_i / 2^k``, and each interval is accepted or split on its
own data alone, so every integral's nodes are those of the classic
depth-first recursion; only the order of summation differs.
``adaptive_simpson`` is the one-integral view.

A rejected interval whose tolerance lies below the rounding of its own
Simpson sums, ``15 s_tol < 16 eps (|S_left| + |S_right|)``, fails its
integral at once.  Both sides of that test halve with each split, so its
children would meet the same test, and the differences they are accepted
on would be rounding noise.  Without the floor, a tolerance below it splits
each level in two until ``max_depth``: unbounded time depth first,
unbounded memory level by level.  A failed integral records its
``QuadratureError`` and stops splitting; the others go on.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["QuadratureError", "adaptive_simpson", "adaptive_simpson_many"]

_EPS = np.finfo(float).eps


class QuadratureError(RuntimeError):
    """Requested tolerance not reached within the subdivision budget."""


def _settle(level, owner, mids, f_mids, depth: int, max_depth: int, values, errors,
            failures):
    """Accept or split every pending interval of one depth.

    ``level`` holds one column per interval (x0, xm, x1, f0, fm, f1, whole,
    s_tol), ``mids`` and ``f_mids`` the midpoints of the left halves, then
    of the right halves, and f there.  Adds the accepted intervals to
    ``values`` and ``errors``, records the failures of this depth, and
    returns the next level and its owners.
    """
    n = values.size
    x0, xm, x1, f0, fm, f1, whole, s_tol = level
    lm, rm = mids.reshape(2, -1)
    flm, frm = f_mids.reshape(2, -1)
    # each half keeps its own width: a shared one is off by an ulp of x
    s_left = (xm - x0) / 6.0 * (f0 + 4.0 * flm + fm)
    s_right = (x1 - xm) / 6.0 * (fm + 4.0 * frm + f1)
    delta = s_left + s_right - whole
    done = np.abs(delta) <= 15.0 * s_tol
    values += np.bincount(owner[done], s_left[done] + s_right[done]
                          + delta[done] / 15.0, n)
    errors += np.bincount(owner[done], np.abs(delta[done]), n) / 15.0
    split = ~done
    if depth >= max_depth:
        bad = split
    else:
        floor = 16.0 * _EPS * (np.abs(s_left) + np.abs(s_right))
        bad = split & (15.0 * s_tol < floor)
    if bad.any():
        # the first offending interval of each integral names its failure
        culprits, first_bad = np.unique(owner[bad], return_index=True)
        for k, i in zip(culprits.tolist(), np.flatnonzero(bad)[first_bad].tolist()):
            if depth >= max_depth:
                msg = (f"max depth {max_depth} reached on [{x0[i]}, {x1[i]}] "
                       f"with residual {abs(delta[i]):.3e}")
            else:
                msg = (f"tolerance {s_tol[i]:.3e} on [{x0[i]}, {x1[i]}] is below "
                       f"the rounding floor {floor[i] / 15.0:.3e} of its "
                       f"Simpson sums")
            failures[k] = QuadratureError(msg)
        split &= ~np.isin(owner, culprits)
    # the left halves of the split intervals, then their right halves
    keep = np.flatnonzero(split)
    level = np.array([np.concatenate([u[keep], v[keep]]) for u, v in (
        (x0, xm), (lm, rm), (xm, x1), (f0, fm), (flm, frm), (fm, f1),
        (s_left, s_right), (0.5 * s_tol, 0.5 * s_tol))])
    return level, np.concatenate([owner[keep], owner[keep]])


def adaptive_simpson_many(f: Callable[[np.ndarray, np.ndarray], np.ndarray],
                          a, b, tol, max_depth: int = 60):
    """Integrate f over [a_i, b_i] to absolute tolerance tol_i for every i.

    f takes an array of abscissae and the array of their integral indices
    and returns the array of its values.  Returns (values, error_estimates,
    nodes, failures): float arrays with NaN for a failed integral, one array
    of abscissae per integral in evaluation order, and per integral the
    ``QuadratureError`` that stopped it, or None.
    """
    a, b, tol = (np.array(v, dtype=float, ndmin=1) for v in (a, b, tol))
    n = a.size
    values, errors = np.zeros(n), np.zeros(n)
    failures: list[QuadratureError | None] = [None] * n
    for i in np.flatnonzero(~(tol > 0)).tolist():
        failures[i] = QuadratureError(f"tol must be > 0, got {tol[i]}")
    owner = np.flatnonzero((tol > 0) & (a != b))
    point = np.flatnonzero((tol > 0) & (a == b))

    node_x, node_owner = [a[point]], [point]
    if owner.size:
        x0, x1 = a[owner], b[owner]
        xm = 0.5 * (x0 + x1)
        first, thrice = np.concatenate([x0, xm, x1]), np.tile(owner, 3)
        f0, fm, f1 = np.asarray(f(first, thrice), dtype=float).reshape(3, -1)
        # one column per pending interval: x0, xm, x1, f0, fm, f1, whole, s_tol
        level = np.array([x0, xm, x1, f0, fm, f1,
                          (x1 - x0) / 6.0 * (f0 + 4.0 * fm + f1), tol[owner]])
        node_x.append(first)
        node_owner.append(thrice)

    depth = 0
    while owner.size:
        x0, xm, x1 = level[:3]
        mids = np.concatenate([0.5 * (x0 + xm), 0.5 * (xm + x1)])
        both = np.concatenate([owner, owner])
        node_x.append(mids)
        node_owner.append(both)
        # only the pending level is held while the integrand runs
        level, owner = _settle(level, owner, mids, np.asarray(f(mids, both), dtype=float),
                               depth, max_depth, values, errors, failures)
        depth += 1

    node_x, node_owner = np.concatenate(node_x), np.concatenate(node_owner)
    order = np.argsort(node_owner, kind="stable")
    nodes = np.split(node_x[order], np.cumsum(np.bincount(node_owner, minlength=n))[:-1])
    failed = np.array([e is not None for e in failures], dtype=bool)
    values[failed] = errors[failed] = np.nan
    return values, errors, nodes, failures


def adaptive_simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                     tol: float = 1e-9, max_depth: int = 60):
    """Integrate f over [a, b] to absolute tolerance tol.

    f takes an array of abscissae and returns the array of its values.
    Returns (value, error_estimate, nodes) where nodes is the array of all
    abscissae at which f was evaluated, in evaluation order.  Raises
    ``QuadratureError`` where ``adaptive_simpson_many`` records one.
    """
    values, errors, nodes, failures = adaptive_simpson_many(
        lambda x, _: f(x), a, b, tol, max_depth)
    if failures[0] is not None:
        raise failures[0]
    return float(values[0]), float(errors[0]), nodes[0]
