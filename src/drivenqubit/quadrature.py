"""Adaptive Simpson quadrature with node recording.

Used for the geometric-phase integral, where the evaluation nodes must be
available afterwards (the eigendecomposition is re-verified at every node by
the test suite).  Cross-checked against scipy.integrate.quad in the tests.

The intervals are processed level by level: every interval pending at one
depth shares the tolerance ``tol / 2^depth``, and the new midpoints of the
whole level go to the integrand in one array call.  Each interval is
accepted or split on its own data alone, so the nodes are those of the
classic depth-first recursion; only the order of summation differs.

A rejected interval whose tolerance lies below the rounding of its own
Simpson sums, ``15 s_tol < 16 eps (|S_left| + |S_right|)``, raises at once.
Both sides of that test halve with each split, so its children would meet
the same test, and the differences they are accepted on would be rounding
noise.  Without the floor, a tolerance below it splits each level in two
until ``max_depth``: unbounded time depth first, unbounded memory level by
level.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["QuadratureError", "adaptive_simpson"]

_EPS = np.finfo(float).eps


class QuadratureError(RuntimeError):
    """Requested tolerance not reached within the subdivision budget."""


def adaptive_simpson(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                     tol: float = 1e-9, max_depth: int = 60):
    """Integrate f over [a, b] to absolute tolerance tol.

    f takes an array of abscissae and returns the array of its values.
    Returns (value, error_estimate, nodes) where nodes is the array of all
    abscissae at which f was evaluated, in evaluation order.
    """
    if not tol > 0:
        raise QuadratureError(f"tol must be > 0, got {tol}")
    if a == b:
        return 0.0, 0.0, np.array([a], dtype=float)

    first = np.array([a, 0.5 * (a + b), b], dtype=float)
    fa, fm, fb = np.asarray(f(first), dtype=float)
    # one column per pending interval: x0, xm, x1, f0, fm, f1, whole
    level = np.array([[a], [first[1]], [b], [fa], [fm], [fb],
                      [(b - a) / 6.0 * (fa + 4.0 * fm + fb)]])
    nodes = [first]

    total = 0.0
    err_total = 0.0
    s_tol = tol
    depth = 0
    while level.shape[1]:
        x0, xm, x1, f0, fm, f1, whole = level
        lm = 0.5 * (x0 + xm)
        rm = 0.5 * (xm + x1)
        mids = np.concatenate([lm, rm])
        flm, frm = np.asarray(f(mids), dtype=float).reshape(2, -1)
        nodes.append(mids)
        # each half keeps its own width: a shared one is off by an ulp of x
        s_left = (xm - x0) / 6.0 * (f0 + 4.0 * flm + fm)
        s_right = (x1 - xm) / 6.0 * (fm + 4.0 * frm + f1)
        delta = s_left + s_right - whole
        done = np.abs(delta) <= 15.0 * s_tol
        total += float((s_left + s_right + delta / 15.0)[done].sum())
        err_total += float(np.abs(delta[done]).sum()) / 15.0
        split = ~done
        if not split.any():
            break
        if depth >= max_depth:
            i = split.argmax()
            raise QuadratureError(
                f"max depth {max_depth} reached on [{x0[i]}, {x1[i]}] "
                f"with residual {abs(delta[i]):.3e}"
            )
        floor = 16.0 * _EPS * (np.abs(s_left) + np.abs(s_right))
        stuck = split & (15.0 * s_tol < floor)
        if stuck.any():
            i = stuck.argmax()
            raise QuadratureError(
                f"tolerance {s_tol:.3e} on [{x0[i]}, {x1[i]}] is below the "
                f"rounding floor {floor[i] / 15.0:.3e} of its Simpson sums"
            )
        left = np.array([x0, lm, xm, f0, flm, fm, s_left])
        right = np.array([xm, rm, x1, fm, frm, f1, s_right])
        level = np.concatenate([left[:, split], right[:, split]], axis=1)
        s_tol = s_tol / 2.0
        depth += 1
    return total, err_total, np.concatenate(nodes)
