"""Instantaneous eigensystem of the evolved state and its geometric phase.

The kinematic (gauge-invariant) phase over one dressed period T = 2 pi / w_D
reduces, for a pure initial superposition, to

    Phi_g = w_D * Integral_0^T cos^2(Theta(t)) dt,

where cos(Theta) parametrizes the instantaneous dominant eigenvector of the
density matrix.  The integrand lies in [0, 1], so the raw value lies in
[0, 2 pi], up to the quadrature tolerance, and no phase unwrapping is
needed.

The spectral formulas are written once, elementwise in x = |A|^2 and theta
(``_spectrum``): cos^2(Theta) = 1/2 + d / (2 gap).  ``eigensystem`` applies
them to one time through the one-point amplitude.  ``geometric_phases``
integrates the rows of a whole sweep, given by their columns
(``DerivedColumns``) and thetas.  It first breaks each row's period into
pieces on which the integrand is smooth (``_pieces``: the crossings of
|A|^2 through 1 / (2 cos^2 theta), where it steps for small theta, graded
around them and from t = 0, and the beats of |A|), with one batched
extrema search for all rows, then integrates all pieces in one adaptive
Gauss-Kronrod run (``quadrature.gauss_kronrod_many``): each slice of each
level goes to the integrand in one array call, where each node carries the
constants of its own row into ``amplitude._rows_form`` and its theta into
``_spectrum``, with a bound on its rounding.  Every stage is
elementwise in the rows, so a row's pieces, nodes and phase do not depend
on the other rows; ``geometric_phase_detailed`` (which also returns the
nodes) is its one-row view, and ``geometric_phase`` its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitude import _rows_form, amplitude_closed_form
from .nonmarkov import _modes, amplitude_extrema, envelope_time
from .params import DerivedColumns, DerivedParams, ValidationError, _take, fail, failed
from .quadrature import gauss_kronrod_many

__all__ = ["EigenSystem", "eigensystem", "geometric_phase", "geometric_phase_detailed",
           "geometric_phases"]

DEGENERACY_GAP = 1e-10
_ROUNDING = 16 * np.finfo(float).eps
_NEWTON_STEPS = 200  # cap on the steps of one crossing (bisection alone takes < 120)
_NEGLIGIBLE = 1e-8  # |A| below which the integrand is within 1e-16 of its limit 0
_MAX_BEATS = 2 ** 16  # pieces of one beat period of one row: its work budget


@dataclass(frozen=True)
class EigenSystem:
    """Spectral data of the evolved 2x2 state.

    eps_plus/eps_minus are the eigenvalues (summing to 1); cos_theta_big and
    sin_theta_big are the |A>- and |B>-components of the dominant
    eigenvector, each taken from the spectrum without cancellation;
    offdiag_phase carries the complex phase of the coherence so the
    eigenvectors reconstruct the full matrix; degenerate flags a gap below
    1e-10.
    """

    eps_plus: float
    eps_minus: float
    cos_theta_big: float
    sin_theta_big: float
    offdiag_phase: float
    degenerate: bool

    def vector_plus(self) -> np.ndarray:
        ph = np.exp(-1j * self.offdiag_phase)
        return np.array([self.cos_theta_big, ph * self.sin_theta_big])

    def vector_minus(self) -> np.ndarray:
        ph = np.exp(-1j * self.offdiag_phase)
        return np.array([-self.sin_theta_big, ph * self.cos_theta_big])

    def reconstruct(self) -> np.ndarray:
        """eps_plus P_plus + eps_minus P_minus; must equal the input state."""
        vp, vm = self.vector_plus(), self.vector_minus()
        return self.eps_plus * np.outer(vp, vp.conj()) + self.eps_minus * np.outer(
            vm, vm.conj()
        )


def _terms(x, theta):
    """(d, c, gap) of ``_spectrum``, elementwise in (x, theta)."""
    s2 = np.sin(2.0 * theta)
    d = 2.0 * np.cos(theta) ** 2 * x - 1.0
    c = x * s2 * s2
    return d, c, np.sqrt(c + d * d)


def _spectrum(x, theta):
    """(gap, cos^2(Theta), x d cos^2(Theta)/dx) of the evolved state for
    x = |A|^2, elementwise in (x, theta).

    With d = 2 x cos^2(theta) - 1 and the squared coherence
    c = x sin^2(2 theta) (4 r^2, r the coherence):

        eps_+- = (1 +- gap) / 2,   gap = sqrt(c + d^2),
        cos^2(Theta) = 1/2 + d / (2 gap) = (gap + d) / (2 gap),

    for the dominant eigenvector cos(Theta)|A> + ...  For d < 0, gap + d is
    evaluated as c / (gap - d), free of the cancellation, so cos^2(Theta)
    vanishes exactly with the coherence.  Where gap = 0 (theta = 0 at
    |A|^2 = 1/2, the one degenerate point) the eigenprojector is taken by
    continuity from below: cos^2(Theta) = 0, so at theta = 0 the integrand
    is the step 1[|A|^2 > 1/2].  A NaN x (an amplitude that overflowed)
    gives NaN.  The sensitivity to x is
    x d cos^2(Theta)/dx = (c / gap^2) (d + 2) / (4 gap), 0 where gap = 0.
    """
    d, c, gap = _terms(np.asarray(x, dtype=float), theta)
    below = d < 0.0
    flat = gap == 0.0
    safe = np.where(flat, 1.0, gap)
    cos2 = np.where(flat, 0.0, np.where(below, c / np.where(below, gap - d, 1.0), gap + d)
                    / (2.0 * safe))
    return gap, cos2, np.where(flat, 0.0, c / (safe * safe) * (d + 2.0) / (4.0 * safe))


def eigensystem(dp: DerivedParams, theta: float, t: float) -> EigenSystem:
    """Eigendecomposition of the evolved superposition state at time t
    (formulas in ``_spectrum``).  sin^2(Theta) = (gap - d) / (2 gap) is
    taken as c / (2 gap (gap + d)) for d >= 0, free of the cancellation, and
    is 1 where gap = 0 (cos^2(Theta) = 0 there)."""
    a = amplitude_closed_form(dp, t)
    x = abs(a) ** 2
    gap, cos2, _ = (float(v) for v in _spectrum(x, theta))
    d, c, _ = (float(v) for v in _terms(x, theta))
    sin2 = (1.0 if gap == 0.0 else c / (2.0 * gap * (gap + d)) if d >= 0.0
            else (gap - d) / (2.0 * gap))
    return EigenSystem(
        eps_plus=0.5 * (1.0 + gap),
        eps_minus=0.5 * (1.0 - gap),
        cos_theta_big=math.sqrt(cos2),
        sin_theta_big=math.sqrt(sin2),
        offdiag_phase=(math.atan2(a.imag, a.real) if math.sin(2.0 * theta) >= 0
                       else math.atan2(-a.imag, -a.real)),
        degenerate=gap < DEGENERACY_GAP,
    )


def _cos2_rows(rows: DerivedColumns, thetas):
    """cos^2(Theta(t)) of many rows as f(t, row) -> (values, rounding bounds):
    one kernel call per array, each time with the constants of its own row
    (so |A| matches ``amplitude_grid`` bit for bit).  A value is bounded
    within 16 eps (x |d cos^2(Theta)/dx| + 1) of the exact integrand at the
    node, x = |A|^2 taken to 16 eps relative (``_spectrum``)."""
    theta = np.array(thetas, dtype=float)

    def f(t, row):
        # a kernel exponent past -inf gives |A| = 0, its limit; any other
        # value that is not finite fails the row's quadrature
        with np.errstate(over="ignore", invalid="ignore"):
            A = _rows_form(rows, t, row)
            _, cos2, slope = _spectrum(np.abs(A) ** 2, theta[row])
        return cos2, _ROUNDING * (slope + 1.0)

    return f


def _crossings(rows: DerivedColumns, lo, hi, own, level, above):
    """Per bracket (lo, hi) of row ``own``, the time where x = |A|^2 crosses
    ``level`` (falling through it where ``above``: x(lo) > level), and dx/dt
    there.

    Guarded Newton steps on x - level: each step narrows the bracket to the
    side of the estimate, and a step that leaves the bracket is replaced by
    its midpoint.  An estimate stops once a step moves it by at most 2 ulp,
    each on its own data, so a crossing does not depend on the batch.
    """
    t, slope = 0.5 * (lo + hi), np.zeros(lo.size)
    active = np.arange(lo.size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_NEWTON_STEPS):
            if active.size == 0:
                break
            r, ta = own[active], t[active]
            A, dA = _rows_form(rows, ta, r, derivative=True)
            g = np.abs(A) ** 2 - level[active]
            slope[active] = dx = 2.0 * (dA * np.conj(A)).real
            past = (g > 0.0) != above[active]
            a = lo[active] = np.where(past, lo[active], ta)
            b = hi[active] = np.where(past, ta, hi[active])
            step = ta - g / dx
            step = np.where((step >= a) & (step <= b), step, 0.5 * (a + b))
            t[active] = step
            active = active[np.abs(step - ta) > 2.0 * np.spacing(ta)]
    return t, slope


def _runs(owner, start, step, count, doubling: bool):
    """The points start + step 2^j (``doubling``) or start + step (j + 1),
    j < count, of every run, and the owner of each."""
    j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    # a room just below 2^1024 widths can count 1025 doublings (log2 rounds
    # up): 2^1024 overflows, and its point, inf, lies past the period
    with np.errstate(over="ignore"):
        k = np.ldexp(1.0, j) if doubling else j + 1.0
    return np.repeat(start, count) + np.repeat(step, count) * k, np.repeat(owner, count)


def _doublings(room, width):
    """How many of width, 2 width, 4 width, ... fit in room (0 where width
    is not finite and > 0, or where the ratio overflows)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = room / width
    ok = (ratio >= 1.0) & (ratio < math.inf)
    return np.where(ok, np.floor(np.log2(np.where(ok, ratio, 1.0))) + 1.0, 0.0).astype(int)


def _level_crossings(rows: DerivedColumns, theta, level, errors: list):
    """(row, time, dx/dt) of every crossing of x = |A|^2 through ``level``
    within the dressed period, in (row, time) order.

    Only rows with theta < pi/4 have level < 1 = x(0).  x is monotone
    between consecutive points of a row from ``amplitude_extrema``, the ends
    of the monotone segments of |A|, so each crossing has a bracket of its
    own, which ``_crossings`` refines.  The search stops at the period, or
    where the envelope of |A| falls below sqrt(level) (``envelope_time``),
    past which no crossing lies.  A row whose extrema search fails gets its
    error in ``errors``.
    """
    search = np.flatnonzero(theta < 0.25 * math.pi)
    rows, level = _take(rows, search), level[search]
    horizon = np.minimum(2.0 * math.pi / rows.omega_d, envelope_time(rows, np.sqrt(level)))
    found: list = [None] * search.size
    t, _, amps, own = amplitude_extrema(rows, horizon, found)
    fail(errors, search, failed(found), found.__getitem__)
    above = amps ** 2 > level[own]
    b = np.flatnonzero((own[1:] == own[:-1]) & (above[1:] != above[:-1]))
    cross, slope = _crossings(rows, t[b], t[b + 1], own[b], level[own[b]], above[b])
    return search[own[b]], cross, slope


def _pieces(rows: DerivedColumns, theta: np.ndarray, errors: list):
    """(lo, hi, owner): the pieces of [0, 2 pi / omega_d] of every row
    without an error in ``errors``, in (row, time) order.

    The integrand is analytic in t except near a crossing c of
    x = |A|^2 = K = 1 / (2 cos^2 theta) (``_level_crossings``), where d
    changes sign and, for small theta, cos^2(Theta) steps from 1 to 0 over a
    time eps = |sin 2 theta| sqrt(K) / |d'| (d' = 2 cos^2(theta) dx/dt): a
    true step at theta = 0.  So the pieces break at

    - every crossing c and at t = 0, and at p +- w 2^j around each such
      point p, out to half the way to its neighbours (the points of its row
      and the period): w = eps at a crossing (at least 4 ulp of c; none at
      theta = 0, where the step is exact), and w = tau = 1 / max(|s+|, |s-|)
      at t = 0, the fastest time scale of A, so that a transient short
      against the period meets nodes;
    - every beat period 2 pi / |w| of |A| (w = Im F / 2), until the envelope
      of |A| falls below 1e-8 (``envelope_time``), where the integrand is
      within 1e-16 of its limit 0: a piece over many beats can fool the
      error estimate.  A row that needs more than ``_MAX_BEATS`` of them
      gets a ``ValidationError`` in ``errors``.

    A row whose crossings cannot be found gets that error and no pieces.
    """
    live = np.flatnonzero(~failed(errors))
    rows, theta = _take(rows, live), theta[live]
    n, found = live.size, [None] * live.size
    every = np.arange(n)
    period = 2.0 * math.pi / rows.omega_d
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        _, _, s_minus = _modes(rows.m_const, rows.f_const, rows.s_plus)
        beat = 2.0 * math.pi / np.abs(0.5 * rows.f_const.imag)
        # a count that overflows is over the budget
        beats = np.floor(np.minimum(period, envelope_time(rows, _NEGLIGIBLE)) / beat)
    fail(found, every, beats > _MAX_BEATS, lambda i: ValidationError(
        f"the phase needs {beats[i]:.0f} pieces of one beat period, over the budget "
        f"of {_MAX_BEATS} per row"))
    beats = np.where(beats > _MAX_BEATS, 0, beats).astype(int)
    c2 = np.cos(theta) ** 2
    level = 0.5 / c2
    own, cross, slope = _level_crossings(rows, theta, level, found)
    with np.errstate(divide="ignore", invalid="ignore"):
        eps = np.abs(np.sin(2.0 * theta[own])) * np.sqrt(level[own]) / np.abs(
            2.0 * c2[own] * slope)
    eps = np.where(eps > 0.0, np.maximum(eps, 4.0 * np.spacing(cross)), np.nan)
    tau = 1.0 / np.maximum(np.abs(rows.s_plus), np.abs(s_minus))
    # each row's points in time order, 0, its crossings, then its period (which
    # gets no width); a gap across two rows is negative, so it grades nothing
    t, o, width = (np.concatenate(col) for col in zip(
        (np.zeros(n), every, tau), (cross, own, eps), (period, every, np.full(n, np.nan))))
    order = np.lexsort((t, o))
    t, o, width = t[order], o[order], width[order]
    gap = 0.5 * np.diff(t)
    t, o = (np.concatenate(col) for col in zip(
        (t, o), _runs(o[1:], t[1:], -width[1:], _doublings(gap, width[1:]), True),
        _runs(o[:-1], t[:-1], width[:-1], _doublings(gap, width[:-1]), True),
        _runs(every, np.zeros(n), beat, beats, False)))
    order = np.lexsort((t, o))
    order = order[t[order] <= period[o[order]]]  # an even point may round past the period
    t, o = t[order], o[order]
    fail(errors, live, failed(found), found.__getitem__)
    ok = ~failed(found)[o]
    piece = np.flatnonzero((o[1:] == o[:-1]) & (t[1:] > t[:-1]) & ok[:-1])
    return t[piece], t[piece + 1], live[o[piece]]


def _phases(rows: DerivedColumns, thetas, quad_tol, integrand):
    """(phi_g, quad_err, errors) of the rows by ``gauss_kronrod_many`` on
    their pieces (``_pieces``), with ``integrand`` as f; see
    ``geometric_phases``."""
    theta = np.array(thetas, dtype=float)
    errors = rows.errors(period=True)
    lo, hi, owner = _pieces(rows, theta, errors)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tol = np.broadcast_to(np.asarray(quad_tol, dtype=float) / rows.omega_d, theta.shape)
    val, err, failures = gauss_kronrod_many(integrand, lo, hi, owner, tol)
    fail(errors, np.arange(theta.size), failed(failures), failures.__getitem__)
    bad = failed(errors)
    val[bad] = err[bad] = np.nan
    return rows.omega_d * val, rows.omega_d * err, errors


def geometric_phases(rows: DerivedColumns, thetas, quad_tol=1e-9):
    """Phases of many rows, given by their columns and thetas, in one
    quadrature on the pieces of their periods (``_pieces``).

    ``quad_tol`` is one tolerance for all rows or one per row, in units of
    the phase.  Returns (phi_g, quad_err, errors): per row the phase and its
    error estimate (NaN for a failed row), and the error that stopped the
    row or None.  A row whose constants overflow or that has no finite
    dressed period (``DerivedColumns.errors``) gets no quadrature; one whose
    extrema search fails gets its ``ValidationError``, and one whose
    quadrature fails its ``QuadratureError``.  The others are integrated
    over [0, 2 pi / omega_d] to quad_tol / omega_d, each independent of the
    other rows.
    """
    return _phases(rows, thetas, quad_tol, _cos2_rows(rows, thetas))


def geometric_phase(dp: DerivedParams, theta: float, quad_tol: float = 1e-9) -> float:
    """Kinematic phase over one dressed period, in radians (raw, in [0, 2 pi]
    up to quad_tol): the value of ``geometric_phase_detailed``."""
    return geometric_phase_detailed(dp, theta, quad_tol)[0]


def geometric_phase_detailed(dp: DerivedParams, theta: float,
                             quad_tol: float = 1e-9):
    """(value, error_estimate, nodes): the one-row view of
    ``geometric_phases``, equal to ``geometric_phase`` bit for bit, raising
    the row's error.  The quadrature nodes are exposed so the spectral
    decomposition can be re-verified at every point the integral actually
    touched."""
    rows = DerivedColumns.of([dp])
    f, calls = _cos2_rows(rows, [theta]), [np.empty(0)]

    def recorded(t, row):
        calls.append(t)
        return f(t, row)

    phi, err, errors = _phases(rows, [theta], quad_tol, recorded)
    if errors[0] is not None:
        raise errors[0]
    return float(phi[0]), float(err[0]), np.concatenate(calls)
