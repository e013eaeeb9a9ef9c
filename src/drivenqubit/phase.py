"""Instantaneous eigensystem of the evolved state and its geometric phase.

The kinematic (gauge-invariant) phase over one dressed period T = 2 pi / w_D
reduces, for a pure initial superposition, to

    Phi_g = w_D * Integral_0^T cos^2(Theta(t)) dt,

where cos(Theta) parametrizes the instantaneous dominant eigenvector of the
density matrix.  The integrand lies in [0, 1], so the raw value lies in
[0, 2 pi], up to the quadrature tolerance, and no phase unwrapping is
needed.

The spectral formulas are written once, elementwise in x = |A|^2 and theta
(``_spectrum``).  ``eigensystem`` applies them to one time through the
one-point amplitude.  ``geometric_phases`` integrates the rows of a whole
sweep, given by their columns (``DerivedColumns``) and thetas, in one
adaptive Simpson run: each level of every row goes to the integrand in one
array call, where each node carries the constants (M, F, s+, theta) of its
own row into ``amplitude._mode_form`` and ``_spectrum``.  Each row is still
accepted or split on its own data, so its nodes and phase do not depend on
the other rows; ``geometric_phase`` is its one-row view.
``geometric_phase_detailed`` integrates one row alone with
``adaptive_simpson`` and also returns the nodes, the same ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitude import _mode_form, amplitude_closed_form
from .params import DerivedColumns, DerivedParams
from .quadrature import adaptive_simpson, adaptive_simpson_many

__all__ = ["EigenSystem", "eigensystem", "geometric_phase", "geometric_phase_detailed",
           "geometric_phases"]

DEGENERACY_GAP = 1e-10


@dataclass(frozen=True)
class EigenSystem:
    """Spectral data of the evolved 2x2 state.

    eps_plus/eps_minus are the eigenvalues (summing to 1); cos_theta_big is
    the |A>-component of the dominant eigenvector; offdiag_phase carries the
    complex phase of the coherence so the eigenvectors reconstruct the full
    matrix; degenerate flags a gap below 1e-10.
    """

    eps_plus: float
    eps_minus: float
    cos_theta_big: float
    offdiag_phase: float
    degenerate: bool

    @property
    def sin_theta_big(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.cos_theta_big**2))

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


def _spectrum(x, theta):
    """(gap, cos_theta_big) of the evolved state for x = |A|^2, elementwise
    in (x, theta).

    With p = x cos^2(theta), d = 2p - 1 and the coherence
    r = |sin(2 theta)| sqrt(x) / 2:

        eps_+- = (1 +- gap) / 2,   gap = sqrt(4 r^2 + d^2),
        cos(Theta) = q / sqrt(r^2 + q^2),   q = p - eps_- = (d + gap) / 2.

    For d < 0, q is evaluated as 2 r^2 / (gap - d), free of the cancellation
    in d + gap, so it vanishes exactly with the coherence.  That 0/0 case
    (r = q = 0, p <= 1/2: theta = 0 below |A|^2 = 1/2, zeros of A) is
    resolved by continuity of the eigenprojector: the dominant eigenvector
    is |B>, cos(Theta) = 0.  For d > 0, q >= d > 0 and no 0/0 arises.  A
    NaN x (an amplitude that overflowed) gives NaN, not that limit.
    """
    x = np.asarray(x, dtype=float)
    s2 = np.sin(2.0 * theta)
    d = 2.0 * np.cos(theta) ** 2 * x - 1.0
    r = 0.5 * np.abs(s2) * np.sqrt(x)
    gap = np.sqrt(x * s2 * s2 + d * d)
    below = d < 0.0
    q = np.where(below, 2.0 * r * r / np.where(below, gap - d, 1.0), 0.5 * (d + gap))
    den = np.hypot(r, q)
    live = ~(den <= 1e-150)
    cos_big = np.where(live, q / np.where(live, den, 1.0), 0.0)
    return gap, cos_big


def eigensystem(dp: DerivedParams, theta: float, t: float) -> EigenSystem:
    """Eigendecomposition of the evolved superposition state at time t
    (formulas in ``_spectrum``)."""
    a = amplitude_closed_form(dp, t)
    gap, cos_big = (float(v) for v in _spectrum(abs(a) ** 2, theta))
    return EigenSystem(
        eps_plus=0.5 * (1.0 + gap),
        eps_minus=0.5 * (1.0 - gap),
        cos_theta_big=cos_big,
        offdiag_phase=(math.atan2(a.imag, a.real) if math.sin(2.0 * theta) >= 0
                       else math.atan2(-a.imag, -a.real)),
        degenerate=gap < DEGENERACY_GAP,
    )


def _cos2_rows(rows: DerivedColumns, thetas):
    """cos^2(Theta(t)) of many rows as f(t, row): one kernel call per array,
    each time with the constants of its own row (so |A| matches
    ``amplitude_grid`` bit for bit)."""
    theta = np.array(thetas, dtype=float)

    def f(t, row):
        A = _mode_form(rows.m_const[row], rows.f_const[row], t, rows.s_plus[row])
        return _spectrum(np.abs(A) ** 2, theta[row])[1] ** 2

    return f


def _cos2_integrand(dp: DerivedParams, theta: float):
    """cos^2(Theta(t)) of one row over an array of times."""
    f = _cos2_rows(DerivedColumns.of([dp]), [theta])
    return lambda t: f(np.asarray(t, dtype=float), np.zeros(np.shape(t), dtype=int))


def geometric_phases(rows: DerivedColumns, thetas, quad_tol: float = 1e-9):
    """Phases of many rows, given by their columns and thetas, in one
    quadrature, one integrand call per level.

    Returns (phi_g, quad_err, errors): per row the phase and its error
    estimate (NaN for a failed row), and the error that stopped the row or
    None.  A row whose constants overflow or that has no finite dressed
    period (``DerivedColumns.errors``) gets no quadrature; one whose
    quadrature fails gets its ``QuadratureError``.  The others are
    integrated over [0, 2 pi / omega_d] to quad_tol / omega_d, each
    independent of the other rows.
    """
    errors = rows.errors(period=True)
    # a row without a phase gets tolerance 0: no quadrature, no integrand call
    w = np.where(rows.overflow | rows.no_period, np.inf, rows.omega_d)
    val, err, failures = adaptive_simpson_many(
        _cos2_rows(rows, thetas), np.zeros_like(w), 2.0 * math.pi / w, quad_tol / w)
    errors = [e or failure for e, failure in zip(errors, failures)]
    return rows.omega_d * val, rows.omega_d * err, errors


def geometric_phase(dp: DerivedParams, theta: float, quad_tol: float = 1e-9) -> float:
    """Kinematic phase over one dressed period, in radians (raw, in [0, 2 pi]
    up to quad_tol): the one-row view of ``geometric_phases``, raising the
    row's error."""
    phi, _, errors = geometric_phases(DerivedColumns.of([dp]), [theta], quad_tol)
    if errors[0] is not None:
        raise errors[0]
    return float(phi[0])


def geometric_phase_detailed(dp: DerivedParams, theta: float,
                             quad_tol: float = 1e-9):
    """(value, error_estimate, nodes): the phase of one row by
    ``adaptive_simpson``, equal to ``geometric_phase``'s bit for bit.  The
    quadrature nodes are exposed so the spectral decomposition can be
    re-verified at every point the integral actually touched."""
    if (exc := DerivedColumns.of([dp]).errors(period=True)[0]) is not None:
        raise exc
    value, err, nodes = adaptive_simpson(_cos2_integrand(dp, theta), 0.0,
                                         2.0 * math.pi / dp.omega_d,
                                         quad_tol / dp.omega_d)
    return dp.omega_d * value, dp.omega_d * err, nodes
