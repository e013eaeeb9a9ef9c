"""Physical parameters and dressed-state constants.

Every rate is expressed in units of the qubit decay scale ``gamma`` (usually
left at 1.0) and times in units of ``1/gamma``, matching the dimensionless
axes used throughout the package.

The dressed constants are computed by column (``derive_columns``), which
the batched passes take; ``derive`` is its one-row view, equal to a batch
row bit for bit.  ``check_column`` validates a swept column in one array
test, with the message ``SystemParams`` gives its first bad value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

__all__ = [
    "ValidationError",
    "SystemParams",
    "DerivedParams",
    "DerivedColumns",
    "check_column",
    "derive",
    "derive_columns",
]


class ValidationError(ValueError):
    """Raised when parameters or states violate their domain constraints."""


# field -> (elementwise test of a finite value, the rule as the error states it)
_DOMAINS = {
    "gamma": (lambda v: v > 0, "must be > 0"),
    "lam": (lambda v: v > 0, "must be > 0"),
    "omega_rabi": (lambda v: v >= 0, "must be >= 0"),
    "theta": (lambda v: (0.0 <= v) & (v <= math.pi / 2 + 1e-12), "must lie in [0, pi/2]"),
}


def _invalid(name: str, value: float) -> ValidationError:
    rule = "must be finite" if not math.isfinite(value) else _DOMAINS[name][1]
    return ValidationError(f"{name} {rule}, got {value}")


@dataclass(frozen=True)
class SystemParams:
    """Physical inputs of the model.

    Attributes
    ----------
    gamma : float
        Qubit decay-rate scale; the unit of every other rate. > 0.
    lam : float
        Spectral width (photon loss rate) of the cavity Lorentzian. > 0.
    omega_rabi : float
        Coupling strength between qubit and classical driving field. >= 0.
    delta_qc : float
        Detuning of the qubit transition from the classical field frequency.
    delta_cav : float
        Detuning of the qubit transition from the cavity spectrum center.
    theta : float
        Initial superposition angle (radians, in [0, pi/2]); the qubit starts
        in cos(theta)|A> + sin(theta)|B> with |A>, |B> the dressed states.
    """

    lam: float
    omega_rabi: float = 0.0
    delta_qc: float = 0.0
    delta_cav: float = 0.0
    theta: float = 0.0
    gamma: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise _invalid(f.name, value)
        for name, (valid, _) in _DOMAINS.items():
            if not valid(value := getattr(self, name)):
                raise _invalid(name, value)

    def warnings(self) -> tuple[str, ...]:
        """Regime warnings (informational; nothing is enforced numerically).

        The rotating-wave treatment assumes drive and detuning small against
        the optical frequencies, and the structured-reservoir treatment is
        derived for lam < gamma; outside those regimes results are still
        computed but flagged.
        """
        out = []
        if self.omega_rabi > 10 * self.gamma:
            out.append("omega_rabi exceeds 10*gamma: rotating-wave regime questionable")
        if abs(self.delta_qc) > 10 * self.gamma:
            out.append("|delta_qc| exceeds 10*gamma: rotating-wave regime questionable")
        if self.lam >= self.gamma:
            out.append("lam >= gamma: weak-coupling (memoryless) regime, model "
                       "derived for lam < gamma")
        return tuple(out)


@dataclass(frozen=True)
class DerivedParams:
    """Dressed-state constants of the closed-form solution, one row of
    ``DerivedColumns``: ``m_const`` and ``f_const`` govern the
    excited-amplitude evolution, ``coupling_prefactor`` and ``s_plus`` are
    the prefactor of its derivative and the rate of its slow mode; ``eta``
    the dressed mixing angle, ``omega_d`` the dressed frequency,
    ``tau_r``/``tau_q`` the reservoir correlation and qubit relaxation times.
    """

    eta: float
    omega_d: float
    m_const: complex
    f_const: complex
    coupling_prefactor: float
    s_plus: complex
    tau_r: float
    tau_q: float
    params: SystemParams = field(repr=False)

    def no_period(self) -> str | None:
        """Why there is no finite dressed period 2 pi / omega_d (omega_d = 0,
        or so small that the period overflows), or None when there is one."""
        if self.omega_d == 0.0:
            return "omega_d = 0 (undriven, resonant): the dressed period is undefined"
        if math.isinf(2.0 * math.pi / self.omega_d):
            return (f"omega_d = {self.omega_d:.3g}: the dressed period "
                    "2 pi / omega_d overflows")
        return None

    def overflow(self) -> str | None:
        """Why the model constants are not finite, or None when they are.

        F = sqrt(4 M^2 - ...) overflows once |M| exceeds about 6.7e153
        (at resonance, omega_rabi above about 3.35e153), and a non-finite M
        makes F non-finite too.  Nothing is computed from such constants:
        their rows are invalid.
        """
        if cmath.isfinite(self.f_const):
            return None
        return (f"the model constants overflow (m_const = {self.m_const:.3g}, "
                f"f_const = {self.f_const:.3g})")

    def flags(self) -> tuple[str, ...]:
        return self.params.warnings() + tuple(
            reason for reason in (self.overflow(), self.no_period()) if reason is not None)


class DerivedColumns(NamedTuple):
    """Dressed constants of many parameter sets, one array entry per set
    (``derive_columns``): gamma, lam and the constants of ``DerivedParams``
    in its order, ``pref`` its ``coupling_prefactor``."""

    gamma: np.ndarray
    lam: np.ndarray
    eta: np.ndarray
    omega_d: np.ndarray
    m_const: np.ndarray
    f_const: np.ndarray
    pref: np.ndarray
    s_plus: np.ndarray

    @classmethod
    def of(cls, dps) -> "DerivedColumns":
        """The constants of ``DerivedParams``, stacked as they are."""
        return cls(*map(np.array, zip(*[
            (dp.params.gamma, dp.params.lam, dp.eta, dp.omega_d, dp.m_const,
             dp.f_const, dp.coupling_prefactor, dp.s_plus) for dp in dps])))

    @property
    def overflow(self) -> np.ndarray:  # rows of DerivedParams.overflow
        return ~np.isfinite(self.f_const)

    @property
    def no_period(self) -> np.ndarray:  # rows of DerivedParams.no_period
        with np.errstate(divide="ignore", over="ignore"):
            return np.isinf(2.0 * math.pi / self.omega_d)

    def errors(self, period: bool = False) -> list:
        """Per row, an ``OverflowError`` where its constants overflow, else,
        with ``period``, a ``ValidationError`` where it has no period, or None:
        the record of the rows' first errors that ``fail`` adds to."""
        errors: list = [None] * self.eta.size
        for i in np.flatnonzero(self.overflow | (period & self.no_period)).tolist():
            dp = self.row(i, None)
            errors[i] = (OverflowError(dp.overflow()) if dp.overflow()
                         else ValidationError(dp.no_period()))
        return errors

    def row(self, i: int, params: SystemParams | None) -> DerivedParams:
        """Row i, that of parameter set ``params``."""
        return DerivedParams(*(col.item(i) for col in self[2:]),
                             1.0 / self.lam.item(i), 1.0 / self.gamma.item(i), params)


def _take(table, index):
    """The entries ``index`` of a table of per-entry columns, a NamedTuple of
    arrays (``DerivedColumns`` and the tables of the batched passes)."""
    return type(table)(*(col[index] for col in table))


def _cat(tables):
    """The entries of like tables, one after the other."""
    return type(tables[0])(*(np.concatenate(cols) for cols in zip(*tables)))


def failed(errors: list) -> np.ndarray:
    """Where a per-row record of errors (``DerivedColumns.errors``) holds one."""
    return np.array([e is not None for e in errors], dtype=bool)


def fail(errors: list, owner, bad, error) -> None:
    """Record ``error(i)`` for the row ``owner[i]`` of each entry i where
    ``bad`` is set, unless that row has an error already: a row keeps its
    first error, which its first bad entry names."""
    for i in np.flatnonzero(bad).tolist():
        if errors[owner[i]] is None:
            errors[owner[i]] = error(i)


def derive_columns(lam, omega_rabi, delta_qc, delta_cav, gamma) -> DerivedColumns:
    """Dressed-state constants of many parameter sets, elementwise in the
    arrays of their fields, all of one shape.

    eta takes the two-argument arctangent on (2*omega_rabi, delta_qc), so
    the resonant limit delta_qc -> 0+ gives eta = pi/2 whenever the drive is
    on, and a signed zero delta_qc reads as 0.  1 + cos eta = 1 +
    delta_qc/omega_d cancels for delta_qc < 0 at weak drive, so there it is
    taken as (2 omega/omega_d) (2 omega/(omega_d - delta_qc)), which does
    not; for delta_qc >= 0 it is 1 + cos(eta).  F is the principal root,
    Re F >= 0 (A is even in F), so s+ = -M/2 + F/4 is the slow mode; with
    q = gamma*lam*(1+cos eta)^2 = -2 pref and D = F + 2M (Re D >= 2 lam),
    s+ = -q/(2D) = pref/D is its cancellation-free form, taken as
    (pref/|D|) (conj D/|D|) with |D| from ``hypot``: no intermediate leaves
    the normal range before s+ does (a complex quotient forms |D|^2, which
    underflows below lam ~ 1e-154 and flushes Re s+ to 0 below lam ~
    1e-220).  Constants that overflow come out inf or NaN, unwarned
    (``overflow``).
    """
    lam, omega_rabi, delta_qc, delta_cav, gamma = np.array(
        (lam, omega_rabi, delta_qc, delta_cav, gamma), dtype=float)
    delta_qc = delta_qc + 0.0  # -0 reads as 0: arctan2 would put eta at pi
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        two_omega = 2.0 * omega_rabi
        eta, omega_d = np.arctan2(two_omega, delta_qc), np.hypot(delta_qc, two_omega)
        m_const = np.empty(eta.shape, dtype=complex)
        m_const.real, m_const.imag = lam, -(omega_d + delta_cav - delta_qc)
        c2 = np.where(delta_qc < 0.0,
                      (two_omega / omega_d) * (two_omega / (omega_d - delta_qc)),
                      1.0 + np.cos(eta)) ** 2
        f_const = np.sqrt(4.0 * m_const * m_const - 2.0 * gamma * lam * c2)
        pref = -gamma * lam * c2 / 2.0
        d_const = f_const + 2.0 * m_const
        abs_d = np.hypot(d_const.real, d_const.imag)
        s_plus = (pref / abs_d) * (np.conj(d_const) / abs_d)
    return DerivedColumns(gamma, lam, eta, omega_d, m_const, f_const, pref, s_plus)


def derive(params: SystemParams) -> DerivedParams:
    """The dressed-state constants of one parameter set (``derive_columns``)."""
    return derive_columns([params.lam], [params.omega_rabi], [params.delta_qc],
                          [params.delta_cav], [params.gamma]).row(0, params)


def check_column(name: str, values: np.ndarray) -> None:
    """Raise the ``ValidationError`` of ``SystemParams`` for the first value
    of a column of field ``name`` that is not finite or not in its domain."""
    valid = np.isfinite(values)
    if name in _DOMAINS:
        valid &= _DOMAINS[name][0](values)
    if not valid.all():
        raise _invalid(name, values[np.argmin(valid)].item())
