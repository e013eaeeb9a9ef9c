"""Physical parameters, dressed-state constants and the Lorentzian reservoir.

Every rate is expressed in units of the qubit decay scale ``gamma`` (usually
left at 1.0) and times in units of ``1/gamma``, matching the dimensionless
axes used throughout the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, fields

__all__ = [
    "ValidationError",
    "SystemParams",
    "DerivedParams",
    "SpectralDensity",
    "derive",
    "spectral_density",
    "kernel",
]


class ValidationError(ValueError):
    """Raised when parameters or states violate their domain constraints."""


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
                raise ValidationError(f"{f.name} must be finite, got {value}")
        if not (self.gamma > 0):
            raise ValidationError(f"gamma must be > 0, got {self.gamma}")
        if not (self.lam > 0):
            raise ValidationError(f"lam must be > 0, got {self.lam}")
        if self.omega_rabi < 0:
            raise ValidationError(f"omega_rabi must be >= 0, got {self.omega_rabi}")
        if not (0.0 <= self.theta <= math.pi / 2 + 1e-12):
            raise ValidationError(f"theta must lie in [0, pi/2], got {self.theta}")

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
    """Dressed-state constants of the closed-form solution.

    ``m_const`` and ``f_const`` are the two complex constants governing the
    excited-amplitude evolution; ``eta`` the dressed mixing angle,
    ``omega_d`` the dressed frequency, ``tau_r``/``tau_q`` the reservoir
    correlation and qubit relaxation times.
    """

    eta: float
    omega_d: float
    m_const: complex
    f_const: complex
    tau_r: float
    tau_q: float
    params: SystemParams = field(repr=False)

    @property
    def coupling_prefactor(self) -> complex:
        """Prefactor of the amplitude derivative: -gamma*lam*(1+cos(eta))^2/2."""
        p = self.params
        return -p.gamma * p.lam * (1.0 + math.cos(self.eta)) ** 2 / 2.0

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
        out = list(self.params.warnings())
        for reason in (self.overflow(), self.no_period()):
            if reason is not None:
                out.append(reason)
        return tuple(out)


@dataclass(frozen=True)
class SpectralDensity:
    """Lorentzian reservoir profile in offset coordinates (omega0 - omega_k).

    Documents the model: the package computes only with the exponential
    memory ``kernel`` it implies, through M; the tests check they agree.
    """

    center_offset: float
    width: float
    strength: float

    def __post_init__(self):
        if not (self.width > 0):
            raise ValidationError(f"width must be > 0, got {self.width}")
        if not (self.strength > 0):
            raise ValidationError(f"strength must be > 0, got {self.strength}")

    @classmethod
    def from_params(cls, params: SystemParams) -> "SpectralDensity":
        return cls(center_offset=params.delta_cav, width=params.lam,
                   strength=params.gamma)

    @property
    def total_weight(self) -> float:
        """Integral of the profile over the whole real axis: gamma*lam/2."""
        return self.strength * self.width / 2.0


def derive(params: SystemParams) -> DerivedParams:
    """Compute the dressed-state constants from the physical parameters.

    The mixing angle uses the two-argument arctangent on (2*omega_rabi,
    delta_qc), so the resonant limit delta_qc -> 0+ is continuous and gives
    eta = pi/2 whenever the drive is on.  f_const takes the principal square
    root; the amplitude is even in it, so the branch never matters.
    """
    eta = math.atan2(2.0 * params.omega_rabi, params.delta_qc)
    omega_d = math.hypot(params.delta_qc, 2.0 * params.omega_rabi)
    m_const = complex(params.lam, -(omega_d + params.delta_cav - params.delta_qc))
    f_const = cmath.sqrt(
        4.0 * m_const * m_const
        - 2.0 * params.gamma * params.lam * (1.0 + math.cos(eta)) ** 2
    )
    return DerivedParams(
        eta=eta,
        omega_d=omega_d,
        m_const=m_const,
        f_const=f_const,
        tau_r=1.0 / params.lam,
        tau_q=1.0 / params.gamma,
        params=params,
    )


def spectral_density(sd: SpectralDensity, omega_offset: float) -> float:
    """Spectral weight at a mode offset omega_offset = omega0 - omega_k.

    J = gamma*lam^2 / (2*pi*((omega_offset - delta)^2 + lam^2)); the peak
    value gamma/(2*pi) sits at omega_offset = delta.  Documents the model
    (see ``SpectralDensity``).
    """
    d = omega_offset - sd.center_offset
    return sd.strength * sd.width**2 / (2.0 * math.pi * (d * d + sd.width**2))


def kernel(dp: DerivedParams, dt: float) -> complex:
    """Two-time reservoir correlation function at delay dt >= 0.

    Exponential form (gamma*lam/2) * exp(-m_const*dt); its dt = 0 value
    equals the total spectral weight gamma*lam/2.  Documents the memory
    kernel that the closed form and the ODE oracle solve; nothing calls it.
    """
    if dt < 0:
        raise ValidationError(f"kernel delay must be >= 0, got {dt}")
    p = dp.params
    return (p.gamma * p.lam / 2.0) * cmath.exp(-dp.m_const * dt)
