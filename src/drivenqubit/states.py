"""Qubit density matrices in the dressed basis and their evolution channel.

The computational basis throughout is the dressed pair {|A>, |B>}; |B> is
stationary (dark) under the dissipative evolution, the |A> population decays
as |A(t)|^2 and coherences as A(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitude import amplitude_closed_form
from .params import DerivedParams, ValidationError

__all__ = [
    "QubitState",
    "BlochVector",
    "evolve_superposition",
    "apply_channel",
    "coherence_l1",
    "trace_distance",
]

_ATOL = 1e-12


@dataclass(frozen=True)
class QubitState:
    """2x2 density matrix; validated Hermitian, unit-trace, positive."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValidationError(f"rho must be 2x2, got shape {rho.shape}")
        if not np.isfinite(rho).all():
            raise ValidationError("rho must be finite")
        if abs(np.trace(rho) - 1.0) > _ATOL:
            raise ValidationError(f"trace must be 1, got {np.trace(rho)}")
        if not np.allclose(rho, rho.conj().T, rtol=0, atol=_ATOL):
            raise ValidationError("rho must be Hermitian")
        if np.linalg.eigvalsh(rho).min() < -_ATOL:
            raise ValidationError("rho must be positive semidefinite")
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def from_superposition(cls, theta: float) -> "QubitState":
        """Pure state cos(theta)|A> + sin(theta)|B>."""
        c, s = math.cos(theta), math.sin(theta)
        v = np.array([c, s], dtype=complex)
        return cls(np.outer(v, v.conj()))

    @classmethod
    def from_bloch(cls, v: "BlochVector") -> "QubitState":
        rho = 0.5 * np.array(
            [[1.0 + v.z, v.x - 1j * v.y], [v.x + 1j * v.y, 1.0 - v.z]],
            dtype=complex,
        )
        return cls(rho)

    def to_bloch(self) -> "BlochVector":
        r = self.rho
        return BlochVector(
            x=2.0 * r[0, 1].real, y=-2.0 * r[0, 1].imag, z=(r[0, 0] - r[1, 1]).real
        )


@dataclass(frozen=True)
class BlochVector:
    """Real Bloch coordinates; |v| <= 1 (pure states on the unit sphere)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not self.norm() <= 1.0 + _ATOL:
            raise ValidationError(f"Bloch vector norm must be <= 1, got {self.norm()}")

    def norm(self) -> float:
        return math.sqrt(self.x**2 + self.y**2 + self.z**2)

    def antipode(self) -> "BlochVector":
        return BlochVector(-self.x, -self.y, -self.z)

    @classmethod
    def from_angles(cls, polar: float, azimuth: float = 0.0) -> "BlochVector":
        return cls(
            x=math.sin(polar) * math.cos(azimuth),
            y=math.sin(polar) * math.sin(azimuth),
            z=math.cos(polar),
        )


def evolve_superposition(dp: DerivedParams, theta: float, t: float) -> QubitState:
    """Evolved state of the initial superposition cos(theta)|A> + sin(theta)|B>:
    ``apply_channel`` of that state."""
    return apply_channel(dp, QubitState.from_superposition(theta), t)


def apply_channel(dp: DerivedParams, initial: QubitState, t: float) -> QubitState:
    """Linear extension of the evolution to an arbitrary initial state.

    Populations scale as |A(t)|^2 and coherences as A(t), with the trace
    completed into the dark state.
    """
    a = amplitude_closed_form(dp, t)
    r = initial.rho
    paa = abs(a) ** 2 * r[0, 0].real
    off = a * r[0, 1]
    return QubitState(np.array([[paa, off], [off.conjugate(), 1.0 - paa]]))


def coherence_l1(state: QubitState) -> float:
    """l1 coherence: sum of off-diagonal magnitudes, 2|rho_AB| for a qubit."""
    return 2.0 * abs(state.rho[0, 1])


def trace_distance(s1: QubitState, s2: QubitState) -> float:
    """Half the trace norm of the difference, capped at 1: for states it
    lies in [0, 1], but a pure state and its antipode can round above."""
    w = np.linalg.eigvalsh(s1.rho - s2.rho)
    return min(1.0, 0.5 * float(np.sum(np.abs(w))))
