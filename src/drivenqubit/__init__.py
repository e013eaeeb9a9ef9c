"""Driven qubit in a lossy cavity: exact single-excitation dynamics plus
quantumness and memory diagnostics (Leggett-Garg, quantum witness, coherence,
geometric phase, BLP backflow measure, effective decay rate).

Everything rests on the closed-form amplitude in ``drivenqubit.amplitude``:
one bounded numpy formula for time grids, single times and batched sweeps.
"""

from .amplitude import (AmplitudePole, AmplitudeTrajectory,
                        amplitude_closed_form, amplitude_derivative,
                        amplitude_grid, amplitude_oracle_ode,
                        amplitude_trajectory, decay_rate, decay_rate_grid)
from .nonmarkov import (BackflowIntervals, BlpResult, antipodal_pair,
                        backflow_intervals, blp_measure, info_flux)
from .params import DerivedParams, SystemParams, ValidationError, derive
from .phase import (EigenSystem, eigensystem, geometric_phase,
                    geometric_phase_detailed, geometric_phases)
from .states import (BlochVector, QubitState, apply_channel, coherence_l1,
                     evolve_superposition, trace_distance)
from .sweeps import (PRESET_NAMES, SweepAxis, SweepSpec, figure_preset,
                     run_sweep)
from .temporal import (LgiResult, WitnessResult, coherence_monotone, lgi_c3,
                       lgi_series, propagator, quantum_witness,
                       two_time_correlation, witness_probabilities,
                       witness_series)

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the amplitude kernel: always "python", the numpy one."""
    return "python"


__all__ = [
    "__version__",
    "backend_name",
    "ValidationError",
    "SystemParams",
    "DerivedParams",
    "derive",
    "AmplitudeTrajectory",
    "AmplitudePole",
    "amplitude_closed_form",
    "amplitude_derivative",
    "amplitude_grid",
    "amplitude_trajectory",
    "amplitude_oracle_ode",
    "decay_rate",
    "decay_rate_grid",
    "QubitState",
    "BlochVector",
    "evolve_superposition",
    "apply_channel",
    "coherence_l1",
    "trace_distance",
    "LgiResult",
    "WitnessResult",
    "two_time_correlation",
    "lgi_c3",
    "lgi_series",
    "propagator",
    "quantum_witness",
    "witness_probabilities",
    "witness_series",
    "coherence_monotone",
    "EigenSystem",
    "eigensystem",
    "geometric_phase",
    "geometric_phase_detailed",
    "geometric_phases",
    "BackflowIntervals",
    "BlpResult",
    "antipodal_pair",
    "info_flux",
    "backflow_intervals",
    "blp_measure",
    "SweepAxis",
    "SweepSpec",
    "run_sweep",
    "figure_preset",
    "PRESET_NAMES",
]
