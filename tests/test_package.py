"""The package's public names: each module's ``__all__`` is the one list of
its public names, and the package exports every one of them."""

import ast
import importlib
from pathlib import Path

import drivenqubit

MODULES = ["amplitude", "nonmarkov", "params", "phase", "quadrature", "states", "sweeps",
           "temporal"]

# the names the package exported when its list was written by hand
EXPORTED = [
    "__version__", "backend_name", "ValidationError", "SystemParams", "DerivedParams",
    "derive", "AmplitudeTrajectory", "AmplitudePole", "amplitude_closed_form",
    "amplitude_derivative", "amplitude_grid", "amplitude_trajectory", "amplitude_oracle_ode",
    "decay_rate", "decay_rate_grid", "QubitState", "BlochVector", "evolve_superposition",
    "apply_channel", "coherence_l1", "trace_distance", "LgiResult", "WitnessResult",
    "two_time_correlation", "lgi_c3", "lgi_series", "propagator", "quantum_witness",
    "witness_probabilities", "witness_series", "coherence_monotone", "EigenSystem",
    "eigensystem", "geometric_phase", "geometric_phase_detailed", "geometric_phases",
    "BackflowIntervals", "BlpResult", "antipodal_pair", "info_flux", "backflow_intervals",
    "blp_measure", "SweepAxis", "SweepSpec", "run_sweep", "figure_preset", "PRESET_NAMES",
]


def _module(name):
    return importlib.import_module(f"drivenqubit.{name}")


def _defined(module) -> set:
    """The names a module's own top-level statements bind: its functions,
    classes and assignments, not what it imports."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_every_listed_name_is_defined_in_its_module():
    for name in MODULES:
        module = _module(name)
        assert set(module.__all__) <= _defined(module), name
        assert len(set(module.__all__)) == len(module.__all__), name


def test_no_name_is_listed_by_two_modules():
    listed = [n for name in MODULES for n in _module(name).__all__]
    assert len(set(listed)) == len(listed)


def test_the_package_exports_the_module_lists():
    assert drivenqubit.__all__ == ["__version__", "backend_name",
                                   *(n for name in MODULES for n in _module(name).__all__)]
    for name in MODULES:
        module = _module(name)
        assert all(getattr(drivenqubit, n) is getattr(module, n) for n in module.__all__)


def test_every_name_the_package_exported_still_imports():
    assert len(EXPORTED) == 47
    assert set(EXPORTED) <= set(drivenqubit.__all__)
    namespace = {}
    exec(f"from drivenqubit import {', '.join(EXPORTED)}", namespace)
    assert all(name in namespace for name in EXPORTED)
