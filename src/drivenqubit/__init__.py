"""Driven qubit in a lossy cavity: exact single-excitation dynamics plus
quantumness and memory diagnostics (Leggett-Garg, quantum witness, coherence,
geometric phase, BLP backflow measure, effective decay rate).

Everything rests on the closed-form amplitude in ``drivenqubit.amplitude``:
one bounded numpy formula for time grids, single times and batched sweeps.

Each module's ``__all__`` is the one list of its public names; the package
exports every one of them.
"""

from .amplitude import *
from .nonmarkov import *
from .params import *
from .phase import *
from .quadrature import *
from .states import *
from .sweeps import *
from .temporal import *

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the amplitude kernel: always "python", the numpy one."""
    return "python"


__all__ = ["__version__", "backend_name", *amplitude.__all__, *nonmarkov.__all__,
           *params.__all__, *phase.__all__, *quadrature.__all__, *states.__all__,
           *sweeps.__all__, *temporal.__all__]
