"""Built-in consistency checks runnable from the command line.

Two independent routes exist for the central quantities and this module
drives them against each other: the closed-form amplitude against the exact
propagator of the memory dynamics, and the closed-form witness against the
propagator composition (``temporal._witness_route``, the route of
``witness_probabilities``).  Both take their parameter sets as columns,
derived in one call (``derive_columns``): one stacked propagator
(``amplitude.amplitude_oracles``) and one kernel call cover every oracle
set, and one kernel call gives A(tau) and A(tau/2) of every witness case,
whose two routes are then compared as arrays.  The witness cases are the
first points of a Kronecker (quasi-random) sequence mapped onto a parameter
box: deterministic, spread evenly over the box, and drawn without
``numpy.random``, which ``check`` would otherwise import for them alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import amplitude, temporal
from .params import derive_columns

ORACLE_LAMBDAS = (0.01, 0.1, 1.0)
ORACLE_OMEGAS = (0.0, 0.5, 2.0)
ORACLE_DELTAS = (0.0, 1.0, 10.0)
ORACLE_TOL = 1e-8  # largest |closed - ode| an oracle check passes with
ORACLE_T_MAX = 30.0  # horizon of each oracle trajectory
WITNESS_CASES = 200  # quasi-random cases of the witness check
# Box of a witness case: log10(lam), omega, delta_qc, delta_cav, theta, tau.
WITNESS_LOW = (-2.0, 0.0, -3.0, -1.0, 0.0, 0.0)
WITNESS_HIGH = (0.4, 3.0, 3.0, 1.0, math.pi / 2, 30.0)
# The real root of x^7 = x + 1, whose powers 1/phi .. 1/phi^6 step the R6
# sequence (M. Roberts, "The unreasonable effectiveness of quasirandom
# sequences", 2018).
R6_PHI = 1.1127756842787055


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def oracle_grid_check() -> list[CheckResult]:
    """Closed form vs the memory ODE's exact propagator on the standard grid.

    One batched oracle call and one kernel call (``amplitude._rows_form``)
    cover every set.  The closed-form values are taken as they are,
    unvalidated, so a drifting closed form fails these checks' own gates
    instead of raising.
    """
    sets = list(itertools.product(ORACLE_LAMBDAS, ORACLE_OMEGAS, ORACLE_DELTAS))
    rows = derive_columns(*np.array([(*s, 0.0, 1.0) for s in sets]).T)
    times, odes = amplitude.amplitude_oracles(rows, ORACLE_T_MAX)
    closed = amplitude._rows_form(rows, times, (slice(None), None))
    results = []
    for (lam, om, dq), a, ode in zip(sets, closed, odes):
        err = float(np.max(np.abs(a - ode)))
        contraction = float(np.max(np.abs(a)))
        ok = err <= ORACLE_TOL and contraction <= 1.0 + 1e-12
        results.append(CheckResult(
            name=f"amplitude lam={lam} omega={om} delta={dq}",
            passed=ok,
            detail=f"max|closed-ode|={err:.2e}, max|A|={contraction:.12f}",
        ))
    return results


def _witness_cases(n: int):
    """Columns (lam, omega_rabi, delta_qc, delta_cav, theta, tau) of the n
    witness cases.  Case i = 1..n is the point u_i = frac(0.5 + i (1/phi,
    1/phi^2, ..., 1/phi^6)) of the R6 Kronecker sequence (phi = R6_PHI),
    mapped coordinate by coordinate onto the box WITNESS_LOW..WITNESS_HIGH
    as low + (high - low) u; lam is 10 to the first coordinate."""
    low, high = np.array(WITNESS_LOW), np.array(WITNESS_HIGH)
    u = (0.5 + np.arange(1, n + 1)[:, None] * R6_PHI ** -np.arange(1.0, 7.0)) % 1.0
    log_lam, *cols = (low + (high - low) * u).T
    return (10.0 ** log_lam, *cols)


def _witness_route_errors(lam, omega_rabi, delta_qc, delta_cav, theta, tau) -> np.ndarray:
    """|route - closed| of each witness case, given by its columns.

    The route is ``temporal``'s propagator composition (p_plus free, and
    blind through a nonselective measurement at tau/2); the closed form is
    its witness formula.  A(tau) and A(tau/2) of all cases come from one
    kernel call.
    """
    rows = derive_columns(lam, omega_rabi, delta_qc, delta_cav, np.ones(len(tau)))
    a1, ah = amplitude._rows_form(rows, np.stack([tau, tau / 2.0]), slice(None))
    p_free, p_blind = temporal._witness_route(theta, a1.real, ah.real)
    return np.abs(np.abs(p_free - p_blind) - temporal._witness_form(theta, a1, ah))


def witness_consistency_check() -> list[CheckResult]:
    """Closed-form witness vs the propagator composition on WITNESS_CASES
    quasi-random cases."""
    worst = float(np.max(_witness_route_errors(*_witness_cases(WITNESS_CASES))))
    return [CheckResult(
        # the name keeps "random": stored references match check lines by name
        name=f"witness propagator route ({WITNESS_CASES} random cases)",
        passed=worst <= 1e-12,
        detail=f"max |route - closed| = {worst:.2e}",
    )]


def run_all() -> list[CheckResult]:
    return oracle_grid_check() + witness_consistency_check()
