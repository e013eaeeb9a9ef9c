"""Built-in consistency checks runnable from the command line.

Two independent routes exist for the central quantities and this module
drives them against each other: the closed-form amplitude against the exact
propagator of the memory dynamics, and the closed-form witness against the
propagator composition (``temporal._witness_route``, the route of
``witness_probabilities``).  Both take their parameter sets as columns,
derived in one call (``derive_columns``): one stacked propagator
(``amplitude.amplitude_oracles``) and one kernel call cover every oracle
set, and one kernel call gives A(tau) and A(tau/2) of every witness case,
whose two routes are then compared as arrays.
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
WITNESS_SEED = 20260810  # seed of the random cases of the witness check
WITNESS_CASES = 200  # random cases of the witness check


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def oracle_grid_check() -> list[CheckResult]:
    """Closed form vs the memory ODE's exact propagator on the standard grid.

    One batched oracle call and one kernel call (``amplitude._mode_form``)
    cover every set.  The closed-form values are taken as they are,
    unvalidated, so a drifting closed form fails these checks' own gates
    instead of raising.
    """
    sets = list(itertools.product(ORACLE_LAMBDAS, ORACLE_OMEGAS, ORACLE_DELTAS))
    rows = derive_columns(*np.array([(*s, 0.0, 1.0) for s in sets]).T)
    times, odes = amplitude.amplitude_oracles(rows, ORACLE_T_MAX)
    closed = amplitude._mode_form(rows.m_const[:, None], rows.f_const[:, None],
                                  times, rows.s_plus[:, None])
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
    random witness cases: one (n, 6) draw of log10(lam), omega, delta_qc,
    delta_cav, theta and tau, the numbers of n rounds of six scalar draws."""
    rng = np.random.default_rng(WITNESS_SEED)
    log_lam, *cols = rng.uniform([-2.0, 0.0, -3.0, -1.0, 0.0, 0.0],
                                 [0.4, 3.0, 3.0, 1.0, math.pi / 2, 30.0], size=(n, 6)).T
    return (10.0 ** log_lam, *cols)


def _witness_route_errors(n: int) -> np.ndarray:
    """|route - closed| of each witness case.

    The route is ``temporal``'s propagator composition (p_plus free, and
    blind through a nonselective measurement at tau/2); the closed form is
    its witness formula.  A(tau) and A(tau/2) of all cases come from one
    kernel call.
    """
    *params, theta, tau = _witness_cases(n)
    rows = derive_columns(*params, np.ones(n))
    a1, ah = amplitude._mode_form(rows.m_const, rows.f_const, np.stack([tau, tau / 2.0]),
                                  rows.s_plus)
    p_free, p_blind = temporal._witness_route(theta, a1.real, ah.real)
    return np.abs(np.abs(p_free - p_blind) - temporal._witness_form(theta, a1, ah))


def witness_consistency_check() -> list[CheckResult]:
    """Closed-form witness vs the propagator composition on WITNESS_CASES
    random cases."""
    worst = float(np.max(_witness_route_errors(WITNESS_CASES)))
    return [CheckResult(
        name=f"witness propagator route ({WITNESS_CASES} random cases)",
        passed=worst <= 1e-12,
        detail=f"max |route - closed| = {worst:.2e}",
    )]


def run_all() -> list[CheckResult]:
    return oracle_grid_check() + witness_consistency_check()
