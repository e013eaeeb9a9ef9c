"""Built-in consistency checks runnable from the command line.

Two independent routes exist for the central quantities and this module
drives them against each other: the closed-form amplitude against the exact
propagator of the memory dynamics, and the closed-form witness against the
propagator composition (``temporal._witness_route``, the route of
``witness_probabilities``).  Both are array-shaped: one stacked propagator
(``amplitude.amplitude_oracles``) covers every oracle set, and one kernel
call gives A(tau) and A(tau/2) of every witness case, whose two routes are
then compared as arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import amplitude, temporal
from .params import SystemParams, derive

ORACLE_LAMBDAS = (0.01, 0.1, 1.0)
ORACLE_OMEGAS = (0.0, 0.5, 2.0)
ORACLE_DELTAS = (0.0, 1.0, 10.0)
ORACLE_TOL = 1e-8  # largest |closed - ode| an oracle check passes with
ORACLE_T_MAX = 30.0  # horizon of each oracle trajectory
WITNESS_SEED = 20260810  # seed of the random cases of the witness check


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def oracle_grid_check(quick: bool = False) -> list[CheckResult]:
    """Closed form vs the memory ODE's exact propagator on the standard grid.

    One batched oracle call covers every set.  The closed-form values are
    taken from ``amplitude.amplitude_grid`` as they are, one call per set and
    unvalidated, so a drifting closed form fails these checks' own gates
    instead of raising.
    """
    lams = ORACLE_LAMBDAS[:1] if quick else ORACLE_LAMBDAS
    omegas = ORACLE_OMEGAS[:2] if quick else ORACLE_OMEGAS
    deltas = ORACLE_DELTAS[:2] if quick else ORACLE_DELTAS
    sets = list(itertools.product(lams, omegas, deltas))
    params = [SystemParams(lam=lam, omega_rabi=om, delta_qc=dq) for lam, om, dq in sets]
    times, odes = amplitude.amplitude_oracles(params, ORACLE_T_MAX)
    results = []
    for (lam, om, dq), p, ode in zip(sets, params, odes):
        # looked up on the module, so that a wrapper of it (the perfbench
        # tracer) counts these grid points too
        closed, _ = amplitude.amplitude_grid(derive(p), times)
        err = float(np.max(np.abs(closed - ode)))
        contraction = float(np.max(np.abs(closed)))
        ok = err <= ORACLE_TOL and contraction <= 1.0 + 1e-12
        results.append(CheckResult(
            name=f"amplitude lam={lam} omega={om} delta={dq}",
            passed=ok,
            detail=f"max|closed-ode|={err:.2e}, max|A|={contraction:.12f}",
        ))
    return results


def _witness_cases(n: int):
    """(params, theta, tau) of the n random witness cases.

    Each case draws log10(lam), omega, delta_qc, delta_cav, theta and tau in
    that order; one (n, 6) draw gives the numbers of n rounds of six scalar
    draws.
    """
    rng = np.random.default_rng(WITNESS_SEED)
    draws = rng.uniform([-2.0, 0.0, -3.0, -1.0, 0.0, 0.0],
                        [0.4, 3.0, 3.0, 1.0, math.pi / 2, 30.0], size=(n, 6))
    params = [SystemParams(lam=10 ** lg, omega_rabi=om, delta_qc=dq, delta_cav=dc)
              for lg, om, dq, dc in draws[:, :4].tolist()]
    return params, draws[:, 4], draws[:, 5]


def _witness_route_errors(n: int) -> np.ndarray:
    """|route - closed| of each witness case.

    The route is ``temporal``'s propagator composition (p_plus free, and
    blind through a nonselective measurement at tau/2); the closed form is
    its witness formula.  A(tau) and A(tau/2) of all cases come from one
    kernel call.
    """
    params, theta, tau = _witness_cases(n)
    M, F, _, s_plus = amplitude.mode_constants([derive(p) for p in params])
    a1, ah = amplitude._mode_form(M, F, np.stack([tau, tau / 2.0]), s_plus)
    p_free, p_blind = temporal._witness_route(theta, a1.real, ah.real)
    return np.abs(np.abs(p_free - p_blind) - temporal._witness_form(theta, a1, ah))


def witness_consistency_check(n: int = 200) -> list[CheckResult]:
    """Closed-form witness vs the propagator composition on n random cases."""
    worst = float(np.max(_witness_route_errors(n)))
    return [CheckResult(
        name=f"witness propagator route ({n} random cases)",
        passed=worst <= 1e-12,
        detail=f"max |route - closed| = {worst:.2e}",
    )]


def run_all(quick: bool = False) -> list[CheckResult]:
    out = oracle_grid_check(quick=quick)
    out.extend(witness_consistency_check(n=50 if quick else 200))
    return out
