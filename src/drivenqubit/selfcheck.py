"""Built-in consistency checks runnable from the command line.

Two independent routes exist for the central quantities and this module
drives them against each other: the closed-form amplitude against the exact
propagator of the memory dynamics (``amplitude_oracle_ode``), and the
closed-form witness against the propagator composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import amplitude
from .amplitude import amplitude_oracle_ode
from .params import SystemParams, derive
from .temporal import quantum_witness, witness_probabilities

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

    The closed-form values are taken from ``amplitude.amplitude_grid`` as
    they are, unvalidated, so a drifting closed form fails these checks'
    own gates instead of raising.
    """
    lams = ORACLE_LAMBDAS[:1] if quick else ORACLE_LAMBDAS
    omegas = ORACLE_OMEGAS[:2] if quick else ORACLE_OMEGAS
    deltas = ORACLE_DELTAS[:2] if quick else ORACLE_DELTAS
    results = []
    for lam in lams:
        for om in omegas:
            for dq in deltas:
                params = SystemParams(lam=lam, omega_rabi=om, delta_qc=dq)
                ode = amplitude_oracle_ode(params, ORACLE_T_MAX)
                # looked up on the module, so that a wrapper of it (the
                # perfbench tracer) counts these grid points too
                closed, _ = amplitude.amplitude_grid(derive(params), ode.times)
                err = float(np.max(np.abs(closed - ode.values)))
                contraction = float(np.max(np.abs(closed)))
                ok = err <= ORACLE_TOL and contraction <= 1.0 + 1e-12
                results.append(CheckResult(
                    name=f"amplitude lam={lam} omega={om} delta={dq}",
                    passed=ok,
                    detail=f"max|closed-ode|={err:.2e}, max|A|={contraction:.12f}",
                ))
    return results


def witness_consistency_check(n: int = 200) -> list[CheckResult]:
    """Closed-form witness vs the propagator composition on n random cases."""
    rng = np.random.default_rng(WITNESS_SEED)
    worst = 0.0
    for _ in range(n):
        params = SystemParams(
            lam=float(10 ** rng.uniform(-2, 0.4)),
            omega_rabi=float(rng.uniform(0, 3)),
            delta_qc=float(rng.uniform(-3, 3)),
            delta_cav=float(rng.uniform(-1, 1)),
        )
        dp = derive(params)
        theta = float(rng.uniform(0, math.pi / 2))
        tau = float(rng.uniform(0, 30))
        p_free, p_blind = witness_probabilities(dp, theta, tau)
        closed = quantum_witness(dp, theta, tau).w_q
        worst = max(worst, abs(abs(p_free - p_blind) - closed))
    return [CheckResult(
        name=f"witness propagator route ({n} random cases)",
        passed=worst <= 1e-12,
        detail=f"max |route - closed| = {worst:.2e}",
    )]


def run_all(quick: bool = False) -> list[CheckResult]:
    out = oracle_grid_check(quick=quick)
    out.extend(witness_consistency_check(n=50 if quick else 200))
    return out
