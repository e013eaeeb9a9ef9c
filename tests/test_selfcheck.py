import math

import numpy as np
import pytest

from drivenqubit import SystemParams, amplitude, derive, selfcheck, temporal
from drivenqubit.amplitude import ORACLE_POINTS, amplitude_oracle_ode, amplitude_oracles
from drivenqubit.selfcheck import ORACLE_T_MAX, WITNESS_SEED
from drivenqubit.temporal import quantum_witness, witness_probabilities


def test_batched_oracle_is_its_one_set_view_bit_for_bit():
    # sets whose G dt needs different scaling exponents, including the
    # nearly defective G of lam 2: each is squared exactly its own s times
    params = [SystemParams(lam=lam, omega_rabi=om)
              for lam in (0.01, 0.1, 1.0, 2.0) for om in (0.0, 1.0, 1e3)]
    dt = ORACLE_T_MAX / (ORACLE_POINTS - 1)
    exponents = set()
    for p in params:
        dp = derive(p)
        norm = max(0.5 * p.gamma * p.lam, math.cos(dp.eta / 2.0) ** 4 + abs(dp.m_const))
        exponents.add(math.frexp(norm * dt)[1])
    assert len(exponents) >= 3
    times, values = amplitude_oracles(params, ORACLE_T_MAX)
    assert values.shape == (len(params), ORACLE_POINTS)
    for p, row in zip(params, values):
        one = amplitude_oracle_ode(p, ORACLE_T_MAX)
        assert np.array_equal(one.times, times)
        assert np.array_equal(one.values, row)


def _public_route_cases(n):
    """The witness cases drawn one scalar at a time, as six draws per case."""
    rng = np.random.default_rng(WITNESS_SEED)
    cases = []
    for _ in range(n):
        params = SystemParams(
            lam=float(10 ** rng.uniform(-2, 0.4)),
            omega_rabi=float(rng.uniform(0, 3)),
            delta_qc=float(rng.uniform(-3, 3)),
            delta_cav=float(rng.uniform(-1, 1)),
        )
        cases.append((params, float(rng.uniform(0, math.pi / 2)),
                      float(rng.uniform(0, 30))))
    return cases


def test_witness_line_matches_the_per_case_public_route():
    cases = _public_route_cases(200)
    params, theta, tau = selfcheck._witness_cases(200)
    assert params == [p for p, _, _ in cases]
    assert theta.tolist() == [t for _, t, _ in cases]
    assert tau.tolist() == [t for _, _, t in cases]
    worst = 0.0
    for p, th, t in cases:
        dp = derive(p)
        p_free, p_blind = witness_probabilities(dp, th, t)
        worst = max(worst, abs(abs(p_free - p_blind) - quantum_witness(dp, th, t).w_q))
    assert abs(float(np.max(selfcheck._witness_route_errors(200))) - worst) <= 1e-15


@pytest.mark.parametrize("helper", ["_propagator_matrix", "_apply"])
def test_drifting_propagator_route_fails_only_the_witness_line(monkeypatch, helper):
    # the witness line compares two routes: a drift in the propagator's
    # matrix, or in how the route composes it, moves one of them and fails
    # it, and leaves the oracle lines
    original = getattr(temporal, helper)
    monkeypatch.setattr(temporal, helper, lambda *args: original(*args) * (1 + 1e-6))
    results = selfcheck.run_all()
    assert len(results) == 28
    assert all(r.passed for r in results[:-1])
    assert results[-1].name.startswith("witness") and not results[-1].passed


def test_check_evaluates_the_kernel_in_batches(monkeypatch):
    # one kernel call per oracle set and one for all witness cases; a
    # fallback to one-point calls would make hundreds
    calls = []
    mode_form = amplitude._mode_form

    def counted(*args):
        calls.append(args[2].size)
        return mode_form(*args)

    monkeypatch.setattr(amplitude, "_mode_form", counted)
    assert all(r.passed for r in selfcheck.run_all())
    assert 0 < len(calls) <= 28
