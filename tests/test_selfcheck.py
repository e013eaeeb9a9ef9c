import math

import numpy as np
import pytest

from drivenqubit import SystemParams, amplitude, derive, selfcheck, temporal
from drivenqubit.amplitude import ORACLE_POINTS, amplitude_oracle_ode, amplitude_oracles
from drivenqubit.params import derive_columns
from drivenqubit.selfcheck import (ORACLE_T_MAX, R6_PHI, WITNESS_CASES, WITNESS_HIGH,
                                   WITNESS_LOW)
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
    columns = [[p.lam, p.omega_rabi, p.delta_qc, p.delta_cav, p.gamma] for p in params]
    times, values = amplitude_oracles(derive_columns(*np.array(columns).T), ORACLE_T_MAX)
    assert values.shape == (len(params), ORACLE_POINTS)
    for p, row in zip(params, values):
        one = amplitude_oracle_ode(p, ORACLE_T_MAX)
        assert np.array_equal(one.times, times)
        assert np.array_equal(one.values, row)


def _public_route_cases(n):
    """The witness cases built one scalar at a time: coordinate k of case i
    is frac(0.5 + i / phi^k), mapped onto its side of the box; lam is 10 to
    the first, raised as the columns raise it."""
    points = [[lo + (hi - lo) * ((0.5 + i * R6_PHI ** -float(k)) % 1.0)
               for k, lo, hi in zip(range(1, 7), WITNESS_LOW, WITNESS_HIGH)]
              for i in range(1, n + 1)]
    lams = (10.0 ** np.array([p[0] for p in points])).tolist()
    return [(SystemParams(lam=lam, omega_rabi=om, delta_qc=dq, delta_cav=dc), th, t)
            for lam, (_, om, dq, dc, th, t) in zip(lams, points)]


def test_witness_line_matches_the_per_case_public_route():
    cases = _public_route_cases(200)
    *columns, theta, tau = selfcheck._witness_cases(200)
    assert [SystemParams(*row) for row in zip(*(c.tolist() for c in columns))] == [
        p for p, _, _ in cases]
    assert theta.tolist() == [t for _, t, _ in cases]
    assert tau.tolist() == [t for _, _, t in cases]
    worst = 0.0
    for p, th, t in cases:
        dp = derive(p)
        p_free, p_blind = witness_probabilities(dp, th, t)
        worst = max(worst, abs(abs(p_free - p_blind) - quantum_witness(dp, th, t).w_q))
    errors = selfcheck._witness_route_errors(*columns, theta, tau)
    assert abs(float(np.max(errors)) - worst) <= 1e-15


def test_witness_cases_reach_both_ends_of_each_side_of_the_box():
    *columns, theta, tau = selfcheck._witness_cases(WITNESS_CASES)
    coords = [np.log10(columns[0]), *columns[1:], theta, tau]
    for col, lo, hi in zip(coords, WITNESS_LOW, WITNESS_HIGH):
        margin = 0.05 * (hi - lo)
        assert lo - 1e-12 <= col.min() <= lo + margin
        assert hi - margin <= col.max() <= hi + 1e-12


def test_seeded_witness_cases_still_agree_between_the_routes():
    # the 200 pseudo-random cases that the check drew before it took a
    # Kronecker sequence: six uniform draws per case over the same box
    rng = np.random.default_rng(20260810)
    log_lam, *cols = rng.uniform(WITNESS_LOW, WITNESS_HIGH, size=(WITNESS_CASES, 6)).T
    errors = selfcheck._witness_route_errors(10.0 ** log_lam, *cols)
    assert float(np.max(errors)) <= 1e-12


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
