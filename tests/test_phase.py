import cmath
import csv
import io
import math
import time
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # only the property test needs hypothesis (the `test` extra)
    given = None

from drivenqubit import (SweepAxis, SystemParams, ValidationError, derive,
                         eigensystem, evolve_superposition, geometric_phase,
                         geometric_phase_detailed)
from drivenqubit import phase, quadrature, sweeps
from drivenqubit.amplitude import amplitude_closed_form, amplitude_grid
from drivenqubit.params import DerivedColumns
from drivenqubit.quadrature import QuadratureError, gauss_kronrod, gauss_kronrod_many
from drivenqubit.sweeps import SweepSpec, run_sweep


def _depth_first_gk(f, pieces, tol, max_depth=60):
    """Reference for ``gauss_kronrod_many``: one integral over ``pieces``,
    by the depth-first recursion on an explicit stack, one call of f per
    interval.  f(x) returns (values, rounding bounds).  Each interval takes
    the tolerance tol w / L of its width w (L the total width) and is judged
    like the level-order routine: accepted when |K - G| is within it or
    within the rounding of K - G, else halved.  Returns (value,
    error_estimate, nodes) like the level-order routine."""
    x15, wk, wg = quadrature._X, quadrature._W_K, quadrature._W_G
    width = sum(b - a for a, b in pieces)
    share = tol / width if width > 0 else math.inf
    nodes, total, err_total, floor = [], 0.0, 0.0, 0.0
    stack = [(a, b, 0) for a, b in reversed(pieces) if b > a]
    while stack:
        a, b, depth = stack.pop()
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = mid + half * x15
        nodes.extend(x.tolist())
        fx, bar = f(x)
        k = half * sum(wk[j] * fx[j] for j in range(15))
        g = half * sum(wg[j] * fx[j] for j in range(15))
        r = half * sum(abs(wk[j] - wg[j]) * bar[j] for j in range(15))
        diff = abs(k - g)
        if not math.isfinite(diff):
            raise QuadratureError("not finite")
        if diff <= share * (b - a) or diff <= r:
            total += k
            err_total += diff + r
            floor += 0.0 if diff <= share * (b - a) else diff
        elif depth >= max_depth:
            raise QuadratureError("max depth")
        else:
            stack += [(mid, b, depth + 1), (a, mid, depth + 1)]
    if floor > tol:
        raise QuadratureError("rounding floor")
    return total, err_total, np.array(nodes)


def _cos2_integrand(dp, theta):
    """cos^2(Theta(t)) of one row over an array of times: the values of
    ``phase._cos2_rows``."""
    f = phase._cos2_rows(DerivedColumns.of([dp]), [theta])
    return lambda t: f(np.asarray(t, dtype=float), np.zeros(np.shape(t), dtype=int))[0]


def _relative(f):
    """f with the rounding bound 16 eps |f| of ``gauss_kronrod`` on each value."""
    def g(x):
        fx = f(x)
        return fx, 16.0 * np.finfo(float).eps * np.abs(fx)
    return g


def _phase_depth_first(dp, theta, quad_tol):
    """(phi_g, quad_err, nodes) of one row by ``_depth_first_gk`` on its
    pieces (``phase._pieces``), with the integrand and rounding bounds of
    ``phase._cos2_rows``."""
    rows = DerivedColumns.of([dp])
    lo, hi, _ = phase._pieces(rows, np.array([theta]), [None])
    f = phase._cos2_rows(rows, [theta])
    val, err, nodes = _depth_first_gk(lambda x: f(x, np.zeros(x.size, dtype=int)),
                                      list(zip(lo.tolist(), hi.tolist())),
                                      quad_tol / dp.omega_d)
    return dp.omega_d * val, dp.omega_d * err, nodes


def _nodes_of(calls, n):
    """Per integral i < n, the abscissae of the recorded calls (x, owner) of
    a batched integrand that belong to it, in call order."""
    x, owner = (np.concatenate(col) for col in zip((np.empty(0), np.empty(0, int)),
                                                   *calls))
    return [x[owner == i] for i in range(n)]


def geometric_phases(dps, thetas, quad_tol=1e-9):
    """``phase.geometric_phases`` of the rows ``dps`` (their columns, stacked)
    with each row's nodes: (phi_g, quad_err, nodes, errors), the nodes
    recorded from the integrand calls of the batched pass."""
    calls, rows = [], phase._cos2_rows

    def recording(dps, thetas):
        f = rows(dps, thetas)

        def g(t, row):
            calls.append((t, row))
            return f(t, row)

        return g

    phase._cos2_rows = recording
    try:
        phi, err, errors = phase.geometric_phases(DerivedColumns.of(dps), thetas, quad_tol)
    finally:
        phase._cos2_rows = rows
    return phi, err, _nodes_of(calls, len(dps)), errors


def _gp_cases():
    """(params, theta, quad_tol): the corners of fig7 and fig8 at their
    tolerance, then random rows at tolerances from 1e-13 to 1e-6."""
    cases = [(SystemParams(lam=lam, omega_rabi=om), math.pi / 6, 1e-9)
             for lam in (0.01, 1.0) for om in (0.01, 1.0)]
    cases += [(SystemParams(lam=lam, omega_rabi=0.1, delta_qc=d), math.pi / 6, 1e-9)
              for lam in (0.01, 1.0) for d in (0.0, 10.0)]
    rng = np.random.default_rng(20261018)
    for _ in range(12):
        cases.append((SystemParams(lam=float(10 ** rng.uniform(-2, 0)),
                                   omega_rabi=float(rng.uniform(0.01, 2)),
                                   delta_qc=float(rng.uniform(0, 10))),
                      float(rng.uniform(0, math.pi / 2)),
                      float(10 ** rng.uniform(-13, -6))))
    return cases


def test_eigensystem_initial_pure_state():
    dp = derive(SystemParams(lam=0.1, omega_rabi=0.5))
    for theta in (0.0, 0.3, math.pi / 4, 1.2):
        es = eigensystem(dp, theta, 0.0)
        assert es.eps_plus == pytest.approx(1.0, abs=1e-12)
        assert es.eps_minus == pytest.approx(0.0, abs=1e-12)
        assert es.cos_theta_big == pytest.approx(math.cos(theta), abs=1e-12)


def test_eigensystem_diagonal_branch():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.3))
    es_early = eigensystem(dp, 0.0, 0.1)  # |A|^2 still above 1/2
    assert es_early.cos_theta_big == 1.0
    assert abs(amplitude_closed_form(dp, 0.1)) ** 2 > 0.5


def test_eigensystem_sum_and_positivity():
    rng = np.random.default_rng(51)
    for _ in range(50):
        p = SystemParams(lam=float(10 ** rng.uniform(-2, 0.3)),
                         omega_rabi=float(rng.uniform(0, 2)),
                         delta_qc=float(rng.uniform(-5, 5)))
        dp = derive(p)
        theta = float(rng.uniform(0, math.pi / 2))
        es = eigensystem(dp, theta, float(rng.uniform(0, 30)))
        assert es.eps_plus + es.eps_minus == pytest.approx(1.0, abs=1e-12)
        assert es.eps_plus >= es.eps_minus >= -1e-12
        assert -1.0 <= es.cos_theta_big <= 1.0
        vp, vm = es.vector_plus(), es.vector_minus()
        assert abs(np.vdot(vp, vp) - 1) < 1e-12
        assert abs(np.vdot(vm, vm) - 1) < 1e-12
        assert abs(np.vdot(vp, vm)) < 1e-12


def test_spectral_reconstruction_random():
    rng = np.random.default_rng(53)
    cases = []
    for _ in range(60):
        p = SystemParams(lam=float(10 ** rng.uniform(-2, 0.3)),
                         omega_rabi=float(rng.uniform(0, 2)),
                         delta_qc=float(rng.uniform(-5, 5)))
        cases.append((p, float(rng.uniform(0, math.pi / 2)), float(rng.uniform(0, 30))))
    # small theta at |A|^2 > 1/2: the dominant eigenvector is nearly |A>, and
    # sqrt(1 - cos^2) for its |B>-component missed rho by up to 1.0e-9
    cases += [(SystemParams(lam=0.1, omega_rabi=0.3), theta, 0.5)
              for theta in (1e-9, 1e-6, 1e-4)]
    for p, theta, t in cases:
        dp = derive(p)
        es = eigensystem(dp, theta, t)
        rho = evolve_superposition(dp, theta, t).rho
        assert np.max(np.abs(es.reconstruct() - rho)) <= 1e-12


def test_degeneracy_flag_at_crossing():
    # theta = 0 and |A|^2 = 1/2 is the only true crossing of the spectrum
    dp = derive(SystemParams(lam=0.2, omega_rabi=0.0))
    lo, hi = 0.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(amplitude_closed_form(dp, mid)) ** 2 > 0.5:
            lo = mid
        else:
            hi = mid
    es = eigensystem(dp, 0.0, 0.5 * (lo + hi))
    assert es.degenerate
    assert not eigensystem(dp, 0.0, 0.0).degenerate


def test_geometric_phase_unitary_limit():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.1, gamma=1e-12))
    val = geometric_phase(dp, math.pi / 6)
    assert val == pytest.approx(2 * math.pi * math.cos(math.pi / 6) ** 2, abs=1e-4)
    assert val == pytest.approx(1.5 * math.pi, abs=1e-4)


def test_geometric_phase_dark_state_vanishes():
    dp = derive(SystemParams(lam=0.1, omega_rabi=0.5))
    assert geometric_phase(dp, math.pi / 2) == pytest.approx(0.0, abs=1e-12)


def test_geometric_phase_rejects_undefined_period():
    dp = derive(SystemParams(lam=0.1, omega_rabi=0.0, delta_qc=0.0))
    with pytest.raises(ValidationError):
        geometric_phase(dp, math.pi / 6)


def test_geometric_phase_range_and_nodes():
    _check_range_and_nodes(math.pi / 6)


@pytest.mark.parametrize("theta", [0.0, math.pi / 2], ids=["theta0", "pi2"])
def test_geometric_phase_range_and_nodes_at_diagonal_angles(theta):
    _check_range_and_nodes(theta)


def _check_range_and_nodes(theta):
    dp = derive(SystemParams(lam=0.1, omega_rabi=0.3))
    val, err, nodes = geometric_phase_detailed(dp, theta)
    assert 0.0 <= val <= 2 * math.pi
    assert err < 1e-8
    assert nodes.min() >= 0.0 and nodes.max() <= 2 * math.pi / dp.omega_d + 1e-12
    integrand = _cos2_integrand(dp, theta)(nodes)
    # spectral decomposition must hold at every node the integral touched
    for t, value in zip(nodes, integrand):
        es = eigensystem(dp, theta, float(t))
        rho = evolve_superposition(dp, theta, float(t)).rho
        assert np.max(np.abs(es.reconstruct() - rho)) <= 1e-12
        assert abs(value - es.cos_theta_big ** 2) <= 1e-14


def test_vanishing_coherence_below_half_is_b_dominant():
    # theta = 0 in a wide cavity: |A|^2 falls below 1/2 within the period, the
    # state is diagonal and |B> dominates; the coherence and cos^2(Theta)
    # vanish together.  The integrand is a step at the crossing |A|^2 = 1/2,
    # where the spectrum is degenerate; the pieces break there, so nodes lie
    # on both sides and each reads the step exactly.
    dp = derive(SystemParams(lam=1.0, omega_rabi=0.1))
    _, _, nodes = geometric_phase_detailed(dp, 0.0)
    integrand = _cos2_integrand(dp, 0.0)(nodes)
    below = 0
    for t, value in zip(nodes, integrand):
        es = eigensystem(dp, 0.0, float(t))
        rho = evolve_superposition(dp, 0.0, float(t)).rho
        assert np.max(np.abs(es.reconstruct() - rho)) <= 1e-12
        if es.degenerate:
            continue
        x = abs(amplitude_closed_form(dp, float(t))) ** 2
        assert es.cos_theta_big == (1.0 if x > 0.5 else 0.0)
        assert value == es.cos_theta_big ** 2
        below += x < 0.5
    assert 10 < below < len(nodes) - 10


def test_geometric_phase_decreases_with_spectral_width():
    phi_narrow = geometric_phase(derive(SystemParams(lam=0.01, omega_rabi=0.1)),
                                 math.pi / 6)
    phi_wide = geometric_phase(derive(SystemParams(lam=1.0, omega_rabi=0.1)),
                               math.pi / 6)
    assert phi_wide < phi_narrow


def test_geometric_phase_strong_drive_beats_weak_drive():
    phi_weak = geometric_phase(derive(SystemParams(lam=0.1, omega_rabi=0.1)),
                               math.pi / 6)
    phi_strong = geometric_phase(derive(SystemParams(lam=0.1, omega_rabi=1.0)),
                                 math.pi / 6)
    assert phi_strong > phi_weak
    assert phi_strong == pytest.approx(1.5 * math.pi, rel=0.05)


def test_geometric_phase_detuning_stabilizes_at_wide_cavity():
    phi_near = geometric_phase(derive(SystemParams(lam=1.0, omega_rabi=0.1,
                                                   delta_qc=0.1)), math.pi / 6)
    phi_far = geometric_phase(derive(SystemParams(lam=1.0, omega_rabi=0.1,
                                                  delta_qc=1.0)), math.pi / 6)
    assert phi_far > phi_near


def test_quadrature_against_scipy():
    dp = derive(SystemParams(lam=0.1, omega_rabi=0.2, delta_qc=0.3))
    f = _cos2_integrand(dp, math.pi / 6)
    period = 2 * math.pi / dp.omega_d
    ours, _, _ = gauss_kronrod(f, 0.0, period, tol=1e-10)
    ref, _ = quad(f, 0.0, period, epsabs=1e-12, epsrel=1e-12, limit=400)
    assert ours == pytest.approx(ref, abs=1e-9)


def test_quadrature_known_integrals():
    val, err, nodes = gauss_kronrod(np.sin, 0.0, math.pi, tol=1e-12)
    assert val == pytest.approx(2.0, abs=1e-14)
    assert len(nodes) % 15 == 0 and len(nodes) >= 15
    val2, _, _ = gauss_kronrod(lambda x: np.exp(-x * x), -8.0, 8.0, tol=1e-12)
    assert val2 == pytest.approx(math.sqrt(math.pi), abs=1e-13)


@pytest.mark.parametrize("case", range(len(_gp_cases())))
def test_level_order_matches_depth_first_on_gp(case):
    # the phase of one row, on its pieces: the same nodes as the depth-first
    # recursion, and the same sums up to their order
    params, theta, quad_tol = _gp_cases()[case]
    dp = derive(params)
    val, err, nodes = geometric_phase_detailed(dp, theta, quad_tol)
    ref_val, ref_err, ref_nodes = _phase_depth_first(dp, theta, quad_tol)
    assert np.array_equal(np.sort(nodes), np.sort(ref_nodes))
    assert abs(val - ref_val) <= 1e-14
    assert abs(err - ref_err) <= 1e-14


@pytest.mark.parametrize("f,a,b", [(np.sin, 0.0, math.pi),
                                   (lambda x: np.exp(-x * x), -8.0, 8.0)])
@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_level_order_matches_depth_first(f, a, b, tol):
    val, _, nodes = gauss_kronrod(f, a, b, tol=tol)
    ref_val, _, ref_nodes = _depth_first_gk(_relative(f), [(a, b)], tol)
    assert np.array_equal(np.sort(nodes), np.sort(ref_nodes))
    assert abs(val - ref_val) <= 1e-14


@pytest.mark.parametrize("tol", [1e-16, 1e-18, 1e-300])
def test_quadrature_rounding_floor_raises_at_once(tol):
    # intervals accepted on rounding alone stop splitting; their |K - G|
    # add up to more than the tolerance, so the integral fails at once
    f = _cos2_integrand(derive(SystemParams(lam=0.1, omega_rabi=0.3)), 0.5)
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="rounding floor"):
        gauss_kronrod(f, 0.0, 10.0, tol=tol)
    with pytest.raises(QuadratureError, match="rounding floor"):
        gauss_kronrod(np.sin, 0.0, math.pi, tol=tol)
    assert time.perf_counter() - start < 1.0


def test_quadrature_non_finite_values_raise_at_once():
    # NaN sums never pass the acceptance test; split on, they would double
    # the pending level up to max_depth
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="not finite"):
        gauss_kronrod(lambda x: np.where(x > 0.7, np.nan, x), 0.0, 1.0, tol=1e-9)

    def f(x, owner):
        fx = np.where(owner == 1, np.nan, np.sin(x))
        return fx, 16.0 * np.finfo(float).eps * np.abs(fx)

    values, _, failures = gauss_kronrod_many(f, [0.0, 0.0], [math.pi, 1.0], [0, 1],
                                             [1e-9, 1e-9])
    assert values[0] == pytest.approx(2.0, abs=1e-9) and failures[0] is None
    assert "not finite" in str(failures[1]) and math.isnan(values[1])
    assert time.perf_counter() - start < 1.0


def test_quadrature_max_depth_still_raises(monkeypatch):
    def step(x):
        return (x > 1.0 / 3.0).astype(float)

    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 8)
    with pytest.raises(QuadratureError, match="max depth 8"):
        gauss_kronrod(step, 0.0, 1.0, tol=1e-9)
    with pytest.raises(QuadratureError, match="max depth"):
        _depth_first_gk(_relative(step), [(0.0, 1.0)], 1e-9, max_depth=8)
    # the same step converges once the depth budget allows it: the interval
    # that holds it shrinks until its nodes all lie on one side
    monkeypatch.undo()
    val, _, _ = gauss_kronrod(step, 0.0, 1.0, tol=1e-9)
    assert val == pytest.approx(2.0 / 3.0, abs=1e-14)


def _step(x):
    return (x > 1.0 / 3.0).astype(float)


def test_many_integrals_keep_failures_to_their_own_integral(monkeypatch):
    # smooth integrals that converge within the depth budget of 8, next to
    # one below the rounding floor, one that needs more than 8 halvings, one
    # with no valid tolerance, one of zero width and one on two pieces
    gp = _cos2_integrand(derive(SystemParams(lam=0.1, omega_rabi=0.3)), 0.5)
    cases = [(np.sin, [(0.0, math.pi)], 1e-6),
             (gp, [(0.0, 10.0)], 1e-300),
             (lambda x: np.exp(-x * x), [(-8.0, 8.0)], 1e-4),
             (_step, [(0.0, 1.0)], 1e-9),
             (gp, [(0.0, 10.0)], 1e-5),
             (np.sin, [(0.0, 1.0)], 0.0),
             (np.cos, [(2.0, 2.0)], 1e-9),
             (np.cos, [(0.0, 1.0), (1.0, 3.0)], 1e-9)]
    expected = [None, "below the rounding floor", None, "max depth 8", None,
                "tol must be > 0", None, None]

    calls = []

    def f(x, owner):
        calls.append((x, owner))
        fx = np.choose(owner, [g(x) for g, *_ in cases])
        return fx, 16.0 * np.finfo(float).eps * np.abs(fx)

    lo, hi, owner = (np.array([v for i, c in enumerate(cases) for v in col(i, c)])
                     for col in (lambda i, c: [a for a, _ in c[1]],
                                 lambda i, c: [b for _, b in c[1]],
                                 lambda i, c: [i] * len(c[1])))
    tol = np.array([c[2] for c in cases])
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 8)
    values, errors, failures = gauss_kronrod_many(f, lo, hi, owner, tol)
    nodes = _nodes_of(calls, len(cases))
    for i, ((g, pieces, eps), want) in enumerate(zip(cases, expected)):
        if want is not None:
            assert isinstance(failures[i], QuadratureError)
            assert want in str(failures[i])
            assert math.isnan(values[i]) and math.isnan(errors[i])
            if len(pieces) == 1:
                with pytest.raises(QuadratureError, match=want):
                    gauss_kronrod(g, *pieces[0], tol=eps)
            continue
        assert failures[i] is None
        ref_value, ref_error, ref_nodes = _depth_first_gk(_relative(g), pieces, eps)
        assert abs(values[i] - ref_value) <= 1e-15 and abs(errors[i] - ref_error) <= 1e-15
        assert np.array_equal(np.sort(nodes[i]), np.sort(ref_nodes))
        if len(pieces) == 1:  # the one-integral view agrees bit for bit
            assert (values[i], errors[i]) == gauss_kronrod(g, *pieces[0], tol=eps)[:2]


def _sweep_cases():
    """(rows, quad_tol): the fig7 and fig8 corner sweeps (the outermost
    curves of each family, over the presets' lambda axis), then random
    sweeps over the validated box, the first along theta."""
    lam_axis = SweepAxis("lambda_ratio", 0.01, 1.0, 41, "log").values()
    cases = [([SystemParams(lam=lam, omega_rabi=om, theta=math.pi / 6)
               for lam in lam_axis], 1e-9) for om in (0.01, 1.0)]
    cases += [([SystemParams(lam=lam, omega_rabi=0.1, delta_qc=d, theta=math.pi / 6)
                for lam in lam_axis], 1e-9) for d in (0.0, 10.0)]
    rng = np.random.default_rng(8)
    box = {"theta": (0.0, math.pi / 2), "lambda_ratio": (0.01, 1.0),
           "omega": (0.0, 2.0), "delta": (0.0, 10.0)}
    for name in ("theta", "theta", "lambda_ratio", "omega", "delta"):
        fixed = SystemParams(lam=float(10 ** rng.uniform(-2, 0)),
                             omega_rabi=float(rng.uniform(0, 2)),
                             delta_qc=float(rng.uniform(0, 10)),
                             theta=float(rng.uniform(0, math.pi / 2)))
        axis = SweepAxis(name, *box[name], 7, "log" if name == "lambda_ratio" else "linear")
        table, _ = sweeps._sweep_table(SweepSpec("gp", fixed, axis))
        cases.append(([SystemParams(**dict(zip(sweeps.PARAM_COLUMNS, col)))
                       for col in table.T.tolist()],
                      float(10 ** rng.uniform(-12, -7))))
    return cases


@pytest.mark.parametrize("case", range(len(_sweep_cases())))
def test_batched_rows_match_depth_first_and_one_row_view(case):
    rows, quad_tol = _sweep_cases()[case]
    dps = [derive(p) for p in rows]
    phi, err, nodes, errors = geometric_phases(dps, [p.theta for p in rows], quad_tol)
    # recording the nodes leaves the quadrature as sweeps call it
    bare = phase.geometric_phases(DerivedColumns.of(dps), [p.theta for p in rows], quad_tol)
    assert np.array_equal(bare[0], phi) and np.array_equal(bare[1], err)
    assert bare[2] == errors
    for p, dp, phi_i, err_i, x, error in zip(rows, dps, phi, err, nodes, errors):
        assert error is None
        # the three entry points agree bit for bit
        one_phi, one_err, one_nodes = geometric_phase_detailed(dp, p.theta, quad_tol)
        assert (phi_i, err_i) == (one_phi, one_err)
        assert geometric_phase(dp, p.theta, quad_tol) == one_phi
        assert np.array_equal(np.sort(x), np.sort(one_nodes))
        _, _, ref_nodes = _phase_depth_first(dp, p.theta, quad_tol)
        assert np.array_equal(np.sort(x), np.sort(ref_nodes))


def test_batched_rows_keep_undefined_period_and_failed_rows_apart():
    rows = [SystemParams(lam=0.1, omega_rabi=om, theta=0.5) for om in (0.0, 0.2, 0.7)]
    dps = [derive(p) for p in rows]
    phi, err, nodes, errors = geometric_phases(dps, [0.5] * 3)
    assert isinstance(errors[0], ValidationError) and "period" in str(errors[0])
    assert math.isnan(phi[0]) and math.isnan(err[0]) and nodes[0].size == 0
    for i in (1, 2):
        assert errors[i] is None
        assert (phi[i], err[i]) == geometric_phase_detailed(dps[i], 0.5)[:2]
    _, _, errors = phase.geometric_phases(DerivedColumns.of(dps[1:]), [0.5] * 2,
                                          quad_tol=1e-300)
    assert all("rounding floor" in str(e) for e in errors)


def test_rows_whose_constants_overflow_fail_before_the_integrand():
    rows = [SystemParams(lam=0.1, omega_rabi=om, theta=0.5) for om in (0.3, 1e160, 1e300)]
    dps = [derive(p) for p in rows]
    phi, err, nodes, errors = geometric_phases(dps, [0.5] * 3)
    assert errors[0] is None
    assert (phi[0], err[0]) == geometric_phase_detailed(dps[0], 0.5)[:2]
    for i in (1, 2):
        assert isinstance(errors[i], OverflowError)
        assert math.isnan(phi[i]) and nodes[i].size == 0
        for entry in (geometric_phase, geometric_phase_detailed):
            with pytest.raises(OverflowError, match="model constants overflow"):
                entry(dps[i], 0.5)
    # a NaN |A|^2 stays NaN, not the theta = 0 limit cos(Theta) = 0
    assert math.isnan(phase._spectrum(np.nan, 0.5)[1])


def test_gp_theta_zero_row_with_long_period_converges():
    spec = SweepSpec("gp", SystemParams(lam=1.0), SweepAxis("delta", 0.015625, 0.03, 2))
    table, _ = run_sweep(spec)
    assert [r["status"] for r in table.rows()] == ["ok", "ok"]


def test_integrand_amplitude_matches_amplitude_grid(monkeypatch):
    # the integrand rounds 2M/F once per row, by the Python division of
    # amplitude_grid, so its |A| at (row, t) is amplitude_grid's bit for bit
    rng = np.random.default_rng(41)
    dps = [derive(SystemParams(lam=10 ** rng.uniform(-2, 0), omega_rabi=rng.uniform(0, 2),
                               delta_qc=rng.uniform(0, 10)))
           for _ in range(300)]
    seen = []
    rows_form = phase._rows_form

    def recorded(*args):
        seen.append(rows_form(*args))
        return seen[-1]

    monkeypatch.setattr(phase, "_rows_form", recorded)
    row = np.repeat(np.arange(len(dps)), 200)
    t = rng.uniform(0.0, 50.0, row.size)
    phase._cos2_rows(DerivedColumns.of(dps), rng.uniform(0, math.pi / 2, len(dps)))(t, row)
    (A,) = seen
    for i, dp in enumerate(dps):
        at = row == i
        assert np.array_equal(np.abs(A[at]), np.abs(amplitude_grid(dp, t[at])[0]))


def test_gp_sweep_calls_the_integrand_once_per_slice_of_a_level(monkeypatch):
    # level by level for the whole sweep, each level in slices of _SLICE
    # intervals (15 nodes each): the calls are those of the summed levels of
    # the rows alone, and the nodes theirs
    calls = []
    rows_of = phase._cos2_rows

    def counted(rows, thetas):
        f = rows_of(rows, thetas)

        def g(t, row):
            calls.append(t.size)
            return f(t, row)

        return g

    monkeypatch.setattr(phase, "_cos2_rows", counted)
    spec = SweepSpec("gp", SystemParams(lam=0.01, omega_rabi=0.3, theta=math.pi / 6),
                     SweepAxis("lambda_ratio", 0.01, 1.0, 41, "log"))
    levels, n_nodes = [], 0
    for lam in spec.axis.values():
        calls.clear()
        n_nodes += geometric_phase_detailed(derive(SystemParams(lam=lam, omega_rabi=0.3)),
                                            math.pi / 6)[2].size
        levels.append([n // 15 for n in calls])  # one call per level for one row
    width = max(map(len, levels))
    per_level = np.sum([row + [0] * (width - len(row)) for row in levels], axis=0)
    calls.clear()
    table, summary = run_sweep(spec)
    assert summary.n_failed == 0
    assert len(calls) == sum(-(-n // quadrature._SLICE) for n in per_level.tolist())
    assert max(calls) <= 15 * quadrature._SLICE <= 6340
    assert sum(calls) == n_nodes
    # thinner slices make more calls, and the same cells bit for bit
    monkeypatch.setattr(quadrature, "_SLICE", 50)
    calls.clear()
    thin, _ = run_sweep(spec)
    assert len(calls) == sum(-(-n // 50) for n in per_level.tolist()) > len(per_level)
    assert max(calls) <= 750 and sum(calls) == n_nodes
    assert thin.rows() == table.rows()


def _reference_phase(params, theta):
    """Independent phase of one row, sharing no code with the package's
    quadrature: |A| from the two-mode form A = c+ e^{s+ t} + c- e^{s- t}
    (not the kernel's), the crossings of |A|^2 = K = 1/(2 cos^2 theta) from
    a dense scan refined by brentq, and scipy's quad between breakpoints:
    the crossings, c +- 2^k around each (the step is steep for small theta)
    and 2^k from t = 0 (a transient short against the period)."""
    dp = derive(params)
    s_plus, F = dp.s_plus, dp.f_const
    s_minus = s_plus - F / 2.0
    c_plus, c_minus = -2.0 * s_minus / F, 2.0 * s_plus / F
    period = 2.0 * math.pi / dp.omega_d
    c2, s22 = math.cos(theta) ** 2, math.sin(2.0 * theta) ** 2

    def x_of(t):
        return np.abs(c_plus * np.exp(s_plus * t) + c_minus * np.exp(s_minus * t)) ** 2

    def f(t):
        a = c_plus * cmath.exp(s_plus * t) + c_minus * cmath.exp(s_minus * t)
        x = a.real * a.real + a.imag * a.imag
        d = 2.0 * c2 * x - 1.0
        gap = math.sqrt(d * d + x * s22)
        if gap == 0.0:
            return 0.0
        return 0.5 + 0.5 * d / gap if d >= 0.0 else 0.5 * x * s22 / (gap * (gap - d))

    points = [2.0 ** k for k in range(-20, 64)]
    if c2 > 0.5:
        level = 0.5 / c2
        horizon = min(period, math.log(math.sqrt(level) / (abs(c_plus) + abs(c_minus)))
                      / s_plus.real)
        rate = max(abs(s_plus), abs(s_minus), abs(F.imag) / (4.0 * math.pi))
        grid = np.linspace(0.0, horizon, int(min(max(2000, 80 * rate * horizon), 4e5)) + 1)
        g = x_of(grid) - level
        for i in np.flatnonzero((g[1:] > 0) != (g[:-1] > 0)).tolist():
            c = brentq(lambda t: x_of(t) - level, grid[i], grid[i + 1], xtol=1e-300,
                       rtol=8.9e-16, maxiter=500)
            points += [c] + [c + sign * 2.0 ** k for sign in (-1, 1) for k in range(-60, 8)]
    edges = [0.0] + sorted(v for v in set(points) if 0.0 < v < period) + [period]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        total = sum(quad(f, a, b, epsabs=1e-15, epsrel=1e-14, limit=500)[0]
                    for a, b in zip(edges[:-1], edges[1:]))
    return dp.omega_d * total


@pytest.mark.parametrize("lam,delta_qc,theta,exact", [
    # lam 0.02, omega 0, delta 0.007: three crossings of |A|^2 = 1/2 in the
    # period 897.6; adaptive Simpson read 0.0565240 at theta 0
    (0.02, 0.007, 0.0, 0.0911129714), (0.02, 0.007, 0.9, 0.0566299302),
    # a transient that ends long before the first node of [0, 5236]
    (0.834, 0.0012, 1.232, 2.05351002e-4),
    # one crossing, at t = 1.3769, in the period 402.1
    (1.0, 0.015625, 0.0, 0.0215137277), (1.0, 0.015625, 1e-12, 0.0215137277),
    (1.0, 0.015625, 1e-8, 0.0215137277), (1.0, 0.015625, 1e-4, 0.0215137265),
    (1.0, 0.015625, 0.1, 0.0211190040)])
def test_hard_rows_match_the_independent_reference(lam, delta_qc, theta, exact):
    params = SystemParams(lam=lam, delta_qc=delta_qc)
    phi, err, _ = geometric_phase_detailed(derive(params), theta)
    assert abs(phi - _reference_phase(params, theta)) <= 1e-12
    assert phi == pytest.approx(exact, rel=1e-6) and err <= 1e-9


@pytest.mark.parametrize("params,theta,exact", [
    # a transient of |A| (rate ~0.14) at the start of the period 31,416:
    # without the pieces graded from t = 0, no node meets it and the phase
    # reads 1.9e-18 and 2.5e-20
    (SystemParams(lam=1.5, omega_rabi=1e-4), 0.9, 2.90810666892965e-4),
    (SystemParams(lam=1.0, omega_rabi=1e-4), 1.4, 2.57006320867243e-5),
    # 149 beats of |A| (period 2.107) in the period 314.16: without a break
    # at every beat the error estimate passes a value 2.2e-8 off
    (SystemParams(lam=0.02, omega_rabi=0.01, delta_cav=-3.0), 0.3, 5.7311489836776)])
def test_graded_and_beat_pieces_match_the_independent_reference(params, theta, exact):
    phi, err, _ = geometric_phase_detailed(derive(params), theta)
    assert abs(phi - _reference_phase(params, theta)) <= 1e-12
    assert phi == pytest.approx(exact, rel=1e-12) and err <= 1e-9


def test_row_over_the_beat_budget_fails_alone(monkeypatch):
    # delta 0, 1 and 2 at lam 0.02, omega 0.01, delta_cav -3 need 149, 3 and
    # 1 pieces of one beat period; under a budget of 100 the first row
    # fails, and its neighbours read as without the budget
    fixed = SystemParams(lam=0.02, omega_rabi=0.01, delta_cav=-3.0, theta=0.3)
    spec = SweepSpec("gp", fixed, SweepAxis("delta", 0.0, 2.0, 3))
    dps = [derive(SystemParams(lam=0.02, omega_rabi=0.01, delta_qc=d, delta_cav=-3.0))
           for d in (1.0, 0.0, 2.0)]
    before = phase.geometric_phases(DerivedColumns.of(dps), [0.3] * 3)
    table, _ = run_sweep(spec)
    monkeypatch.setattr(phase, "_MAX_BEATS", 100)
    phi, err, errors = phase.geometric_phases(DerivedColumns.of(dps), [0.3] * 3)
    assert type(errors[1]) is ValidationError
    assert str(errors[1]) == ("the phase needs 149 pieces of one beat period, "
                              "over the budget of 100 per row")
    assert math.isnan(phi[1]) and math.isnan(err[1])
    assert errors[0] is errors[2] is None
    assert (phi[0], phi[2], err[0], err[2]) == (before[0][0], before[0][2],
                                                before[1][0], before[1][2])
    capped, summary = run_sweep(spec)
    assert [r["status"] for r in capped.rows()] == ["invalid", "ok", "ok"]
    assert summary.n_failed == 1 and capped.rows()[1:] == table.rows()[1:]


def test_critically_damped_row_has_its_limit_and_no_warning():
    # F = 0: the two-mode weights are infinite and |A| is monotone, so the
    # crossing search and the envelope have nothing to go on; the phase is
    # the limit of its neighbours (the suite turns numpy warnings into errors)
    for theta in (0.0, 0.3, 1.0):
        dp = derive(SystemParams(lam=2.0, delta_qc=0.5))
        assert dp.f_const == 0
        near = derive(SystemParams(lam=2.0 * (1.0 + 1e-12), delta_qc=0.5))
        assert geometric_phase(dp, theta) == pytest.approx(geometric_phase(near, theta),
                                                           abs=1e-9)


def test_step_rows_read_the_step_value():
    # at theta = 0 cos^2(Theta) is the step 1[|A|^2 > 1/2]: its integral is
    # omega_d times the time |A|^2 spends above 1/2, which small theta reach
    dp = derive(SystemParams(lam=1.0, delta_qc=0.015625))
    step = geometric_phase(dp, 0.0)
    for theta in (1e-300, 1e-16, 1e-12, 1e-8):
        assert abs(geometric_phase(dp, theta) - step) <= 2e-16


def _box_rows(n, seed):
    """n random (params, theta) of the validated box: theta = 0 in a tenth
    of the rows, log-uniform in [1e-16, 1e-3] in a fifth, and dressed
    frequencies log-uniform down to 1e-3 (periods up to 6283) in 15%."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        lam = 10 ** rng.uniform(-2, 0)
        if rng.uniform() < 0.15:
            omega_d, angle = 10 ** rng.uniform(-3, 0), rng.uniform(0, math.pi / 2)
            delta, omega = omega_d * math.cos(angle), 0.5 * omega_d * math.sin(angle)
        else:
            delta, omega = rng.uniform(0, 10), rng.uniform(0, 2)
        u = rng.uniform()
        theta = (0.0 if u < 0.1 else 10 ** rng.uniform(-16, -3) if u < 0.3
                 else rng.uniform(0, math.pi / 2))
        rows.append((SystemParams(lam=lam, omega_rabi=omega, delta_qc=delta), theta))
    return rows


def test_random_box_rows_match_the_independent_reference():
    rows = _box_rows(2000, 20261020)
    phi, err, errors = phase.geometric_phases(DerivedColumns.of([derive(p) for p, _ in rows]),
                                              [theta for _, theta in rows])
    assert errors == [None] * len(rows)
    worst = max(abs(value - _reference_phase(p, theta))
                for (p, theta), value in zip(rows, phi.tolist()))
    assert worst <= 1e-9


def test_fig7_fig8_phases_are_exact_in_few_nodes(monkeypatch, tmp_path):
    # every cell within 1e-12 of the reference (adaptive Simpson's were up to
    # 9.6e-10 off), in at most 50,000 integrand nodes (Simpson took 153,630),
    # no call holding more than 6,300
    calls = []
    rows_of = phase._cos2_rows

    def counted(rows, thetas):
        f = rows_of(rows, thetas)

        def g(t, row):
            calls.append(t.size)
            return f(t, row)

        return g

    monkeypatch.setattr(phase, "_cos2_rows", counted)
    cells = []
    for name in ("fig7", "fig8"):
        for path in sweeps.figure_preset(name, tmp_path)["files"]:
            with open(path) as fh:
                cells += list(csv.DictReader(io.StringIO(fh.read().partition("\n")[2])))
    assert len(cells) == 410 and all(c["status"] == "ok" for c in cells)
    assert sum(calls) <= 50_000 and max(calls) <= 6300
    for c in cells:
        params = SystemParams(lam=float(c["lam"]), omega_rabi=float(c["omega_rabi"]),
                              delta_qc=float(c["delta_qc"]))
        assert abs(float(c["phi_g"]) - _reference_phase(params, float(c["theta"]))) <= 1e-12


if given is None:
    def test_batched_phase_over_parameter_box():
        pytest.skip("needs hypothesis (the test extra)")
else:
    @settings(max_examples=40)
    @given(log_lam=st.floats(-2.0, 0.0), omega=st.floats(0.0, 2.0),
           delta_qc=st.floats(0.0, 10.0),
           thetas=st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=4))
    def test_batched_phase_over_parameter_box(log_lam, omega, delta_qc, thetas):
        dp = derive(SystemParams(lam=10.0 ** log_lam, omega_rabi=omega,
                                 delta_qc=delta_qc))
        phi, err, nodes, errors = geometric_phases([dp] * len(thetas), thetas)
        for theta, phi_i, x, error in zip(thetas, phi, nodes, errors):
            if dp.omega_d <= 0.0:
                assert isinstance(error, ValidationError)
                continue
            assert error is None
            # the integral lies in [0, 2 pi]; its estimate within the
            # tolerance 1e-9 (with cos^2 = 1 throughout it is 2 pi + 1 ulp)
            assert -1e-9 <= phi_i <= 2 * math.pi + 1e-9
            one_phi, _, one_nodes = geometric_phase_detailed(dp, theta)
            assert abs(phi_i - one_phi) <= 1e-14
            assert np.array_equal(np.sort(x), np.sort(one_nodes))
        if dp.omega_d > 0.0:
            # theta -> 0 reaches the step value, which theta = 0 takes exactly
            step, near = phase.geometric_phases(DerivedColumns.of([dp, dp]), [0.0, 1e-12])[0]
            assert abs(near - step) <= 1e-12
