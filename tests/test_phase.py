import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

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
from drivenqubit.phase import _cos2_integrand
from drivenqubit.quadrature import (QuadratureError, adaptive_simpson,
                                    adaptive_simpson_many)
from drivenqubit.sweeps import SweepSpec, run_sweep


def _depth_first_simpson(f, a, b, tol, max_depth=60):
    """Reference for ``adaptive_simpson``: the former depth-first recursion
    on an explicit stack, one scalar call of f per node.  Returns
    (value, error_estimate, nodes) like the level-order routine."""
    nodes = []

    def feval(x):
        nodes.append(x)
        return float(f(np.array([x]))[0])

    def simpson(fa, fm, fb, h):
        return h / 6.0 * (fa + 4.0 * fm + fb)

    fa, fb = feval(a), feval(b)
    m = 0.5 * (a + b)
    fm = feval(m)
    total = err_total = 0.0
    stack = [(a, m, b, fa, fm, fb, simpson(fa, fm, fb, b - a), tol, 0)]
    while stack:
        x0, xm, x1, f0, fmid, f1, s_whole, s_tol, depth = stack.pop()
        lm, rm = 0.5 * (x0 + xm), 0.5 * (xm + x1)
        flm, frm = feval(lm), feval(rm)
        s_left = simpson(f0, flm, fmid, xm - x0)
        s_right = simpson(fmid, frm, f1, x1 - xm)
        delta = s_left + s_right - s_whole
        if abs(delta) <= 15.0 * s_tol:
            total += s_left + s_right + delta / 15.0
            err_total += abs(delta) / 15.0
        elif depth >= max_depth:
            raise QuadratureError("max depth")
        else:
            stack.append((x0, lm, xm, f0, flm, fmid, s_left, s_tol / 2.0, depth + 1))
            stack.append((xm, rm, x1, fmid, frm, f1, s_right, s_tol / 2.0, depth + 1))
    return total, err_total, np.array(nodes)


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
    for _ in range(60):
        p = SystemParams(lam=float(10 ** rng.uniform(-2, 0.3)),
                         omega_rabi=float(rng.uniform(0, 2)),
                         delta_qc=float(rng.uniform(-5, 5)))
        dp = derive(p)
        theta = float(rng.uniform(0, math.pi / 2))
        t = float(rng.uniform(0, 30))
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
    # state is diagonal and |B> dominates; the coherence and q vanish together.
    # The integrand is a step, and the quadrature bisects its nodes down to
    # the crossing |A|^2 = 1/2, where the spectrum is degenerate.
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
    ours, _, _ = adaptive_simpson(f, 0.0, period, tol=1e-10)
    ref, _ = quad(f, 0.0, period, epsabs=1e-12, epsrel=1e-12, limit=400)
    assert ours == pytest.approx(ref, abs=1e-9)


def test_quadrature_known_integrals():
    val, err, nodes = adaptive_simpson(np.sin, 0.0, math.pi, tol=1e-12)
    assert val == pytest.approx(2.0, abs=1e-11)
    assert len(nodes) >= 5
    val2, _, _ = adaptive_simpson(lambda x: np.exp(-x * x), -8.0, 8.0, tol=1e-12)
    assert val2 == pytest.approx(math.sqrt(math.pi), abs=1e-10)


@pytest.mark.parametrize("case", range(len(_gp_cases())))
def test_level_order_matches_depth_first_on_gp(case):
    params, theta, quad_tol = _gp_cases()[case]
    dp = derive(params)
    f = _cos2_integrand(dp, theta)
    period, tol = 2 * math.pi / dp.omega_d, quad_tol / dp.omega_d
    val, err, nodes = adaptive_simpson(f, 0.0, period, tol=tol)
    ref_val, ref_err, ref_nodes = _depth_first_simpson(f, 0.0, period, tol)
    assert np.array_equal(np.sort(nodes), np.sort(ref_nodes))
    assert abs(dp.omega_d * (val - ref_val)) <= 1e-14
    assert abs(dp.omega_d * (err - ref_err)) <= 1e-14


@pytest.mark.parametrize("f,a,b", [(np.sin, 0.0, math.pi),
                                   (lambda x: np.exp(-x * x), -8.0, 8.0)])
@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_level_order_matches_depth_first(f, a, b, tol):
    val, _, nodes = adaptive_simpson(f, a, b, tol=tol)
    ref_val, _, ref_nodes = _depth_first_simpson(f, a, b, tol)
    assert np.array_equal(np.sort(nodes), np.sort(ref_nodes))
    assert abs(val - ref_val) <= 1e-14


@pytest.mark.parametrize("tol", [1e-16, 1e-18, 1e-300])
def test_quadrature_rounding_floor_raises_at_once(tol):
    f = _cos2_integrand(derive(SystemParams(lam=0.1, omega_rabi=0.3)), 0.5)
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="rounding floor"):
        adaptive_simpson(f, 0.0, 10.0, tol=tol)
    with pytest.raises(QuadratureError, match="rounding floor"):
        adaptive_simpson(np.sin, 0.0, math.pi, tol=tol)
    assert time.perf_counter() - start < 1.0


def test_quadrature_non_finite_values_raise_at_once():
    # NaN sums never pass the acceptance test; split on, they would double
    # the pending level up to max_depth
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="not finite"):
        adaptive_simpson(lambda x: np.where(x > 0.7, np.nan, x), 0.0, 1.0, tol=1e-9)
    values, _, failures = adaptive_simpson_many(
        lambda x, owner: np.where(owner == 1, np.nan, np.sin(x)), [0.0, 0.0],
        [math.pi, 1.0], [1e-9, 1e-9])
    assert values[0] == pytest.approx(2.0, abs=1e-9) and failures[0] is None
    assert "not finite" in str(failures[1]) and math.isnan(values[1])
    assert time.perf_counter() - start < 1.0


def test_quadrature_max_depth_still_raises(monkeypatch):
    def step(x):
        return (x > 1.0 / 3.0).astype(float)

    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 8)
    with pytest.raises(QuadratureError, match="max depth 8"):
        adaptive_simpson(step, 0.0, 1.0, tol=1e-9)
    with pytest.raises(QuadratureError):
        _depth_first_simpson(step, 0.0, 1.0, 1e-9, max_depth=8)
    # the same step converges once the depth budget allows it
    monkeypatch.undo()
    val, _, _ = adaptive_simpson(step, 0.0, 1.0, tol=1e-9)
    assert val == pytest.approx(2.0 / 3.0, abs=1e-8)


def _step(x):
    return (x > 1.0 / 3.0).astype(float)


def test_many_integrals_keep_failures_to_their_own_integral(monkeypatch):
    # smooth integrals that converge within the depth budget of 8, next to
    # one below the rounding floor, one that needs more than 8 halvings, one
    # with no valid tolerance and one of zero width
    gp = _cos2_integrand(derive(SystemParams(lam=0.1, omega_rabi=0.3)), 0.5)
    cases = [(np.sin, 0.0, math.pi, 1e-6),
             (gp, 0.0, 10.0, 1e-300),
             (lambda x: np.exp(-x * x), -8.0, 8.0, 1e-4),
             (_step, 0.0, 1.0, 1e-9),
             (gp, 0.0, 10.0, 1e-5),
             (np.sin, 0.0, 1.0, 0.0),
             (np.cos, 2.0, 2.0, 1e-9)]
    expected = [None, "below the rounding floor", None, "max depth 8", None,
                "tol must be > 0", None]

    calls = []

    def f(x, owner):
        calls.append((x, owner))
        return np.choose(owner, [g(x) for g, *_ in cases])

    a, b, tol = (np.array([c[k] for c in cases]) for k in (1, 2, 3))
    monkeypatch.setattr(quadrature, "_MAX_DEPTH", 8)
    values, errors, failures = adaptive_simpson_many(f, a, b, tol)
    nodes = _nodes_of(calls, len(cases))
    for (g, lo, hi, eps), want, value, error, x, failure in zip(
            cases, expected, values, errors, nodes, failures):
        if want is not None:
            assert isinstance(failure, QuadratureError)
            assert want in str(failure)
            assert math.isnan(value) and math.isnan(error)
            with pytest.raises(QuadratureError, match=want):
                adaptive_simpson(g, lo, hi, tol=eps)
            continue
        assert failure is None
        ref_value, ref_error, ref_nodes = adaptive_simpson(g, lo, hi, tol=eps)
        assert (value, error) == (ref_value, ref_error)
        assert np.array_equal(x, ref_nodes)


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
        cases.append(([SystemParams(**dict(zip(sweeps._TABLE_ROWS, col)))
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
        f = _cos2_integrand(dp, p.theta)
        period = 2 * math.pi / dp.omega_d
        _, _, ref_nodes = _depth_first_simpson(f, 0.0, period, quad_tol / dp.omega_d)
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


@pytest.mark.xfail(strict=True, reason="at theta = 0, cos^2(Theta) steps where |A|^2 "
                   "falls through 1/2; over a period of 402 no interval holding the "
                   "step passes the local test within 60 halvings (FORMATS.md)")
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
    mode_form = phase._mode_form

    def recorded(*args):
        seen.append(mode_form(*args))
        return seen[-1]

    monkeypatch.setattr(phase, "_mode_form", recorded)
    row = np.repeat(np.arange(len(dps)), 200)
    t = rng.uniform(0.0, 50.0, row.size)
    phase._cos2_rows(DerivedColumns.of(dps), rng.uniform(0, math.pi / 2, len(dps)))(t, row)
    (A,) = seen
    for i, dp in enumerate(dps):
        at = row == i
        assert np.array_equal(np.abs(A[at]), np.abs(amplitude_grid(dp, t[at])[0]))


def test_gp_sweep_calls_the_integrand_once_per_level(monkeypatch):
    # one array call per Simpson level for the whole sweep: as many calls as
    # its deepest row needs alone, where per-row integration makes their sum
    calls = []
    mode_form = phase._mode_form

    def counted(M, F, t, *args):
        calls.append(np.size(t))
        return mode_form(M, F, t, *args)

    monkeypatch.setattr(phase, "_mode_form", counted)
    spec = SweepSpec("gp", SystemParams(lam=0.01, omega_rabi=0.3, theta=math.pi / 6),
                     SweepAxis("lambda_ratio", 0.01, 1.0, 41, "log"))
    per_row, n_nodes = [], 0
    for lam in spec.axis.values():
        calls.clear()
        dp = derive(SystemParams(lam=lam, omega_rabi=0.3))
        n_nodes += geometric_phase_detailed(dp, math.pi / 6)[2].size
        per_row.append(len(calls))
    calls.clear()
    _, summary = run_sweep(spec)
    assert summary.n_failed == 0
    assert len(calls) == max(per_row) < 20
    assert sum(calls) == n_nodes


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
