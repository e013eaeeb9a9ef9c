import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from drivenqubit import (SystemParams, ValidationError, derive, eigensystem,
                         evolve_superposition, geometric_phase,
                         geometric_phase_detailed)
from drivenqubit.amplitude import amplitude_closed_form
from drivenqubit.phase import _cos2_integrand
from drivenqubit.quadrature import QuadratureError, adaptive_simpson


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


def test_quadrature_max_depth_still_raises():
    def step(x):
        return (x > 1.0 / 3.0).astype(float)

    with pytest.raises(QuadratureError, match="max depth 8"):
        adaptive_simpson(step, 0.0, 1.0, tol=1e-9, max_depth=8)
    with pytest.raises(QuadratureError):
        _depth_first_simpson(step, 0.0, 1.0, 1e-9, max_depth=8)
    # the same step converges once the depth budget allows it
    val, _, _ = adaptive_simpson(step, 0.0, 1.0, tol=1e-9)
    assert val == pytest.approx(2.0 / 3.0, abs=1e-8)
