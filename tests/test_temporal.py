import math

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # only the property tests need hypothesis (the `test` extra)
    given = None

from drivenqubit import (SystemParams, ValidationError, coherence_monotone,
                         derive, lgi_c3, lgi_series, propagator,
                         quantum_witness, two_time_correlation,
                         witness_probabilities, witness_series)
from drivenqubit.amplitude import amplitude_closed_form, amplitude_grid


def test_correlation_at_equal_times_is_one_at_origin():
    dp = derive(SystemParams(lam=0.3, omega_rabi=1.2, delta_qc=0.4,
                             delta_cav=0.1))
    for theta in (0.0, 0.4, math.pi / 4, math.pi / 2):
        assert two_time_correlation(dp, theta, 0.0, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_correlation_theta_zero_reduction():
    dp = derive(SystemParams(lam=0.05, omega_rabi=0.8, delta_qc=0.2))
    ti, tj = 1.3, 4.1
    expected = (amplitude_closed_form(dp, tj)
                * amplitude_closed_form(dp, ti).conjugate()
                * np.exp(-1j * dp.omega_d * (tj - ti))).real
    assert two_time_correlation(dp, 0.0, ti, tj) == pytest.approx(expected, abs=1e-14)


def test_correlation_unitary_limit_is_pure_precession():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.7, delta_qc=0.5, gamma=1e-12))
    for theta in (0.0, 0.5, 1.2):
        for (ti, tj) in ((0.0, 1.0), (2.0, 5.5)):
            expected = math.cos(dp.omega_d * (tj - ti))
            assert two_time_correlation(dp, theta, ti, tj) == pytest.approx(
                expected, abs=1e-9)


def test_correlation_rejects_bad_times():
    dp = derive(SystemParams(lam=0.1))
    with pytest.raises(ValidationError):
        two_time_correlation(dp, 0.0, -1.0, 2.0)
    with pytest.raises(ValidationError):
        two_time_correlation(dp, 0.0, 3.0, 2.0)


def test_lgi_classical_boundary_at_zero_step():
    dp = derive(SystemParams(lam=0.01, omega_rabi=2.0))
    r3 = lgi_c3(dp, 0.0, 0.0)
    r4 = lgi_c3(dp, 0.0, 0.0)
    assert abs(r3.c3 - 1.0) <= 1e-12 and not r3.violated3
    assert abs(r4.c4 - 2.0) <= 1e-12 and not r4.violated4


def test_lgi_bounded_correlators_on_standard_grid():
    taus = np.linspace(0, 4, 81)
    for om in (0.0, 0.5, 2.0):
        for dq in (0.0, 1.0, 10.0):
            dp = derive(SystemParams(lam=0.01, omega_rabi=om, delta_qc=dq))
            for tau in taus:
                c = two_time_correlation(dp, 0.0, float(tau), 2 * float(tau))
                assert abs(c) <= 1.0 + 1e-12


def test_lgi_violation_with_strong_drive():
    dp = derive(SystemParams(lam=0.01, omega_rabi=2.0))
    taus = np.linspace(1e-3, 4, 1600)
    c3, c4 = lgi_series(dp, 0.0, taus)
    assert c3.max() > 1.0
    assert c4.max() > 2.0


def test_lgi_negligible_without_drive():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.0))
    taus = np.linspace(1e-3, 4, 1600)
    c3, _ = lgi_series(dp, 0.0, taus)
    assert c3.max() <= 1.02


def test_lgi_four_time_respects_algebraic_quantum_bound():
    # 2*sqrt(2) is the temporal analogue of the two-level quantum maximum;
    # decay can only pull the combination below it
    taus = np.linspace(1e-3, 4, 800)
    for om, dq in ((0.1, 0.0), (0.1, 10.0), (2.0, 0.0), (0.0, 3.0)):
        dp = derive(SystemParams(lam=0.01, omega_rabi=om, delta_qc=dq))
        _, c4 = lgi_series(dp, 0.0, taus)
        assert c4.max() <= 2 * math.sqrt(2) + 1e-9


def _lgi_by_composition(dp, theta, tau):
    """(c3, c4) composed from the scalar two-time correlator."""
    def corr(t_i, t_j):
        return two_time_correlation(dp, theta, t_i, t_j)

    c01, c12, c02 = corr(0.0, tau), corr(tau, 2 * tau), corr(0.0, 2 * tau)
    c23, c03 = corr(2 * tau, 3 * tau), corr(0.0, 3 * tau)
    return c01 + c12 - c02, c01 + c12 + c23 - c03


def _assert_lgi_series_matches_composition(dp, theta, taus):
    c3, c4 = lgi_series(dp, theta, taus)
    ref = np.array([_lgi_by_composition(dp, theta, float(t)) for t in taus])
    assert np.max(np.abs(c3 - ref[:, 0])) <= 1e-13
    assert np.max(np.abs(c4 - ref[:, 1])) <= 1e-13


@pytest.mark.parametrize("omega,delta", [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0),
                                         (2.0, 0.0), (0.1, 0.1), (0.1, 1.0),
                                         (0.1, 10.0)])
def test_lgi_series_matches_composition_on_figure_families(omega, delta):
    dp = derive(SystemParams(lam=0.01, omega_rabi=omega, delta_qc=delta))
    _assert_lgi_series_matches_composition(dp, 0.0, np.linspace(0.0, 4.0, 401))


def test_lgi_series_matches_composition_on_random_parameters():
    rng = np.random.default_rng(61)
    for _ in range(30):
        dp = derive(SystemParams(lam=float(10 ** rng.uniform(-2, 0)),
                                 omega_rabi=float(rng.uniform(0, 2)),
                                 delta_qc=float(rng.uniform(-10, 10)),
                                 delta_cav=float(rng.uniform(-5, 5))))
        theta = float(rng.uniform(0, math.pi / 2))
        taus = np.concatenate([[0.0], rng.uniform(0, 4, 30), rng.uniform(0, 50, 30)])
        _assert_lgi_series_matches_composition(dp, theta, taus)


def test_lgi_series_at_zero_step_is_exact():
    dp = derive(SystemParams(lam=0.3, omega_rabi=1.2, delta_qc=-4.0))
    for theta in (0.0, 0.3, math.pi / 4, 1.1, math.pi / 2):
        c3, c4 = lgi_series(dp, theta, [0.0, 1.0])
        assert c3[0] == math.cos(theta) ** 2 + math.sin(theta) ** 2
        assert c4[0] == _lgi_by_composition(dp, theta, 0.0)[1]
        r = lgi_c3(dp, theta, 0.0)
        assert (r.c3, r.c4) == (c3[0], c4[0])


def test_lgi_rejects_negative_step():
    dp = derive(SystemParams(lam=0.1))
    with pytest.raises(ValidationError):
        lgi_series(dp, 0.0, [0.0, -1e-3])
    with pytest.raises(ValidationError):
        lgi_c3(dp, 0.0, -1.0)


def test_propagator_properties():
    dp = derive(SystemParams(lam=0.5, omega_rabi=0.0))
    assert np.allclose(propagator(dp, 0.0), np.eye(2), atol=1e-14)
    for t in (0.5, 3.0, 10.0):
        lam = propagator(dp, t)
        assert np.all(lam >= -1e-15) and np.all(lam <= 1 + 1e-15)
        assert np.allclose(lam.sum(axis=0), [1.0, 1.0], atol=1e-14)
    # long-time uniform mixing once the amplitude has died out
    assert np.allclose(propagator(dp, 80.0), 0.25 * np.full((2, 2), 2.0), atol=1e-12)


def test_witness_vanishes_for_poles_and_at_origin():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.8))
    for tau in (0.5, 2.0, 9.0):
        assert quantum_witness(dp, 0.0, tau).w_q == 0.0
        assert quantum_witness(dp, math.pi / 2, tau).w_q == pytest.approx(0.0, abs=1e-15)
    assert quantum_witness(dp, math.pi / 4, 0.0).w_q == pytest.approx(0.0, abs=1e-14)


def test_witness_closed_form_equals_propagator_route():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(50):
        p = SystemParams(lam=float(10 ** rng.uniform(-2, 0.4)),
                         omega_rabi=float(rng.uniform(0, 3)),
                         delta_qc=float(rng.uniform(-3, 3)),
                         delta_cav=float(rng.uniform(-1, 1)))
        dp = derive(p)
        theta = float(rng.uniform(0, math.pi / 2))
        tau = float(rng.uniform(0, 30))
        p_free, p_blind = witness_probabilities(dp, theta, tau)
        worst = max(worst, abs(abs(p_free - p_blind)
                               - quantum_witness(dp, theta, tau).w_q))
    assert worst <= 1e-12


def _strict_local_maxima(y):
    return [k for k in range(1, len(y) - 1) if y[k] > y[k - 1] and y[k] > y[k + 1]]


def test_witness_peaks_sit_on_the_coherence_monotone_undriven():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.0, theta=math.pi / 4))
    taus = np.linspace(0.0, 120.0, 24001)
    w, env = witness_series(dp, math.pi / 4, taus)
    peaks = _strict_local_maxima(w)
    assert peaks, "expected interior witness maxima on this horizon"
    for k in peaks:
        assert abs(w[k] - env[k]) <= 5e-3


def test_witness_peaks_bounded_by_envelope_across_drive_family():
    taus = np.linspace(0.0, 50.0, 10001)
    for om in (0.0, 0.1, 0.5, 1.0):
        dp = derive(SystemParams(lam=0.01, omega_rabi=om))
        w, env = witness_series(dp, math.pi / 4, taus)
        for k in _strict_local_maxima(w):
            assert w[k] <= env[k] + 5e-3


def test_coherence_monotone_monotone_case_equals_curve():
    dp = derive(SystemParams(lam=2.5, omega_rabi=0.0))
    taus = np.linspace(0.0, 40.0, 2001)
    env = coherence_monotone(dp, taus)
    A, _ = amplitude_grid(dp, taus)
    assert np.array_equal(env, 0.5 * np.abs(A))


def test_coherence_monotone_oscillatory_case_covers_curve():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.0))
    taus = np.linspace(0.0, 150.0, 30001)
    env = coherence_monotone(dp, taus)
    A, _ = amplitude_grid(dp, taus)
    half = 0.5 * np.abs(A)
    assert env[0] == pytest.approx(0.5, abs=1e-15)
    assert np.all(env >= half - 1e-15)
    assert np.any(env > half + 1e-3)


def test_coherence_monotone_rejects_tiny_or_shifted_grids():
    dp = derive(SystemParams(lam=0.1))
    with pytest.raises(ValidationError):
        coherence_monotone(dp, np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        coherence_monotone(dp, np.array([0.5, 1.0, 1.5]))


# the validated parameter box: lambda in [0.01, 1] (log scale), omega in
# [0, 2], delta in [0, 10], theta in [0, pi/2]; steps tau up to 50
if given is None:
    def test_lgi_quantum_bounds_over_parameter_box():
        pytest.skip("needs hypothesis (the test extra)")

    def test_witness_routes_agree_over_parameter_box():
        pytest.skip("needs hypothesis (the test extra)")
else:
    _box = dict(log_lam=st.floats(-2.0, 0.0), omega=st.floats(0.0, 2.0),
                delta_qc=st.floats(0.0, 10.0), theta=st.floats(0.0, math.pi / 2),
                taus=st.lists(st.floats(0.0, 50.0, exclude_min=True), min_size=2,
                              max_size=16, unique=True))

    @settings(max_examples=100)
    @given(**_box)
    def test_lgi_quantum_bounds_over_parameter_box(log_lam, omega, delta_qc, theta,
                                                   taus):
        # the quantum bounds of the three- and four-time combinations (Emary,
        # Lambert, Nori, Rep. Prog. Phys. 77, 016001 (2014))
        dp = derive(SystemParams(lam=10.0 ** log_lam, omega_rabi=omega,
                                 delta_qc=delta_qc))
        c3, c4 = lgi_series(dp, theta, taus)
        assert np.all(c3 <= 1.5 + 1e-12)
        assert np.all(c4 <= 2.0 * math.sqrt(2.0) + 1e-12)

    @settings(max_examples=100)
    @given(**_box)
    def test_witness_routes_agree_over_parameter_box(log_lam, omega, delta_qc, theta,
                                                     taus):
        # the closed form against the propagator route (Li et al., Sci. Rep.
        # 2, 885 (2012)), and the series against the closed form: the same
        # formula, on the grid kernel rather than cmath, so equal to rounding
        dp = derive(SystemParams(lam=10.0 ** log_lam, omega_rabi=omega,
                                 delta_qc=delta_qc))
        taus = [0.0, *sorted(taus)]
        w = [quantum_witness(dp, theta, tau).w_q for tau in taus]
        for tau, w_q in zip(taus, w):
            p_free, p_blind = witness_probabilities(dp, theta, tau)
            assert abs(abs(p_free - p_blind) - w_q) <= 1e-12
        np.testing.assert_allclose(witness_series(dp, theta, taus)[0], w,
                                   rtol=0, atol=1e-14)
