import math

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # only the property test needs hypothesis (the `test` extra)
    given = None

from drivenqubit import (AmplitudePole, SystemParams, ValidationError,
                         amplitude_closed_form, amplitude_derivative,
                         amplitude_grid, amplitude_oracle_ode,
                         amplitude_trajectory, decay_rate, decay_rate_grid,
                         derive)
from drivenqubit.params import DerivedParams


def _flip_branch(dp: DerivedParams) -> DerivedParams:
    return DerivedParams(eta=dp.eta, omega_d=dp.omega_d, m_const=dp.m_const,
                         f_const=-dp.f_const, tau_r=dp.tau_r, tau_q=dp.tau_q,
                         params=dp.params)


def test_initial_value():
    dp = derive(SystemParams(lam=0.3, omega_rabi=1.1, delta_qc=0.7))
    assert amplitude_closed_form(dp, 0.0) == pytest.approx(1.0 + 0j, abs=1e-15)
    assert amplitude_derivative(dp, 0.0) == 0.0


def test_decoupled_cavity_is_frozen():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.1, gamma=1e-12))
    for t in (1.0, 5.0, 20.0):
        assert abs(amplitude_closed_form(dp, t) - 1.0) < 1e-10


@pytest.mark.parametrize("lam,om,dq", [
    (0.01, 0.0, 0.0),
    (0.01, 2.0, 0.0),
    (0.1, 0.5, 1.0),
    (1.0, 0.5, 0.0),
    (1.0, 2.0, 10.0),
    (0.01, 0.0, 10.0),
])
def test_closed_form_matches_ode_oracle(lam, om, dq):
    params = SystemParams(lam=lam, omega_rabi=om, delta_qc=dq)
    ode = amplitude_oracle_ode(params, 30.0, tol=1e-11)
    closed = amplitude_trajectory(derive(params), ode.times)
    assert np.max(np.abs(closed.values - ode.values)) <= 1e-8


def test_oracle_initial_conditions():
    traj = amplitude_oracle_ode(SystemParams(lam=0.5, omega_rabi=0.3), 1.0)
    assert traj.values[0] == pytest.approx(1.0 + 0j, abs=1e-14)


def test_overdamped_amplitude_is_monotone():
    dp = derive(SystemParams(lam=2.5, omega_rabi=0.0))
    A, _ = amplitude_grid(dp, np.linspace(0, 50, 5001))
    mags = np.abs(A)
    assert np.all(np.diff(mags) <= 1e-14)


def test_branch_independence():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = SystemParams(lam=float(10 ** rng.uniform(-2, 0.3)),
                         omega_rabi=float(rng.uniform(0, 3)),
                         delta_qc=float(rng.uniform(-5, 5)))
        dp = derive(p)
        flipped = _flip_branch(dp)
        for t in rng.uniform(0, 30, 5):
            a = amplitude_closed_form(dp, float(t))
            b = amplitude_closed_form(flipped, float(t))
            assert abs(a - b) < 1e-13


def test_contraction_on_random_parameters():
    rng = np.random.default_rng(13)
    ts = np.linspace(0, 30, 2001)
    for _ in range(30):
        p = SystemParams(lam=float(10 ** rng.uniform(-2, 0.5)),
                         omega_rabi=float(rng.uniform(0, 3)),
                         delta_qc=float(rng.uniform(-10, 10)),
                         delta_cav=float(rng.uniform(-1, 1)))
        A, _ = amplitude_grid(derive(p), ts)
        assert np.max(np.abs(A)) <= 1.0 + 1e-12


def test_critical_damping_series_limit():
    # lam = 2 gamma, undriven, resonant: F vanishes identically
    dp = derive(SystemParams(lam=2.0, omega_rabi=0.0))
    assert abs(dp.f_const) < 1e-7
    for t in (0.5, 1.0, 3.0):
        expected = math.exp(-t) * (1 + t)
        assert amplitude_closed_form(dp, t) == pytest.approx(expected + 0j, rel=1e-12)
    ode = amplitude_oracle_ode(dp.params, 10.0, tol=1e-11)
    closed = amplitude_trajectory(dp, ode.times)
    assert np.max(np.abs(closed.values - ode.values)) <= 1e-8


def test_series_switch_is_continuous():
    # at the same instant the series path and the mode form must agree
    import cmath

    dp = derive(SystemParams(lam=2.0 + 1e-7, omega_rabi=0.0))
    M, F = dp.m_const, dp.f_const
    t = 0.999e-6 / abs(F)  # just below the switch: production path uses the series
    series = amplitude_closed_form(dp, t)
    ratio = 2 * M / F
    modes = (0.5 * (1 + ratio) * cmath.exp((-M / 2 + F / 4) * t)
             + 0.5 * (1 - ratio) * cmath.exp((-M / 2 - F / 4) * t))
    assert abs(series - modes) < 1e-12


@pytest.mark.parametrize("params", [
    SystemParams(lam=0.07, omega_rabi=0.9, delta_qc=1.7),
    SystemParams(lam=0.01, omega_rabi=0.0),
    SystemParams(lam=0.01, omega_rabi=2.0),
    SystemParams(lam=2.0, omega_rabi=0.0),              # critically damped, F = 0
    SystemParams(lam=2.0 + 1e-9, omega_rabi=0.0),       # series switch at t ~ 0.01
    SystemParams(lam=100.0, omega_rabi=0.0),            # wide cavity, stiff decay
    SystemParams(lam=0.3, omega_rabi=1.3, delta_qc=-4.0, delta_cav=0.5),
], ids=["detuned", "undriven", "driven", "critical", "near-critical", "wide",
        "cavity-detuned"])
def test_scalar_path_matches_array_path(params):
    # cmath and numpy paths must share one series threshold; the log-spaced
    # times put near-critical points on both sides of it
    dp = derive(params)
    ts = np.concatenate(([0.0], np.geomspace(1e-4, 25.0, 100)))
    A, dA = amplitude_grid(dp, ts)
    for t, a, da in zip(ts, A, dA):
        assert amplitude_closed_form(dp, float(t)) == pytest.approx(
            complex(a), abs=1e-14)
        assert amplitude_derivative(dp, float(t)) == pytest.approx(
            complex(da), abs=1e-14)


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(17)
    for _ in range(15):
        p = SystemParams(lam=float(10 ** rng.uniform(-2, 0.3)),
                         omega_rabi=float(rng.uniform(0, 2)),
                         delta_qc=float(rng.uniform(-3, 3)))
        dp = derive(p)
        t = float(rng.uniform(0.5, 20))
        h = 1e-5
        fd = (amplitude_closed_form(dp, t + h) - amplitude_closed_form(dp, t - h)) / (2 * h)
        assert abs(amplitude_derivative(dp, t) - fd) < 1e-8


def test_decay_rate_zero_at_origin():
    dp = derive(SystemParams(lam=0.01, omega_rabi=1.0))
    assert decay_rate(dp, 0.0) == 0.0


def test_decay_rate_matches_log_derivative():
    dp = derive(SystemParams(lam=0.05, omega_rabi=0.4, delta_qc=0.2))
    h = 1e-5
    for t in (0.5, 2.0, 8.0, 20.0):
        a = abs(amplitude_closed_form(dp, t))
        assert a > 1e-3
        fd = -2.0 * (math.log(abs(amplitude_closed_form(dp, t + h)))
                     - math.log(abs(amplitude_closed_form(dp, t - h)))) / (2 * h)
        assert decay_rate(dp, t) == pytest.approx(fd, abs=1e-6)


def test_decay_rate_asymptote_broad_cavity():
    # in the wide-cavity limit the rate settles at gamma
    dp = derive(SystemParams(lam=100.0, omega_rabi=0.0))
    assert decay_rate(dp, 10.0) == pytest.approx(1.0, rel=0.02)


def test_decay_rate_suppressed_by_drive():
    ts = np.linspace(1e-3, 30, 3000)
    undriven = np.nanmax(decay_rate_grid(derive(SystemParams(lam=0.01)), ts))
    driven = np.nanmax(decay_rate_grid(
        derive(SystemParams(lam=0.01, omega_rabi=1.0)), ts))
    assert driven < undriven


def test_decay_rate_pole_is_reported():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.0))
    # first zero of the real oscillatory amplitude, refined by bisection
    lo, hi = 20.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if amplitude_closed_form(dp, mid).real > 0:
            lo = mid
        else:
            hi = mid
    t_zero = 0.5 * (lo + hi)
    assert abs(amplitude_closed_form(dp, t_zero)) < 1e-14
    with pytest.raises(AmplitudePole):
        decay_rate(dp, t_zero)


def test_decay_rate_where_abs_a_squared_underflows():
    # |A| ~ 1e-174 at t = 800 (lam = 1, F = 2i): |A|^2 underflows, the
    # complex division does not, and a relative pole test sees no zero
    mpmath = pytest.importorskip("mpmath")
    dp = derive(SystemParams(lam=1.0))
    t = 800.0
    assert 0.0 < abs(amplitude_closed_form(dp, t)) < 1e-170
    with mpmath.workdps(50):
        M, F = mpmath.mpc(dp.m_const), mpmath.mpc(dp.f_const)
        ch, sh = mpmath.cosh(F * t / 4), mpmath.sinh(F * t / 4)
        # dA/A, the common factor exp(-M t / 2) cancelled
        ratio = dp.coupling_prefactor / F * sh / (ch + 2 * M / F * sh)
        ref = float(-2 * mpmath.re(ratio))
    assert decay_rate(dp, t) == pytest.approx(ref, rel=1e-9)
    assert decay_rate_grid(dp, np.array([t]))[0] == pytest.approx(ref, rel=1e-9)


def test_negative_time_rejected():
    dp = derive(SystemParams(lam=0.1))
    with pytest.raises(ValidationError):
        amplitude_closed_form(dp, -1.0)
    with pytest.raises(ValidationError):
        amplitude_grid(dp, np.array([0.0, -0.5]))


if given is None:
    def test_amplitude_stays_in_unit_disc_over_parameter_box():
        pytest.skip("needs hypothesis (the test extra)")
else:
    # the validated parameter box: lambda in [0.01, 1] (log scale), omega in
    # [0, 2], delta in [0, 10]; times up to 50
    @settings(max_examples=100)
    @given(log_lam=st.floats(-2.0, 0.0), omega=st.floats(0.0, 2.0),
           delta_qc=st.floats(0.0, 10.0),
           times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=16))
    def test_amplitude_stays_in_unit_disc_over_parameter_box(log_lam, omega, delta_qc,
                                                             times):
        dp = derive(SystemParams(lam=10.0 ** log_lam, omega_rabi=omega,
                                 delta_qc=delta_qc))
        A, _ = amplitude_grid(dp, np.array(times))
        assert np.all(np.abs(A) <= 1.0 + 1e-12)
