import math
import time
import warnings

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
                         derive, lgi_series)
from drivenqubit.amplitude import (ORACLE_POINTS, AmplitudeTrajectory, _mode_pieces,
                                   _rows_form, _rows_rising)
from drivenqubit.params import DerivedParams, derive_columns
from drivenqubit.selfcheck import (ORACLE_DELTAS, ORACLE_LAMBDAS, ORACLE_OMEGAS,
                                   ORACLE_T_MAX)


def _flip_branch(dp: DerivedParams) -> DerivedParams:
    """The constants with the other root -F, and with it the rate
    -M/2 + (-F)/4 = s- in the place of s+."""
    return DerivedParams(eta=dp.eta, omega_d=dp.omega_d, m_const=dp.m_const,
                         f_const=-dp.f_const, coupling_prefactor=dp.coupling_prefactor,
                         s_plus=-0.25 * (dp.f_const + 2.0 * dp.m_const),
                         tau_r=dp.tau_r, tau_q=dp.tau_q, params=dp.params)


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
    ode = amplitude_oracle_ode(params, 30.0)
    closed = amplitude_trajectory(derive(params), ode.times)
    assert np.max(np.abs(closed.values - ode.values)) <= 1e-8


def test_oracle_initial_conditions():
    traj = amplitude_oracle_ode(SystemParams(lam=0.5, omega_rabi=0.3), 1.0)
    assert traj.values[0] == pytest.approx(1.0 + 0j, abs=1e-14)


def test_oracle_matches_mpmath_propagator():
    # the oracle against its own recipe at 40 digits: G from the same eta and
    # M, mpmath.expm(G dt) and 300 mat-vec steps; this pins how rounding
    # grows in P^k, with no reference to the closed form
    mpmath = pytest.importorskip("mpmath")
    sets = [(lam, om, dq) for lam in ORACLE_LAMBDAS for om in ORACLE_OMEGAS
            for dq in ORACLE_DELTAS] + [(2.0, 0.0, 0.0)]  # nearly defective G
    worst = 0.0
    for lam, om, dq in sets:
        params = SystemParams(lam=lam, omega_rabi=om, delta_qc=dq)
        dp = derive(params)
        traj = amplitude_oracle_ode(params, ORACLE_T_MAX)
        with mpmath.workdps(40):
            G = mpmath.matrix([[0, -mpmath.cos(mpmath.mpf(dp.eta) / 2) ** 4],
                               [mpmath.mpf(params.gamma) * params.lam / 2,
                                -mpmath.mpc(dp.m_const)]])
            P = mpmath.expm(G * (mpmath.mpf(ORACLE_T_MAX) / (ORACLE_POINTS - 1)))
            y, ref = mpmath.matrix([1, 0]), [1]
            for _ in range(ORACLE_POINTS - 1):
                y = P * y
                ref.append(y[0])
        worst = max(worst, max(abs(complex(r) - v) for r, v in zip(ref, traj.values)))
    assert worst <= 1e-12


@pytest.mark.parametrize("t_max", [0.0, -1.0, math.inf, -math.inf, math.nan, 5e-324])
def test_oracle_rejects_horizons_without_a_grid(t_max):
    with pytest.raises(ValidationError):
        amplitude_oracle_ode(SystemParams(lam=0.1), t_max)


def test_oracle_at_extreme_horizons():
    t0 = time.perf_counter()
    traj = amplitude_oracle_ode(SystemParams(lam=0.1), 1e300)
    assert time.perf_counter() - t0 < 2.0
    assert traj.times[-1] == 1e300 and traj.values[0] == 1.0
    assert np.all(np.abs(traj.values[1:]) == 0.0)  # decayed long before dt
    # G dt overflows: a ValidationError, never an OverflowError or a warning
    with pytest.raises(ValidationError):
        amplitude_oracle_ode(SystemParams(lam=0.1, omega_rabi=1e3), 1.7e308)


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
    ode = amplitude_oracle_ode(dp.params, 10.0)
    closed = amplitude_trajectory(dp, ode.times)
    assert np.max(np.abs(closed.values - ode.values)) <= 1e-8


def _mpmath_mode_form(dp, times):
    """(A, dA/dt) at 40 digits from M and the coupling q, F = sqrt(4M^2 - 2q)
    taken in mpmath, so the rounding of dp.f_const does not enter."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        M = mpmath.mpc(dp.m_const)
        pref = mpmath.mpf(dp.coupling_prefactor)
        F = mpmath.sqrt(4 * M * M + 4 * pref)
        out = []
        for t in times:
            t = mpmath.mpf(float(t))
            e = mpmath.exp(-M * t / 2)
            if F == 0:
                out.append((e * (1 + M * t / 2), pref * t / 4 * e))
            else:
                ch, sh = mpmath.cosh(F * t / 4), mpmath.sinh(F * t / 4)
                out.append((e * (ch + 2 * M / F * sh), pref / F * e * sh))
        return np.array(out, dtype=complex).T


def _abs_f(lam):
    return abs(derive(SystemParams(lam=lam, omega_rabi=0.0)).f_const)


@pytest.mark.parametrize("lam,times", [
    (2.0 + 1e-12, np.linspace(0.0, 10.0, 201)),
    (2.0 - 1e-12, np.linspace(0.0, 10.0, 201)),
    (2.0 + 1e-9, np.linspace(0.0, 10.0, 201)),
    (2.0, np.linspace(0.0, 10.0, 201)),         # critically damped, F = 0
    # |F| t around 1e-6, where a series once took over from the mode form
    (2.0 + 1e-7, np.array([0.5e-6, 0.999e-6, 1e-6, 1.001e-6, 2e-6]) / _abs_f(2.0 + 1e-7)),
], ids=["above", "below", "above-1e-9", "critical", "former-series-switch"])
def test_near_critical_amplitude_matches_mpmath(lam, times):
    dp = derive(SystemParams(lam=lam, omega_rabi=0.0))
    A, dA = amplitude_grid(dp, times)
    ref_A, ref_dA = _mpmath_mode_form(dp, times)
    assert np.max(np.abs(A - ref_A)) <= 1e-12
    assert np.max(np.abs(dA - ref_dA)) <= 1e-12


@pytest.mark.parametrize("params", [
    SystemParams(lam=0.07, omega_rabi=0.9, delta_qc=1.7),
    SystemParams(lam=0.01, omega_rabi=0.0),
    SystemParams(lam=0.01, omega_rabi=2.0),
    SystemParams(lam=2.0, omega_rabi=0.0),              # critically damped, F = 0
    SystemParams(lam=2.0 + 1e-9, omega_rabi=0.0),       # |F| t ~ 1e-6 at t ~ 0.01
    SystemParams(lam=100.0, omega_rabi=0.0),            # wide cavity, stiff decay
    SystemParams(lam=0.3, omega_rabi=1.3, delta_qc=-4.0, delta_cav=0.5),
], ids=["detuned", "undriven", "driven", "critical", "near-critical", "wide",
        "cavity-detuned"])
def test_scalar_path_matches_array_path(params):
    # the single-time functions are one-point views of the grid
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


def test_amplitude_is_zero_where_the_envelope_underflows_at_an_infinite_phase():
    # lam = omega = 1e10: exp(s+ t) is 0 from t ~ 1e-8 on, and from
    # t ~ 1e299 the phase Im F t/4 is infinite, so sin and cos of it are NaN;
    # there A and dA/dt read 0, and every other cell is the plain product,
    # bit for bit (signed zeros included)
    dp = derive(SystemParams(lam=1e10, omega_rabi=1e10))
    t = np.array([0.0, 1e-9, 1.0, 1e290, 5e299, 1e300])
    with np.errstate(invalid="ignore", over="ignore"):
        A, dA = amplitude_grid(dp, t)
        B, t_phi = _mode_pieces(dp.m_const, dp.f_const, t)
        e = np.exp(dp.s_plus * t)
        products = (B * e, 0.25 * dp.coupling_prefactor * (t_phi * e))
    for got, product in zip((A, dA), products):
        finite = np.isfinite(product)
        assert finite.tolist() == [True] * 4 + [False] * 2
        assert got[finite].view(np.int64).tolist() == product[finite].view(np.int64).tolist()
        assert got[~finite].view(np.int64).tolist() == [0] * 4  # +0 + 0j
    assert A[0] == 1.0 and e[3] == 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        rate = decay_rate_grid(dp, t[4:])
    assert np.isnan(rate).all()  # the zeros of A are poles of the decay rate


def test_row_entries_give_each_time_what_amplitude_grid_gives_its_row():
    # the kernel's row contract: A and dA/dt of _rows_form are those of
    # amplitude_grid at each time's own row, bit for bit, for every kind of
    # owner; _rows_rising is the sign of Re(dA/dt conj A) wherever |A|^2 is
    # normal (elsewhere only the envelope-free form still has a sign)
    rng = np.random.default_rng(35)
    n = 40
    rows = derive_columns(10.0 ** rng.uniform(-3.0, 0.5, n), rng.uniform(0.0, 3.0, n),
                          rng.uniform(-10.0, 10.0, n), rng.uniform(-1.0, 1.0, n),
                          rng.uniform(0.5, 2.0, n))
    owner = rng.integers(0, n, 2000)
    times = np.concatenate([np.zeros(20), 10.0 ** rng.uniform(-3.0, 3.5, 1980)])
    cases = ((times, owner, lambda i: owner == i),
             (10.0 ** rng.uniform(-3.0, 2.0, (2, n)), slice(None), lambda i: (slice(None), i)),
             (np.linspace(0.0, 30.0, 31), (slice(None), None), lambda i: i))
    for t, own, at in cases:
        for derivative in (False, True):
            got = _rows_form(rows, t, own, derivative)
            got = got if derivative else (got,)
            t_of = np.broadcast_to(t, got[0].shape)
            for i in range(n):
                want = amplitude_grid(rows.row(i, None), t_of[at(i)])
                for g, w in zip(got, want):
                    assert g[at(i)].tobytes() == w.tobytes()
    rising, compared = _rows_rising(rows, times, owner), 0
    for i in range(n):
        at = owner == i
        A, dA = amplitude_grid(rows.row(i, None), times[at])
        normal = np.abs(A) ** 2 >= np.finfo(float).tiny
        assert np.array_equal(rising[at][normal], ((dA * np.conj(A)).real > 0)[normal])
        compared += normal.sum()
    assert 0 < compared < times.size and 0 < rising.sum() < times.size


def test_trajectory_rejects_a_nan_time():
    params = SystemParams(lam=0.1)
    AmplitudeTrajectory(np.array([0.0, 0.5, 1.0]), np.ones(3), params)
    for times in ([0.0, math.nan, 1.0], [0.0, 1.0, math.nan], [0.0, 1.0, math.inf]):
        with pytest.raises(ValidationError, match="strictly increasing from 0"):
            AmplitudeTrajectory(np.array(times), np.ones(3), params)


def test_negative_time_rejected():
    dp = derive(SystemParams(lam=0.1))
    with pytest.raises(ValidationError):
        amplitude_closed_form(dp, -1.0)
    with pytest.raises(ValidationError):
        amplitude_grid(dp, np.array([0.0, -0.5]))
    # every time must be finite and >= 0: no NaN value, pole or warning
    grids = (amplitude_grid, decay_rate_grid, lambda dp, t: lgi_series(dp, 0.3, t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (math.nan, math.inf, -math.inf, -1.0):
            for one_point in (amplitude_closed_form, amplitude_derivative, decay_rate):
                with pytest.raises(ValidationError, match="finite and >= 0"):
                    one_point(dp, t)
            for grid in grids:
                with pytest.raises(ValidationError, match=f"finite and >= 0, got {t}"):
                    grid(dp, np.array([0.0, 1.0, t, 2.0]))


if given is None:
    def test_amplitude_stays_in_unit_disc_over_parameter_box():
        pytest.skip("needs hypothesis (the test extra)")

    def test_amplitude_stays_in_unit_disc_near_critical_damping():
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

    # lambda within 1e-6 of critical damping (omega = 0), where the mode
    # weights 2M/F grow like 1/|F|; times from subnormal to 5000
    @settings(max_examples=100)
    @given(offset=st.floats(-1e-6, 1e-6),
           times=st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=16))
    def test_amplitude_stays_in_unit_disc_near_critical_damping(offset, times):
        dp = derive(SystemParams(lam=2.0 + offset, omega_rabi=0.0))
        ts = np.array(times + [0.0, 5e-324, 2.2e-311, 1e-300, 5000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            A, dA = amplitude_grid(dp, ts)
        assert np.all(np.isfinite(A)) and np.all(np.isfinite(dA))
        assert np.all(np.abs(A) <= 1.0 + 1e-12)
