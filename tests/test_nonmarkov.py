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

from drivenqubit import (BlochVector, QubitState, SystemParams,
                         ValidationError, antipodal_pair, apply_channel,
                         backflow_intervals, blp_measure, derive, info_flux,
                         trace_distance)
from drivenqubit import nonmarkov
from drivenqubit import amplitude
from drivenqubit.amplitude import (amplitude_closed_form, amplitude_derivative,
                                   amplitude_grid, mode_constants)
from drivenqubit.nonmarkov import (_amp_extrema, _Flux, _flux_brackets,
                                   _flux_form, _max_gain, _refine, _row_setup,
                                   _search_horizon, blp_measures)
from drivenqubit.sweeps import (SweepAxis, SweepSpec, _params_at, _preset_table,
                                run_sweep)


def _extrema(dp, t_max, setup=None):
    """(times, kinds, |A|) of one row from the batched finder; raises the
    row's error.  ``setup`` is the row's ``_row_setup``, where made before."""
    t = np.array([t_max])
    modes, flux, gaps, _, errors = setup or _row_setup([dp], t)
    times, kinds, amps, _ = _amp_extrema(t, modes, flux, gaps, errors)
    if errors[0] is not None:
        raise errors[0]
    return times, kinds, amps


def _flux(dp):
    """The two-mode table of one row."""
    return _Flux.of(mode_constants([dp]), np.array([True]))


def _refine_row(dp, flux, lo, hi):
    """The batched refinement of brackets of one row; raises the row's error."""
    errors = [None]
    times, kinds, amps = _refine(flux, mode_constants([dp]),
                                 lo, hi, np.zeros(lo.size, dtype=int), errors)
    if errors[0] is not None:
        raise errors[0]
    return times, kinds, amps


def _gain(xs, xe):
    """(gain, u) of one row from the batched pair search."""
    best, u = _max_gain(xs, xe, np.zeros(xs.size, dtype=int), 1)
    return float(best[0]), float(u[0])


def _dense_extrema(dp, t_max, per_cycle=1024, chunk=1_000_000):
    """Reference extrema of |A|: a uniform scan for sign changes of
    h = Re(dA/dt conj A) at ``per_cycle`` points per cycle of the fastest
    mode frequency, uncapped and evaluated ``chunk`` points at a time, each
    bracket bisected below 1e-10.  Returns (times, kinds) like _amp_extrema.
    """
    rate = max(dp.params.gamma, dp.params.lam,
               abs(dp.m_const.imag) / 2.0 + abs(dp.f_const.imag) / 4.0)
    n = max(10_000, math.ceil(per_cycle * rate * t_max / (2.0 * math.pi)))

    def h(t):
        A, dA = amplitude_grid(dp, t)
        return (dA * np.conj(A)).real

    los, his, h_los = [], [], []
    # the t = 0 node is skipped: h vanishes there identically
    for start in range(1, n - 1, chunk - 1):  # chunks share their end nodes
        ts = t_max * np.arange(start, min(n, start + chunk)) / (n - 1)
        hs = h(ts)
        c = np.flatnonzero((hs[:-1] > 0) != (hs[1:] > 0))
        los.append(ts[c])
        his.append(ts[c + 1])
        h_los.append(hs[c])
    lo, hi, h_lo = np.concatenate(los), np.concatenate(his), np.concatenate(h_los)
    while lo.size and np.max(hi - lo) >= 1e-10:
        mid = 0.5 * (lo + hi)
        hm = h(mid)
        same = (hm > 0) == (h_lo > 0)
        lo, h_lo, hi = (np.where(same, mid, lo), np.where(same, hm, h_lo),
                        np.where(same, hi, mid))
    return 0.5 * (lo + hi), np.where(h_lo > 0, -1, 1)


def _assert_same_extrema(dp, t_max):
    times, kinds, amps = _extrema(dp, t_max)
    ref_times, ref_kinds = _dense_extrema(dp, t_max)
    assert np.array_equal(kinds, ref_kinds)
    assert np.all(kinds[1:] != kinds[:-1])
    np.testing.assert_allclose(times, ref_times, rtol=0, atol=1e-10)
    # |A| at the extrema comes from the same kernel call that confirms them
    np.testing.assert_array_equal(amps, np.abs(amplitude_grid(dp, times)[0]))
    return times, kinds


def test_flux_vanishes_at_origin():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.5))
    pair = antipodal_pair(0.7)
    assert info_flux(dp, pair, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_flux_nonpositive_for_overdamped_cavity():
    dp = derive(SystemParams(lam=2.5, omega_rabi=0.0))
    pair = antipodal_pair(1.0)
    for t in np.linspace(0.01, 50, 300):
        assert info_flux(dp, pair, float(t)) <= 1e-14


def test_flux_sign_matches_amplitude_slope():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.0))
    rng = np.random.default_rng(61)
    h = 1e-6
    for _ in range(40):
        t = float(rng.uniform(0.5, 60))
        pair = antipodal_pair(float(rng.uniform(0.05, math.pi / 2)),
                              float(rng.uniform(0, 2 * math.pi)))
        slope = (abs(amplitude_closed_form(dp, t + h))
                 - abs(amplitude_closed_form(dp, t - h))) / (2 * h)
        sigma = info_flux(dp, pair, t)
        if abs(slope) > 1e-6:
            assert math.copysign(1, sigma) == math.copysign(1, slope)


def test_flux_validates_pair():
    dp = derive(SystemParams(lam=0.1))
    with pytest.raises(ValidationError):
        info_flux(dp, (BlochVector(1, 0, 0), BlochVector(0, 1, 0)), 1.0)
    with pytest.raises(ValidationError):
        info_flux(dp, (BlochVector(0.5, 0, 0), BlochVector(-0.5, 0, 0)), 1.0)


def test_flux_takes_one_kernel_call(monkeypatch):
    # A and dA/dt come from one amplitude_grid call, bit for bit the values
    # of the one-point views
    dp = derive(SystemParams(lam=0.05, omega_rabi=0.5, delta_qc=1.0))
    pair = antipodal_pair(0.7)
    t = 3.7
    amp, damp = amplitude_closed_form(dp, t), amplitude_derivative(dp, t)
    u = nonmarkov._pair_u(pair)
    x = abs(amp)
    d = x * np.sqrt((1.0 - u) + u * (x * x))
    expected = float(((1.0 - u) + 2.0 * u * x * x) * (damp * amp.conjugate()).real / d)
    calls = []
    mode_form = amplitude._mode_form

    def counted(*args):
        calls.append(1)
        return mode_form(*args)

    monkeypatch.setattr(amplitude, "_mode_form", counted)
    assert info_flux(dp, pair, t) == expected
    assert len(calls) == 1


def test_backflow_intervals_empty_when_overdamped():
    # lam = 2 is the critical point of the undriven resonant cavity: F = 0
    # there, real F above it, and F = 1e-4 i just below it, where the first
    # extremum lies beyond t ~ 4 pi / |F|
    for lam in (2.5, 2.0 + 1e-9, 2.0, 2.0 - 1e-9):
        dp = derive(SystemParams(lam=lam, omega_rabi=0.0))
        flows = backflow_intervals(dp, antipodal_pair(math.pi / 2), 50.0)
        assert flows.intervals == ()
        assert blp_measure(dp.params, t_max=50.0).n_measure == 0.0


def test_backflow_intervals_structure():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.0))
    flows = backflow_intervals(dp, antipodal_pair(math.pi / 2), 100.0)
    assert len(flows.intervals) >= 1
    prev_end = 0.0
    for (s, e), (ds, de) in zip(flows.intervals, flows.d_values):
        assert prev_end <= s < e <= 100.0
        assert de > ds
        prev_end = e
    # the first recovery starts at the first zero of the undriven amplitude
    assert flows.intervals[0][0] == pytest.approx(23.24, abs=0.05)


def test_backflow_gain_shrinks_with_drive():
    taus = {}
    for om in (0.0, 0.1, 1.0):
        dp = derive(SystemParams(lam=0.01, omega_rabi=om))
        flows = backflow_intervals(dp, antipodal_pair(math.pi / 2), 100.0)
        taus[om] = sum(de - ds for ds, de in flows.d_values)
    assert taus[1.0] < taus[0.1] < taus[0.0]


def test_azimuth_invariance_via_channel():
    dp = derive(SystemParams(lam=0.02, omega_rabi=0.6, delta_qc=0.4))
    ts = np.linspace(0, 40, 81)
    base = None
    for az in np.linspace(0, 2 * math.pi, 5, endpoint=False):
        v1, v2 = antipodal_pair(0.9, float(az))
        s1, s2 = QubitState.from_bloch(v1), QubitState.from_bloch(v2)
        traj = np.array([
            trace_distance(apply_channel(dp, s1, float(t)),
                           apply_channel(dp, s2, float(t)))
            for t in ts
        ])
        if base is None:
            base = traj
        else:
            assert np.max(np.abs(traj - base)) <= 1e-12


def test_blp_measure_does_not_depend_on_the_azimuth():
    for params in (SystemParams(lam=0.01, omega_rabi=0.0),
                   SystemParams(lam=0.05, omega_rabi=0.3, delta_qc=0.5)):
        dp = derive(params)
        res = blp_measure(params, t_max=150.0)
        for az in (0.0, 0.7, 2.0, 4.5):
            # the best pair turned to this azimuth, evolved by the channel,
            # accumulates the measure over the intervals
            s1, s2 = (QubitState.from_bloch(v) for v in antipodal_pair(res.alpha, az))

            def d(t):
                return trace_distance(apply_channel(dp, s1, t), apply_channel(dp, s2, t))

            total = sum(d(e) - d(s) for s, e in res.intervals.intervals)
            assert total == pytest.approx(res.n_measure, abs=1e-12)


def test_flux_matches_channel_distance_derivative():
    dp = derive(SystemParams(lam=0.05, omega_rabi=0.4))
    v1, v2 = antipodal_pair(0.8, 0.3)
    s1, s2 = QubitState.from_bloch(v1), QubitState.from_bloch(v2)
    h = 1e-6
    for t in (1.0, 6.0, 14.0):
        dplus = trace_distance(apply_channel(dp, s1, t + h),
                               apply_channel(dp, s2, t + h))
        dminus = trace_distance(apply_channel(dp, s1, t - h),
                                apply_channel(dp, s2, t - h))
        fd = (dplus - dminus) / (2 * h)
        assert info_flux(dp, (v1, v2), t) == pytest.approx(fd, abs=1e-7)


def test_blp_zero_for_overdamped_cavity():
    res = blp_measure(SystemParams(lam=2.5, omega_rabi=0.0), t_max=50.0)
    assert res.n_measure == 0.0
    assert not res.truncated


def test_blp_positive_in_memory_regime():
    params = SystemParams(lam=0.01, omega_rabi=0.0)
    res = blp_measure(params, t_max=100.0)
    assert res.n_measure > 0.5
    assert res.truncated  # the envelope is still large at this horizon
    tail = abs(amplitude_closed_form(derive(params), 100.0))
    assert res.residual_bound == pytest.approx(2 * tail, rel=1e-12)


def test_blp_interval_sum_matches_flux_integral():
    params = SystemParams(lam=0.01, omega_rabi=0.0)
    res = blp_measure(params, t_max=100.0)
    dp = derive(params)
    total = 0.0
    for s, e in res.intervals.intervals:
        val, _ = quad(lambda t: info_flux(dp, res.best_pair, t), s, e,
                      epsabs=1e-10, epsrel=1e-10, limit=200)
        total += val
    assert res.n_measure == pytest.approx(total, abs=1e-6)


def test_blp_drive_suppression():
    n_weak = blp_measure(SystemParams(lam=0.01, omega_rabi=0.01), t_max=100.0)
    n_strong = blp_measure(SystemParams(lam=0.01, omega_rabi=1.0), t_max=100.0)
    assert n_strong.n_measure < n_weak.n_measure


def test_blp_detuning_restores_memory():
    values = [
        blp_measure(SystemParams(lam=0.01, omega_rabi=1.0, delta_qc=d),
                    t_max=100.0).n_measure
        for d in (0.0, 1.0, 5.0, 10.0)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def _plain_gains(xs, xe, u):
    """Accumulated backflow at each u = cos^2(alpha), summed the plain way
    from D = sqrt(u |A|^4 + (1 - u) |A|^2), and the rounding allowance of
    that sum of differences."""
    u = np.asarray(u, dtype=float)[:, None]
    gains = np.sum(np.sqrt(u * xe**4 + (1 - u) * xe**2)
                   - np.sqrt(u * xs**4 + (1 - u) * xs**2), axis=1)
    return gains, 64 * np.finfo(float).eps * np.sum(xe + xs)


def _amp_arrays(res):
    xs, xe = np.array(res.intervals.amp_values).reshape(-1, 2).T
    return xs, xe


def _assert_no_pair_beats(res, alphas):
    """No point of a dense 4001-point u scan and no polar angle in alphas
    beats n_measure by more than rounding; the reported pair reaches it."""
    xs, xe = _amp_arrays(res)
    assert res.n_measure >= 0.0
    assert 0.0 <= res.alpha <= math.pi / 2
    best, slack = _plain_gains(xs, xe, [math.cos(res.alpha) ** 2])
    assert best[0] == pytest.approx(res.n_measure, abs=slack)
    ds, de = np.array(res.intervals.d_values).reshape(-1, 2).T
    assert np.sum(de - ds) == pytest.approx(res.n_measure, abs=slack)
    for u in np.array_split(np.linspace(0.0, 1.0, 4001), 8):
        assert np.max(_plain_gains(xs, xe, u)[0], initial=0.0) <= res.n_measure + slack
    gains, _ = _plain_gains(xs, xe, np.cos(np.asarray(alphas)) ** 2)
    assert np.max(gains, initial=0.0) <= res.n_measure + slack


def test_no_pair_beats_the_certified_maximum_on_figure_rows():
    rng = np.random.default_rng(9)
    for lam, omega, delta_qc in [(0.01, 0.0, 0.0), (0.01, 1.0, 0.0), (0.1, 0.5, 1.0),
                                 (0.01, 0.1, 10.0), (1.0, 2.0, 0.0)]:
        res = blp_measure(SystemParams(lam=lam, omega_rabi=omega, delta_qc=delta_qc),
                          t_max=200.0)
        _assert_no_pair_beats(res, rng.uniform(0.0, math.pi / 2, 64))


def test_max_gain_certifies_an_interior_maximum():
    # three intervals whose accumulated backflow peaks inside (0, 1), above
    # both ends; the search must find the peak, not an end
    xs = np.array([0.73447385, 0.00406078, 0.66030563])
    xe = np.array([0.77836815, 0.16222838, 0.96809998])
    best, u = _gain(xs, xe)
    ends, slack = _plain_gains(xs, xe, [0.0, 1.0])
    assert 0.9 < u < 1.0 and best > ends.max() + 1e-3
    assert _plain_gains(xs, xe, [u])[0][0] == pytest.approx(best, abs=slack)
    fine = np.linspace(u - 1e-3, u + 1e-3, 20001)
    assert _plain_gains(xs, xe, fine)[0].max() <= best + slack
    assert _plain_gains(xs, xe, np.linspace(0.0, 1.0, 4001))[0].max() <= best + slack


def test_max_gain_at_zero_amplitude():
    # |A| = 0 at both ends of an interval, or at its start only: the terms
    # and slopes with a vanishing denominator are 0, and nothing warns
    xs = np.array([0.0, 0.0, 1e-200, 0.2])
    xe = np.array([0.0, 0.3, 1e-100, 0.25])
    best, u = _gain(xs, xe)
    assert u == 0.0 and best == pytest.approx(np.sum(xe - xs), rel=1e-15)
    assert _gain(xs[:1], xe[:1]) == (0.0, 1.0)
    assert _gain(np.empty(0), np.empty(0)) == (0.0, 1.0)


@pytest.mark.parametrize("lam,omega,delta_qc,t_max", [
    (0.01, 0.0, 0.0, 100.0),  # equatorial pair
    (0.01, 1.0, 0.0, 100.0),  # polar pair
    (0.3, 0.5, 1.0, 100.0),
    (0.01, 2.0, -10.0, 2.0 * math.log(1e4) / 0.01),  # 2525 intervals
])
def test_winning_end_agrees_with_mpmath(lam, omega, delta_qc, t_max):
    mpmath = pytest.importorskip("mpmath")
    res = blp_measure(SystemParams(lam=lam, omega_rabi=omega, delta_qc=delta_qc),
                      t_max=t_max)
    xs, xe = _amp_arrays(res)
    with mpmath.workdps(40):
        def gain(u):
            u = mpmath.mpf(u)
            return mpmath.fsum(
                mpmath.mpf(e) * mpmath.sqrt(1 - u * (1 - mpmath.mpf(e) ** 2))
                - mpmath.mpf(s) * mpmath.sqrt(1 - u * (1 - mpmath.mpf(s) ** 2))
                for s, e in zip(xs.tolist(), xe.tolist()))

        polar, equatorial = gain(1), gain(0)
        winner = max(polar, equatorial)
        assert res.alpha == (0.0 if polar >= equatorial else math.pi / 2)
        assert abs(res.n_measure - winner) <= 8 * np.finfo(float).eps * winner
        for u in (0.25, 0.5, 0.75, 0.999):
            assert gain(u) <= winner


def test_blp_truncation_rule():
    with pytest.raises(ValidationError):
        blp_measure(SystemParams(lam=0.01, omega_rabi=0.0), t_max=50.0)
    # reaching the 100/gamma horizon is always allowed, flagged as truncated
    res = blp_measure(SystemParams(lam=0.01, omega_rabi=0.0), t_max=100.0)
    assert res.truncated


def test_blp_best_pair_is_equatorial_for_undriven_decay():
    res = blp_measure(SystemParams(lam=0.01, omega_rabi=0.0), t_max=100.0)
    assert res.alpha == pytest.approx(math.pi / 2, abs=1e-3)
    # driven ripple case prefers the polar pair instead
    res2 = blp_measure(SystemParams(lam=0.01, omega_rabi=1.0), t_max=100.0)
    assert res2.alpha < math.pi / 4


@pytest.mark.parametrize("lam,omega,delta_qc,t_max,coarse_misses", [
    # a root pair 0.016 apart near t = 574.6 that a 16-per-cycle scan misses
    (0.01, 2.0, 1.0, 600.0, True),
    # the horizon of a sweep row at lam = 0.01; the former dense scan hit its
    # 4M-point cap here
    (0.01, 2.0, -10.0, 2.0 * math.log(1e4) / 0.01, False),
])
def test_extrema_match_dense_scan(lam, omega, delta_qc, t_max, coarse_misses):
    dp = derive(SystemParams(lam=lam, omega_rabi=omega, delta_qc=delta_qc))
    times, _ = _assert_same_extrema(dp, t_max)
    coarse, _ = _dense_extrema(dp, t_max, per_cycle=16)
    assert (coarse.size < times.size) == coarse_misses


@pytest.mark.parametrize("name,value", [
    ("_NEWTON_STEPS", 0),  # every bracket goes to the continued Newton steps
    ("_CHUNK", 64),  # the grid is searched in many passes
])
def test_refinement_paths_match_dense_scan(monkeypatch, name, value):
    monkeypatch.setattr(nonmarkov, name, value)
    dp = derive(SystemParams(lam=0.01, omega_rabi=2.0, delta_qc=1.0))
    _assert_same_extrema(dp, 600.0)


def test_bisection_fallback_matches_dense_scan(monkeypatch):
    # no Newton step at all: every bracket is bisected on the kernel
    monkeypatch.setattr(nonmarkov, "_NEWTON_STEPS", 0)
    monkeypatch.setattr(nonmarkov, "_NEWTON_MORE", 0)
    dp = derive(SystemParams(lam=0.01, omega_rabi=2.0, delta_qc=1.0))
    _assert_same_extrema(dp, 600.0)


def test_unconfirmed_bracket_costs_one_more_kernel_call(monkeypatch):
    # a fig9 row with a bracket 5.6 wide that six Newton steps leave
    # unconfirmed: the continued steps and one more kernel call settle it,
    # within the refinement tolerance of bisection on the kernel
    dp = derive(SystemParams(lam=0.01, omega_rabi=1.0, delta_qc=1.0))
    t_max = 2.0 * math.log(1e4) / 0.01
    calls = []
    mode_form = nonmarkov._mode_form
    setup = _row_setup([dp], np.array([t_max]))  # its tail call is not counted

    def counted(M, F, t, *args):
        calls.append(t.size)
        return mode_form(M, F, t, *args)

    monkeypatch.setattr(nonmarkov, "_mode_form", counted)
    times, kinds, amps = _extrema(dp, t_max, setup)
    assert len(calls) == 2
    monkeypatch.setattr(nonmarkov, "_NEWTON_MORE", 0)
    calls.clear()
    ref_times, ref_kinds, ref_amps = _extrema(dp, t_max)
    assert len(calls) > 10
    assert np.array_equal(kinds, ref_kinds)
    assert np.max(np.abs(times - ref_times)) < 1e-10
    assert np.max(np.abs(amps - ref_amps)) < 1e-12


def _sweep_inputs(spec):
    """Parameter sets and horizons of the rows of a blp sweep, as the sweep
    builds them."""
    params = [_params_at(spec.fixed, spec.axis.name, v)
              for v in spec.axis.values().tolist()]
    return params, [max(spec.t_max, min(5000.0, 2.0 * math.log(1e4) / p.lam))
                    for p in params]


def _assert_rows_match_one_row_view(params, t_maxes, result, skip=()):
    n_measure, alpha, residual, truncated, errors = result
    for i, (p, t_max) in enumerate(zip(params, t_maxes)):
        if i in skip:
            continue
        one = blp_measure(p, t_max=t_max)
        assert errors[i] is None
        assert (n_measure[i], alpha[i], residual[i], truncated[i]) == (
            one.n_measure, one.alpha, one.residual_bound, one.truncated)


def _corner_and_random_sweeps():
    table = _preset_table()
    fig9, fig10 = table["fig9"], table["fig10"][0][2]
    # drive 0 and 2 at detuning 0 and 10; the weakest and strongest drive of fig10
    specs = [fig9[panel][2][k] for panel in (0, 3) for k in (0, 4)] + [fig10[0], fig10[3]]
    rng = np.random.default_rng(29)
    ranges = {"lambda_ratio": (0.01, 1.0, "log"), "omega": (0.0, 2.0, "linear"),
              "delta": (0.0, 10.0, "linear")}
    for _ in range(5):
        name = str(rng.choice(sorted(ranges)))
        lo, hi, scale = ranges[name]
        fixed = SystemParams(lam=10.0 ** rng.uniform(-2.0, 0.0),
                             omega_rabi=rng.uniform(0.0, 2.0),
                             delta_qc=rng.uniform(0.0, 10.0))
        specs.append(SweepSpec("blp", fixed, SweepAxis(name, lo, hi, 6, scale)))
    return specs


def test_batched_rows_match_the_one_row_view():
    for spec in _corner_and_random_sweeps():
        params, t_maxes = _sweep_inputs(spec)
        _assert_rows_match_one_row_view(params, t_maxes, blp_measures(params, t_maxes))


def test_failed_row_leaves_its_neighbours_untouched(monkeypatch):
    # one batch with a row failing at every stage: model constants that
    # overflow, a horizon that is not finite, a horizon too short for the
    # envelope, a search over the work budget and a refinement failure
    spec = _preset_table()["fig9"][1][2][2]  # omega 0.5, delta 0.1
    sweep, sweep_t = _sweep_inputs(spec)
    rows = [(sweep[0], sweep_t[0]), (SystemParams(lam=0.1, omega_rabi=1e160), 184.2),
            (sweep[1], sweep_t[1]), (sweep[2], math.inf), (sweep[2], math.nan),
            (sweep[1], 50.0), (SystemParams(lam=0.1, omega_rabi=1e6), 184.2),
            (sweep[3], sweep_t[3]), (sweep[4], sweep_t[4])]
    params, t_maxes = [p for p, _ in rows], [t for _, t in rows]
    expected = {1: (OverflowError, "model constants overflow"),
                3: (ValidationError, "t_max must be finite and > 0, got inf"),
                4: (ValidationError, "t_max must be finite and > 0, got nan"),
                5: (ValidationError, "t_max too small"),
                6: (ValidationError, "initial gaps, over the budget"),
                7: (ValidationError, "no sign change")}
    # a bracket of row 7 that straddles no sign change of h, from one
    # bracket's right end to the next one's left end; the row is found by
    # its constants, so its one-row view fails the same way
    real = nonmarkov._flux_brackets
    target = _flux(derive(sweep[3])).a[0]

    def injected(flux, t, owner):
        lo, hi, own = real(flux, t, owner)
        k = np.flatnonzero(flux.a[own] == target)[:2]
        if k.size == 2:
            lo, hi, own = (np.append(lo, hi[k[0]]), np.append(hi, lo[k[1]]),
                           np.append(own, own[k[0]]))
        return lo, hi, own

    monkeypatch.setattr(nonmarkov, "_flux_brackets", injected)
    result = blp_measures(params, t_maxes)
    for i, (kind, message) in expected.items():
        assert type(result[4][i]) is kind and message in str(result[4][i])
        assert all(math.isnan(v[i]) for v in result[:3]) and not result[3][i]
        with pytest.raises(kind, match=message):
            blp_measure(params[i], t_max=t_maxes[i])
        if i != 5:  # the short-horizon rule is the measure's, not the intervals'
            with pytest.raises(kind, match=message):
                backflow_intervals(derive(params[i]), antipodal_pair(0.5), t_maxes[i])
    _assert_rows_match_one_row_view(params, t_maxes, result, skip=set(expected))


def test_blp_sweep_kernel_calls_follow_its_slices(monkeypatch):
    # the initial gaps of all rows go to the finder in full slices of
    # _CHUNK, and each slice confirms its brackets in one kernel call, plus
    # one for brackets whose Newton steps had not converged; rows evaluated
    # one at a time would make a slice and a kernel call per row
    gaps, calls = [], []
    brackets, mode_form = nonmarkov._flux_brackets, nonmarkov._mode_form

    def counted_brackets(flux, t, owner):
        gaps.append(np.count_nonzero(owner[1:] == owner[:-1]))
        return brackets(flux, t, owner)

    def counted_kernel(M, F, t, *args):
        calls.append(t.size)
        return mode_form(M, F, t, *args)

    monkeypatch.setattr(nonmarkov, "_flux_brackets", counted_brackets)
    monkeypatch.setattr(nonmarkov, "_mode_form", counted_kernel)
    spec = _preset_table()["fig9"][1][2][3]  # 21 rows: omega 1, delta 0.1
    table, summary = run_sweep(spec)
    assert len(table) == 21 and summary.n_failed == 0
    assert max(gaps) <= nonmarkov._CHUNK
    assert len(gaps) == math.ceil(sum(gaps) / nonmarkov._CHUNK) < 21
    assert len(calls) <= 2 * len(gaps)


def _figure_rows():
    """Parameter sets and horizons of the 584 rows of fig9 and fig10."""
    table = _preset_table()
    params, t_maxes = [], []
    for _, _, specs in table["fig9"] + table["fig10"]:
        for spec in specs:
            p, t = _sweep_inputs(spec)
            params += p
            t_maxes += t
    return params, t_maxes


def test_flux_keeps_the_sign_of_a_past_the_search_horizon():
    # the bound the search horizon rests on: from t_h on, G = a + b e^{-2kt}
    # + Re(C e^{(iw-k)t}) stays within |a|/2 of a, on the figure rows and on
    # strongly driven rows, at twice the density of the finder's initial grid
    params, t_maxes = _figure_rows()
    rng = np.random.default_rng(18)
    for _ in range(16):
        lam = 10.0 ** rng.uniform(-2.0, 0.0)
        params.append(SystemParams(lam=lam, omega_rabi=rng.uniform(0.0, 1e3),
                                   delta_qc=rng.uniform(0.0, 10.0)))
        t_maxes.append(max(100.0, min(5000.0, 2.0 * math.log(1e4) / lam)))
    cut = []
    flux = _Flux.of(mode_constants([derive(p) for p in params]),
                    np.ones(len(params), dtype=bool))
    for i, (t_h, t_max) in enumerate(zip(_search_horizon(flux).tolist(), t_maxes)):
        a, w = flux.a[i], flux.z[i].imag
        cut.append(t_h < t_max)
        if not cut[-1]:
            continue
        t = np.linspace(t_h, t_max, max(1000, math.ceil(8.0 * abs(w) * (t_max - t_h)
                                                        / math.pi)))
        g = _flux_form(flux.at([i]), t)[0]
        assert np.all(np.sign(g) == np.sign(a))
        assert np.all(np.abs(g - a) <= 0.5 * abs(a))
    assert sum(cut[:584]) == 371 and all(cut[584:])  # rows whose search is cut


def test_two_mode_table_reproduces_the_kernel_slope():
    # d|A|^2/dt = 2 Re(dA conj A) from the kernel equals 2 e^{(k - Re M) t} G(t)
    # from the table, to 1e-12 of the size of G's terms, on the figure rows
    # and on seeded rows of the parameter box (detunings of either sign)
    params, t_maxes = _figure_rows()
    rng = np.random.default_rng(20)
    for _ in range(64):
        params.append(SystemParams(lam=10.0 ** rng.uniform(-2.0, 0.0),
                                   omega_rabi=rng.uniform(0.0, 2.0),
                                   delta_qc=rng.uniform(-10.0, 10.0),
                                   delta_cav=rng.uniform(-1.0, 1.0)))
        t_maxes.append(100.0)
    # then a critically damped, an overdamped and a decoupled row: no extrema
    params += [SystemParams(lam=2.0), SystemParams(lam=5.0),
               SystemParams(lam=0.01, omega_rabi=0.0, delta_qc=-100.0)]
    dps = [derive(p) for p in params]
    flux = _Flux.of(mode_constants(dps), np.ones(len(dps), dtype=bool))
    assert np.count_nonzero(flux.z.imag) == len(dps) - 3
    assert not any(col[-3:].any() for col in flux)
    for i, (dp, t_max) in enumerate(zip(dps[:-3], t_maxes)):
        t = np.linspace(0.0, t_max, 2001)
        A, dA = amplitude_grid(dp, t)
        c = flux.at([i])
        env = 2.0 * np.exp((c.k - dp.m_const.real) * t)
        e1 = np.exp(-c.k * t)
        size = env * (np.abs(c.a) + np.abs(c.b) * e1 * e1 + c.abs_c * e1)
        err = np.abs(2.0 * (dA * np.conj(A)).real - env * _flux_form(c, t)[0])
        assert np.all(err <= 1e-12 * size)


def test_figure_search_stops_at_the_closed_form_horizon(monkeypatch):
    # one fig9 + fig10 pass sends 139,147 initial gaps to the finder, where a
    # search of every row to its horizon sent 371,491
    gaps = []
    brackets = nonmarkov._flux_brackets

    def counted(flux, t, owner):
        gaps.append(np.count_nonzero(owner[1:] == owner[:-1]))
        return brackets(flux, t, owner)

    monkeypatch.setattr(nonmarkov, "_flux_brackets", counted)
    params, t_maxes = _figure_rows()
    errors = blp_measures(params, t_maxes)[4]
    assert len(errors) == errors.count(None) == 584
    assert sum(gaps) == 139_147 <= 0.4 * 371_491


def test_strong_drive_backflow_falls_as_one_over_omega():
    # at lam 0.1 and the horizon of a sweep row, N omega rises toward ~0.0398
    # as the drive grows; |A| stays near 1, so both rows read truncated
    omegas = np.array([1e2, 3e2])
    n, _, _, truncated, errors = blp_measures(
        [SystemParams(lam=0.1, omega_rabi=om) for om in omegas],
        [2.0 * math.log(1e4) / 0.1] * 2)
    assert errors == [None, None] and truncated.all()
    scaled = n * omegas
    assert 0.0395 <= scaled[0] < scaled[1] <= 0.0400


def test_row_over_the_work_budget_fails_fast():
    # omega 1e6 at lam 0.1 would need 469,078,784 initial gaps: the row fails
    # before any is made, and its neighbour reads as that row alone
    params = [SystemParams(lam=0.1, omega_rabi=om) for om in (1e6, 0.5)]
    t_maxes = [2.0 * math.log(1e4) / 0.1] * 2
    start = time.perf_counter()
    result = blp_measures(params, t_maxes)
    assert time.perf_counter() - start < 1.0
    assert "needs 469078784 initial gaps" in str(result[4][0])
    assert math.isnan(result[0][0]) and not result[3][0]
    _assert_rows_match_one_row_view(params, t_maxes, result, skip={0})


def test_row_whose_gap_count_overflows_fails_alone():
    # 4 |w| t_max / pi overflows while the kernel's |F| t_max does not: the
    # row reads as over its budget, with no warning, and its neighbour as alone
    p = SystemParams(lam=0.1, omega_rabi=1e100)
    params = [p, SystemParams(lam=0.1, omega_rabi=0.5)]
    t_maxes = [0.6e308 / (0.5 * abs(derive(p).f_const.imag)), 184.2]
    result = blp_measures(params, t_maxes)
    assert "needs inf initial gaps" in str(result[4][0])
    _assert_rows_match_one_row_view(params, t_maxes, result, skip={0})


def test_rows_whose_constants_overflow_fail_before_the_kernel():
    params = [SystemParams(lam=0.1, omega_rabi=om) for om in (1e160, 0.5, 1e300)]
    t_maxes = [2.0 * math.log(1e4) / 0.1] * 3
    result = blp_measures(params, t_maxes)
    for i in (0, 2):
        assert isinstance(result[4][i], OverflowError)
        assert math.isnan(result[0][i]) and math.isnan(result[2][i])
        with pytest.raises(OverflowError, match="model constants overflow"):
            backflow_intervals(derive(params[i]), antipodal_pair(0.5), t_maxes[i])
    _assert_rows_match_one_row_view(params, t_maxes, result, skip={0, 2})


def test_formerly_capped_row_keeps_its_measure():
    t_max = 2.0 * math.log(1e4) / 0.01
    dp = derive(SystemParams(lam=0.01, omega_rabi=2.0, delta_qc=-10.0))
    assert _extrema(dp, t_max)[0].size == 5050
    res = blp_measure(dp.params, t_max=t_max)
    # pinned; the same sum over these extrema in 40-digit mpmath is
    # 1.94667688552e-05, the rounding of ~5000 |A| values away
    assert res.n_measure == pytest.approx(1.9466768821e-05, abs=1e-15)


def test_decoupled_qubit_has_no_extrema():
    # omega = 0 with delta_qc < 0 puts the qubit in the dark dressed state:
    # the coupling (1 + cos eta)^2 vanishes and h = 0 identically
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.0, delta_qc=-100.0))
    times, kinds, amps = _extrema(dp, 100.0)
    assert times.size == 0 and kinds.size == 0 and amps.size == 0
    assert blp_measure(dp.params, t_max=100.0).n_measure == 0.0
    # the finder itself stops on a flux that is zero everywhere
    zero = _Flux(*(np.array([v]) for v in (0.0, 0.0, 0j, 0.01, 0.0,
                                            math.hypot(0.01, 200.0), complex(-0.01, 200.0))))
    lo, hi, _ = _flux_brackets(zero, np.linspace(0, 100, 101), np.zeros(101, dtype=int))
    assert lo.size == 0 and hi.size == 0


def test_bracket_signs_agree_with_mpmath():
    mpmath = pytest.importorskip("mpmath")
    p = SystemParams(lam=0.01, omega_rabi=0.5, delta_qc=-100.0)
    dp = derive(p)
    flux = _flux(dp)
    # the horizon of a sweep row at lam = 0.01; with the textbook forms of c-
    # and s+, 13% of the brackets found here are wrong, all beyond t ~ 800
    t_max = 2.0 * math.log(1e4) / p.lam
    lo, hi, _ = _flux_brackets(flux, np.linspace(0.0, t_max, 400_001),
                               np.zeros(400_001, dtype=int))
    assert lo.size == 63_048
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        eta = mpmath.atan2(2 * mpf(p.omega_rabi), mpf(p.delta_qc))
        omega_d = mpmath.hypot(mpf(p.delta_qc), 2 * mpf(p.omega_rabi))
        M = mpmath.mpc(p.lam, -(omega_d + mpf(p.delta_cav) - mpf(p.delta_qc)))
        q = mpf(p.gamma) * mpf(p.lam) * (1 + mpmath.cos(eta)) ** 2
        F = mpmath.sqrt(4 * M * M - 2 * q)

        def h_sign(t):
            t = mpf(float(t))
            e = mpmath.exp(-M * t / 2)
            A = e * (mpmath.cosh(F * t / 4) + 2 * M / F * mpmath.sinh(F * t / 4))
            dA = -q / (2 * F) * e * mpmath.sinh(F * t / 4)
            return mpmath.sign(mpmath.re(dA * mpmath.conj(A)))

        for i in np.random.default_rng(7).choice(lo.size, 60, replace=False):
            s_lo, s_hi = h_sign(lo[i]), h_sign(hi[i])
            assert s_lo == -s_hi != 0
            assert s_lo == np.sign(_flux_form(flux, np.array([lo[i]]))[0][0])


def test_inconsistent_brackets_raise(monkeypatch):
    dp = derive(SystemParams(lam=0.01, omega_rabi=2.0, delta_qc=1.0))
    flux = _flux(dp)
    lo, hi, _ = _flux_brackets(flux, np.linspace(0.0, 100.0, 1001),
                               np.zeros(1001, dtype=int))
    # a bracket whose ends straddle no sign change of h
    with pytest.raises(ValidationError, match="no sign change"):
        _refine_row(dp, flux, np.append(lo, hi[0]), np.append(hi, lo[1]))
    # a two-mode form of the opposite sign: same roots, every direction wrong
    flipped = flux._replace(a=-flux.a, b=-flux.b, C=-flux.C)
    with pytest.raises(ValidationError, match="disagree on the direction"):
        _refine_row(dp, flipped, lo, hi)
    # every other bracket lost: two minima in a row
    monkeypatch.setattr(nonmarkov, "_flux_brackets",
                        lambda f, t, owner: (lo[::2], hi[::2], np.zeros(lo[::2].size, int)))
    with pytest.raises(ValidationError, match="do not alternate"):
        _extrema(dp, 100.0)


if given is None:
    def test_extrema_match_dense_scan_over_parameter_box():
        pytest.skip("needs hypothesis (the test extra)")
else:
    @settings(max_examples=50)
    @given(log_lam=st.floats(-2.0, 0.0), omega=st.floats(0.0, 2.0),
           delta_qc=st.floats(-10.0, 10.0), delta_cav=st.floats(-5.0, 5.0))
    def test_extrema_match_dense_scan_over_parameter_box(log_lam, omega,
                                                         delta_qc, delta_cav):
        dp = derive(SystemParams(lam=10.0 ** log_lam, omega_rabi=omega,
                                 delta_qc=delta_qc, delta_cav=delta_cav))
        _assert_same_extrema(dp, 150.0)


if given is None:
    def test_no_pair_beats_the_certified_maximum_over_parameter_box():
        pytest.skip("needs hypothesis (the test extra)")
else:
    @settings(max_examples=100)
    @given(log_lam=st.floats(-2.0, 0.0), omega=st.floats(0.0, 2.0),
           delta_qc=st.floats(-10.0, 10.0), delta_cav=st.floats(-5.0, 5.0),
           alphas=st.lists(st.floats(0.0, math.pi / 2), min_size=1, max_size=32))
    def test_no_pair_beats_the_certified_maximum_over_parameter_box(
            log_lam, omega, delta_qc, delta_cav, alphas):
        res = blp_measure(SystemParams(lam=10.0 ** log_lam, omega_rabi=omega,
                                       delta_qc=delta_qc, delta_cav=delta_cav),
                          t_max=200.0)
        _assert_no_pair_beats(res, alphas)
