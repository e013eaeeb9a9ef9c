import csv
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
from drivenqubit import phase
from drivenqubit.amplitude import (_rows_form, amplitude_closed_form, amplitude_derivative,
                                   amplitude_grid)
from drivenqubit.nonmarkov import (_bisect, _cat, _counts, _Flux, _flux_form,
                                   _horizon,
                                   _max_gain, _pieces, _refine, _take, _Todo,
                                   amplitude_extrema, blp_measures)
from drivenqubit.cli import main as sweeps_main
from drivenqubit.params import DerivedColumns, derive_columns
from drivenqubit import sweeps
from drivenqubit.sweeps import (SweepAxis, SweepSpec, _preset_table, _sweep_table,
                                figure_preset, run_sweep)


def _rows(params):
    """The columns of a list of parameter sets, derived in one call."""
    return derive_columns(*np.array([[p.lam, p.omega_rabi, p.delta_qc, p.delta_cav, p.gamma]
                                     for p in params]).reshape(-1, 5).T)


def _extrema(dp, t_max):
    """(times, kinds, |A|) of the extrema of one row from the batched
    finder, without the ends of [0, t_max]; raises the row's error."""
    t, rows = np.array([t_max]), DerivedColumns.of([dp])
    errors = rows.errors()
    times, kinds, amps, _ = amplitude_extrema(rows, t, errors)
    if errors[0] is not None:
        raise errors[0]
    inner = kinds != 0
    return times[inner], kinds[inner], amps[inner]


def _flux(dp):
    """The two-mode table of one row."""
    return _Flux.of(DerivedColumns.of([dp]), np.array([True]))


def _brackets(flux, t_max):
    """Every bracket the piece builder gives on (0, t_max) of each row of a
    two-mode table (w != 0), in (row, time) order, from one call over all
    the pieces the search takes."""
    t_max = np.full(flux.a.size, t_max, dtype=float)
    nodes = _counts(flux, t_max).astype(int) + 1
    owner = np.repeat(np.arange(nodes.size), nodes)
    q = np.arange(owner.size) - np.repeat(np.cumsum(nodes) - nodes, nodes)
    found = _pieces(flux, t_max, owner, q)
    return _take(found, np.lexsort((found.lo, found.own)))


def _refine_row(dp, flux, lo, hi):
    """The batched refinement of brackets of one row, as the finder's finish
    runs it: a Newton round, and bisection for the brackets it leaves
    unconfirmed; raises the row's error."""
    errors, rows = [None], DerivedColumns.of([dp])
    own = np.zeros(lo.size, dtype=int)
    todo = _Todo(lo, hi, own, _flux_form(_take(flux, own), hi)[0] > 0)
    done, todo = _refine(flux, rows, todo, errors)
    times, kinds, amps, _ = _cat([done, _bisect(rows, todo, errors)])
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
    bracket bisected below 1e-10.  Returns (times, kinds) like the finder.
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


def test_tiny_measure_is_real_backflow_within_rounding_of_40_digits():
    # |A| stays near 1 and rises by ~2e-17 on each of 562 intervals: at 40
    # digits every rise is real, so the row is non-Markovian, and the cell
    # is off by the rounding of |A| near 1 (about 0.43 eps per interval)
    mpmath = pytest.importorskip("mpmath")
    params = SystemParams(lam=0.0266, omega_rabi=0.00496, delta_qc=-7.43)
    t_max = 2.0 * math.log(1e4) / params.lam  # its sweep horizon, 692.5067948854273
    res = blp_measure(params, t_max=t_max)
    dp = derive(params)
    with mpmath.workdps(40):
        M, pref = mpmath.mpc(dp.m_const), mpmath.mpf(dp.coupling_prefactor)
        F = mpmath.sqrt(4 * M * M + 4 * pref)

        def abs_a(t):
            t = mpmath.mpf(t)
            return abs(mpmath.exp(-M * t / 2) * (mpmath.cosh(F * t / 4)
                                                 + 2 * M / F * mpmath.sinh(F * t / 4)))

        xs, xe = ([abs_a(t) for t in ends] for ends in zip(*res.intervals.intervals))
        assert all(e > s for s, e in zip(xs, xe))

        def gain(u):
            return mpmath.fsum(e * mpmath.sqrt(1 - u * (1 - e * e))
                               - s * mpmath.sqrt(1 - u * (1 - s * s)) for s, e in zip(xs, xe))

        exact = max(gain(mpmath.mpf(u)) for u in (0, 0.25, 0.5, 0.75, 1))
        assert exact > 0
        eps = np.finfo(float).eps
        assert abs(res.n_measure - exact) <= 2 * eps * len(xs)


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
    ("_CHUNK", 64),  # the grid is searched in many passes
])
def test_refinement_paths_match_dense_scan(monkeypatch, name, value):
    monkeypatch.setattr(nonmarkov, name, value)
    dp = derive(SystemParams(lam=0.01, omega_rabi=2.0, delta_qc=1.0))
    _assert_same_extrema(dp, 600.0)


def test_bisection_fallback_matches_dense_scan(monkeypatch):
    # no Newton step at all: every bracket is bisected on the kernel
    monkeypatch.setattr(nonmarkov, "_NEWTON_STEPS", 0)
    dp = derive(SystemParams(lam=0.01, omega_rabi=2.0, delta_qc=1.0))
    _assert_same_extrema(dp, 600.0)


def _count_kernel_calls(monkeypatch, calls, names=("_rows_rising", "_rows_form")):
    """Record the size of every kernel call of the finder in ``calls``: the
    signs of h (``_rows_rising``) and |A| (``_rows_form``), or those of
    ``names`` alone."""
    for name in names:
        def counted(rows, t, owner, *args, kernel=getattr(nonmarkov, name)):
            calls.append(t.size)
            return kernel(rows, t, owner, *args)

        monkeypatch.setattr(nonmarkov, name, counted)


def _sweep_inputs(spec):
    """Parameter sets and horizons of the rows of a blp sweep, as the sweep
    builds them."""
    table, _ = _sweep_table(spec)
    params = [SystemParams(**dict(zip(sweeps.PARAM_COLUMNS, col)))
              for col in table.T.tolist()]
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
        _assert_rows_match_one_row_view(params, t_maxes,
                                        blp_measures(_rows(params), t_maxes))


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
                6: (ValidationError, "quarter-period pieces, over the budget"),
                7: (ValidationError, "no sign change")}
    # a bracket of row 7 that straddles no sign change of h, from one
    # bracket's right end to the next one's left end; the row is found by
    # its constants, so its one-row view fails the same way
    real = nonmarkov._pieces
    target = _flux(derive(sweep[3])).a[0]

    def injected(flux, t_max, owner, q):
        found = real(flux, t_max, owner, q)
        k = np.flatnonzero(flux.a[found.own] == target)[:2]
        if k.size == 2:
            lo, hi, own = found.hi[k[:1]], found.lo[k[1:]], found.own[k[:1]]
            bogus = _Todo(lo, hi, own, _flux_form(_take(flux, own), hi)[0] > 0)
            found = _cat([found, bogus])
        return found

    monkeypatch.setattr(nonmarkov, "_pieces", injected)
    result = blp_measures(_rows(params), t_maxes)
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
    # the pieces of all rows go to the piece builder in full slices of
    # _CHUNK; the brackets the slices find are refined in batches of about
    # _CHUNK, each confirmed in four kernel calls of the signs of h (the
    # ends, then both sides of the estimate) and one of |A| at the extrema;
    # the brackets left unconfirmed are bisected once for the whole search,
    # in at most 64 halvings and one |A| call; the tails |A(t_max)| take one
    # call.  Rows evaluated one at a time would make a slice and kernel
    # calls per row
    pieces, nodes, calls, refined, bisected, searches, signs = [], [], [], [], [], [], []
    build, refine = nonmarkov._pieces, nonmarkov._refine
    bisect, extrema = nonmarkov._bisect, nonmarkov.amplitude_extrema

    def counted_pieces(flux, t_max, owner, q):
        pieces.append(np.count_nonzero(owner[1:] == owner[:-1]))
        nodes.append(owner.size)
        return build(flux, t_max, owner, q)

    def counted_refine(flux, rows, todo, errors):
        refined.append(todo.lo.size)
        return refine(flux, rows, todo, errors)

    def counted_bisect(rows, todo, errors):
        start = len(calls)
        out = bisect(rows, todo, errors)
        bisected.append(calls[start:])
        del calls[start:]
        return out

    def counted_extrema(rows, t_max, errors):
        searches.append(len(errors))
        return extrema(rows, t_max, errors)

    monkeypatch.setattr(nonmarkov, "_pieces", counted_pieces)
    _count_kernel_calls(monkeypatch, calls)
    _count_kernel_calls(monkeypatch, signs, ("_rows_rising",))
    monkeypatch.setattr(nonmarkov, "_refine", counted_refine)
    monkeypatch.setattr(nonmarkov, "_bisect", counted_bisect)
    monkeypatch.setattr(nonmarkov, "amplitude_extrema", counted_extrema)
    spec = _preset_table()["fig9"][1][2][3]  # 21 rows: omega 1, delta 0.1
    table, summary = run_sweep(spec)
    assert len(table) == 21 and summary.n_failed == 0
    assert max(pieces) <= nonmarkov._CHUNK
    assert len(pieces) == math.ceil(sum(pieces) / nonmarkov._CHUNK) < 21
    assert len(refined) == math.ceil(sum(refined) / nonmarkov._CHUNK) == 1
    assert len(calls) <= 5 * len(refined) + 1
    assert len(bisected) == len(searches) == 1 and len(bisected[0]) <= 64 + 1
    # fig9's first panel at _CHUNK 64 finds 5,946 brackets: they are refined
    # in at most 94 batches and bisected once; a slice evaluates the
    # two-mode form at its nodes, its pieces plus one per row, and no kernel
    # call of the signs of h takes more than 2 _CHUNK points, so the batches
    # bound the peak memory as the slices do
    monkeypatch.setattr(nonmarkov, "_CHUNK", 64)
    params, t_maxes = _panel_inputs()
    for record in (pieces, nodes, refined, bisected, searches, signs):
        record.clear()
    assert blp_measures(_rows(params), t_maxes)[4] == [None] * 105
    assert sum(refined) == 5946
    assert len(refined) <= math.ceil(sum(refined) / 64) + 1 == 94
    assert len(bisected) == len(searches) == 1
    assert max(pieces) <= 64 and max(nodes) <= 2 * 64
    assert max(signs) <= 2 * 64


def _panel_inputs():
    """Parameter sets and horizons of the 105 rows of fig9's first panel."""
    specs = _preset_table()["fig9"][0][2]
    return ([x for spec in specs for x in _sweep_inputs(spec)[k]] for k in (0, 1))


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


def _assert_segments(rows, t_max, errors, ext):
    """The finder's contract on one call: a row without an error holds
    (0, kind 0, |A| = 1), its extrema, alternating from a minimum, and
    (t_max, kind 0, |A(t_max)|), |A| there bit-equal to the kernel's, in
    (row, time) order; a failed row holds no points."""
    times, kinds, amps, owner = ext
    live = np.flatnonzero([e is None for e in errors])
    assert np.array_equal(np.unique(owner), live) and np.all(np.diff(owner) >= 0)
    tails = np.abs(_rows_form(rows, t_max[live], live))
    first, stop = np.searchsorted(owner, live), np.searchsorted(owner, live, side="right")
    for r, i, j, tail in zip(live.tolist(), first.tolist(), stop.tolist(), tails.tolist()):
        assert (times[i], kinds[i], amps[i]) == (0.0, 0, 1.0)
        assert (times[j - 1], kinds[j - 1], amps[j - 1]) == (t_max[r], 0, tail)
        assert np.array_equal(kinds[i + 1:j - 1], np.resize([1, -1], j - i - 2))
        assert np.all(np.diff(times[i:j]) >= 0.0)


def test_finder_returns_the_monotone_segments_of_every_row(monkeypatch):
    # on the 584 rows of fig9 and fig10 to their horizons, and on the rows
    # of one gp sweep to the phase's horizons (the period or the envelope)
    params, t_maxes = _figure_rows()
    rows, t = _rows(params), np.array(t_maxes)
    errors = rows.errors()
    _assert_segments(rows, t, errors, amplitude_extrema(rows, t, errors))
    assert errors == [None] * 584
    calls, extrema = [], nonmarkov.amplitude_extrema

    def recorded(rows, t_max, errors):
        ext = extrema(rows, t_max, errors)
        calls.append((rows, t_max, list(errors), ext))
        return ext

    monkeypatch.setattr(phase, "amplitude_extrema", recorded)
    table, summary = run_sweep(_preset_table()["fig7"][0][2][0])  # theta pi/6, 41 rows
    assert len(table) == 41 and summary.n_failed == 0
    assert len(calls) == 1 and calls[0][0].lam.size == 41
    _assert_segments(*calls[0])


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_finder_checks_its_own_horizons(bad):
    # a horizon that is not finite and > 0 fails its row alone, whoever calls
    params = [SystemParams(lam=0.1, omega_rabi=om) for om in (0.5, 0.3, 1.0)]
    rows, t = _rows(params), np.full(3, 184.2)
    alone = amplitude_extrema(rows, t, [None] * 3)
    t[1], errors = bad, [None] * 3
    ext = amplitude_extrema(rows, t, errors)
    assert errors[0] is None and errors[2] is None
    assert type(errors[1]) is ValidationError
    assert str(errors[1]) == f"t_max must be finite and > 0, got {bad}"
    _assert_segments(rows, t, errors, ext)
    for got, want in zip(ext, alone):
        assert np.array_equal(got, want[alone.owner != 1])


def test_backflow_intervals_read_the_segments():
    # pinned: lam 1 undriven, still rising at t_max, ends its last interval
    # at (t_max, |A(t_max)|); lam 2.5 > 2 gamma undriven is overdamped (w =
    # 0), with no extrema and no intervals; omega 1e6 is over the budget
    # with the pieces to its t2 = 168 alone.
    # The times are exact; |A| and D to the rounding of the constants
    pair, t_max = antipodal_pair(0.5), 8.0 * math.pi - 0.2
    dp = derive(SystemParams(lam=1.0))
    rising = backflow_intervals(dp, pair, t_max)
    assert rising.intervals == (
        (4.71238898038469, 6.283185307179586), (10.995574287564276, 12.566370614359172),
        (17.278759594743864, 18.84955592153876), (23.56194490192345, t_max))
    assert rising.t_max == t_max
    assert rising.amp_values[-1][1] == np.abs(_rows_form(DerivedColumns.of([dp]),
                                                        np.array([t_max]), np.array([0])))[0]
    for got, want in ((rising.amp_values, ((1.0522718789890956e-17, 0.04321391826377225),
                                           (1.2861647541718112e-18, 0.0018674427317079889),
                                           (1.3895054640131335e-19, 8.06995175703046e-05),
                                           (4.513444733777876e-21, 3.450085955239339e-06))),
                      (rising.d_values, ((5.044860123424038e-18, 0.020782572977883235),
                                         (6.166202300025629e-19, 0.0008953049682291186),
                                         (6.661644054779794e-20, 3.8689410098364266e-05),
                                         (2.1638606724517613e-21, 1.654059317354401e-06)))):
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    overdamped = backflow_intervals(derive(SystemParams(lam=2.5)), pair, 100.0)
    assert overdamped.intervals == overdamped.amp_values == overdamped.d_values == ()
    with pytest.raises(ValidationError, match="needs 214047394 quarter-period pieces, "
                                              "over the budget of 4194304 per row"):
        backflow_intervals(derive(SystemParams(lam=0.1, omega_rabi=1e6)), pair, 184.2)


def test_flux_keeps_the_sign_of_a_past_the_search_horizon():
    # the horizon t2 of the search, the right end of {|p| <= 1}: past it G =
    # a + b e^{-2kt} + Re(C e^{(iw-k)t}) keeps the sign of a, on the figure
    # rows and on strongly driven rows, at 16 points per period of w; on
    # the figure rows t2 is no later than t_h = ln(2 (|b| + |C|)/|a|)/k,
    # from which |G - a| <= |a|/2
    params, t_maxes = _figure_rows()
    rng = np.random.default_rng(18)
    for _ in range(16):
        lam = 10.0 ** rng.uniform(-2.0, 0.0)
        params.append(SystemParams(lam=lam, omega_rabi=rng.uniform(0.0, 1e3),
                                   delta_qc=rng.uniform(0.0, 10.0)))
        t_maxes.append(max(100.0, min(5000.0, 2.0 * math.log(1e4) / lam)))
    flux = _Flux.of(_rows(params), np.ones(len(params), dtype=bool))
    t2 = _horizon(flux)
    figure = _take(flux, np.flatnonzero(flux.k[:584] > 0.0))
    t_h = np.log(2.0 * (np.abs(figure.b) + figure.abs_c) / np.abs(figure.a)) / figure.k
    assert np.all(_horizon(figure) <= t_h)
    assert np.count_nonzero(t2[:584] == np.inf) == 584 - t_h.size == 84  # k = 0
    cut = []
    for i, t_max in enumerate(t_maxes):
        a, w = flux.a[i], flux.z[i].imag
        cut.append(t2[i] < t_max)
        if not cut[-1]:
            continue
        t = np.linspace(t2[i], t_max, max(1000, math.ceil(8.0 * abs(w) * (t_max - t2[i])
                                                          / math.pi)))
        assert np.all(np.sign(_flux_form(_take(flux, [i]), t)[0]) == np.sign(a))
    assert sum(cut[:584]) == 381 and all(cut[584:])  # rows whose search is cut


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
    flux = _Flux.of(DerivedColumns.of(dps), np.ones(len(dps), dtype=bool))
    assert np.count_nonzero(flux.z.imag) == len(dps) - 3
    assert not any(col[-3:].any() for col in flux)
    for i, (dp, t_max) in enumerate(zip(dps[:-3], t_maxes)):
        t = np.linspace(0.0, t_max, 2001)
        A, dA = amplitude_grid(dp, t)
        c = _take(flux, [i])
        env = 2.0 * np.exp((c.k - dp.m_const.real) * t)
        e1 = np.exp(-c.k * t)
        size = env * (np.abs(c.a) + np.abs(c.b) * e1 * e1 + c.abs_c * e1)
        err = np.abs(2.0 * (dA * np.conj(A)).real - env * _flux_form(c, t)[0])
        assert np.all(err <= 1e-12 * size)


def test_figure_search_stops_at_the_closed_form_horizon(monkeypatch, tmp_path):
    # fig9 and fig10, one batched pass each over all their rows, send
    # 63,907 pieces to the piece builder, where a search of every row to its
    # horizon would send 187,006
    pieces, passes = [], []
    build, measures = nonmarkov._pieces, sweeps.blp_measures

    def counted(flux, t_max, owner, q):
        pieces.append(np.count_nonzero(owner[1:] == owner[:-1]))
        return build(flux, t_max, owner, q)

    def counted_measures(rows, t_maxes):
        passes.append(len(rows.eta))
        return measures(rows, t_maxes)

    monkeypatch.setattr(nonmarkov, "_pieces", counted)
    monkeypatch.setattr(sweeps, "blp_measures", counted_measures)
    for name in ("fig9", "fig10"):
        assert figure_preset(name, tmp_path)["n_failed"] == 0
    assert passes == [420, 164]
    assert sum(pieces) == 63_907 <= 0.35 * 187_006


def test_figure_rows_in_one_pass_read_as_the_per_curve_passes():
    # the 584 rows of fig9 and fig10 in one call equal the 24 calls of one
    # curve each bit for bit, on all five outputs
    table = _preset_table()
    curves = [_sweep_inputs(spec) for _, _, specs in table["fig9"] + table["fig10"]
              for spec in specs]
    batch = blp_measures(_rows([p for params, _ in curves for p in params]),
                         [t for _, t_maxes in curves for t in t_maxes])
    alone = [blp_measures(_rows(params), t_maxes) for params, t_maxes in curves]
    for k in range(4):
        assert np.concatenate([r[k] for r in alone]).tobytes() == batch[k].tobytes()
    assert [e for r in alone for e in r[4]] == batch[4] == [None] * 584


def test_stragglers_carried_across_small_slices_read_as_the_default_run(monkeypatch):
    # at _CHUNK 64 the 105 rows of fig9's first panel take many slices, and
    # the brackets carried across them many refinement batches; every
    # output equals the default run's
    params, t_maxes = _panel_inputs()
    default = blp_measures(_rows(params), t_maxes)
    slices, batches = [], []
    build, refine = nonmarkov._pieces, nonmarkov._refine

    def counted_pieces(flux, t_max, owner, q):
        slices.append(owner.size)
        return build(flux, t_max, owner, q)

    def counted_refine(flux, rows, todo, errors):
        batches.append(todo.lo.size)
        return refine(flux, rows, todo, errors)

    monkeypatch.setattr(nonmarkov, "_CHUNK", 64)
    monkeypatch.setattr(nonmarkov, "_pieces", counted_pieces)
    monkeypatch.setattr(nonmarkov, "_refine", counted_refine)
    small = blp_measures(_rows(params), t_maxes)
    assert len(slices) > len(batches) > 10
    for k in range(4):
        assert small[k].tobytes() == default[k].tobytes()
    assert small[4] == default[4] == [None] * 105


def test_strong_drive_backflow_falls_as_one_over_omega():
    # at lam 0.1 and the horizon of a sweep row, N omega rises toward ~0.0398
    # as the drive grows; |A| stays near 1, so both rows read truncated
    omegas = np.array([1e2, 3e2])
    n, _, _, truncated, errors = blp_measures(
        _rows([SystemParams(lam=0.1, omega_rabi=om) for om in omegas]),
        [2.0 * math.log(1e4) / 0.1] * 2)
    assert errors == [None, None] and truncated.all()
    scaled = n * omegas
    assert 0.0395 <= scaled[0] < scaled[1] <= 0.0400


def test_row_over_the_work_budget_fails_fast():
    # omega 1e6 at lam 0.1 takes 214,047,394 pieces to its t2 = 168, before
    # its horizon 184, over the budget of 2^22: the row fails before any
    # piece is made, and its neighbour reads as that row alone
    params = [SystemParams(lam=0.1, omega_rabi=om) for om in (1e6, 0.5)]
    t_maxes = [2.0 * math.log(1e4) / 0.1] * 2
    start = time.perf_counter()
    result = blp_measures(_rows(params), t_maxes)
    assert time.perf_counter() - start < 1.0
    assert "needs 214047394 quarter-period pieces" in str(result[4][0])
    assert math.isnan(result[0][0]) and not result[3][0]
    _assert_rows_match_one_row_view(params, t_maxes, result, skip={0})


def test_row_whose_piece_count_overflows_fails_alone():
    # |w| t_max overflows at a finite t_max: the row reads as over its
    # budget by its finite count to t2 = 2333, with no warning, and its
    # neighbour as alone
    p = SystemParams(lam=0.1, omega_rabi=1e100)
    params = [p, SystemParams(lam=0.1, omega_rabi=0.5)]
    t_maxes = [1e208, 184.2]  # |w| = 2e100
    result = blp_measures(_rows(params), t_maxes)
    assert "needs 2.96988524347899e+103 quarter-period pieces" in str(result[4][0])
    _assert_rows_match_one_row_view(params, t_maxes, result, skip={0})


def test_rows_whose_constants_overflow_fail_before_the_kernel():
    params = [SystemParams(lam=0.1, omega_rabi=om) for om in (1e160, 0.5, 1e300)]
    t_maxes = [2.0 * math.log(1e4) / 0.1] * 3
    result = blp_measures(_rows(params), t_maxes)
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
    # 1.94667688552e-05, the rounding of ~5000 |A| values away: |A| stays
    # within 1.3e-7 of 1, so an extremum time moved within its bracket can
    # round |A| there to the neighbouring double
    assert res.n_measure == pytest.approx(1.9466768816e-05, abs=1e-15)


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
    found = _brackets(zero, 100.0)
    assert found.lo.size == 0 and found.hi.size == 0


def test_grid_nodes_on_roots_of_the_slope_do_not_fail_the_row():
    # undriven resonant lam = 1: w = 1 and G = -1/2 + (cos t - sin t)/2, whose
    # roots are 2 pi m and 3 pi/2 + 2 pi m; the root 8 pi is the end node of
    # the last piece to t_max 8 pi, where the sign of G is rounding noise.  A
    # hair longer horizon moves the node off the root and gives the same
    # measure
    p = SystemParams(lam=1.0)
    on_nodes = blp_measure(p, 8.0 * math.pi)
    off_nodes = blp_measure(p, 8.0 * math.pi * (1.0 + 1e-12))
    assert abs(on_nodes.n_measure - off_nodes.n_measure) <= 1e-11
    assert abs(on_nodes.n_measure - 0.0451655478555) <= 1e-11
    assert len(on_nodes.intervals.intervals) == len(off_nodes.intervals.intervals) == 4


def _mp_constants(mpmath, p):
    """(eta, omega_d, M, q, F) of a parameter set in mpmath, from its exact
    inputs; q = gamma lam (1 + cos eta)^2 and F = sqrt(4 M^2 - 2 q)."""
    mpf = mpmath.mpf
    eta = mpmath.atan2(2 * mpf(p.omega_rabi), mpf(p.delta_qc))
    omega_d = mpmath.hypot(mpf(p.delta_qc), 2 * mpf(p.omega_rabi))
    M = mpmath.mpc(p.lam, -(omega_d + mpf(p.delta_cav) - mpf(p.delta_qc)))
    q = mpf(p.gamma) * mpf(p.lam) * (1 + mpmath.cos(eta)) ** 2
    return eta, omega_d, M, q, mpmath.sqrt(4 * M * M - 2 * q)


def test_derived_columns_match_mpmath():
    # the array derive against 40-digit arithmetic on random rows of a box
    # wider than the CLI's.  eta and omega_d are correctly rounded to 2 ulp.
    # Im M = -(omega_d + delta_cav - delta_qc) cancels, so its error is
    # bounded by the size of its terms; F, s+ and pref are held to the ulps
    # of their own steps, taken from the rounded M and eta, where the ulp of
    # cos(eta) weighs 1/r in r = 1 + cos(eta)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(26)
    params = [SystemParams(lam=10.0 ** rng.uniform(-2.0, 0.3), omega_rabi=rng.uniform(0.0, 3.0),
                           delta_qc=rng.uniform(-10.0, 10.0), delta_cav=rng.uniform(-1.0, 1.0),
                           gamma=10.0 ** rng.uniform(-1.0, 1.0))
              for _ in range(400)]
    rows = _rows(params)
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for i, p in enumerate(params):
            eta, omega_d, M, _, _ = _mp_constants(mpmath, p)
            assert abs(rows.eta[i] - eta) <= 2 * eps * abs(eta)
            assert abs(rows.omega_d[i] - omega_d) <= 2 * eps * omega_d
            assert rows.m_const[i].real == p.lam
            assert abs(rows.m_const[i].imag - mpmath.im(M)) <= 2 * eps * (
                omega_d + abs(p.delta_cav) + abs(p.delta_qc))
            Mf = mpmath.mpc(complex(rows.m_const[i]))
            r = 1 + mpmath.cos(mpmath.mpf(rows.eta[i]))
            q, q_tol = p.gamma * p.lam * r * r, 4 * eps * (1 + 1 / r)
            F = mpmath.sqrt(4 * Mf * Mf - 2 * q)
            assert abs(mpmath.mpc(complex(rows.f_const[i])) - F) <= 8 * eps * abs(F)
            assert abs(rows.pref[i] + q / 2) <= q_tol * q / 2
            s_plus = -Mf / 2 + F / 4
            assert abs(mpmath.mpc(complex(rows.s_plus[i])) - s_plus) <= (
                (q_tol + 16 * eps) * abs(s_plus))


def test_slow_rate_keeps_its_real_part_at_tiny_coupling():
    # s+ = pref/D, D = F + 2M, against 50-digit arithmetic down to lam
    # 1e-300.  Where Im M = 0 (undriven, or the cavity on the dressed line)
    # Re s+ = -lam/2: a complex quotient forms |D|^2, which left it 6.4e-10
    # off at lam 1e-210, 5.7e-3 off at 1e-215 and 0 below 1e-220.  Elsewhere
    # Re s+ ~ lam^2 leaves the normal range with lam, and rounds to 0 there
    mpmath = pytest.importorskip("mpmath")
    lams = [1e-150, 1e-210, 1e-215, 1e-220, 1e-300, 0.01]
    cases = [(0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.0, -1.0), (0.5, 0.0, 0.0),
             (0.5, -2.0, 0.0)]
    params = [SystemParams(lam=lam, omega_rabi=om, delta_qc=d, delta_cav=dc)
              for lam in lams for om, d, dc in cases]
    rows = _rows(params)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    with mpmath.workdps(50):
        for p, got in zip(params, rows.s_plus.tolist()):
            _, _, M, q, F = _mp_constants(mpmath, p)
            exact = -q / (2 * (F + 2 * M))
            if mpmath.im(M) == 0:
                assert mpmath.re(exact) == pytest.approx(-p.lam / 2, rel=1e-12)
            assert abs(got.real - mpmath.re(exact)) <= 16 * eps * abs(mpmath.re(exact)) + tiny
            assert abs(mpmath.mpc(got) - exact) <= 16 * eps * abs(exact)


def test_amplitude_at_tiny_coupling_stays_below_its_envelope(tmp_path):
    # lam 1e-300 at t = 1e300: |A| <= (|c+| + |c-|) exp(Re s+ t) ~ 0.607, the
    # constants from 50-digit arithmetic; with Re s+ flushed to 0 the row
    # read 0.747 as ok
    mpmath = pytest.importorskip("mpmath")
    out = tmp_path / "amp.csv"
    assert sweeps_main(["sweep", "--quantity", "amplitude", "--axis", "time",
                        "--axis-max", "1e300", "--points", "3", "--lambda", "1e-300",
                        "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    last = list(csv.DictReader(lines[1:]))[-1]
    assert last["status"] == "ok" and float(last["time"]) == 1e300
    with mpmath.workdps(50):
        _, _, M, q, F = _mp_constants(mpmath, SystemParams(lam=1e-300))
        s_plus = -q / (2 * (F + 2 * M))
        s_minus = -(F + 2 * M) / 4
        weights = abs(-2 * s_minus / F) + abs(2 * s_plus / F)
        envelope = float(weights * mpmath.exp(mpmath.re(s_plus) * mpmath.mpf(1e300)))
    assert envelope == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert float(last["abs_a"]) <= envelope * (1.0 + 1e-12)


def test_bracket_signs_agree_with_mpmath():
    mpmath = pytest.importorskip("mpmath")
    p = SystemParams(lam=0.01, omega_rabi=0.5, delta_qc=-100.0)
    dp = derive(p)
    flux = _flux(dp)
    # the horizon of a sweep row at lam = 0.01; with the textbook forms of c-
    # and s+, 13% of the brackets found here are wrong, all beyond t ~ 800
    t_max = 2.0 * math.log(1e4) / p.lam
    lo, hi = _brackets(flux, t_max)[:2]
    assert lo.size == 63_048
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        _, _, M, q, F = _mp_constants(mpmath, p)

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


def _table(a, b, C, k, w):
    """A one-row two-mode table with the given constants."""
    return _Flux(*(np.array([v]) for v in (a, b, complex(C), k, abs(C), math.hypot(k, w),
                                          complex(-k, w))))


def _near_double(eps, k=0.5, w=1.0, t_e=3.0, theta=0.3):
    """A table whose h = cos(wt + phi) + p has its one extremum on the piece
    around t_e, a maximum of eps: h'(t_e) = 0 and h(t_e) = eps at
    wt_e + phi = theta, with |C| = 1 (a, b < 0 like a row's, g(0) < 0)."""
    x = math.exp(k * t_e)
    s, d = eps - math.cos(theta), w * math.sin(theta) / k
    return _table((s + d) / (2.0 * x), x * (s - d) / 2.0, complex(math.cos(theta - w * t_e),
                                                               math.sin(theta - w * t_e)), k, w)


def _mp_sign_changes(mpmath, flux, t_max, per_period=64):
    """The sign changes of g = a e^{kt} + b e^{-kt} + Re(C e^{iwt}) on
    (0, t_max] of a one-row table, in 50-digit arithmetic from its exact
    constants: the changes between the points of a grid of ``per_period``
    points per period of w, and the pairs around each zero of g' between
    grid points where g there has the other sign.  g(0+) < 0.  Returns
    (root, g' there) pairs in time order."""
    mpf = mpmath.mpf
    a, b, k, w = (mpf(float(v[0])) for v in (flux.a, flux.b, flux.k, flux.z.imag))
    C = mpmath.mpc(complex(flux.C[0]))

    def g(t):
        return a * mpmath.exp(k * t) + b * mpmath.exp(-k * t) + mpmath.re(C * mpmath.expj(w * t))

    def dg(t):
        return (k * a * mpmath.exp(k * t) - k * b * mpmath.exp(-k * t)
                + mpmath.re(1j * w * C * mpmath.expj(w * t)))

    def root(f, lo, hi):
        return mpmath.findroot(f, (lo, hi), solver="illinois")

    n = math.ceil(per_period * abs(float(w)) * t_max / (2.0 * math.pi)) + 8
    grid = [mpf(t_max) * i / n for i in range(1, n + 1)]
    roots, lo, g_lo, d_lo = [], mpf(0), mpf(-1), dg(mpf(0))
    for hi in grid:
        g_hi, d_hi = g(hi), dg(hi)
        if g_lo * g_hi < 0:
            roots.append(root(g, lo, hi))
        elif d_lo * d_hi < 0:
            top = root(dg, lo, hi)
            if g(top) * g_hi < 0:
                roots += [root(g, lo, top), root(g, top, hi)]
        lo, g_lo, d_lo = hi, g_hi, d_hi
    return [(r, dg(r)) for r in roots]


@pytest.mark.parametrize("case", ["near double", "within rounding", "on a cut", "k = 0",
                                  "p's zero", "C = 0", "w < 0"])
def test_piece_builder_finds_every_sign_change_of_the_slope(case):
    # the brackets of the piece builder against an independent 50-digit
    # count of the sign changes of g on two-mode tables built for each case
    # of the lemma: one bracket per sign change, holding it (to the rounding
    # of a root on a cut), in its direction, and none elsewhere
    mpmath = pytest.importorskip("mpmath")
    t_max = 20.0
    if case == "near double":  # h's maximum 1e-9 on a piece: two roots 8e-5 apart
        flux = _near_double(1e-9)
    elif case == "within rounding":  # a maximum of 1e-20, below its bar: no root
        flux = _near_double(1e-20)
    elif case == "on a cut":  # cos = 1 and p = -1 at the cut t = 2: a simple root there
        b = -0.3
        flux = _table((-1.0 - b * math.exp(-0.6)) / math.exp(0.6), b,
                      complex(math.cos(-2.0), math.sin(-2.0)), 0.3, 1.0)
    elif case == "k = 0":  # p constant: the roots solve cos(wt + phi) = -p
        flux = _table(-0.3, -0.2, complex(math.cos(1.3), math.sin(1.3)), 0.0, 1.3)
    elif case == "p's zero":  # a > 0 > b: p changes sign at t = ln 25 / 0.1
        flux, t_max = _table(0.02, -0.5, complex(math.cos(2.0), math.sin(2.0)), 0.05, 2.0), 100.0
    elif case == "C = 0":  # g = -0.2 sinh(0.2 t) < 0
        flux = _table(-0.1, 0.1, 0j, 0.2, 1.0)
    else:  # the p's-zero table with w < 0 and C conjugated: the same g
        flux, t_max = _table(0.02, -0.5, complex(math.cos(2.0), -math.sin(2.0)), 0.05, -2.0), 100.0
    found = _brackets(flux, t_max)
    with mpmath.workdps(50):
        roots = _mp_sign_changes(mpmath, flux, t_max)
    if case == "within rounding":
        # the constants' rounding leaves a maximum of 7.5e-16, whose two roots
        # lie 3.9e-8 apart; the builder judges that piece by its ends
        assert len(roots) == 2 and abs(roots[0][0] - roots[1][0]) < 1e-7
        roots = []
    assert found.lo.size == len(roots) == {"near double": 2, "within rounding": 0,
                                           "C = 0": 0}.get(case, len(roots))
    assert roots or case in ("within rounding", "C = 0")
    tol = 1e-14 * t_max if case == "on a cut" else 0.0
    for lo, hi, rising, (r, slope) in zip(found.lo, found.hi, found.rising, roots):
        assert lo - tol <= r <= hi + tol and rising == (slope > 0)
    if case == "near double":  # split at a point of the piece where h > 0
        assert found.hi[0] == found.lo[1] and abs(found.hi[0] - 3.0) < 1e-4
    if case == "on a cut":
        assert min(abs(float(r) - 2.0) for r, _ in roots) < 1e-14
    if case == "p's zero":
        assert math.log(25.0) / 0.1 < _horizon(flux)[0] < t_max
    if case == "w < 0":
        twin = _brackets(_table(0.02, -0.5, complex(math.cos(2.0), math.sin(2.0)), 0.05, 2.0),
                         t_max)
        assert all(np.array_equal(x, y) for x, y in zip(found, twin))


def test_piece_builder_matches_the_kernel_on_long_horizons():
    # a row whose k is below 1e-5, so its horizon t2 lies far past t_max:
    # every piece to t_max 20,000 is searched; the 898 extrema equal a dense
    # kernel scan's, and the signs of h at the ends of sampled brackets agree
    # with 50-digit arithmetic on the row's exact inputs
    mpmath = pytest.importorskip("mpmath")
    p = SystemParams(lam=0.01, omega_rabi=0.01, delta_qc=10.0)
    dp, t_max = derive(p), 20_000.0
    flux = _flux(dp)
    assert flux.k[0] < 1e-5 and _horizon(flux)[0] > 1e5
    times, kinds, _ = _extrema(dp, t_max)
    ref_times, ref_kinds = _dense_extrema(dp, t_max, per_cycle=64)
    assert np.array_equal(kinds, ref_kinds) and times.size == 898
    np.testing.assert_allclose(times, ref_times, rtol=0, atol=1e-10)
    lo, hi = _brackets(flux, t_max)[:2]
    assert lo.size == times.size
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        _, _, M, q, F = _mp_constants(mpmath, p)

        def h_sign(t):
            t = mpf(float(t))
            e = mpmath.exp(-M * t / 2)
            A = e * (mpmath.cosh(F * t / 4) + 2 * M / F * mpmath.sinh(F * t / 4))
            dA = -q / (2 * F) * e * mpmath.sinh(F * t / 4)
            return mpmath.sign(mpmath.re(dA * mpmath.conj(A)))

        for i in np.random.default_rng(31).choice(lo.size, 30, replace=False):
            assert h_sign(lo[i]) == -h_sign(hi[i]) != 0


# rows whose |A| underflows before their horizon, so that Re(dA conj A)
# taken with the envelope read 0 at both ends of late brackets: (lam, omega,
# delta_qc) and the horizons at which their rows once failed
_LONG_HORIZON_ROWS = [((0.5, 0.0, 0.0), (1500.0, 2000.0, 5000.0)),
                      ((1.0, 0.0, 0.0), (1000.0, 2000.0, 5000.0)),
                      ((0.3, 0.0, 0.0), (2000.0, 5000.0)),
                      ((0.5, 0.01, 1.0), (1500.0, 2000.0, 5000.0))]


def test_rows_past_the_underflow_of_a_read_as_at_a_short_horizon():
    # the extrema past the underflow are confirmed by the envelope-free sign
    # and add nothing to N (|A| = 0 there, its limit): N is that of t_max 1000
    for (lam, omega, delta), horizons in _LONG_HORIZON_ROWS:
        p = SystemParams(lam=lam, omega_rabi=omega, delta_qc=delta)
        (ref,), *_, ref_errors = blp_measures(_rows([p]), [1000.0])
        n, _, residual, truncated, errors = blp_measures(_rows([p] * len(horizons)),
                                                         list(horizons))
        assert ref_errors == [None] and errors == [None] * len(horizons)
        assert np.all(np.abs(n - ref) <= 1e-11 * ref) and not truncated.any()
        assert np.all(residual < 1e-100)
        intervals = backflow_intervals(derive(p), antipodal_pair(0.5), horizons[-1])
        assert intervals.amp_values[-1][1] < 1e-250


def test_bisection_reads_the_envelope_free_sign(monkeypatch):
    # no Newton steps: every bracket of a long-horizon row goes to the
    # bisection fallback, whose kernel signs past the underflow of |A| must
    # hold as well; its extrema match those the Newton rounds confirm
    dp = derive(SystemParams(lam=0.5, omega_rabi=0.0))
    times, kinds, amps = _extrema(dp, 3000.0)
    assert times[-1] > 2500.0 and amps[-1] == 0.0
    halvings = []
    bisect = nonmarkov._bisect

    def counted(rows, todo, errors):
        halvings.append(todo.lo.size)
        return bisect(rows, todo, errors)

    monkeypatch.setattr(nonmarkov, "_bisect", counted)
    monkeypatch.setattr(nonmarkov, "_NEWTON_STEPS", 0)
    slow_times, slow_kinds, slow_amps = _extrema(dp, 3000.0)
    assert halvings == [times.size]
    assert np.array_equal(kinds, slow_kinds)
    assert np.max(np.abs(times - slow_times)) < 1e-10
    # |A| moves by at most |dA/dt| < 1 across the 1e-10 of a bracket
    assert np.max(np.abs(amps - slow_amps)) < 1e-10


def test_inconsistent_brackets_raise(monkeypatch):
    dp = derive(SystemParams(lam=0.01, omega_rabi=2.0, delta_qc=1.0))
    flux = _flux(dp)
    lo, hi = _brackets(flux, 100.0)[:2]
    # a bracket whose ends straddle no sign change of h
    with pytest.raises(ValidationError, match="no sign change"):
        _refine_row(dp, flux, np.append(lo, hi[0]), np.append(hi, lo[1]))
    # a two-mode form of the opposite sign: same roots, every direction wrong
    flipped = flux._replace(a=-flux.a, b=-flux.b, C=-flux.C)
    with pytest.raises(ValidationError, match="disagree on the direction"):
        _refine_row(dp, flipped, lo, hi)
    # every other bracket of the piece builder lost: two minima in a row
    real = nonmarkov._pieces

    def every_other(f, t_max, owner, q):
        found = real(f, t_max, owner, q)
        return _take(found, np.argsort(found.lo)[::2])

    monkeypatch.setattr(nonmarkov, "_pieces", every_other)
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
    def test_long_horizons_keep_the_kernel_signs_over_parameter_box():
        pytest.skip("needs hypothesis (the test extra)")
else:
    @settings(max_examples=40)
    @given(log_lam=st.floats(-2.0, math.log10(2.0)), omega=st.floats(0.0, 2.0),
           delta_qc=st.floats(-10.0, 10.0), t_max=st.floats(100.0, 1e4))
    def test_long_horizons_keep_the_kernel_signs_over_parameter_box(log_lam, omega,
                                                                     delta_qc, t_max):
        # every row of the CLI's box reads ok up to t_max 1e4, where |A| has
        # long underflowed on most of them
        p = SystemParams(lam=10.0 ** log_lam, omega_rabi=omega, delta_qc=delta_qc)
        assert blp_measures(_rows([p]), [t_max])[4] == [None]


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
