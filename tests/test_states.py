import math

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # only the property tests need hypothesis (the `test` extra)
    given = None

from drivenqubit import (BlochVector, QubitState, SystemParams,
                         ValidationError, antipodal_pair, apply_channel, coherence_l1,
                         derive, evolve_superposition, trace_distance,
                         amplitude_closed_form)


def random_state(rng) -> QubitState:
    v = rng.normal(size=3)
    v *= rng.uniform(0, 1) / np.linalg.norm(v)
    return QubitState.from_bloch(BlochVector(*v))


def random_params(rng) -> SystemParams:
    return SystemParams(
        lam=float(10 ** rng.uniform(-2, 0.5)),
        omega_rabi=float(rng.uniform(0, 3)),
        delta_qc=float(rng.uniform(-10, 10)),
        delta_cav=float(rng.uniform(-1, 1)),
        theta=float(rng.uniform(0, math.pi / 2)),
    )


def test_initial_plus_state():
    dp = derive(SystemParams(lam=0.1, omega_rabi=0.5))
    st = evolve_superposition(dp, math.pi / 4, 0.0)
    assert np.allclose(st.rho, 0.5 * np.ones((2, 2)), atol=1e-15)


def test_dark_state_is_stationary():
    dp = derive(SystemParams(lam=0.1, omega_rabi=0.5))
    for t in (0.0, 1.0, 10.0, 40.0):
        st = evolve_superposition(dp, math.pi / 2, t)
        assert np.allclose(st.rho, np.diag([0.0, 1.0]), atol=1e-12)


def test_pole_state_stays_diagonal():
    dp = derive(SystemParams(lam=0.05, omega_rabi=1.0))
    for t in (0.5, 5.0):
        st = evolve_superposition(dp, 0.0, t)
        x = abs(amplitude_closed_form(dp, t)) ** 2
        assert np.allclose(st.rho, np.diag([x, 1 - x]), atol=1e-14)


def test_channel_consistent_with_superposition():
    dp = derive(SystemParams(lam=0.02, omega_rabi=0.7, delta_qc=0.3))
    init = QubitState.from_superposition(math.pi / 6)
    direct = evolve_superposition(dp, math.pi / 6, 2.0)
    via_channel = apply_channel(dp, init, 2.0)
    assert direct.rho.tobytes() == via_channel.rho.tobytes()


def test_channel_dark_state_fixed_point():
    dp = derive(SystemParams(lam=0.02, omega_rabi=0.7))
    dark = QubitState(np.diag([0.0, 1.0 + 0j]))
    for t in (0.0, 3.0, 30.0):
        assert np.allclose(apply_channel(dp, dark, t).rho, dark.rho, atol=1e-15)


def test_channel_linearity_on_maximally_mixed():
    dp = derive(SystemParams(lam=0.02, omega_rabi=0.4, delta_qc=1.0))
    mixed = QubitState(0.5 * np.eye(2, dtype=complex))
    t = 3.0
    out = apply_channel(dp, mixed, t)
    avg = 0.5 * (evolve_superposition(dp, 0.0, t).rho
                 + evolve_superposition(dp, math.pi / 2, t).rho)
    assert np.max(np.abs(out.rho - avg)) < 1e-14
    x = abs(amplitude_closed_form(dp, t)) ** 2
    assert out.rho[0, 0].real == pytest.approx(x / 2, abs=1e-15)


def test_channel_rejects_invalid_input():
    with pytest.raises(ValidationError):
        QubitState(np.array([[1.2, 0], [0, -0.2]], dtype=complex))
    with pytest.raises(ValidationError):
        QubitState(np.array([[0.5, 0.9], [0.9, 0.5]], dtype=complex))


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)])
def test_state_rejects_non_finite_rho(value):
    rho = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    rho[0, 1] = rho[1, 0] = value
    with pytest.raises(ValidationError, match="rho must be finite"):
        QubitState(rho)


def test_channel_preserves_state_invariants():
    rng = np.random.default_rng(23)
    for _ in range(100):
        dp = derive(random_params(rng))
        st = apply_channel(dp, random_state(rng), float(rng.uniform(0, 40)))
        assert abs(np.trace(st.rho) - 1.0) <= 1e-12
        assert np.allclose(st.rho, st.rho.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(st.rho).min() >= -1e-12


def test_trace_distance_basics():
    a = QubitState(np.diag([1.0 + 0j, 0.0]))
    b = QubitState(np.diag([0.0j, 1.0]))
    assert trace_distance(a, a) == 0.0
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-15)


def test_trace_distance_contractivity():
    rng = np.random.default_rng(29)
    for _ in range(60):
        dp = derive(random_params(rng))
        s1, s2 = random_state(rng), random_state(rng)
        t = float(rng.uniform(0, 30))
        d0 = trace_distance(s1, s2)
        dt = trace_distance(apply_channel(dp, s1, t), apply_channel(dp, s2, t))
        assert dt <= d0 + 1e-12


def test_trace_distance_difference_dynamics():
    # D(t) = sqrt(dpop^2 |A|^4 + |dcoh|^2 |A|^2) from the channel structure
    rng = np.random.default_rng(31)
    for _ in range(40):
        dp = derive(random_params(rng))
        s1, s2 = random_state(rng), random_state(rng)
        t = float(rng.uniform(0, 20))
        a = amplitude_closed_form(dp, t)
        dpop = (s1.rho[0, 0] - s2.rho[0, 0]).real
        dcoh = s1.rho[0, 1] - s2.rho[0, 1]
        predicted = math.sqrt(dpop**2 * abs(a) ** 4 + abs(dcoh) ** 2 * abs(a) ** 2)
        actual = trace_distance(apply_channel(dp, s1, t), apply_channel(dp, s2, t))
        assert actual == pytest.approx(predicted, abs=1e-12)


def test_equatorial_pair_distance_scales_with_amplitude():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.3))
    plus = QubitState.from_bloch(BlochVector(1.0, 0.0, 0.0))
    minus = QubitState.from_bloch(BlochVector(-1.0, 0.0, 0.0))
    for t in (0.0, 2.0, 11.0, 27.0):
        d = trace_distance(apply_channel(dp, plus, t), apply_channel(dp, minus, t))
        assert d == pytest.approx(abs(amplitude_closed_form(dp, t)), abs=1e-13)


def test_coherence_l1():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.5))
    diag = QubitState(np.diag([0.3 + 0j, 0.7]))
    assert coherence_l1(diag) == 0.0
    t = 4.0
    a = abs(amplitude_closed_form(dp, t))
    assert coherence_l1(evolve_superposition(dp, math.pi / 4, t)) == pytest.approx(a, abs=1e-14)
    assert coherence_l1(evolve_superposition(dp, math.pi / 6, t)) == pytest.approx(
        math.sin(math.pi / 3) * a, abs=1e-14)


def test_bloch_round_trip():
    rng = np.random.default_rng(37)
    for _ in range(25):
        v = rng.normal(size=3)
        v *= rng.uniform(0, 1) / np.linalg.norm(v)
        bv = BlochVector(*v)
        back = QubitState.from_bloch(bv).to_bloch()
        assert (back.x, back.y, back.z) == pytest.approx((bv.x, bv.y, bv.z), abs=1e-14)
    with pytest.raises(ValidationError):
        BlochVector(1.0, 1.0, 1.0)
    for bad in ((math.nan, 0.0, 0.0), (0.0, math.inf, 0.0)):
        with pytest.raises(ValidationError):
            BlochVector(*bad)
    with pytest.raises(ValidationError):
        antipodal_pair(math.nan)
    dp = derive(SystemParams(lam=0.1))
    with pytest.raises(ValidationError, match="finite and >= 0"):
        evolve_superposition(dp, 0.3, math.nan)


if given is None:
    def test_channel_outputs_are_states_over_parameter_box():
        pytest.skip("needs hypothesis (the test extra)")

    def test_trace_distance_lies_in_unit_interval_over_parameter_box():
        pytest.skip("needs hypothesis (the test extra)")
else:
    # the validated parameter box: lambda in [0.01, 1] (log scale), omega in
    # [0, 2], delta in [0, 10], theta in [0, pi/2]; times up to 50
    box = dict(log_lam=st.floats(-2.0, 0.0), omega=st.floats(0.0, 2.0),
               delta_qc=st.floats(0.0, 10.0), theta=st.floats(0.0, math.pi / 2),
               t=st.floats(0.0, 50.0))
    # initial states anywhere in the Bloch ball
    bloch = st.builds(lambda r, polar, azimuth: QubitState.from_bloch(BlochVector(
        *(r * c for c in (math.sin(polar) * math.cos(azimuth),
                          math.sin(polar) * math.sin(azimuth), math.cos(polar))))),
        st.floats(0.0, 1.0), st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi))

    def _dp(log_lam, omega, delta_qc, theta):
        return derive(SystemParams(lam=10.0 ** log_lam, omega_rabi=omega,
                                   delta_qc=delta_qc, theta=theta))

    @settings(max_examples=100)
    @given(state=bloch, **box)
    def test_channel_outputs_are_states_over_parameter_box(state, log_lam, omega,
                                                           delta_qc, theta, t):
        dp = _dp(log_lam, omega, delta_qc, theta)
        for initial in (state, QubitState.from_superposition(theta)):
            rho = apply_channel(dp, initial, t).rho
            assert np.allclose(rho, rho.conj().T, rtol=0, atol=1e-12)
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-12

    @settings(max_examples=100)
    @given(s1=bloch, s2=bloch, **box)
    def test_trace_distance_lies_in_unit_interval_over_parameter_box(
            s1, s2, log_lam, omega, delta_qc, theta, t):
        dp = _dp(log_lam, omega, delta_qc, theta)
        antipode = QubitState.from_bloch(s1.to_bloch().antipode())
        for a, b in ((s1, s2), (s1, antipode),
                     (apply_channel(dp, s1, t), apply_channel(dp, s2, t))):
            assert 0.0 <= trace_distance(a, b) <= 1.0
