import cmath
import math
from dataclasses import dataclass, fields

import numpy as np
import pytest
from scipy.integrate import quad

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # only the property test needs hypothesis (the `test` extra)
    given = None

from drivenqubit import DerivedParams, SystemParams, ValidationError, derive
from drivenqubit.params import derive_columns, fail, failed
from drivenqubit.quadrature import gauss_kronrod


def test_derive_resonant_drive():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.1, delta_qc=0.0))
    assert dp.omega_d == pytest.approx(0.2, abs=1e-15)
    assert dp.eta == pytest.approx(math.pi / 2, abs=1e-15)


def test_derive_undriven_resonant_constants():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.0))
    assert dp.eta == 0.0
    assert dp.m_const == pytest.approx(0.01 + 0j, abs=1e-15)
    # 4 M^2 - 8 gamma lam < 0: purely imaginary root
    assert dp.f_const.real == pytest.approx(0.0, abs=1e-15)
    assert dp.f_const.imag == pytest.approx(math.sqrt(8 * 0.01 - 4 * 0.01**2), rel=1e-12)


def test_derive_detuned():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.1, delta_qc=0.1))
    assert dp.omega_d == pytest.approx(math.sqrt(0.01 + 0.04), rel=1e-12)


def test_derive_rejects_bad_rates():
    with pytest.raises(ValidationError):
        SystemParams(lam=0.0)
    with pytest.raises(ValidationError):
        SystemParams(lam=0.1, gamma=-1.0)
    with pytest.raises(ValidationError):
        SystemParams(lam=0.1, omega_rabi=-0.5)
    with pytest.raises(ValidationError):
        SystemParams(lam=0.1, theta=2.0)
    for name in ("lam", "omega_rabi", "delta_qc", "delta_cav", "theta", "gamma"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError, match="finite"):
                SystemParams(**{"lam": 0.1, name: bad})


def test_re_m_equals_lam_everywhere():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = SystemParams(
            lam=float(10 ** rng.uniform(-2, 1)),
            omega_rabi=float(rng.uniform(0, 5)),
            delta_qc=float(rng.uniform(-10, 10)),
            delta_cav=float(rng.uniform(-2, 2)),
        )
        assert derive(p).m_const.real == p.lam


def test_omega_d_zero_iff_undriven_resonant():
    assert derive(SystemParams(lam=0.1)).omega_d == 0.0
    assert "the dressed period is undefined" in " ".join(derive(SystemParams(lam=0.1)).flags())
    assert derive(SystemParams(lam=0.1, omega_rabi=1e-9)).omega_d > 0
    assert derive(SystemParams(lam=0.1, delta_qc=1e-9)).omega_d > 0


def test_overflow_rule_at_resonance():
    # F = sqrt(4 M^2 - ...) with |M| ~ 2 omega: 4 M^2 overflows near 3.35e153
    assert derive(SystemParams(lam=0.1, omega_rabi=3.3e153)).overflow() is None
    for omega in (3.4e153, 1e160, 1e308):
        dp = derive(SystemParams(lam=0.1, omega_rabi=omega))
        assert dp.overflow().startswith("the model constants overflow")
        assert dp.overflow() in dp.flags()


def test_regime_warnings():
    assert SystemParams(lam=0.01).warnings() == ()
    assert any("lam" in w for w in SystemParams(lam=2.0).warnings())
    assert any("omega" in w for w in SystemParams(lam=0.01, omega_rabi=20.0).warnings())
    assert any("delta" in w for w in SystemParams(lam=0.01, delta_qc=-20.0).warnings())


@dataclass(frozen=True)
class SpectralDensity:
    """Lorentzian reservoir profile in offset coordinates (omega0 - omega_k).

    Documents the model: the package computes only with the exponential
    memory ``kernel`` it implies, through M; the tests below check they
    agree.
    """

    center_offset: float
    width: float
    strength: float

    def __post_init__(self):
        if not (self.width > 0):
            raise ValidationError(f"width must be > 0, got {self.width}")
        if not (self.strength > 0):
            raise ValidationError(f"strength must be > 0, got {self.strength}")

    @classmethod
    def from_params(cls, params: SystemParams) -> "SpectralDensity":
        return cls(center_offset=params.delta_cav, width=params.lam,
                   strength=params.gamma)

    @property
    def total_weight(self) -> float:
        """Integral of the profile over the whole real axis: gamma*lam/2."""
        return self.strength * self.width / 2.0


def spectral_density(sd: SpectralDensity, omega_offset: float) -> float:
    """Spectral weight at a mode offset omega_offset = omega0 - omega_k.

    J = gamma*lam^2 / (2*pi*((omega_offset - delta)^2 + lam^2)); the peak
    value gamma/(2*pi) sits at omega_offset = delta.
    """
    d = omega_offset - sd.center_offset
    return sd.strength * sd.width**2 / (2.0 * math.pi * (d * d + sd.width**2))


def kernel(dp: DerivedParams, dt: float) -> complex:
    """Two-time reservoir correlation function at delay dt >= 0.

    Exponential form (gamma*lam/2) * exp(-m_const*dt); its dt = 0 value
    equals the total spectral weight gamma*lam/2.  The memory kernel that
    the closed form and the ODE oracle solve.
    """
    if dt < 0:
        raise ValidationError(f"kernel delay must be >= 0, got {dt}")
    p = dp.params
    return (p.gamma * p.lam / 2.0) * cmath.exp(-dp.m_const * dt)


def test_spectral_density_peak_and_halfwidth():
    sd = SpectralDensity(center_offset=0.0, width=0.5, strength=1.0)
    assert spectral_density(sd, 0.0) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)
    assert spectral_density(sd, 0.5) == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)
    shifted = SpectralDensity(center_offset=0.3, width=0.5, strength=1.0)
    assert spectral_density(shifted, 0.3) == pytest.approx(1.0 / (2 * math.pi), rel=1e-14)


def test_spectral_density_positive():
    sd = SpectralDensity(center_offset=-0.2, width=0.05, strength=2.0)
    for w in np.linspace(-50, 50, 101):
        assert spectral_density(sd, float(w)) > 0.0


def test_spectral_density_total_weight_by_quadrature():
    sd = SpectralDensity(center_offset=0.0, width=0.03, strength=1.0)
    val, _ = quad(lambda w: spectral_density(sd, w), -np.inf, np.inf)
    assert val == pytest.approx(sd.total_weight, rel=1e-6)
    # finite window of +-200 widths captures all but ~0.3%
    win, _ = quad(lambda w: spectral_density(sd, w), -200 * sd.width, 200 * sd.width,
                  limit=200)
    assert win == pytest.approx(sd.total_weight, rel=1e-2)


def test_spectral_weight_matches_kernel_at_zero_delay():
    p = SystemParams(lam=0.25, omega_rabi=0.7, delta_qc=0.4, delta_cav=0.1)
    dp = derive(p)
    sd = SpectralDensity.from_params(p)
    val, _, _ = gauss_kronrod(
        lambda w: spectral_density(sd, w), -400 * p.lam, 400 * p.lam, tol=1e-12)
    # the missing Lorentzian tails are ~1/(200 pi) of the total
    assert val == pytest.approx(kernel(dp, 0.0).real, rel=2e-3)
    assert kernel(dp, 0.0) == pytest.approx(sd.total_weight + 0j, rel=1e-12)


def test_kernel_decay_and_monotonicity():
    dp = derive(SystemParams(lam=0.01, omega_rabi=0.0))
    assert kernel(dp, 0.0) == pytest.approx(0.005 + 0j, rel=1e-14)
    assert kernel(dp, 1.0) == pytest.approx(0.005 * math.exp(-0.01) + 0j, rel=1e-13)
    dp2 = derive(SystemParams(lam=0.3, omega_rabi=1.3, delta_qc=-0.4, delta_cav=0.2))
    mags = [abs(kernel(dp2, dt)) for dt in np.linspace(0, 20, 200)]
    assert all(b <= a + 1e-15 for a, b in zip(mags, mags[1:]))
    with pytest.raises(ValidationError):
        kernel(dp, -0.1)


def _mpmath_s_plus(lam, omega, delta_qc, delta_cav=0.0, gamma=1.0):
    """s+ at 50 digits from the fields alone, as -q/(2(F + 2M)) with q =
    gamma lam (1 + cos eta)^2: nothing large cancels there."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        lam, omega, delta_qc, delta_cav, gamma = map(
            mpmath.mpf, (lam, omega, delta_qc, delta_cav, gamma))
        omega_d = mpmath.sqrt(delta_qc ** 2 + 4 * omega ** 2)
        q = gamma * lam * (1 + mpmath.cos(mpmath.atan2(2 * omega, delta_qc))) ** 2
        M = mpmath.mpc(lam, -(omega_d + delta_cav - delta_qc))
        F = mpmath.sqrt(4 * M * M - 2 * q)
        return -q / (2 * (F + 2 * M))


@pytest.mark.parametrize("lam,omega,delta_qc", [
    (0.01, 0.01, -10.0), (0.01, 1e-9, -1.0), (0.01, 0.1, -1.0), (1e-3, 1e-5, -3.0),
    (5.52, 1e8, -4.178e11), (0.3, 2.0, -0.5)])
def test_negative_detuning_keeps_the_coupling_at_weak_drive(lam, omega, delta_qc):
    # 1 + cos eta = 1 + delta_qc/omega_d cancels for delta_qc < 0 when the
    # drive is weak: at omega 1e-9, delta -1 it rounded to 0, a decoupled row
    # where Re s+ is -1.25e-41
    ref = float(_mpmath_s_plus(lam, omega, delta_qc).real)
    s_plus = derive(SystemParams(lam=lam, omega_rabi=omega, delta_qc=delta_qc)).s_plus
    assert ref < 0.0
    assert s_plus.real == pytest.approx(ref, rel=1e-14, abs=0)


def test_fail_keeps_each_rows_first_error_named_by_its_first_bad_entry():
    errors = [None, ValidationError("earlier"), None, None]
    owner = np.array([0, 0, 1, 2, 0, 2])
    bad = np.array([False, True, True, True, True, True])
    fail(errors, owner, bad, lambda i: ValidationError(f"entry {i}"))
    # row 0's first bad entry is 1, row 1 keeps its error, row 3 has none
    assert [str(e) if e else None for e in errors] == ["entry 1", "earlier", "entry 3", None]
    fail(errors, owner, np.ones(6, dtype=bool), lambda i: ValidationError("later"))
    assert [str(e) if e else None for e in errors] == ["entry 1", "earlier", "entry 3", None]
    assert failed(errors).tolist() == [True, True, True, False]
    assert failed([]).dtype == bool and failed([]).size == 0


if given is None:
    def test_batch_rows_are_the_one_row_derive_bit_for_bit():
        pytest.skip("needs hypothesis (the test extra)")
else:
    _FINITE = {"allow_nan": False, "allow_infinity": False}

    @settings(max_examples=60)
    @given(st.lists(st.tuples(
        st.floats(1e-3, 1e3), st.one_of(st.floats(0.0, 10.0), st.floats(1e150, 1e300)),
        st.floats(-1e3, 1e3, **_FINITE), st.floats(-1e3, 1e3, **_FINITE),
        st.floats(1e-3, 1e3)), min_size=1, max_size=40))
    def test_batch_rows_are_the_one_row_derive_bit_for_bit(sets):
        # every field of every row of one array derive, overflowing rows
        # included, has the bits of derive on that row alone, and the
        # masks read as the one-row checks
        rows = derive_columns(*np.array(sets).T)
        for i, (lam, omega, delta_qc, delta_cav, gamma) in enumerate(sets):
            p = SystemParams(lam=lam, omega_rabi=omega, delta_qc=delta_qc,
                             delta_cav=delta_cav, gamma=gamma)
            one, row = derive(p), rows.row(i, p)
            for f in fields(DerivedParams)[:-1]:
                a, b = getattr(one, f.name), getattr(row, f.name)
                assert np.array([a]).tobytes() == np.array([b]).tobytes(), f.name
            assert rows.overflow[i] == (one.overflow() is not None)
            assert rows.no_period[i] == (one.no_period() is not None)
