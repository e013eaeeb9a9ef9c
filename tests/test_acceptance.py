"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.

Two narrowly-scoped checks fail by honest necessity and are kept failing on
purpose; each carries the mathematical reason in its assertion message:

* criterion 3 (detuning ordering): free dressed-state precession at
  omega_d = sqrt(delta^2 + 4 omega^2) lets the three-time combination reach
  its quantum maximum 3/2 at small steps for ANY detuning, so the maximal
  violation grows, rather than shrinks, with delta.

* criterion 5 (drive non-monotonicity): the undriven resonant qubit has
  omega_d = 0, hence no dressed period and no azimuthal precession; every
  consistent limit assigns it zero kinematic phase, which cannot exceed the
  weakly driven value.
"""

import math
import time

import numpy as np
import pytest

from drivenqubit import (SystemParams, apply_channel, blp_measure, derive,
                         eigensystem, evolve_superposition, geometric_phase,
                         geometric_phase_detailed, info_flux, lgi_c3,
                         quantum_witness, witness_probabilities,
                         witness_series)
from drivenqubit.amplitude import (amplitude_oracle_ode,
                                   amplitude_trajectory, decay_rate,
                                   decay_rate_grid)
from drivenqubit.states import BlochVector, QubitState


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


# -------------------------------------------------------------------- 1 ---

def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for lam in (0.01, 0.1, 1.0):
        for om in (0.0, 0.5, 2.0):
            for dq in (0.0, 1.0, 10.0):
                params = SystemParams(lam=lam, omega_rabi=om, delta_qc=dq)
                ode = amplitude_oracle_ode(params, 30.0)
                closed = amplitude_trajectory(derive(params), ode.times)
                worst = max(worst, float(np.max(np.abs(closed.values - ode.values))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    assert _report("criterion 1 (closed form vs integration oracle)", ok,
                   f"max |closed - ode| = {worst:.3e} over 27-point grid, "
                   f"runtime {elapsed:.1f}s"), worst


# -------------------------------------------------------------------- 2 ---

def test_criterion_2_state_sanity():
    rng = np.random.default_rng(20260810)
    worst_trace = worst_herm = worst_eig = 0.0
    for k in range(1000):
        params = SystemParams(
            lam=float(10 ** rng.uniform(-2, 0.5)),
            omega_rabi=float(rng.uniform(0, 3)),
            delta_qc=float(rng.uniform(-10, 10)),
            delta_cav=float(rng.uniform(-1, 1)),
        )
        dp = derive(params)
        t = float(rng.uniform(0, 50))
        if k % 2 == 0:
            rho = evolve_superposition(dp, float(rng.uniform(0, math.pi / 2)), t).rho
        else:
            v = rng.normal(size=3)
            v *= rng.uniform(0, 1) / np.linalg.norm(v)
            rho = apply_channel(dp, QubitState.from_bloch(BlochVector(*v)), t).rho
        worst_trace = max(worst_trace, abs(np.trace(rho) - 1.0))
        worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(rho).min()))
    ok = worst_trace <= 1e-12 and worst_herm <= 1e-12 and worst_eig >= -1e-12
    assert _report("criterion 2 (state sanity, 1000 random evolutions)", ok,
                   f"trace dev {worst_trace:.1e}, hermiticity dev {worst_herm:.1e}, "
                   f"min eigenvalue {worst_eig:.1e}")


# -------------------------------------------------------------------- 3 ---

def test_criterion_3_lgi_boundary_and_violation():
    taus = np.linspace(1e-3, 4.0, 2000)
    dp_strong = derive(SystemParams(lam=0.01, omega_rabi=2.0))
    r3, r4 = lgi_c3(dp_strong, 0.0, 0.0), lgi_c3(dp_strong, 0.0, 0.0)
    boundary = abs(r3.c3 - 1.0) <= 1e-12 and abs(r4.c4 - 2.0) <= 1e-12
    max3 = max(lgi_c3(dp_strong, 0.0, float(t)).c3 for t in taus)
    max4 = max(lgi_c3(dp_strong, 0.0, float(t)).c4 for t in taus)
    dp_off = derive(SystemParams(lam=0.01, omega_rabi=0.0))
    max3_off = max(lgi_c3(dp_off, 0.0, float(t)).c3 for t in taus)
    ok = boundary and max3 > 1.0 and max4 > 2.0 and max3_off <= 1.02
    assert _report("criterion 3 (boundary + violation + undriven negligible)", ok,
                   f"c3(0)={r3.c3}, c4(0)={r4.c4}, strong-drive max c3={max3:.4f}, "
                   f"max c4={max4:.4f}, undriven max c3={max3_off:.6f}")


def test_criterion_3_detuning_ordering():
    taus = np.linspace(1e-3, 4.0, 2000)
    maxima = []
    for dq in (0.0, 0.5, 1.0, 10.0):
        dp = derive(SystemParams(lam=0.01, omega_rabi=0.1, delta_qc=dq))
        maxima.append(max(lgi_c3(dp, 0.0, float(t)).c3 for t in taus))
    ok = all(b <= a + 1e-12 for a, b in zip(maxima, maxima[1:]))
    _report("criterion 3 (max c3 nonincreasing in detuning)", ok,
            "max c3 over the window = "
            + ", ".join(f"{m:.4f}" for m in maxima)
            + " for delta = 0, 0.5, 1, 10")
    assert ok, (
        "maximal three-time violation grows with detuning: detuning raises the "
        "dressed precession frequency, and free precession saturates the "
        "quantum bound 3/2 within the step window regardless of damping; "
        f"observed maxima {maxima} for delta = (0, 0.5, 1, 10)"
    )


# -------------------------------------------------------------------- 4 ---

def test_criterion_4_witness():
    rng = np.random.default_rng(77)
    worst_route = 0.0
    for _ in range(200):
        params = SystemParams(
            lam=float(10 ** rng.uniform(-2, 0.4)),
            omega_rabi=float(rng.uniform(0, 3)),
            delta_qc=float(rng.uniform(-3, 3)),
            delta_cav=float(rng.uniform(-1, 1)),
        )
        dp = derive(params)
        theta = float(rng.uniform(0, math.pi / 2))
        tau = float(rng.uniform(0, 30))
        p_free, p_blind = witness_probabilities(dp, theta, tau)
        worst_route = max(worst_route, abs(abs(p_free - p_blind)
                                           - quantum_witness(dp, theta, tau).w_q))

    dp = derive(SystemParams(lam=0.01, omega_rabi=0.0))
    zero_theta = max(quantum_witness(dp, 0.0, float(t)).w_q
                     for t in np.linspace(0, 30, 301))

    taus = np.linspace(0.0, 120.0, 24001)
    w, env = witness_series(dp, math.pi / 4, taus)
    peaks = [k for k in range(1, len(w) - 1) if w[k] > w[k - 1] and w[k] > w[k + 1]]
    worst_peak = max(abs(w[k] - env[k]) for k in peaks)
    ok = worst_route <= 1e-12 and zero_theta == 0.0 and worst_peak <= 5e-3
    assert _report("criterion 4 (witness routes + envelope coincidence)", ok,
                   f"route dev {worst_route:.2e} (200 cases), theta=0 max w_q "
                   f"{zero_theta}, peak-envelope dev {worst_peak:.2e} "
                   f"({len(peaks)} peaks)")


# -------------------------------------------------------------------- 5 ---

def test_criterion_5_unitary_limit_and_reconstruction():
    dp0 = derive(SystemParams(lam=0.01, omega_rabi=0.1, gamma=1e-12))
    phi0 = geometric_phase(dp0, math.pi / 6)
    unitary_ok = abs(phi0 - 1.5 * math.pi) <= 1e-4

    worst = 0.0
    for params in (SystemParams(lam=0.1, omega_rabi=0.3),
                   SystemParams(lam=0.5, omega_rabi=0.1, delta_qc=0.4),
                   SystemParams(lam=0.01, omega_rabi=1.0)):
        dp = derive(params)
        _, _, nodes = geometric_phase_detailed(dp, math.pi / 6)
        for t in nodes:
            es = eigensystem(dp, math.pi / 6, float(t))
            rho = evolve_superposition(dp, math.pi / 6, float(t)).rho
            worst = max(worst, float(np.max(np.abs(es.reconstruct() - rho))))
    ok = unitary_ok and worst <= 1e-12
    assert _report("criterion 5 (unitary limit + node reconstruction)", ok,
                   f"phase {phi0:.6f} vs 3*pi/2 = {1.5 * math.pi:.6f}; "
                   f"worst node reconstruction {worst:.2e}")


def test_criterion_5_width_ordering():
    phi_narrow = geometric_phase(derive(SystemParams(lam=0.01, omega_rabi=0.1)),
                                 math.pi / 6)
    phi_wide = geometric_phase(derive(SystemParams(lam=1.0, omega_rabi=0.1)),
                               math.pi / 6)
    ok = phi_wide < phi_narrow
    assert _report("criterion 5 (phase decreases with spectral width)", ok,
                   f"phi(lam=0.01)={phi_narrow:.4f} > phi(lam=1)={phi_wide:.4f}")


def test_criterion_5_drive_nonmonotonicity():
    # the undriven resonant point has no dressed period; its only consistent
    # value is the vanishing weak-drive limit, evaluated here explicitly
    phi_limit = geometric_phase(derive(SystemParams(lam=0.1, omega_rabi=1e-8)),
                                math.pi / 6)
    phi_weak = geometric_phase(derive(SystemParams(lam=0.1, omega_rabi=0.1)),
                               math.pi / 6)
    phi_strong = geometric_phase(derive(SystemParams(lam=0.1, omega_rabi=1.0)),
                                 math.pi / 6)
    ordering = phi_strong > phi_limit and phi_limit > phi_weak
    _report("criterion 5 (strong > undriven > weak drive ordering)", ordering,
            f"phi(omega=1)={phi_strong:.4f}, phi(omega->0)={phi_limit:.2e}, "
            f"phi(omega=0.1)={phi_weak:.4f}")
    assert phi_strong > phi_limit
    assert phi_limit > phi_weak, (
        "the kinematic phase of the undriven resonant qubit vanishes (no "
        "dressed precession, and the weak-drive limit goes to zero linearly "
        f"in the drive: {phi_limit:.2e}), so it cannot exceed the weakly "
        f"driven value {phi_weak:.4f}; the claimed dip below the undriven "
        "reference is unattainable"
    )


# -------------------------------------------------------------------- 6 ---

def test_criterion_6_memory_measure():
    from scipy.integrate import quad

    n_over = blp_measure(SystemParams(lam=2.5, omega_rabi=0.0), t_max=50.0)
    n_mem = blp_measure(SystemParams(lam=0.01, omega_rabi=0.0), t_max=100.0)
    n_weak = blp_measure(SystemParams(lam=0.01, omega_rabi=0.01), t_max=100.0)
    n_strong = blp_measure(SystemParams(lam=0.01, omega_rabi=1.0), t_max=100.0)
    deltas = [
        blp_measure(SystemParams(lam=0.01, omega_rabi=1.0, delta_qc=d),
                    t_max=100.0).n_measure
        for d in (0.0, 1.0, 5.0, 10.0)
    ]
    restoring = all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))

    dp = derive(SystemParams(lam=0.01, omega_rabi=0.0))
    integral = sum(
        quad(lambda t: info_flux(dp, n_mem.best_pair, t), s, e,
             epsabs=1e-10, epsrel=1e-10, limit=200)[0]
        for s, e in n_mem.intervals.intervals
    )
    interval_ok = abs(n_mem.n_measure - integral) <= 1e-6
    ok = (n_over.n_measure == 0.0 and n_mem.n_measure > 0.0
          and n_strong.n_measure < n_weak.n_measure and restoring and interval_ok)
    assert _report("criterion 6 (memory measure)", ok,
                   f"overdamped N={n_over.n_measure}, memory N={n_mem.n_measure:.4f}, "
                   f"N(omega=1)={n_strong.n_measure:.4f} < "
                   f"N(omega=0.01)={n_weak.n_measure:.4f}, "
                   f"detuning family {[f'{v:.4f}' for v in deltas]}, "
                   f"interval-sum dev {abs(n_mem.n_measure - integral):.2e}")


# -------------------------------------------------------------------- 7 ---

def test_criterion_7_decay_rate():
    dp_mem = derive(SystemParams(lam=0.01, omega_rabi=0.0))
    at_zero = abs(decay_rate(dp_mem, 0.0))
    dp_wide = derive(SystemParams(lam=100.0, omega_rabi=0.0))
    asym = decay_rate(dp_wide, 10.0)
    ts = np.linspace(1e-3, 30.0, 4000)
    undriven = float(np.nanmax(decay_rate_grid(dp_mem, ts)))
    driven = float(np.nanmax(decay_rate_grid(
        derive(SystemParams(lam=0.01, omega_rabi=1.0)), ts)))
    ok = at_zero <= 1e-8 and abs(asym - 1.0) <= 0.02 and driven < undriven
    assert _report("criterion 7 (effective decay rate)", ok,
                   f"rate(0)={at_zero:.1e}, wide-cavity asymptote {asym:.4f}, "
                   f"max driven {driven:.4f} < max undriven {undriven:.1f}")


# -------------------------------------------------------------------- 8 ---

@pytest.fixture(scope="module")
def preset_output(tmp_path_factory):
    from drivenqubit.sweeps import PRESET_NAMES, figure_preset

    outdir = tmp_path_factory.mktemp("presets")
    t0 = time.perf_counter()
    results = {name: figure_preset(name, outdir / name) for name in PRESET_NAMES}
    elapsed = time.perf_counter() - t0
    return results, elapsed


def _curves(path, value_col, axis_col):
    import csv
    from pathlib import Path

    rows = list(csv.DictReader(Path(path).read_text().splitlines()[1:]))
    out = {}
    for r in rows:
        if r["status"] != "ok":
            continue
        out.setdefault(float(r["curve"]), []).append(
            (float(r[axis_col]), float(r[value_col])))
    return {k: np.array(v) for k, v in out.items()}


def test_criterion_8_runtime_and_emission(preset_output):
    results, elapsed = preset_output
    n_files = sum(len(r["files"]) for r in results.values())
    failed = sum(r["n_failed"] for r in results.values())
    ok = elapsed < 300.0 and n_files == 15 and failed == 0
    assert _report("criterion 8 (presets emit, runtime bound)", ok,
                   f"{n_files} csv files, {failed} failed rows, "
                   f"runtime {elapsed:.1f}s < 300s")


def test_criterion_8_fig2(preset_output):
    results, _ = preset_output
    c3 = _curves(results["fig2"]["files"][0], "c3", "tau")
    c4 = _curves(results["fig2"]["files"][1], "c4", "tau")
    boundary = all(abs(v[0, 1] - 1.0) <= 1e-12 for v in c3.values()) and \
        all(abs(v[0, 1] - 2.0) <= 1e-12 for v in c4.values())
    ok = (boundary and c3[2.0][:, 1].max() > 1.0 and c4[2.0][:, 1].max() > 2.0
          and c3[0.0][:, 1].max() <= 1.02)
    maxima = {k: round(float(v[:, 1].max()), 3) for k, v in sorted(c3.items())}
    assert _report("criterion 8 (fig2 drive family)", ok,
                   f"max c3 by drive {maxima}")


def test_criterion_8_fig3(preset_output):
    results, _ = preset_output
    c3 = _curves(results["fig3"]["files"][0], "c3", "tau")
    maxima = [float(c3[d][:, 1].max()) for d in (0.0, 0.1, 1.0, 10.0)]
    ok = all(b <= a + 1e-12 for a, b in zip(maxima, maxima[1:]))
    _report("criterion 8 (fig3 detuning family ordering)", ok,
            f"max c3 = {[round(m, 4) for m in maxima]} for delta = 0, 0.1, 1, 10")
    assert ok, (
        "same root cause as the criterion-3 detuning ordering: faster dressed "
        f"precession raises the in-window maximum, observed {maxima}"
    )


def test_criterion_8_fig4(preset_output):
    results, _ = preset_output
    coh = _curves(results["fig4"]["files"][0], "c_l1", "time")
    ok = all(abs(v[0, 1] - 1.0) <= 1e-12 for v in coh.values()) and \
        coh[2.0][-1, 1] > coh[0.0][-1, 1]
    assert _report("criterion 8 (fig4 coherence protection)", ok,
                   f"final coherence undriven {coh[0.0][-1, 1]:.3f} vs "
                   f"strong drive {coh[2.0][-1, 1]:.3f}")


def test_criterion_8_fig5(preset_output):
    results, _ = preset_output
    ok = True
    detail = []
    for path in results["fig5"]["files"]:
        w = _curves(path, "w_q", "tau")
        env = _curves(path, "envelope", "tau")
        for key, wv in w.items():
            ev = env[key]
            peaks = [k for k in range(1, len(wv) - 1)
                     if wv[k, 1] > wv[k - 1, 1] and wv[k, 1] > wv[k + 1, 1]]
            worst = max((wv[k, 1] - ev[k, 1] for k in peaks), default=0.0)
            ok = ok and wv[0, 1] == 0.0 and ev[0, 1] == 0.5 and worst <= 5e-3
            detail.append(f"{key}:{worst:.1e}")
    assert _report("criterion 8 (fig5 witness under envelope)", ok,
                   "peak overshoot by curve " + " ".join(detail))


def test_criterion_8_fig6(preset_output):
    results, _ = preset_output
    rate = _curves(results["fig6"]["files"][0], "decay_rate", "time")
    keys = sorted(rate.keys())
    maxima = [float(rate[k][:, 1].max()) for k in keys]
    ok = all(b <= a + 1e-12 for a, b in zip(maxima, maxima[1:]))
    assert _report("criterion 8 (fig6 drive suppresses decay rate)", ok,
                   f"max rate per drive {dict(zip(keys, [round(m, 4) for m in maxima]))}")


def test_criterion_8_fig7(preset_output):
    results, _ = preset_output
    gp = _curves(results["fig7"]["files"][0], "phi_g", "lambda_ratio")
    per_curve = all(v[-1, 1] < v[0, 1] for v in gp.values())
    stabilized = gp[1.0][-1, 1] > gp[0.1][-1, 1]
    ok = per_curve and stabilized
    assert _report("criterion 8 (fig7 phase vs width, drive family)", ok,
                   f"phase at widest point by drive "
                   f"{ {k: round(float(v[-1, 1]), 3) for k, v in gp.items()} }")


def test_criterion_8_fig8(preset_output):
    results, _ = preset_output
    gp = _curves(results["fig8"]["files"][0], "phi_g", "lambda_ratio")
    per_curve = all(v[-1, 1] < v[0, 1] for v in gp.values())
    far_beats_near = gp[1.0][-1, 1] > gp[0.1][-1, 1]
    ok = per_curve and far_beats_near
    assert _report("criterion 8 (fig8 phase vs width, detuning family)", ok,
                   f"phase at widest point by detuning "
                   f"{ {k: round(float(v[-1, 1]), 3) for k, v in gp.items()} }")


def test_criterion_8_fig9(preset_output):
    results, _ = preset_output
    panel_a = _curves(results["fig9"]["files"][0], "n_measure", "lambda_ratio")
    panel_d = _curves(results["fig9"]["files"][3], "n_measure", "lambda_ratio")
    undriven = panel_a[0.0][:, 1]
    monotone = all(b <= a + 1e-9 for a, b in zip(undriven, undriven[1:]))
    control_kills = panel_a[0.0][0, 1] > panel_a[2.0][0, 1]
    detuning_restores = panel_d[1.0][0, 1] > panel_a[1.0][0, 1]
    ok = monotone and control_kills and detuning_restores
    assert _report("criterion 8 (fig9 memory vs width panels)", ok,
                   f"undriven N from {undriven[0]:.3f} to {undriven[-1]:.4f}; "
                   f"resonant strong-drive N {panel_a[2.0][0, 1]:.4f}; "
                   f"detuned strong-drive N {panel_d[1.0][0, 1]:.4f}")


def test_criterion_8_fig10(preset_output):
    results, _ = preset_output
    blp = _curves(results["fig10"]["files"][0], "n_measure", "delta")
    restored = all(v[-1, 1] > v[0, 1] for v in blp.values())
    at_resonance = [float(blp[k][0, 1]) for k in sorted(blp.keys())]
    ordered = all(b <= a + 1e-9 for a, b in zip(at_resonance, at_resonance[1:]))
    ok = restored and ordered
    assert _report("criterion 8 (fig10 memory vs detuning)", ok,
                   f"resonant N by drive {[round(v, 4) for v in at_resonance]}; "
                   "detuning restores each curve")
