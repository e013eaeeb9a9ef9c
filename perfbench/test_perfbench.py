"""Tests of the benchmark's own arithmetic and checks.

Run from the root of the checkout:  python3 -m pytest perfbench
"""

import json
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calib
import reference
import run
import tracing
import workloads
from stats import percentile, quartiles

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_percentile_matches_linear_interpolation():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 50) == 3.0
    assert percentile(xs, 100) == 5.0
    assert percentile(xs, 98) == pytest.approx(4.92)
    assert percentile([7.0], 98) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_quartiles_follow_statistics_quantiles():
    xs = [3.0, 1.0, 2.0, 10.0, 4.0, 6.0, 5.0, 8.0, 7.0, 9.0]
    q1, med, q3 = quartiles(xs)
    assert (q1, med, q3) == tuple(statistics.quantiles(xs, n=4))
    assert med == statistics.median(xs)
    assert (q1, q3) == (2.75, 8.25)
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_scaled_time_divides_by_the_mean_kernel_time():
    assert calib.scaled(2.0, 0.01, 0.03, 0.02) == pytest.approx(2.0)
    assert calib.scaled(1.0, 0.012, 0.012, 0.006) == pytest.approx(0.5)


def test_speed_clock_scales_each_segment_by_the_kernel_at_its_ends(monkeypatch):
    now = [0.0]
    kernel_times = iter([0.01, 0.03, 0.02])

    def kernel():
        now[0] += next(kernel_times)

    monkeypatch.setattr(calib.time, "perf_counter", lambda: now[0])
    monkeypatch.setitem(calib.KERNELS, "fake", (kernel, 0.02))
    with calib.SpeedClock("fake") as clock:
        now[0] += 1.0  # kernel 0.01 before, 0.03 after: at the nominal speed
        clock.mark()
        now[0] += 2.0  # kernel 0.03 before, 0.02 after: 1.25x slower
    assert clock.samples == pytest.approx([0.01, 0.03, 0.02])
    assert clock.raw_s == pytest.approx(3.0)
    assert clock.scaled_s == pytest.approx(1.0 + 2.0 / 1.25)


def test_speed_clock_samples_inside_long_work_and_restores_sigalrm():
    previous = signal.getsignal(signal.SIGALRM)
    with calib.SpeedClock("python", 0.02) as clock:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(clock.samples) >= 4
    assert 0.1 < clock.raw_s < 0.2 and clock.scaled_s > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _span(name, start, end, parent, work=0):
    return (name, start, end, parent, "0:cmd", work)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("nonmarkov.blp_measure", 1.0, 9.0, 0, 3),
        _span("amplitude.grid", 2.0, 5.0, 1, 1000),
        _span("backend.amp_damp", 6.0, 7.0, 1, 200),
        _span("params.derive", 2.5, 3.0, 2),
        _span("sweeps.write_rows", 9.0, 9.5, 0, 50),
    ]
    assert tracing.self_times(spans) == pytest.approx([1.5, 4.0, 2.5, 1.0, 0.5, 0.5])
    m = tracing.layer_metrics(spans)
    assert m["nonmarkov.blp_s"] == pytest.approx(8.0)
    assert m["nonmarkov.blp_self_s"] == pytest.approx(4.0)
    assert m["amplitude.grid_calls"] == 2
    assert m["amplitude.grid_points"] == 1200
    assert m["amplitude.grid_mpts_per_s"] == pytest.approx(1200 / 4.0 / 1e6)
    assert m["nonmarkov.intervals"] == 3
    assert m["nonmarkov.points_per_interval"] == pytest.approx(400.0)
    assert m["sweeps.write_rows_per_s"] == pytest.approx(100.0)
    assert m["params.derive_calls"] == 1
    assert tracing.nested_spans(spans) == {"cli.main": 5, "nonmarkov.blp_measure": 3,
                                           "amplitude.grid": 1}
    cost = tracing.layer_overhead(spans, 0.5)
    assert cost["nonmarkov.blp_s"] == 1.5 and cost["sweeps.write_s"] == 0.0


def test_merge_takes_scalar_time_from_full_passes_only():
    def pass_metrics(blp_s, blp_self_s, gp_s, gp_self_s, scalar_calls):
        m = dict.fromkeys(tracing.layer_metrics([]), 0.0)
        m.update({"nonmarkov.blp_s": blp_s, "nonmarkov.blp_self_s": blp_self_s,
                  "phase.gp_s": gp_s, "phase.gp_self_s": gp_self_s,
                  "amplitude.scalar_calls": scalar_calls,
                  "amplitude.scalar_s": scalar_calls * 1e-6})
        return m

    # coarse: blp ~10 s of which ~7 s grid children; gp ~2 s with no children
    coarse = [pass_metrics(10.0, 3.0, 2.0, 2.0, 0), pass_metrics(10.2, 3.1, 2.1, 2.1, 0)]
    # full: the tracer inflates both layers; scalar children 0.5 s and 1.5 s
    full = [pass_metrics(11.0, 3.5, 4.0, 2.5, 1000), pass_metrics(11.0, 3.5, 4.0, 2.5, 1000)]
    m = tracing.merge(coarse, full)
    assert m["nonmarkov.blp_s"] == pytest.approx(10.1)
    assert m["phase.gp_s"] == pytest.approx(2.05)
    # self = coarse self - (full children - coarse children)
    assert m["nonmarkov.blp_self_s"] == pytest.approx(3.05 - (7.5 - 7.05))
    assert m["phase.gp_self_s"] == pytest.approx(2.05 - 1.5)
    assert m["amplitude.scalar_calls"] == 1000
    assert m["amplitude.scalar_s"] == pytest.approx(1e-3)


def test_tracer_reports_missing_targets_as_absent(monkeypatch):
    import drivenqubit.phase
    import drivenqubit.sweeps

    monkeypatch.delattr(drivenqubit.sweeps, "lgi_c4")
    original = drivenqubit.sweeps.blp_measure
    scalar = drivenqubit.phase.amplitude_closed_form
    tracer = tracing.Tracer()
    assert tracer.absent == ["sweeps.lgi_c4"]
    tracer.install(full=False)
    try:
        assert drivenqubit.sweeps.blp_measure.__wrapped__ is original
        assert drivenqubit.phase.amplitude_closed_form is scalar
        assert not hasattr(drivenqubit.sweeps, "lgi_c4")
        tracer.install(full=True)
        assert drivenqubit.phase.amplitude_closed_form.__wrapped__ is scalar
    finally:
        tracer.uninstall()
    assert drivenqubit.sweeps.blp_measure is original
    assert drivenqubit.phase.amplitude_closed_form is scalar
    assert 0 < tracer.span_cost() < 1e-3 and tracer.spans == []


def test_traced_command_records_nested_spans(tmp_path):
    from drivenqubit import cli

    tracer = tracing.Tracer()
    argv = ["sweep", "--quantity", "blp", "--axis", "omega", "--points", "2",
            "--lambda", "1", "--out", str(tmp_path / "blp.csv")]
    passes = {}
    for full in (False, True):
        tracer.install(full=full)
        try:
            tracer.run = "0:blp"
            assert cli.main(argv) == 0
        finally:
            tracer.uninstall()
        passes[full] = tracer.take()
        assert tracer.spans == []
    spans = passes[False]
    names = [s[0] for s in spans]
    assert names[0] == "cli.main" and spans[0][3] == -1
    assert {s[4] for s in spans} == {"0:blp"}
    assert "amplitude.scalar" not in names
    m = tracing.layer_metrics(spans)
    assert m["nonmarkov.blp_rows"] == 2 and m["sweeps.rows"] == 2
    assert m["amplitude.grid_points"] > 0 and m["nonmarkov.points_per_interval"] >= 0
    assert 0 < m["nonmarkov.blp_self_s"] < m["nonmarkov.blp_s"]
    assert tracing.layer_metrics(passes[True])["amplitude.scalar_calls"] > 0


CSV = ("# drivenqubit-csv 1\n"
       "gamma,lam,omega,n_measure,alpha_best,residual_bound,truncated,status\n"
       "1,0.01,0,0.5,0.25,1e-06,0,ok\n"
       "1,0.01,1,1.25,0.75,1e-06,0,ok\n")


def test_reference_comparison_accepts_identical_output():
    assert reference.compare_csv(CSV, CSV) == (2, 0)


def test_reference_comparison_flags_a_perturbed_row():
    within = CSV.replace("1.25,", "1.25000000005,")
    beyond = CSV.replace("1.25,", "1.2500000002,")
    assert reference.compare_csv(within, CSV) == (2, 0)
    assert reference.compare_csv(beyond, CSV) == (2, 1)


def test_alpha_best_is_held_to_the_search_tolerance():
    within = CSV.replace(",0.75,", ",0.75005,")
    beyond = CSV.replace(",0.75,", ",0.7503,")
    assert reference.compare_csv(within, CSV) == (2, 0)
    assert reference.compare_csv(beyond, CSV) == (2, 1)


def test_saved_outputs_are_verified_against_the_reference(tmp_path):
    entries = [{"key": "blp-00", "files": {"out.csv": CSV, "extra.csv": CSV}},
               {"key": "check", "check": [["amplitude lam=0.01", "PASS"]]}]
    (tmp_path / "blp-00").mkdir()
    (tmp_path / "blp-00" / "out.csv").write_text(CSV.replace("1.25,", "1.3,"))
    (tmp_path / "check.json").write_text(json.dumps([["amplitude lam=0.01", "PASS"]]))
    # one perturbed row, two rows of a missing file, the check passes
    assert run.verify(entries, tmp_path) == (5, 3)


def test_reference_comparison_flags_status_missing_and_surplus_rows():
    failed_row = CSV.replace("0.5,0.25,1e-06,0,ok", ",,,,invalid")
    assert reference.compare_csv(failed_row, CSV) == (2, 1)
    assert reference.compare_csv(None, CSV) == (2, 2)
    short = CSV.rsplit("\n", 2)[0] + "\n"
    assert reference.compare_csv(short, CSV) == (2, 1)
    extra = CSV + "1,0.01,2,2,0.5,1e-06,0,ok\n"
    assert reference.compare_csv(extra, CSV) == (3, 1)


def test_flag_may_differ_only_at_its_threshold():
    ref = ("# drivenqubit-csv 1\ntau,c3,violated3,status\n"
           "0,1.0000000000000002,1,ok\n0.5,1.2,1,ok\n")
    flipped_at_bound = ref.replace(",1.0000000000000002,1,", ",1,0,")
    flipped_inside = ref.replace(",1.2,1,", ",1.2,0,")
    assert reference.compare_csv(flipped_at_bound, ref) == (2, 0)
    assert reference.compare_csv(flipped_inside, ref) == (2, 1)


def test_check_verdicts_compare_by_name():
    out = ("[PASS] amplitude lam=0.01: max=1e-12\n"
           "[FAIL] witness route: max=1\n"
           "1/2 checks passed (backend: python)\n")
    got = reference.check_verdicts(out)
    assert got == [["amplitude lam=0.01", "PASS"], ["witness route", "FAIL"]]
    ref = [["amplitude lam=0.01", "PASS"], ["witness route", "PASS"]]
    assert reference.compare_checks(got, ref) == (2, 1)
    assert reference.compare_checks(ref, ref) == (2, 0)


def test_pick_is_deterministic_in_the_seed():
    store = {"fixed": [{"key": "fig9"}],
             "pool": [{"key": f"blp-{i}", "group": "blp"} for i in range(32)]}
    a = workloads.pick(store, "memory", 7)
    assert a == workloads.pick(store, "memory", 7)
    assert a[0]["key"] == "fig9" and len(a) == 1 + workloads.POOLS["memory"]["blp"][1]
    assert [e["key"] for e in a] != [e["key"] for e in workloads.pick(store, "memory", 8)]


def test_every_emitted_metric_is_listed_in_benchmark_json():
    listed_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    listed_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert listed_e2e == run.END_TO_END
    assert listed_layer == run.PER_LAYER_UNITS
    emitted = set(tracing.layer_metrics([])) | set(tracing.blp_percentiles([]))
    emitted |= {"trace.wall_s", "trace.overhead_s", "trace.absent"}
    assert emitted == set(listed_layer)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    for name in ("setup_s", "wall_s", "peak_rss_mb", "ok_frac"):
        assert name in listed_e2e
