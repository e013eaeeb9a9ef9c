import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from drivenqubit import (SweepAxis, SweepSpec, SystemParams, ValidationError,
                         derive, geometric_phase_detailed)
from drivenqubit.cli import main
from drivenqubit.sweeps import (PARAM_COLUMNS, figure_preset, run_sweep,
                                sweep_columns, write_rows)


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "# drivenqubit-csv 1"
    rows = list(csv.DictReader(lines[1:]))
    return rows


def test_axis_validation():
    with pytest.raises(ValidationError):
        SweepAxis("tau", 0.0, 4.0, 1)
    with pytest.raises(ValidationError):
        SweepAxis("tau", 4.0, 0.0, 10)
    with pytest.raises(ValidationError):
        SweepAxis("lambda_ratio", 0.0, 1.0, 10, "log")
    with pytest.raises(ValidationError):
        SweepAxis("bogus", 0.0, 1.0, 10)
    with pytest.raises(ValidationError):
        SweepSpec("lgi3", SystemParams(lam=0.01), SweepAxis("time", 0, 4, 10))


def test_amplitude_sweep_first_row_is_unity():
    spec = SweepSpec("amplitude", SystemParams(lam=0.3, omega_rabi=0.7),
                     SweepAxis("time", 0.0, 10.0, 11))
    rows, summary = run_sweep(spec)
    assert rows[0]["abs_a"] == pytest.approx(1.0, abs=1e-15)
    assert summary.n_failed == 0
    assert summary.maximum <= 1.0 + 1e-12


def test_lgi_sweep_summary_reports_violation():
    spec = SweepSpec("lgi3", SystemParams(lam=0.01, omega_rabi=2.0),
                     SweepAxis("tau", 0.0, 4.0, 401))
    rows, summary = run_sweep(spec)
    assert summary.maximum > 1.0
    assert any(r["violated3"] for r in rows)


def test_blp_sweep_monotone_in_width():
    spec = SweepSpec("blp", SystemParams(lam=0.01, omega_rabi=0.0),
                     SweepAxis("lambda_ratio", 0.01, 1.0, 5, "log"))
    rows, summary = run_sweep(spec)
    vals = [r["n_measure"] for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    assert summary.n_failed == 0


def test_worker_pool_matches_serial():
    spec = SweepSpec("blp", SystemParams(lam=0.05, omega_rabi=0.2),
                     SweepAxis("lambda_ratio", 0.05, 0.5, 4, "log"))
    serial, _ = run_sweep(spec, workers=1)
    pooled, _ = run_sweep(spec, workers=2)
    assert serial == pooled


def test_blp_worker_chunks_match_serial():
    # five rows over two processes: rows 0, 2, 4 and rows 1, 3, one batched
    # pass each
    spec = SweepSpec("blp", SystemParams(lam=0.05, omega_rabi=0.4),
                     SweepAxis("delta", 0.0, 10.0, 5))
    serial, serial_summary = run_sweep(spec, workers=1)
    pooled, pooled_summary = run_sweep(spec, workers=2)
    assert [r["status"] for r in serial] == ["ok"] * 5
    assert serial == pooled
    assert serial_summary == pooled_summary


def test_gp_worker_chunks_match_serial():
    # the rows are dealt out to two processes in turn, one quadrature each
    spec = SweepSpec("gp", SystemParams(lam=0.1, theta=0.5),
                     SweepAxis("omega", 0.0, 1.0, 5))
    serial, serial_summary = run_sweep(spec, workers=1)
    pooled, pooled_summary = run_sweep(spec, workers=2)
    assert serial[0]["status"] == "undefined-period"
    assert [r["status"] for r in serial[1:]] == ["ok"] * 4
    assert serial == pooled
    assert serial_summary == pooled_summary


def test_gp_failed_row_leaves_its_neighbours_untouched():
    # at theta = 0 the integrand is 1 throughout, so even tol 1e-300 is met;
    # the other rows fall below the rounding floor of their integrals
    spec = SweepSpec("gp", SystemParams(lam=0.1, omega_rabi=0.3),
                     SweepAxis("theta", 0.0, math.pi / 2, 3), quad_tol=1e-300)
    rows, summary = run_sweep(spec)
    assert [r["status"] for r in rows] == ["ok", "invalid", "invalid"]
    dp = derive(SystemParams(lam=0.1, omega_rabi=0.3))
    phi, err, _ = geometric_phase_detailed(dp, 0.0, 1e-300)
    assert (rows[0]["phi_g"], rows[0]["quad_err"]) == (phi, err)
    assert all(r["phi_g"] is r["quad_err"] is None for r in rows[1:])
    assert summary.n_failed == 2


def test_gp_sweep_undefined_period_becomes_error_row():
    spec = SweepSpec("gp", SystemParams(lam=0.1, omega_rabi=0.0),
                     SweepAxis("omega", 0.0, 1.0, 3))
    rows, summary = run_sweep(spec)
    assert rows[0]["status"] == "undefined-period"
    assert rows[0]["phi_g"] is None
    assert rows[1]["status"] == "ok"
    assert summary.n_failed == 1


def test_csv_format_17_digits(tmp_path):
    spec = SweepSpec("amplitude", SystemParams(lam=1.0 / 3.0),
                     SweepAxis("time", 0.0, 1.0, 3))
    rows, _ = run_sweep(spec)
    out = tmp_path / "amp.csv"
    write_rows(out, rows, sweep_columns(spec))
    text = out.read_text().splitlines()
    assert text[0] == "# drivenqubit-csv 1"
    assert "0.33333333333333331" in text[2]


def _reference_cell(v):
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return format(float(v), ".17g")


def _reference_write_rows(path, rows, columns):
    """Per-cell writer: every cell formatted alone, every row via csv.writer."""
    with open(path, "w", newline="") as fh:
        fh.write("# drivenqubit-csv 1\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_reference_cell(row.get(c)) for c in columns])


def test_write_rows_matches_per_cell_writer(tmp_path):
    rng = np.random.default_rng(5)
    floats = [0.0, -0.0, 1.0, 1e-300, 5e-324, 1.7976931348623157e308, 0.1,
              1.0 / 3.0, -2.0 / 3.0, math.pi, 123456789.12345678, 6.02214076e23,
              2.0 ** 53 + 2]
    flags = [True, False, 0, 1, np.int64(0), np.int64(1), np.True_, np.False_]
    statuses = ["ok", "pole", "undefined-period", "invalid"]
    columns = ["curve", *PARAM_COLUMNS, "tau", "c3", "violated3", "n_measure",
               "truncated", "violated4", "status"]
    rows = []
    for k in range(400):
        row = {}
        for c in columns:
            if c == "status":
                row[c] = statuses[k % 4]
            elif c in ("violated3", "violated4", "truncated"):
                row[c] = flags[rng.integers(len(flags))]
            else:
                v = floats[rng.integers(len(floats))] * float(rng.choice([1, -1]))
                row[c] = np.float64(v) if rng.random() < 0.5 else v
        if k % 7 == 0:
            row["c3"] = row["violated3"] = None  # a failed row
        if k % 29 == 0:
            del row["n_measure"]  # a row without the column
        rows.append(row)
    for cols in (columns, ["tau"], ["status"]):
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        write_rows(got, rows, cols)
        _reference_write_rows(ref, rows, cols)
        assert got.read_bytes() == ref.read_bytes()


def test_write_rows_matches_per_cell_writer_on_sweeps(tmp_path):
    specs = [SweepSpec("decay_rate", SystemParams(lam=0.01, omega_rabi=0.5),
                       SweepAxis("time", 0.0, 30.0, 301)),
             SweepSpec("lgi4", SystemParams(lam=0.01, omega_rabi=2.0),
                       SweepAxis("tau", 0.0, 4.0, 101)),
             SweepSpec("gp", SystemParams(lam=0.1), SweepAxis("omega", 0.0, 1.0, 3))]
    for spec in specs:
        rows, _ = run_sweep(spec)
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        write_rows(got, rows, sweep_columns(spec))
        _reference_write_rows(ref, rows, sweep_columns(spec))
        assert got.read_bytes() == ref.read_bytes()


def test_sweep_rows_deterministic():
    spec = SweepSpec("witness", SystemParams(lam=0.01, theta=math.pi / 4),
                     SweepAxis("tau", 0.0, 20.0, 201))
    rows1, _ = run_sweep(spec)
    rows2, _ = run_sweep(spec)
    assert rows1 == rows2


def test_spec_round_trip():
    spec = SweepSpec("blp", SystemParams(lam=0.05, omega_rabi=0.3, theta=0.1),
                     SweepAxis("delta", 0.0, 10.0, 21), output_path="x.csv",
                     t_max=120.0, quad_tol=1e-8)
    assert SweepSpec.from_dict(spec.to_dict()) == spec
    assert SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
    assert "alpha_grid" not in spec.to_dict()
    # manifests written before the certified pair search carry alpha_grid;
    # they still load, to the same spec
    for old in (spec.to_dict() | {"alpha_grid": 61},
                json.loads(json.dumps(spec.to_dict() | {"alpha_grid": 91}))):
        assert SweepSpec.from_dict(old) == spec


def test_figure_preset_unknown_name(tmp_path):
    with pytest.raises(ValidationError):
        figure_preset("fig99", tmp_path)


def test_figure_preset_fig5_and_manifest_round_trip(tmp_path):
    result = figure_preset("fig5", tmp_path)
    assert result["n_failed"] == 0
    paths = [Path(p) for p in result["files"]]
    assert all(p.exists() for p in paths)
    rows = read_csv(paths[0])
    start = [r for r in rows if float(r["tau"]) == 0.0]
    assert all(float(r["w_q"]) == 0.0 for r in start)
    assert all(float(r["envelope"]) == 0.5 for r in start)
    manifest = json.loads(Path(result["manifest"]).read_text())
    assert manifest["figure"] == "fig5"
    for entry in manifest["sweeps"]:
        spec = SweepSpec.from_dict(entry["spec"])
        assert spec.to_dict() == entry["spec"]


def test_figure_preset_deterministic(tmp_path):
    r1 = figure_preset("fig2", tmp_path / "a")
    r2 = figure_preset("fig2", tmp_path / "b")
    for p1, p2 in zip(r1["files"], r2["files"]):
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_cli_params(capsys):
    assert main(["params", "--lambda", "0.01", "--omega", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "omega_d    = 0.2" in out
    assert "eta        = 1.57" in out


def test_cli_params_warns_outside_regime(capsys):
    assert main(["params", "--lambda", "2.0"]) == 0
    assert "warning" in capsys.readouterr().out


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "c3.csv"
    rc = main(["sweep", "--quantity", "lgi3", "--axis", "tau",
               "--axis-max", "4", "--points", "101",
               "--lambda", "0.01", "--omega", "2", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 101
    assert float(rows[0]["c3"]) == 1.0


def test_cli_sweep_missing_required_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--quantity", "lgi3", "--axis", "tau"])
    assert exc.value.code == 1


def test_cli_rejects_bad_quantity(tmp_path):
    rc = main(["sweep", "--quantity", "bogus", "--axis", "tau",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 1


@pytest.mark.parametrize("flag", [("--omega", "nan"), ("--lambda", "inf"),
                                  ("--tmax", "nan"), ("--tmax", "inf"),
                                  ("--tmax", "-1"), ("--tol", "0"),
                                  ("--tol", "-1"), ("--tol", "nan"),
                                  ("--axis-max", "inf"), ("--axis-min", "nan")])
def test_cli_rejects_non_finite_parameter(tmp_path, capsys, flag):
    out = tmp_path / "a.csv"
    rc = main(["sweep", "--quantity", "amplitude", "--axis", "time",
               "--axis-max", "1", "--points", "3", *flag, "--out", str(out)])
    assert rc == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "figure", "config"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_rejects_workers_below_one(tmp_path, monkeypatch, capsys, command,
                                       workers):
    import drivenqubit.sweeps as sweeps

    def no_pool(*args, **kwargs):
        raise AssertionError("a rejected --workers must start no pool")

    monkeypatch.setattr(sweeps, "ProcessPoolExecutor", no_pool)
    out = tmp_path / "out"
    flags = ["--workers", workers]
    if command == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"workers = {workers}\n")
        flags = ["--config", str(cfg)]
    if command == "figure":
        argv = ["figure", "--preset", "fig7", *flags, "--out", str(out)]
    else:
        argv = ["sweep", "--quantity", "gp", "--axis", "omega", "--points", "3",
                "--lambda", "0.1", *flags, "--out", str(out)]
    assert main(argv) == 1
    assert "workers must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_numerical_failure_exit_code(tmp_path):
    out = tmp_path / "gp.csv"
    rc = main(["sweep", "--quantity", "gp", "--axis", "omega",
               "--axis-min", "0", "--axis-max", "1", "--points", "3",
               "--lambda", "0.1", "--out", str(out)])
    assert rc == 2  # omega = 0 row has no dressed period
    rows = read_csv(out)
    assert rows[0]["status"] == "undefined-period"


def test_cli_non_finite_lgi_row_is_invalid(tmp_path):
    # at tau = 1e308 the step 2 tau overflows and c3 comes out NaN
    out = tmp_path / "c3.csv"
    rc = main(["sweep", "--quantity", "lgi3", "--axis", "tau",
               "--axis-min", "0", "--axis-max", "1e308", "--points", "3",
               "--lambda", "0.1", "--omega", "0.5", "--out", str(out)])
    assert rc == 2
    rows = read_csv(out)
    assert [r["status"] for r in rows] == ["ok", "ok", "invalid"]
    assert rows[-1]["c3"] == rows[-1]["violated3"] == ""
    assert float(rows[-1]["tau"]) == 1e308


def test_cli_gp_row_below_rounding_floor_is_invalid(tmp_path):
    # no tolerance this far below the rounding of the integral can be met;
    # each row fails on its own and the sweep still writes its file
    out = tmp_path / "gp.csv"
    rc = main(["sweep", "--quantity", "gp", "--axis", "omega",
               "--axis-min", "0.1", "--axis-max", "1", "--points", "3",
               "--lambda", "0.1", "--theta", "0.5", "--tol", "1e-300",
               "--out", str(out)])
    assert rc == 2
    rows = read_csv(out)
    assert len(rows) == 3
    for row in rows:
        assert row["status"] == "invalid"
        assert row["phi_g"] == row["quad_err"] == ""


@pytest.mark.parametrize("field,value", [("n_measure", math.nan),
                                         ("alpha", math.inf)])
def test_cli_non_finite_blp_row_is_invalid(tmp_path, monkeypatch, field, value):
    import drivenqubit.sweeps as sweeps

    measures = sweeps.blp_measures
    position = {"n_measure": 0, "alpha": 1}[field]

    def broken(params_seq, t_maxes):
        result = list(measures(params_seq, t_maxes))
        result[position] = np.full(len(params_seq), value)
        return tuple(result)

    monkeypatch.setattr(sweeps, "blp_measures", broken)
    out = tmp_path / "blp.csv"
    rc = main(["sweep", "--quantity", "blp", "--axis", "lambda_ratio",
               "--axis-min", "0.5", "--axis-max", "1", "--points", "2",
               "--out", str(out)])
    assert rc == 2
    for row in read_csv(out):
        assert row["status"] == "invalid"
        assert row["n_measure"] == row["alpha_best"] == row["residual_bound"] == ""


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nlambda = 0.5\nomega = 1.0\n")
    assert main(["params", "--config", str(cfg)]) == 0
    assert "omega_d    = 2" in capsys.readouterr().out
    assert main(["params", "--config", str(cfg), "--omega", "2.0"]) == 0
    assert "omega_d    = 4" in capsys.readouterr().out


def test_cli_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    assert main(["params", "--config", str(cfg)]) == 1


def test_cli_figure_unknown_preset(tmp_path):
    assert main(["figure", "--preset", "fig0", "--out", str(tmp_path)]) == 1


def test_cli_check_quick(capsys):
    assert main(["check", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_cli_entry_point_runs():
    import subprocess
    import sys

    out = subprocess.run([sys.executable, "-m", "drivenqubit.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "0.1.0"


def test_cli_late_decay_is_not_a_pole(tmp_path):
    # |A| falls below 1e-14 from t ~ 65 on, but A has no zero at these
    # times: the rate stays finite (19.06 at t = 80, -0.747 at t = 100, by
    # 50-digit evaluation of the closed form)
    out = tmp_path / "rate.csv"
    rc = main(["sweep", "--quantity", "decay_rate", "--axis", "time",
               "--axis-min", "0", "--axis-max", "200", "--points", "11",
               "--lambda", "1", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert [r["status"] for r in rows] == ["ok"] * 11
    assert float(rows[4]["decay_rate"]) == pytest.approx(19.0626726837261, rel=1e-12)
    assert float(rows[5]["decay_rate"]) == pytest.approx(-0.746877738061623, rel=1e-12)


def test_cli_imports_no_scipy(tmp_path):
    import os
    import subprocess
    import sys

    out = tmp_path / "blp.csv"
    code = "\n".join([
        "import sys",
        "from drivenqubit.cli import main",
        "def loaded():",
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "assert main(['params', '--lambda', '0.1']) == 0",
        "print('scipy:', loaded())",
        "assert main(['sweep', '--quantity', 'blp', '--axis', 'omega', '--axis-min', '0',",
        f"             '--axis-max', '1', '--points', '2', '--out', {str(out)!r}]) == 0",
        "print('scipy:', loaded())",
    ])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    loaded = [line for line in res.stdout.splitlines() if line.startswith("scipy:")]
    assert loaded == ["scipy: []", "scipy: []"]
    assert len(read_csv(out)) == 2
