import csv
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from drivenqubit import (SweepAxis, SweepSpec, SystemParams, ValidationError,
                         amplitude_closed_form, blp_measure, derive,
                         geometric_phase_detailed)
from drivenqubit import cli
from drivenqubit.cli import main
from drivenqubit.sweeps import (AXES, PARAM_COLUMNS, QUANTITIES, SweepBlock, SweepTable,
                                figure_preset, run_sweep, sweep_columns, write_rows)


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "# drivenqubit-csv 1"
    rows = list(csv.DictReader(lines[1:]))
    return rows


def test_axis_validation():
    for name in AXES:
        SweepAxis(name, 0.5, 1.0, 2)
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
    table, summary = run_sweep(spec)
    assert len(table) == 11
    assert table.rows()[0]["abs_a"] == pytest.approx(1.0, abs=1e-15)
    assert summary.n_failed == 0
    assert summary.maximum <= 1.0 + 1e-12


def test_lgi_sweep_summary_reports_violation():
    spec = SweepSpec("lgi3", SystemParams(lam=0.01, omega_rabi=2.0),
                     SweepAxis("tau", 0.0, 4.0, 401))
    table, summary = run_sweep(spec)
    assert summary.maximum > 1.0
    assert any(r["violated3"] for r in table.rows())


def test_blp_sweep_monotone_in_width():
    spec = SweepSpec("blp", SystemParams(lam=0.01, omega_rabi=0.0),
                     SweepAxis("lambda_ratio", 0.01, 1.0, 5, "log"))
    table, summary = run_sweep(spec)
    vals = [r["n_measure"] for r in table.rows()]
    assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    assert summary.n_failed == 0


def test_gp_failed_row_leaves_its_neighbours_untouched():
    # at theta = 0 the integrand is 1 throughout, so even tol 1e-300 is met;
    # the other rows fall below the rounding floor of their integrals
    spec = SweepSpec("gp", SystemParams(lam=0.1, omega_rabi=0.3),
                     SweepAxis("theta", 0.0, math.pi / 2, 3), quad_tol=1e-300)
    table, summary = run_sweep(spec)
    rows = table.rows()
    assert [r["status"] for r in rows] == ["ok", "invalid", "invalid"]
    dp = derive(SystemParams(lam=0.1, omega_rabi=0.3))
    phi, err, _ = geometric_phase_detailed(dp, 0.0, 1e-300)
    assert (rows[0]["phi_g"], rows[0]["quad_err"]) == (phi, err)
    assert all(r["phi_g"] is r["quad_err"] is None for r in rows[1:])
    assert summary.n_failed == 2


def test_gp_sweep_undefined_period_becomes_error_row():
    spec = SweepSpec("gp", SystemParams(lam=0.1, omega_rabi=0.0),
                     SweepAxis("omega", 0.0, 1.0, 3))
    table, summary = run_sweep(spec)
    rows = table.rows()
    assert rows[0]["status"] == "undefined-period"
    assert rows[0]["phi_g"] is None
    assert rows[1]["status"] == "ok"
    assert summary.n_failed == 1
    spec = SweepSpec("gp", SystemParams(lam=0.1, theta=0.5),
                     SweepAxis("omega", 0.0, 1.0, 5))
    table, summary = run_sweep(spec)
    assert [r["status"] for r in table.rows()] == ["undefined-period"] + ["ok"] * 4
    assert summary.n_failed == 1


def test_csv_format_17_digits(tmp_path):
    spec = SweepSpec("amplitude", SystemParams(lam=1.0 / 3.0),
                     SweepAxis("time", 0.0, 1.0, 3))
    table, _ = run_sweep(spec)
    out = tmp_path / "amp.csv"
    write_rows(out, table, sweep_columns(spec))
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


def _assert_writes_as_reference(tmp_path, table, columns):
    got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
    write_rows(got, table, columns)
    _reference_write_rows(ref, table.rows(), columns)
    assert got.read_bytes() == ref.read_bytes()


def test_write_rows_matches_per_cell_writer(tmp_path):
    rng = np.random.default_rng(5)
    floats = np.array([0.0, -0.0, 1.0, 1e-300, 5e-324, 1.7976931348623157e308, 0.1,
                       1.0 / 3.0, -2.0 / 3.0, math.pi, 123456789.12345678,
                       6.02214076e23, 2.0 ** 53 + 2])
    flag_dtypes = [np.int64, np.int8, np.uint8, bool]
    statuses = ["ok", "pole", "undefined-period", "invalid"]
    coordinates = ["curve", *PARAM_COLUMNS, "tau"]
    observables = ["c3", "violated3", "n_measure", "truncated", "violated4"]
    columns = [*coordinates, *observables, "status"]

    def column(c, n):
        if c in ("violated3", "violated4", "truncated"):
            return rng.integers(0, 2, n).astype(flag_dtypes[rng.integers(len(flag_dtypes))])
        return rng.choice(floats, n) * rng.choice([1.0, -1.0], n)

    blocks, k = [], 0
    for j, size in enumerate([0, 1, 37, 2, 120, 90, 150]):
        rows = range(k, k + size)
        k += size
        # each coordinate is constant in some blocks and varies in others;
        # a constant cell is a numpy or a Python scalar
        const = {c: column(c, 1)[0] for c in coordinates if rng.random() < 0.5}
        const = {c: v.item() if rng.random() < 0.5 else v for c, v in const.items()}
        if j == 4:
            const["curve"] = 'a,b"%s%%'  # quoted by csv, % kept literally
        coords = {c: column(c, size) for c in coordinates if c not in const}
        # a block without n_measure writes it empty
        values = {c: column(c, size) for c in observables
                  if not (c == "n_measure" and j % 3 == 2)}
        # a row that is not ok writes its observables empty
        status = [statuses[r % 4] if j % 2 else "invalid" if r % 7 == 0 else "ok"
                  for r in rows]
        blocks.append(SweepBlock(const, coords, values, status))
    table = SweepTable(blocks)
    assert len(table) == 400
    # ["n_measure"] alone: csv.writer writes a lone empty cell as ""
    for cols in (columns, ["tau"], ["curve"], ["n_measure"], ["status"]):
        _assert_writes_as_reference(tmp_path, table, cols)


def _zero_of_a(dp):
    """First zero of the real oscillatory amplitude, by bisection."""
    lo, hi = 20.0, 30.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if amplitude_closed_form(dp, mid).real > 0 else (lo, mid)
    return 0.5 * (lo + hi)


def test_write_rows_matches_per_cell_writer_on_sweeps(tmp_path):
    pole = _zero_of_a(derive(SystemParams(lam=0.01)))
    specs = [
        # the swept parameter sits between constant cells
        SweepSpec("blp", SystemParams(lam=0.05, omega_rabi=0.4),
                  SweepAxis("delta", 0.0, 10.0, 5)),
        SweepSpec("gp", SystemParams(lam=0.1), SweepAxis("omega", 0.0, 1.0, 3)),
        SweepSpec("decay_rate", SystemParams(lam=0.01), SweepAxis("time", 0.0, pole, 5)),
        SweepSpec("lgi3", SystemParams(lam=0.1, omega_rabi=0.5),
                  SweepAxis("tau", 0.0, 1e308, 3)),
        SweepSpec("lgi4", SystemParams(lam=0.01, omega_rabi=2.0),
                  SweepAxis("tau", 0.0, 4.0, 101)),
    ]
    statuses = []
    for spec in specs:
        table, _ = run_sweep(spec)
        statuses.append([r["status"] for r in table.rows()])
        _assert_writes_as_reference(tmp_path, table, sweep_columns(spec))
    assert statuses[0] == ["ok"] * 5
    assert statuses[1][0] == "undefined-period"
    assert statuses[2][-1] == "pole" and statuses[3][-1] == "invalid"


def test_write_rows_matches_per_cell_writer_on_a_panel(tmp_path):
    # one block per curve, each with its curve value as a constant cell
    specs = [SweepSpec("lgi3", SystemParams(lam=0.1, omega_rabi=om),
                       SweepAxis("tau", 0.0, 1e308, 3)) for om in (0.5, 2.0)]
    specs.append(SweepSpec("lgi3", SystemParams(lam=0.1, omega_rabi=1.0),
                           SweepAxis("tau", 0.0, 4.0, 41)))
    blocks = []
    for spec in specs:
        table, _ = run_sweep(spec)
        blocks += [replace(b, const=b.const | {"curve": spec.fixed.omega_rabi})
                   for b in table.blocks]
    panel = SweepTable(blocks)
    assert len(panel) == 47
    _assert_writes_as_reference(tmp_path, panel, sweep_columns(specs[0], ("curve",)))


def test_block_columns_must_match_status_length():
    with pytest.raises(ValueError):
        SweepBlock({}, {"tau": np.zeros(3)}, {"c3": np.zeros(2)}, ["ok"] * 3)
    # columns are numeric arrays: no empty (None) cells, no strings
    with pytest.raises(ValueError, match="not numeric"):
        SweepBlock({}, {"tau": np.zeros(3)}, {"c3": [0.5, None, 1.0]}, ["ok"] * 3)
    with pytest.raises(ValueError, match="not numeric"):
        SweepBlock({}, {"tau": np.array(["0", "1", "2"])}, {}, ["ok"] * 3)


def test_block_turns_ok_rows_with_non_finite_observables_invalid(tmp_path):
    # the block's one row-status rule: an ok row with a NaN or inf observable
    # is invalid and writes empty observable cells; every other label stands
    status = ["ok", "ok", "ok", "ok", "pole", "undefined-period", "invalid", "ok"]
    n_measure = np.array([0.5, np.nan, np.inf, 0.25, np.nan, np.inf, 1.0, 2.0])
    alpha = np.array([0.1, 0.1, 0.1, -np.inf, 0.1, 0.1, 0.1, 0.2])
    truncated = np.array([0, 0, 1, 0, 0, 0, 0, 1])
    block = SweepBlock({"gamma": 1.0}, {"delta": np.arange(8.0)},
                       {"n_measure": n_measure, "alpha_best": alpha,
                        "truncated": truncated}, status)
    assert block.status.tolist() == ["ok", "invalid", "invalid", "invalid", "pole",
                                     "undefined-period", "invalid", "ok"]
    assert block.row(1)["n_measure"] is None and block.row(7)["n_measure"] == 2.0
    out = tmp_path / "blp.csv"
    write_rows(out, SweepTable([block]),
               ["gamma", "delta", "n_measure", "alpha_best", "truncated", "status"])
    rows = read_csv(out)
    assert [r["n_measure"] for r in rows] == ["0.5", "", "", "", "", "", "", "2"]
    assert [r["truncated"] for r in rows] == ["0", "", "", "", "", "", "", "1"]
    assert [r["status"] for r in rows] == block.status.tolist()


def test_sweep_rows_deterministic():
    spec = SweepSpec("witness", SystemParams(lam=0.01, theta=math.pi / 4),
                     SweepAxis("tau", 0.0, 20.0, 201))
    table1, _ = run_sweep(spec)
    table2, _ = run_sweep(spec)
    assert table1.rows() == table2.rows()


def test_spec_round_trip():
    spec = SweepSpec("blp", SystemParams(lam=0.05, omega_rabi=0.3, theta=0.1),
                     SweepAxis("delta", 0.0, 10.0, 21), t_max=120.0, quad_tol=1e-8)
    assert SweepSpec.from_dict(spec.to_dict()) == spec
    assert SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec
    assert not {"alpha_grid", "output_path"} & set(spec.to_dict())
    # older manifests carry alpha_grid (before the certified pair search) or
    # output_path (always null from the CLI); they still load, to the same spec
    for old in (spec.to_dict() | {"alpha_grid": 61},
                json.loads(json.dumps(spec.to_dict() | {"alpha_grid": 91})),
                spec.to_dict() | {"output_path": None},
                json.loads(json.dumps(spec.to_dict() | {"output_path": "x.csv"}))):
        assert SweepSpec.from_dict(old) == spec
    # a key left out takes the field's default
    bare = {k: v for k, v in spec.to_dict().items() if k not in ("t_max", "quad_tol")}
    assert SweepSpec.from_dict(bare) == SweepSpec(spec.quantity, spec.fixed, spec.axis)


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
    assert "period     = 31.41592653589793" in out


def test_cli_params_warns_outside_regime(capsys):
    assert main(["params", "--lambda", "2.0"]) == 0
    assert "warning" in capsys.readouterr().out


@pytest.mark.parametrize("delta,warning", [
    ("0", "omega_d = 0 (undriven, resonant): the dressed period is undefined"),
    ("1e-310", "omega_d = 1e-310: the dressed period 2 pi / omega_d overflows"),
    ("5e-324", "omega_d = 4.94e-324: the dressed period 2 pi / omega_d overflows")],
    ids=["0", "1e-310", "5e-324"])
def test_cli_params_without_period_warns(capsys, delta, warning):
    # omega_d = delta: 0 has no period, and below ~3.5e-308 2 pi / omega_d overflows
    assert main(["params", "--delta", delta]) == 0
    out = capsys.readouterr().out
    assert "period     =" not in out
    assert f"warning: {warning}\n" in out


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "c3.csv"
    rc = main(["sweep", "--quantity", "lgi3", "--axis", "tau",
               "--axis-max", "4", "--points", "101",
               "--lambda", "0.01", "--omega", "2", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 101
    assert float(rows[0]["c3"]) == 1.0


def test_cli_sweep_missing_required_flag_is_usage_error(tmp_path, capsys):
    # reported with the usage line of the subcommand's own parser
    out = str(tmp_path / "out")
    for argv, message in [
        (["sweep", "--quantity", "lgi3", "--axis", "tau"], "--out"),
        (["sweep", "--axis", "tau", "--out", out], "--quantity"),
        (["sweep", "--quantity", "lgi3", "--out", out], "--axis"),
        (["figure", "--out", out], "--preset"),
        (["figure", "--preset", "fig2"], "--out"),
    ]:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: drivenqubit {argv[0]} [-h]")
        assert err.endswith(f"drivenqubit: {message} is required (flag or config)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("axis,span", [
    ("time", (0.0, 30.0)), ("tau", (0.0, 4.0)), ("lambda_ratio", (0.01, 1.0)),
    ("omega", (0.0, 2.0)), ("delta", (0.0, 10.0)), ("theta", (0.0, math.pi / 2))])
def test_cli_axis_without_bounds_spans_its_default_range(tmp_path, axis, span):
    quantity = next(q for q, (axes, _) in QUANTITIES.items() if axis in axes)
    out = tmp_path / "out.csv"
    # gp rows at the default parameters have no dressed period: exit 2
    assert main(["sweep", "--quantity", quantity, "--axis", axis, "--points", "2",
                 "--out", str(out)]) in (0, 2)
    assert tuple(float(r[axis]) for r in read_csv(out)) == span


def test_cli_axis_choices_are_the_axes_table(tmp_path, capsys):
    assert list(AXES) == ["time", "tau", "lambda_ratio", "omega", "delta", "theta"]
    assert main(["sweep", "--quantity", "amplitude", "--axis", "bogus",
                 "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "argument --axis: invalid choice: 'bogus'" in err
    choices = err.split("(choose from ")[1].split(")")[0]
    assert choices.replace("'", "").split(", ") == list(AXES)


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


def test_cli_reports_running_out_of_memory(tmp_path, capsys, monkeypatch):
    # a grid too large to allocate ends in one line and exit code 2
    def no_memory(spec, **kwargs):
        raise MemoryError(f"Unable to allocate an array of {spec.axis.count} points")

    monkeypatch.setattr(cli, "run_sweep", no_memory)
    rc = main(["sweep", "--quantity", "coherence", "--axis", "time",
               "--points", "100000000000", "--out", str(tmp_path / "c.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == ("drivenqubit: out of memory: Unable to allocate an array of "
                   "100000000000 points\n")


def test_cli_blp_rows_over_budget_at_a_huge_horizon_fail_without_warnings(tmp_path, capsys):
    # both rows need more initial gaps than their budget, so each fails
    # before the kernel sees its horizon: no numpy warning (the suite's
    # filter would raise it), only the summary line
    out = tmp_path / "blp.csv"
    rc = main(["sweep", "--quantity", "blp", "--axis", "omega", "--axis-min", "0",
               "--axis-max", "1e10", "--points", "2", "--lambda", "0.1",
               "--tmax", "1e300", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == ""
    assert captured.out == f"wrote {out}: 2 rows, 2 failed\n"
    assert [r["status"] for r in read_csv(out)] == ["invalid", "invalid"]


@pytest.mark.parametrize("command", ["sweep", "figure", "config"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_cli_rejects_workers_below_one(tmp_path, capsys, command, workers):
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


@pytest.mark.parametrize("how", ["flag", "config"])
def test_cli_workers_has_no_effect(tmp_path, how):
    # --workers stays accepted, flag or config key, and changes no byte
    def run(argv, name, with_workers):
        out = tmp_path / name
        if with_workers and how == "flag":
            argv = [*argv, "--workers", "2"]
        elif with_workers:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("workers = 2\n")
            argv = [*argv, "--config", str(cfg)]
        assert main([*argv, "--out", str(out)]) == 0
        return out

    sweep = ["sweep", "--quantity", "gp", "--axis", "lambda_ratio", "--scale", "log",
             "--points", "5", "--omega", "0.3", "--theta", "0.5"]
    assert (run(sweep, "plain.csv", False).read_bytes()
            == run(sweep, "workers.csv", True).read_bytes())
    plain = run(["figure", "--preset", "fig8"], "plain", False)
    given = run(["figure", "--preset", "fig8"], "workers", True)
    names = sorted(f.name for f in plain.iterdir())
    assert names == sorted(f.name for f in given.iterdir())
    assert all((plain / n).read_bytes() == (given / n).read_bytes() for n in names)


def test_cli_numerical_failure_exit_code(tmp_path):
    out = tmp_path / "gp.csv"
    rc = main(["sweep", "--quantity", "gp", "--axis", "omega",
               "--axis-min", "0", "--axis-max", "1", "--points", "3",
               "--lambda", "0.1", "--out", str(out)])
    assert rc == 2  # omega = 0 row has no dressed period
    rows = read_csv(out)
    assert rows[0]["status"] == "undefined-period"


@pytest.mark.parametrize("delta", ["1e-310", "5e-324"])
def test_cli_gp_subnormal_dressed_frequency_has_no_period(tmp_path, delta):
    # omega_d = delta: its period 2 pi / omega_d overflows, so no quadrature
    # runs and numpy warns of nothing (pytest turns RuntimeWarnings into errors)
    out = tmp_path / "gp.csv"
    rc = main(["sweep", "--quantity", "gp", "--axis", "theta", "--points", "3",
               "--omega", "0", "--delta", delta, "--lambda", "0.1", "--out", str(out)])
    assert rc == 2
    assert [r["status"] for r in read_csv(out)] == ["undefined-period"] * 3


def test_cli_params_warns_when_the_model_constants_overflow(capsys):
    # at resonance 4 M^2 overflows above omega ~ 3.35e153, and F with it
    assert main(["params", "--omega", "1e160", "--lambda", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "f_const    = 0-infj" in out
    assert ("warning: the model constants overflow (m_const = 0.1-2e+160j, "
            "f_const = 0-infj)\n") in out


def test_cli_gp_rows_whose_constants_overflow_are_invalid(tmp_path):
    # rows 2 and 3 overflow and fail before any kernel call, so numpy warns
    # of nothing (pytest turns RuntimeWarnings into errors); row 1 is the
    # phase of that row alone
    out = tmp_path / "gp.csv"
    rc = main(["sweep", "--quantity", "gp", "--axis", "omega", "--axis-min", "1e150",
               "--axis-max", "1e160", "--points", "3", "--lambda", "0.1",
               "--theta", "0.5", "--out", str(out)])
    assert rc == 2
    rows = read_csv(out)
    assert [r["status"] for r in rows] == ["ok", "invalid", "invalid"]
    assert rows[1]["phi_g"] == rows[2]["quad_err"] == ""
    alone = geometric_phase_detailed(
        derive(SystemParams(lam=0.1, omega_rabi=1e150, theta=0.5)), 0.5)
    assert (float(rows[0]["phi_g"]), float(rows[0]["quad_err"])) == alone[:2]


def test_cli_blp_rows_whose_constants_overflow_are_invalid(tmp_path):
    # the gap count of rows 2 and 3 was infinite and aborted the whole sweep
    out = tmp_path / "blp.csv"
    rc = main(["sweep", "--quantity", "blp", "--axis", "omega", "--axis-max", "1e300",
               "--points", "3", "--lambda", "0.1", "--out", str(out)])
    assert rc == 2
    rows = read_csv(out)
    assert [r["status"] for r in rows] == ["ok", "invalid", "invalid"]
    assert rows[1]["n_measure"] == rows[2]["alpha_best"] == ""
    alone = blp_measure(SystemParams(lam=0.1), t_max=2.0 * math.log(1e4) / 0.1)
    assert float(rows[0]["n_measure"]) == alone.n_measure


def test_cli_time_series_whose_constants_overflow_is_invalid(tmp_path):
    # every time of the row reads invalid, not pole
    out = tmp_path / "rate.csv"
    rc = main(["sweep", "--quantity", "decay_rate", "--axis", "time", "--points", "5",
               "--omega", "1e160", "--out", str(out)])
    assert rc == 2
    rows = read_csv(out)
    assert [r["status"] for r in rows] == ["invalid"] * 5
    assert all(r["decay_rate"] == "" for r in rows)


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
    # a command-line flag wins wherever --config stands
    assert main(["params", "--config", str(cfg), "--omega", "2.0"]) == 0
    assert "omega_d    = 4" in capsys.readouterr().out
    assert main(["params", "--omega", "2.0", "--config", str(cfg)]) == 0
    assert "omega_d    = 4" in capsys.readouterr().out
    # keys are long flag names, with - or _; a later line wins
    for text, line in [
        ("lambda = 0.2\nlam = 0.3\n", "lambda     = 0.29999999999999999"),
        ("lam = 0.3\nlambda = 0.2\n", "lambda     = 0.20000000000000001"),
        ("delta_cav = 0.5\n", "delta_cav  = 0.5"),
        ("delta-cav = 0.5\n", "delta_cav  = 0.5"),
    ]:
        cfg.write_text(text)
        assert main(["params", "--config", str(cfg)]) == 0
        assert line in capsys.readouterr().out.splitlines()


def test_cli_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text, message in [
        ("nonsense = 1\n", "unrecognized arguments: --nonsense=1"),
        ("command = check\n", "unrecognized arguments: --command=check"),
        ("config = other.cfg\n", "a config file cannot set config"),
    ]:
        cfg.write_text(text)
        assert main(["params", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err


def test_cli_config_missing_file_is_usage_error(tmp_path, capsys):
    assert main(["params", "--config", str(tmp_path / "missing.cfg")]) == 1
    assert "drivenqubit: cannot read config" in capsys.readouterr().err


def test_cli_config_value_that_does_not_parse_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    out = tmp_path / "c3.csv"
    # config values are checked as flags are, choices included
    for text, message in [
        ("points = abc\n", "argument --points: invalid int value: 'abc'"),
        ("scale =\n", "argument --scale: invalid choice: ''"),
        ("scale = LOG\n", "argument --scale: invalid choice: 'LOG'"),
    ]:
        cfg.write_text(text)
        rc = main(["sweep", "--quantity", "lgi3", "--axis", "tau",
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "figure", "sweep-to-dir"])
def test_cli_unwritable_out_is_usage_error(tmp_path, monkeypatch, capsys, command):
    import drivenqubit.sweeps as sweeps

    def no_rows(*args, **kwargs):
        raise AssertionError("no row is computed for an unwritable --out")

    monkeypatch.setattr(sweeps, "_time_series_block", no_rows)
    blocker = tmp_path / "file"
    blocker.write_text("")
    sweep = ["sweep", "--quantity", "lgi3", "--axis", "tau", "--out"]
    argv = {"sweep": [*sweep, str(blocker / "c3.csv")],
            "figure": ["figure", "--preset", "fig2", "--out", str(blocker)],
            "sweep-to-dir": [*sweep, str(tmp_path)]}[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("drivenqubit: ")
    assert ("is a directory" if command == "sweep-to-dir" else "cannot create directory") in err
    if command == "sweep":  # the library writer fails the same way
        with pytest.raises(ValidationError, match="cannot create directory"):
            write_rows(blocker / "c3.csv", SweepTable([]), ["status"])
    assert blocker.read_text() == ""


def test_cli_figure_unknown_preset(tmp_path):
    assert main(["figure", "--preset", "fig0", "--out", str(tmp_path)]) == 1


def test_cli_check_quick(capsys):
    assert main(["check", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_cli_check_reports_a_drifting_closed_form_as_failed_checks(monkeypatch, capsys):
    # the oracle checks gate the closed form themselves: a drift fails them
    # (exit 2, one line per check), it is not a usage error
    from drivenqubit import amplitude

    assert main(["check", "--quick"]) == 0
    names = [line.split(": ")[0][7:] for line in capsys.readouterr().out.splitlines()[:-1]]
    grid = amplitude.amplitude_grid
    monkeypatch.setattr(amplitude, "amplitude_grid",
                        lambda dp, times: tuple(v * (1 + 1e-6) for v in grid(dp, times)))
    assert main(["check", "--quick"]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split(": ")[0][7:] for line in lines[:-1]] == names
    oracle = [line for line in lines if line.startswith("[FAIL] amplitude ")]
    assert len(oracle) == 4 and "max|A|=1.0000010" in oracle[0]
    assert captured.err == ""


def test_cli_entry_point_runs(tmp_path):
    import os
    import subprocess
    import sys

    env = os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-m", "drivenqubit.cli", "--version"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "0.1.0"
    # a usage error exits 1 with a message, not a traceback
    csv_out = tmp_path / "a.csv"
    out = subprocess.run([sys.executable, "-m", "drivenqubit.cli", "sweep",
                          "--quantity", "amplitude", "--axis", "time",
                          "--scale", "bogus", "--out", str(csv_out)],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 1
    assert "invalid choice: 'bogus'" in out.stderr
    assert "Traceback" not in out.stderr
    assert not csv_out.exists()


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
        "    return sorted(m for m in sys.modules",
        "                  if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent'))",
        "assert main(['params', '--lambda', '0.1']) == 0",
        "print('loaded:', loaded())",
        "assert main(['sweep', '--quantity', 'blp', '--axis', 'omega', '--axis-min', '0',",
        f"             '--axis-max', '1', '--points', '2', '--out', {str(out)!r}]) == 0",
        "print('loaded:', loaded())",
        "assert main(['check', '--quick']) == 0",
        "print('loaded:', loaded())",
    ])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    loaded = [line for line in res.stdout.splitlines() if line.startswith("loaded:")]
    assert loaded == ["loaded: []"] * 3
    assert len(read_csv(out)) == 2
