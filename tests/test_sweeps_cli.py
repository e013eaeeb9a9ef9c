import contextlib
import csv
import io
import json
import math
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # only the property test needs hypothesis (the `test` extra)
    given = None
try:
    import mpmath
except ImportError:  # only the property test's envelope check needs mpmath
    mpmath = None

from drivenqubit import (SweepAxis, SweepSpec, SystemParams, ValidationError,
                         amplitude_closed_form, blp_measure, derive,
                         geometric_phase_detailed)
from drivenqubit import cli
from drivenqubit.cli import main
from drivenqubit.sweeps import (AXES, PARAM_COLUMNS, PRESET_NAMES, QUANTITIES, SweepBlock,
                                SweepTable, figure_preset, run_sweep, sweep_columns,
                                write_rows)


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
    # finite bounds whose span overflows: an error, not a numpy warning
    with pytest.raises(ValidationError, match="span must be finite"):
        SweepAxis("delta", -1e308, 1e308, 3)
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
    # at theta = pi/2 the integrand is below 1e-31 throughout, so even tol
    # 1e-30 is met; the other rows fall below the rounding floor of their
    # integrals, some 1e-15
    spec = SweepSpec("gp", SystemParams(lam=0.1, omega_rabi=0.3),
                     SweepAxis("theta", 0.0, math.pi / 2, 3), quad_tol=1e-30)
    table, summary = run_sweep(spec)
    rows = table.rows()
    assert [r["status"] for r in rows] == ["invalid", "invalid", "ok"]
    dp = derive(SystemParams(lam=0.1, omega_rabi=0.3))
    phi, err, _ = geometric_phase_detailed(dp, math.pi / 2, 1e-30)
    assert (rows[2]["phi_g"], rows[2]["quad_err"]) == (phi, err)
    assert all(r["phi_g"] is r["quad_err"] is None for r in rows[:2])
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


def test_write_rows_quotes_status_labels(tmp_path):
    # a label is a cell like any other: csv quotes its comma and quotes
    block = SweepBlock({}, {"tau": np.array([1.0, 1.0])}, {"c3": np.array([1.0, 2.0])},
                       ["ok", 'bad, "label" 100%'])
    out = tmp_path / "labels.csv"
    write_rows(out, SweepTable([block]), ["tau", "c3", "curve", "status"])
    rows = list(csv.reader(out.read_text().splitlines()[1:]))
    assert rows == [["tau", "c3", "curve", "status"], ["1", "1", "", "ok"],
                    ["1", "", "", 'bad, "label" 100%']]


def test_write_rows_writes_once_per_block(tmp_path, monkeypatch):
    import drivenqubit.sweeps as sweeps

    writes = []

    class Counting:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            writes.append(text)
            return self.fh.write(text)

    monkeypatch.setattr(sweeps, "open", lambda *a, **k: Counting(open(*a, **k)),
                        raising=False)
    tau = np.linspace(0.0, 4.0, 50)
    blocks = [SweepBlock({"curve": c}, {"tau": tau}, {"c3": tau * c},
                         ["ok"] * 49 + [status]) for c, status in ((0.5, "ok"), (1.0, "pole"))]
    blocks.append(SweepBlock({"curve": 2.0}, {"tau": tau[:0]}, {"c3": tau[:0]}, []))
    write_rows(tmp_path / "c3.csv", SweepTable(blocks), ["curve", "tau", "c3", "status"])
    assert len(writes) == 1 + len(blocks)
    assert len(read_csv(tmp_path / "c3.csv")) == 100


if given is None:
    def test_write_rows_matches_per_cell_writer_on_random_tables():
        pytest.skip("needs hypothesis (the test extra)")
else:
    _LABELS = ["ok", "pole", "undefined-period", "invalid", 'bad, "label" 100%',
               "%s%%", ""]
    _INTS = {np.int64: (-2 ** 63, 2 ** 63 - 1), np.uint8: (0, 255),
             np.uint64: (0, 2 ** 64 - 1)}

    def _random_column(draw, n):
        dtype = draw(st.sampled_from([np.float64, bool, *_INTS]))
        if dtype is np.float64:
            cells = st.floats()  # NaN and inf included
        elif dtype is bool:
            cells = st.booleans()
        else:
            cells = st.integers(*_INTS[dtype])
        return np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=dtype)

    @st.composite
    def _random_tables(draw):
        """Blocks over columns a-e: each column a constant, coordinate,
        observable or absent per block; rows all ok, all failed or mixed."""
        constants = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                              st.text(',"%a \n', max_size=4))
        blocks = []
        for _ in range(draw(st.integers(0, 3))):
            n = draw(st.integers(0, 6))
            mode = draw(st.sampled_from(["ok", "failed", "mixed"]))
            labels = {"ok": ["ok"], "failed": _LABELS[1:], "mixed": _LABELS}[mode]
            const, coords, values = {}, {}, {}
            for c in "abcde":
                role = draw(st.sampled_from(["const", "coord", "value", "absent"]))
                if role == "const":
                    const[c] = draw(constants)
                elif role != "absent":
                    (coords if role == "coord" else values)[c] = _random_column(draw, n)
            status = draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
            blocks.append(SweepBlock(const, coords, values, status))
        columns = draw(st.lists(st.sampled_from([*"abcde", "status"]), unique=True))
        return SweepTable(blocks), columns

    @settings(max_examples=150)
    @given(_random_tables())
    def test_write_rows_matches_per_cell_writer_on_random_tables(tmp_path_factory,
                                                                 table_columns):
        table, columns = table_columns
        tmp = tmp_path_factory.getbasetemp() / "random_tables"
        # the drawn columns, then each column alone (a lone empty cell is "")
        for cols in (columns, *([c] for c in [*"abcde", "status"])):
            _assert_writes_as_reference(tmp, table, cols)


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


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_figure_manifest_reproduces_the_figure(tmp_path, name):
    # each manifest entry, rebuilt and run alone, writes its curve's rows of
    # the panel file byte for byte, apart from the curve column: the figure's
    # batched blocks come in manifest order, each the slice of its own curve
    result = figure_preset(name, tmp_path / "figure")
    panels = {}
    for path in map(Path, result["files"]):
        _, *lines = path.read_text().splitlines()
        panels[path.name] = [line.split(",", 1) for line in lines]
    manifest = json.loads(Path(result["manifest"]).read_text())
    for k, entry in enumerate(manifest["sweeps"]):
        spec = SweepSpec.from_dict(entry["spec"])
        out = tmp_path / f"curve{k}.csv"
        write_rows(out, run_sweep(spec)[0], sweep_columns(spec))
        _, header, *rows = out.read_text().splitlines()
        panel = panels[f"{name}_{entry['panel']}.csv"]
        assert panel[0] == ["curve", header]
        curve, panel[1:] = panel[1:1 + len(rows)], panel[1 + len(rows):]
        assert [cells for _, cells in curve] == rows
        assert {float(value) for value, _ in curve} == {entry["curve_value"]}
    assert all(len(panel) == 1 for panel in panels.values())  # every row is a curve's


@pytest.mark.parametrize("name,bound_mb", [("fig9", 3.2), ("fig10", 2.0)])
def test_figure_preset_blp_pass_heap_stays_bounded(tmp_path, name, bound_mb):
    # the peak heap of a figure's one batched blp pass (measured 2.67 and
    # 1.65 MB; 1.44 and 1.52 MB with one pass per curve): a batching change
    # that grows it shows here
    figure_preset(name, tmp_path)  # imports and first-call caches
    tracemalloc.start()
    try:
        figure_preset(name, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6


def test_figure_preset_deterministic(tmp_path):
    r1 = figure_preset("fig2", tmp_path / "a")
    r2 = figure_preset("fig2", tmp_path / "b")
    for p1, p2 in zip(r1["files"], r2["files"]):
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_output_digest_lists_every_preset_output_and_check(tmp_path, capsys):
    # tools/output_digest.py hashes each file that fig2-fig10 write, and
    # check's output, one sorted "sha256 path" line each
    import hashlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    lines = tool.digests(tmp_path)
    digests, names = zip(*(line.split(" ") for line in lines))
    assert list(names) == sorted(names) == sorted(p.name for p in tmp_path.iterdir())
    assert {f"{name}_manifest.json" for name in PRESET_NAMES} < set(names)
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in digests)
    assert main(["check"]) == 0
    check = capsys.readouterr().out.encode()
    assert dict(zip(names, digests))["check.txt"] == hashlib.sha256(check).hexdigest()


@pytest.mark.parametrize("name,calls", [("fig2", 4), ("fig3", 4), ("fig5", 7)])
def test_figure_evaluates_each_distinct_series_once(tmp_path, monkeypatch, name, calls):
    # the lgi3 and lgi4 curves of one parameter set share one lgi_series,
    # and fig5's omega 0.1 and delta 0 witness curves are one series; every
    # series function of the quantity table is counted
    import drivenqubit.sweeps as sweeps

    made = []

    def counted(real):
        def read(*args):
            made.append(args)
            return real(*args)
        return read

    wrapped = {read: counted(read) for read, _ in sweeps._SERIES.values()}
    for quantity, (read, observe) in list(sweeps._SERIES.items()):
        monkeypatch.setitem(sweeps._SERIES, quantity, (wrapped[read], observe))
    figure_preset(name, tmp_path)
    assert len(made) == calls


def test_figure_preset_reads_the_table_built_at_import(tmp_path, monkeypatch):
    import drivenqubit.sweeps as sweeps

    assert sweeps._PRESETS == sweeps._preset_table()
    for panels in sweeps._PRESETS.values():
        assert isinstance(panels, tuple)
        assert all(isinstance(specs, tuple) for _, _, specs in panels)

    def rebuilt():
        raise AssertionError("the preset table is built once per process")

    monkeypatch.setattr(sweeps, "_preset_table", rebuilt)
    result = figure_preset("fig2", tmp_path)
    assert [Path(p).name for p in result["files"]] == ["fig2_c3.csv", "fig2_c4.csv"]
    assert all(Path(p).stat().st_size > 0 for p in result["files"])


def test_cli_params(capsys):
    assert main(["params", "--lambda", "0.01", "--omega", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "omega_d    = 0.2" in out
    assert "eta        = 1.57" in out
    assert "period     = 31.41592653589793" in out


def test_cli_params_warns_outside_regime(capsys):
    assert main(["params", "--lambda", "2.0"]) == 0
    assert "warning" in capsys.readouterr().out


@pytest.mark.parametrize("flags,warning", [
    (["--delta", "0"], "omega_d = 0 (undriven, resonant): the dressed period is undefined"),
    (["--delta", "1e-310"], "omega_d = 1e-310: the dressed period 2 pi / omega_d overflows"),
    (["--delta", "5e-324"],
     "omega_d = 4.94e-324: the dressed period 2 pi / omega_d overflows"),
    (["--lambda", "0.1", "--omega", "1e308"], "omega_d = inf: the dressed period is undefined")],
    ids=["0", "1e-310", "5e-324", "omega-1e308"])
def test_cli_params_without_period_warns(capsys, flags, warning):
    # omega_d = delta: 0 has no period, and below ~3.5e-308 2 pi / omega_d
    # overflows; omega 1e308 overflows omega_d to inf, where 2 pi / omega_d
    # read as a period of 0
    assert main(["params", *flags]) == 0
    out = capsys.readouterr().out
    assert "period     =" not in out
    assert f"warning: {warning}\n" in out


def test_cli_negative_values_in_scientific_notation_are_values(tmp_path, capsys):
    # argparse's own negative-number pattern has no exponent, so "-1e-3"
    # read as a flag and "--delta" as missing its argument
    assert main(["params", "--delta", "-1e-3", "--delta-cav", "-2E+1"]) == 0
    out = capsys.readouterr().out
    assert "delta      = -0.001\n" in out and "delta_cav  = -20\n" in out
    csv_path = tmp_path / "blp.csv"
    assert main(["sweep", "--quantity", "blp", "--axis", "delta", "--axis-min", "-1e-1",
                 "--axis-max", "1e-1", "--points", "3", "--omega", "0.1",
                 "--out", str(csv_path)]) == 0
    assert [float(r["delta"]) for r in read_csv(csv_path)] == [-0.1, 0.0, 0.1]


@pytest.mark.parametrize("literal", ["-inf", "-INF", "-Infinity", "-nan", "-NaN", "-1_000",
                                     "-1_000.5e-1_0"])
def test_cli_negative_literals_read_as_with_an_equals_sign(capsys, literal):
    # every negative literal that float() reads is a value: "--delta -inf"
    # reaches the finiteness check and its precise message, as "--delta=-inf"
    # does, instead of reading as a flag ("expected one argument")
    spaced = (main(["params", "--delta", literal]), capsys.readouterr())
    joined = (main(["params", f"--delta={literal}"]), capsys.readouterr())
    assert spaced == joined
    if "_" not in literal:
        assert spaced[0] == 1 and "delta_qc must be finite" in spaced[1].err


# gp sweeps at the extremes of the accepted box, where the kernel's exponents,
# the beat count and the grading ratios overflow: (flags, exit code, statuses)
_EXTREME_GP = [
    ("--axis delta --axis-min 0 --axis-max 5.61188700831667e-131 "
     "--lambda 3.849214578112751e+135 --omega 2.6872997664600827e-230 "
     "--delta 6.246288464082639e-38 --delta-cav 9.236738376703408e-26 "
     "--theta 0.3474812014060169", 0, ["ok", "ok", "ok"]),
    ("--axis omega --axis-min 0 --axis-max 6.521019913937361e-20 "
     "--lambda 5.133702615881189e+41 --omega 728429206904.4314 "
     "--delta 1.2129060032021605e-268 --delta-cav -8.066791769949584e-59 "
     "--theta 0.7815533174212724", 0, ["ok", "ok", "ok"]),
    ("--axis theta --axis-min 0.47073673787485765 --axis-max 1.5013412153033328 "
     "--lambda 0.07762421609759736 --omega 0 --delta 8.94429570814818e-261 "
     "--delta-cav 9.689811556958475e+147 --theta 0.909358696287282",
     2, ["invalid", "invalid", "invalid"]),
    ("--axis theta --axis-min 0.5025666695226031 --axis-max 1.4688841367671939 "
     "--scale log --lambda 7.855281199148848e+52 --omega 0 "
     "--delta -5.69083126290234e-284 --delta-cav 3.263600668103957e+34 --theta 0.5",
     2, ["invalid", "invalid", "invalid"]),
    ("--axis delta --axis-min -3.9817320704876354e-297 --axis-max 6.732675840529181e+79 "
     "--lambda 8.097998078176366e-176 --omega 0 --delta 3.1880484006551076e-142 "
     "--delta-cav -1.0501909697151306e-257 --theta 0.6658120469563867",
     2, ["invalid", "ok", "ok"]),
]


@pytest.mark.parametrize("flags, code, statuses", _EXTREME_GP,
                         ids=["delta", "omega", "theta", "theta-log", "delta-wide"])
def test_cli_gp_sweeps_at_extreme_inputs_print_no_numpy_warning(tmp_path, capsys, flags,
                                                                code, statuses):
    # the suite turns a RuntimeWarning into an error, so any numpy warning
    # that reaches the caller fails the sweep here
    out = tmp_path / "gp.csv"
    assert main(["sweep", "--quantity", "gp", "--points", "3", *flags.split(),
                 "--out", str(out)]) == code
    assert [r["status"] for r in read_csv(out)] == statuses
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("quantity, axis, code, statuses", [
    ("amplitude", "time", 0, ["ok", "ok", "ok"]),
    ("witness", "tau", 0, ["ok", "ok", "ok"]),
    ("decay_rate", "time", 2, ["ok", "pole", "pole"]),
])
def test_cli_rows_past_the_underflow_of_the_envelope_read_zero(tmp_path, capsys, quantity,
                                                               axis, code, statuses):
    # at t = 5e299 and 1e300 the envelope exp(Re s+ t) is 0 and the phase
    # Im F t/4 is infinite: A is 0 there, so its rows are ok with cells 0,
    # and decay_rate labels the zeros of A as poles; no numpy warning (the
    # suite makes a RuntimeWarning an error) and nothing on stderr
    out = tmp_path / f"{quantity}.csv"
    assert main(["sweep", "--quantity", quantity, "--axis", axis, "--axis-max", "1e300",
                 "--points", "3", "--lambda", "1e10", "--omega", "1e10",
                 "--out", str(out)]) == code
    rows = read_csv(out)
    assert [r["status"] for r in rows] == statuses
    if code == 0:
        assert all(r[c] == "0" for r in rows[1:] for c in QUANTITIES[quantity][1])
    assert capsys.readouterr().err == ""


def test_cli_negative_detuning_at_weak_drive_keeps_the_coupling(tmp_path, capsys):
    # 1 + cos eta rounded to 0 at omega 1e-9, delta -1, so the row was
    # decoupled and read |A| = 1 at every time; the model gives |c+| e^{Re
    # s+ t} at t = 1e43 (e^{s- t} is 0 there), with s+ = -q/(2(F + 2M)) and
    # c+ = (1 + 2M/F)/2 at 50 digits
    mpmath = pytest.importorskip("mpmath")
    out = tmp_path / "amplitude.csv"
    assert main(["sweep", "--quantity", "amplitude", "--axis", "time", "--axis-min", "0",
                 "--axis-max", "1e43", "--points", "2", "--omega", "1e-9", "--delta", "-1",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    with mpmath.workdps(50):
        lam, omega, delta = mpmath.mpf(0.01), mpmath.mpf(1e-9), mpmath.mpf(-1)
        omega_d = mpmath.sqrt(delta ** 2 + 4 * omega ** 2)
        q = lam * (1 + mpmath.cos(mpmath.atan2(2 * omega, delta))) ** 2
        M = mpmath.mpc(lam, -(omega_d - delta))
        F = mpmath.sqrt(4 * M * M - 2 * q)
        s_plus = -q / (2 * (F + 2 * M))
        ref = float(abs((1 + 2 * M / F) / 2) * mpmath.exp(s_plus.real * mpmath.mpf(1e43)))
    row = read_csv(out)[1]
    assert (row["time"], row["status"]) == ("1e+43", "ok")
    assert float(row["abs_a"]) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("quantity, flags", [
    ("amplitude", ["--axis", "time", "--axis-max", "1000"]),
    ("blp", ["--axis", "lambda_ratio", "--axis-min", "0.01", "--axis-max", "0.02"])])
def test_cli_signed_zero_detuning_reads_as_zero(tmp_path, capsys, quantity, flags):
    # arctan2(0, -0) is pi, which made the undriven --delta -0 row decoupled
    # (|A(1000)| = 1, n_measure 0); every cell but the delta_qc echo, the
    # exit code and the summary are those of --delta 0
    def run(delta):
        out = tmp_path / f"{quantity}{delta}.csv"
        rc = main(["sweep", "--quantity", quantity, *flags, "--points", "2", "--omega", "0",
                   "--delta", delta, "--out", str(out)])
        captured = capsys.readouterr()
        rows = read_csv(out)
        for row in rows:
            assert row.pop("delta_qc") == delta
        return rc, captured.err, captured.out.split("\n", 1)[1], rows

    signed, plain = run("-0"), run("0")
    assert signed == plain
    assert plain[:2] == (0, "")
    assert {r["status"] for r in plain[3]} == {"ok"}


if given is None:
    def test_cli_sweeps_over_the_whole_box_exit_cleanly():
        pytest.skip("needs hypothesis (the test extra)")
else:
    _PAIRS = [(q, a) for q, (axes, _) in QUANTITIES.items() for a in axes]
    _SPECIAL = [0.0, -0.0, 5e-324, 1e300]  # values that broke rows before

    def _box(lo=None, hi=None):
        """Finite floats in [lo, hi], the special values in it reachable."""
        special = [v for v in _SPECIAL if (lo is None or lo <= v) and (hi is None or v <= hi)]
        return st.one_of(st.sampled_from(special),
                         st.floats(lo, hi, allow_nan=False, allow_infinity=False))

    # each flag's domain; one drawn flag, if any, takes any finite float
    _FLAGS = {"--lambda": _box(5e-324), "--omega": _box(0.0), "--delta": _box(),
              "--delta-cav": _box(), "--theta": _box(0.0, math.pi / 2), "--tmax": _box(5e-324)}
    _ENDS = {"time": _box(0.0), "tau": _box(0.0), "lambda_ratio": _box(5e-324),
             "omega": _box(0.0), "delta": _box(), "theta": _box(0.0, math.pi / 2)}
    _FAILURES = {"pole", "undefined-period", "invalid"}

    def _envelope(row):
        """(|c+| + |c-|) e^{Re s+ t} >= |A(t)| (Re s- <= Re s+ <= 0) at 50
        digits from an amplitude row's cells, with s+ = -q/(2(F + 2M)) and
        c+- = (1 +- 2M/F)/2; inf at F = 0, where the weights are.  omega_d -
        |delta_qc| is taken as 4 omega^2/(omega_d + |delta_qc|): at 50 digits
        the difference loses every digit once the drive is below 1e-25 times
        the detuning."""
        with mpmath.workdps(50):
            gamma, lam, omega, delta, delta_cav, t = (mpmath.mpf(row[c]) for c in (
                "gamma", "lam", "omega_rabi", "delta_qc", "delta_cav", "time"))
            omega_d = mpmath.hypot(delta, 2 * omega)
            if omega_d == 0:  # eta = 0
                gap, coupling = 0, 2
            else:
                gap = 4 * omega ** 2 / (omega_d + abs(delta))
                coupling = gap / omega_d if delta < 0 else 1 + delta / omega_d
            M = mpmath.mpc(lam, -((gap if delta > 0 else omega_d - delta) + delta_cav))
            q = gamma * lam * coupling ** 2
            F = mpmath.sqrt(4 * M * M - 2 * q)
            if F == 0:
                return mpmath.inf
            s_plus = -q / (2 * (F + 2 * M))
            weights = abs((1 + 2 * M / F) / 2) + abs((1 - 2 * M / F) / 2)
            return weights * mpmath.exp(s_plus.real * t)

    @st.composite
    def _sweeps(draw):
        quantity, axis = draw(st.sampled_from(_PAIRS))
        flags = {f: draw(domain) for f, domain in _FLAGS.items()}
        ends = sorted(draw(st.lists(_ENDS[axis], min_size=2, max_size=2, unique=True)))
        anywhere = draw(st.sampled_from([None, None, None, *_FLAGS, "--axis-min"]))
        if anywhere == "--axis-min":
            ends[0] = draw(_box())
        elif anywhere is not None:
            flags[anywhere] = draw(_box())
        return (quantity, ["sweep", "--quantity", quantity, "--axis", axis,
                           "--points", str(draw(st.integers(2, 3))),
                           "--scale", draw(st.sampled_from(["linear", "linear", "log"])),
                           *(f"{f}={v!r}" for f, v in flags.items()),
                           f"--axis-min={ends[0]!r}", f"--axis-max={ends[1]!r}"])

    @settings(max_examples=60)
    @given(_sweeps())
    # |A| exceeded its envelope by 5.4e-7 relative here while Im M lost digits
    @example(("amplitude", ["sweep", "--quantity", "amplitude", "--axis", "time",
                            "--axis-min", "7.679e10", "--axis-max", "7.68e10", "--points", "2",
                            "--lambda", "5.52", "--omega", "1e8", "--delta", "4.178e11"]))
    def test_cli_sweeps_over_the_whole_box_exit_cleanly(sweep):
        # every sweep the parser accepts: nothing escapes main (the suite's
        # filter makes a numpy warning an error), the exit code is 0, 1 or 2,
        # a usage error writes no CSV, the CSV keeps FORMATS.md's rules, and
        # |A| keeps within 1 and within its envelope
        quantity, argv = sweep
        columns = QUANTITIES[quantity][1]
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "sweep.csv"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main([*argv, "--out", str(out)])
            assert rc in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if rc == 1:
                assert not out.exists()
                return
            rows = read_csv(out)
        for row in rows:
            if row["status"] == "ok":
                assert all(math.isfinite(float(row[c])) for c in columns)
                if quantity == "amplitude":
                    assert float(row["abs_a"]) <= 1.0 + 1e-12
                    if mpmath is not None:
                        assert float(row["abs_a"]) <= _envelope(row) * (1 + 1e-12)
            else:
                assert row["status"] in _FAILURES
                assert all(row[c] == "" for c in columns)
        assert (rc == 2) == any(row["status"] != "ok" for row in rows)


@pytest.mark.parametrize("quantity, flags, cells", [
    ("amplitude", ["--axis", "time", "--scale", "log", "--axis-min", "5e-324",
                   "--axis-max", "1.7976931348622103e+308"],
     {"time": ["4.9406564584124654e-324", "1.7976931348622103e+308"]}),
    ("blp", ["--axis", "omega", "--axis-min", "0", "--axis-max", "1", "--lambda", "3",
             "--delta-cav", "5e-324"], {"n_measure": ["0", "0"]}),
    ("blp", ["--axis", "omega", "--axis-min", "0", "--axis-max", "1", "--lambda", "2",
             "--delta-cav", "5e-324"],
     {"n_measure": ["0", "0"], "residual_bound": ["7.5145534715620885e-42",
                                                  "0.0047349629394054845"],
      "truncated": ["0", "1"]}),
    ("blp", ["--axis", "omega", "--axis-min", "0", "--axis-max", "5e-324", "--lambda",
             "89884657", "--tmax", "1e300"],
     {"n_measure": ["0", "0"], "residual_bound": ["0", "0"], "truncated": ["0", "0"]})],
    ids=["log axis to the largest float", "subnormal beat", "|c+|^2 past the largest float",
         "decay exponent past -inf"])
def test_cli_values_that_round_past_the_largest_float_read_without_warnings(
        tmp_path, capsys, quantity, flags, cells):
    # found by test_cli_sweeps_over_the_whole_box_exit_cleanly run with more
    # examples: 10**log10(stop) of a log axis rounds past the largest float;
    # at delta_cav 5e-324 the beat w of an overdamped row is subnormal, so
    # its first cut past t = 0 overflows, and near critical damping (lam 2)
    # |c+| is about 1/|F|, so |c+|^2 overflowed; at lam ~ 9e7 and t_max
    # 1e300 the exponent -2 k t did.  geomspace sets the axis ends, the cut
    # is clipped to t_max, and exp(-inf) is 0, so the cells were right, but
    # numpy warned (an error under the suite's filter)
    out = tmp_path / f"{quantity}.csv"
    assert main(["sweep", "--quantity", quantity, "--points", "2", *flags,
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = read_csv(out)
    assert [r["status"] for r in rows] == ["ok", "ok"]
    assert {column: [r[column] for r in rows] for column in cells} == cells


def test_formats_documents_the_columns_of_every_quantity():
    # FORMATS.md's table of observable columns is QUANTITIES: the same
    # quantities, column names and order, and the same kind of axis
    text = (Path(__file__).parents[1] / "FORMATS.md").read_text()
    table = text.split("### Observable columns per quantity\n\n")[1].split("\n\n")[0]
    documented = {}
    for line in table.splitlines()[2:]:
        quantity, axis, columns = (cell.strip() for cell in line.strip("|").split("|"))
        documented[quantity] = (axis.split()[0], tuple(re.findall(r"`(\w+)`", columns)))
    kinds = {("time",): "time", ("tau",): "tau",
             tuple(name for name, (column, _) in AXES.items() if column): "parameter"}
    assert list(documented) == list(QUANTITIES)
    assert documented == {q: (kinds[axes], columns) for q, (axes, columns) in QUANTITIES.items()}


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
    # both rows need more pieces than their budget, to t_max (omega 0: k =
    # 0, so no t2) or to t2, so each fails before the kernel sees its
    # horizon: no numpy warning (the suite's filter would raise it), only
    # the summary line
    out = tmp_path / "blp.csv"
    rc = main(["sweep", "--quantity", "blp", "--axis", "omega", "--axis-min", "0",
               "--axis-max", "1e10", "--points", "2", "--lambda", "0.1",
               "--tmax", "1e300", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == ""
    assert captured.out == f"wrote {out}: 2 rows, 2 failed\n"
    assert [r["status"] for r in read_csv(out)] == ["invalid", "invalid"]


def test_cli_blp_overdamped_row_at_a_huge_horizon_reads_without_warnings(tmp_path, capsys):
    # the omega 0 row has no oscillation, so no work budget applies, and its
    # tail |A(t_max)| takes a decay exponent that overflows to -inf: its
    # limit 0 is right, with no numpy warning (the suite's filter would raise
    # it); the omega 1e-3 row is searched to its t2 alone, within its
    # budget, and its tail past the underflow of the envelope reads 0 too
    out = tmp_path / "blp.csv"
    rc = main(["sweep", "--quantity", "blp", "--axis", "omega", "--axis-min", "0",
               "--axis-max", "1e-3", "--points", "2", "--lambda", "1e9",
               "--tmax", "1e300", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""
    assert captured.out == (f"wrote {out}: 2 rows, 0 failed\n"
                            "blp: min=0 max=0 argmax=0\n")
    rows = read_csv(out)
    assert [r["status"] for r in rows] == ["ok", "ok"]
    for row in rows:
        assert row["n_measure"] == row["residual_bound"] == "0"


_FOUND = ["--axis-min", "1.9", "--axis-max", "2", "--points", "2", "--lambda", "0.01"]


@pytest.mark.parametrize("flags, reference", [
    ([*_FOUND, "--tmax", "1e7"], [*_FOUND, "--tmax", "1000"]),
    (["--axis-min", "0", "--axis-max", "2", "--points", "3", "--lambda", "5e-324"], None)],
    ids=["searched to t2", "subnormal lambda"])
def test_cli_blp_rows_read_at_their_horizon_without_warnings(tmp_path, capsys, flags,
                                                             reference):
    # lam 0.01: no extremum of |A| lies past t2 = 599 (omega 2), so the search
    # stops there, and its budget counts the pieces to t2: at --tmax 1e7 the
    # rows are searched, and read the measure of --tmax 1000 bit for bit.
    # lam 5e-324: the capped horizon 2 ln(1e4)/lam overflows to inf, and
    # the cap 5000 holds; every row reads 0, with the tail 1 undecayed
    def run(flags):
        out = tmp_path / "blp.csv"
        rc = main(["sweep", "--quantity", "blp", "--axis", "omega", *flags,
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        rows = read_csv(out)
        assert captured.out.startswith(f"wrote {out}: {len(rows)} rows, 0 failed\n")
        assert {r["status"] for r in rows} == {"ok"}
        return rows

    rows = run(flags)
    if reference is None:
        assert [(r["n_measure"], r["residual_bound"], r["truncated"]) for r in rows] == \
            [("0", "2", "1")] * 3
    else:
        assert ([r["n_measure"] for r in rows] == [r["n_measure"] for r in run(reference)]
                == ["0.020310973285367347", "0.019321490905737475"])


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


def test_cli_rows_whose_gap_overflows_off_resonance_are_invalid(tmp_path, capsys):
    # omega_d - delta_qc ~ 1.3e306 while omega_d + delta_qc overflows: a gap
    # taken over that sum read 0, and these rows read ok with the cells of a
    # resonant model
    flags = ["--omega", "1e307", "--delta", "1.5e308", "--lambda", "1"]
    assert main(["params", *flags]) == 0
    assert "warning: the model constants overflow" in capsys.readouterr().out
    out = tmp_path / "amplitude.csv"
    assert main(["sweep", "--quantity", "amplitude", "--axis", "time", "--axis-max", "3",
                 "--points", "3", *flags, "--out", str(out)]) == 2
    assert [r["status"] for r in read_csv(out)] == ["invalid"] * 3


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


@pytest.mark.parametrize("quantity", ["gp", "blp", "amplitude"])
def test_rows_at_the_overflow_of_the_constants_are_invalid_and_unwarned(quantity):
    # omega 1e154: 4 M^2 overflows in the one array derive of the sweep, which
    # warns of nothing (pytest turns RuntimeWarnings into errors)
    if quantity == "amplitude":
        spec = SweepSpec(quantity, SystemParams(lam=0.1, omega_rabi=1e154),
                         SweepAxis("time", 0.0, 10.0, 3))
    else:
        spec = SweepSpec(quantity, SystemParams(lam=0.1, theta=0.5),
                         SweepAxis("omega", 1e154, 2e154, 3))
    table, summary = run_sweep(spec)
    assert summary.n_failed == 3
    assert [r["status"] for r in table.rows()] == ["invalid"] * 3


@pytest.mark.parametrize("axis,fixed", [
    (SweepAxis("lambda_ratio", -0.5, 0.5, 5), SystemParams(lam=0.1, gamma=2.0)),
    (SweepAxis("lambda_ratio", -1.0, 1.0, 3), SystemParams(lam=0.1)),
    (SweepAxis("omega", -2.0, 2.0, 5), SystemParams(lam=0.1)),
    (SweepAxis("theta", 0.0, 2.0, 9), SystemParams(lam=0.1)),
    (SweepAxis("lambda_ratio", 1e300, 1e308, 3), SystemParams(lam=0.1, gamma=1e10)),
])
@pytest.mark.parametrize("quantity", ["gp", "blp"])
def test_bad_swept_value_raises_the_message_of_its_parameter_set(quantity, axis, fixed):
    # the swept column is checked in one array test; its first bad value, in
    # axis order, raises what SystemParams raises for that row
    column = AXES[axis.name][0]
    expected = None
    for v in axis.values().tolist():
        try:
            replace(fixed, **{column: v * fixed.gamma if column == "lam" else v})
        except ValidationError as exc:
            expected = str(exc)
            break
    assert expected is not None
    with pytest.raises(ValidationError) as raised:
        run_sweep(SweepSpec(quantity, fixed, axis))
    assert str(raised.value) == expected


def test_mixed_specs_share_one_derive_and_read_as_alone():
    # one array derive covers the rows of the gp and blp specs of a _blocks
    # call, and each series derives its fixed parameters alone; with gp, blp
    # and series specs interleaved, each block is its spec's sweep alone
    from drivenqubit.sweeps import _blocks

    p = SystemParams(lam=0.05, omega_rabi=0.3, delta_qc=0.5, theta=0.4)
    specs = [SweepSpec("gp", p, SweepAxis("omega", 0.0, 1.0, 4)),
             SweepSpec("amplitude", p, SweepAxis("time", 0.0, 5.0, 5)),
             SweepSpec("blp", p, SweepAxis("lambda_ratio", 0.05, 0.5, 3, "log")),
             SweepSpec("lgi3", p, SweepAxis("tau", 0.0, 4.0, 5)),
             SweepSpec("gp", p, SweepAxis("theta", 0.0, 1.5, 3)),
             SweepSpec("blp", p, SweepAxis("delta", 0.0, 2.0, 3)),
             SweepSpec("lgi4", p, SweepAxis("tau", 0.0, 4.0, 5))]
    for spec, block in zip(specs, _blocks(specs), strict=True):
        assert [block.row(i) for i in range(len(block))] == run_sweep(spec)[0].rows()


def test_cli_blp_long_horizon_rows_are_ok(tmp_path):
    # |A| underflows long before t_max 2000; the kernel's sign of d|A|/dt
    # is read without the envelope, so every row is ok
    out = tmp_path / "blp.csv"
    rc = main(["sweep", "--quantity", "blp", "--axis", "lambda_ratio", "--axis-min", "0.4",
               "--axis-max", "0.6", "--points", "3", "--omega", "0", "--tmax", "2000",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert [r["status"] for r in rows] == ["ok"] * 3
    for row in rows:
        at_1000 = blp_measure(SystemParams(lam=float(row["lam"])), t_max=1000.0)
        assert float(row["n_measure"]) == pytest.approx(at_1000.n_measure, rel=1e-11)


def test_cli_blp_rows_whose_grid_nodes_land_on_roots_are_ok(tmp_path):
    # t_max 10 pi puts nodes of the undriven lam 1 row's search grid on the
    # roots of its slope (tests/test_nonmarkov.py); both rows read ok
    out = tmp_path / "blp.csv"
    rc = main(["sweep", "--quantity", "blp", "--axis", "delta", "--axis-min", "0",
               "--axis-max", "0.5", "--points", "2", "--lambda", "1",
               "--tmax", "31.415926535897931", "--out", str(out)])
    assert rc == 0
    assert [r["status"] for r in read_csv(out)] == ["ok", "ok"]


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

    def broken(rows, t_maxes):
        result = list(measures(rows, t_maxes))
        result[position] = np.full(len(t_maxes), value)
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


def test_cli_parser_is_built_once_and_reused_cleanly(tmp_path, capsys):
    # each command run on the one parser of the process gives what it gives
    # on a parser of its own: exit code, output and CSV bytes, no flag value
    # carried over from an earlier (config) command
    assert cli.build_parser() is cli.build_parser()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega = 1.0\npoints = 11\naxis-max = 2\n")
    sweep = ["sweep", "--quantity", "lgi3"]
    commands = {
        "usage": [*sweep, "--out", str(tmp_path / "usage.csv")],
        "config": [*sweep, "--axis", "tau", "--config", str(cfg),
                   "--out", str(tmp_path / "config.csv")],
        "plain": [*sweep, "--axis", "tau", "--out", str(tmp_path / "plain.csv")],
    }

    def run(key):
        out = tmp_path / f"{key}.csv"
        out.unlink(missing_ok=True)
        rc = main(commands[key])
        return rc, capsys.readouterr(), out.read_bytes() if out.exists() else None

    alone = {}
    for key in commands:
        cli.build_parser.cache_clear()
        alone[key] = run(key)
    assert [rc for rc, _, _ in alone.values()] == [1, 0, 0]
    assert "--axis is required" in alone["usage"][1].err
    assert len(alone["config"][2].splitlines()) == 2 + 11
    assert len(alone["plain"][2].splitlines()) == 2 + 201
    parser = cli.build_parser()
    for _ in range(2):
        for key in commands:
            assert run(key) == alone[key]
    assert cli.build_parser() is parser


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


def test_cli_out_name_too_long_is_usage_error(tmp_path, monkeypatch, capsys):
    # a file name the system refuses (300 characters, over the 255 of a
    # name) is a one-line usage error before any row is computed, and the
    # library writer's open fails the same way
    import drivenqubit.sweeps as sweeps

    def no_rows(*args, **kwargs):
        raise AssertionError("no row is computed for an unwritable --out")

    monkeypatch.setattr(sweeps, "_time_series_block", no_rows)
    out = tmp_path / ("a" * 296 + ".csv")
    assert main(["sweep", "--quantity", "amplitude", "--axis", "time",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"drivenqubit: cannot write {str(out)!r}: File name too long\n"
    with pytest.raises(ValidationError, match="cannot write .*: File name too long"):
        write_rows(out, SweepTable([]), ["status"])
    assert list(tmp_path.iterdir()) == []


def test_cli_figure_unknown_preset(tmp_path):
    assert main(["figure", "--preset", "fig0", "--out", str(tmp_path)]) == 1


def test_cli_check_quick(capsys):
    # check has one grid: --quick is a usage error, and the full check passes
    assert main(["check", "--quick"]) == 1
    assert "unrecognized arguments: --quick" in capsys.readouterr().err
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert out.splitlines()[-1] == "28/28 checks passed"


def test_cli_check_reports_a_drifting_closed_form_as_failed_checks(monkeypatch, capsys):
    # the oracle checks gate the closed form themselves: a drift fails them
    # (exit 2, one line per check), it is not a usage error
    from drivenqubit import amplitude

    assert main(["check"]) == 0
    names = [line.split(": ")[0][7:] for line in capsys.readouterr().out.splitlines()[:-1]]
    mode_form = amplitude._mode_form
    monkeypatch.setattr(amplitude, "_mode_form",
                        lambda *args: mode_form(*args) * (1 + 1e-6))
    assert main(["check"]) == 2
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert [line.split(": ")[0][7:] for line in lines[:-1]] == names
    oracle = [line for line in lines if line.startswith("[FAIL] amplitude ")]
    assert len(oracle) == 27 and "max|A|=1.0000010" in oracle[0]
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
        "                  if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')",
        "                  or m.split('.')[:2] == ['numpy', 'random'])",
        "assert main(['params', '--lambda', '0.1']) == 0",
        "print('loaded:', loaded())",
        "assert main(['sweep', '--quantity', 'blp', '--axis', 'omega', '--axis-min', '0',",
        f"             '--axis-max', '1', '--points', '2', '--out', {str(out)!r}]) == 0",
        "print('loaded:', loaded())",
        "assert main(['check']) == 0",
        "print('loaded:', loaded())",
    ])
    env = os.environ | {"PYTHONPATH": os.pathsep.join(sys.path)}
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    loaded = [line for line in res.stdout.splitlines() if line.startswith("loaded:")]
    assert loaded == ["loaded: []"] * 3
    assert len(read_csv(out)) == 2
