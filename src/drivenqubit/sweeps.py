"""Parameter/time sweeps with CSV emission and figure presets.

Results stay columnar from the kernels to the file.  ``run_sweep`` returns
a ``SweepTable`` of ``SweepBlock``s: a block holds the cells its rows share
once (the parameters not swept and, in a figure panel, ``curve``), its
varying columns as numeric arrays and a status column.  ``write_rows``
formats the shared cells once per block, each coordinate column once per
file and the observables per row; ``SweepTable.rows()`` is the row view,
one dict per row.  A time or tau series takes one kernel call over its
axis, and a ``gp`` or ``blp`` sweep evaluates all its rows in one batched
pass, in the calling process.

Output files are plain CSV: one leading comment line with the schema tag,
a header row, then data rows with floats printed at 17 significant digits.
Failed rows are never silent NaNs; they carry a status label and empty
observable cells.  See FORMATS.md for the column layout per quantity.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .amplitude import amplitude_grid, decay_rate_grid
from .nonmarkov import blp_measures
from .params import SystemParams, ValidationError, derive
from .phase import geometric_phases
from .temporal import lgi_series, witness_series

__all__ = ["SweepAxis", "SweepSpec", "SweepSummary", "SweepBlock", "SweepTable",
           "run_sweep", "write_rows", "figure_preset", "PRESET_NAMES"]

SCHEMA_TAG = "# drivenqubit-csv 1"

# axis -> (the parameter column it sets, None for time and tau;
#          its default (axis-min, axis-max) on the command line)
AXES = {
    "time": (None, (0.0, 30.0)),
    "tau": (None, (0.0, 4.0)),
    "lambda_ratio": ("lam", (0.01, 1.0)),
    "omega": ("omega_rabi", (0.0, 2.0)),
    "delta": ("delta_qc", (0.0, 10.0)),
    "theta": ("theta", (0.0, math.pi / 2)),
}
_PARAM_AXES = tuple(name for name, (column, _) in AXES.items() if column)

# quantity -> (the axes it sweeps, its observable columns)
QUANTITIES = {
    "amplitude": (("time",), ("re_a", "im_a", "abs_a")),
    "decay_rate": (("time",), ("decay_rate",)),
    "coherence": (("time",), ("c_l1",)),
    "trace_distance": (("time",), ("d_trace",)),
    "lgi3": (("tau",), ("c3", "violated3")),
    "lgi4": (("tau",), ("c4", "violated4")),
    "witness": (("tau",), ("w_q", "envelope")),
    "gp": (_PARAM_AXES, ("phi_g", "quad_err")),
    "blp": (_PARAM_AXES, ("n_measure", "alpha_best", "residual_bound", "truncated")),
}

PARAM_COLUMNS = ("gamma", "lam", "omega_rabi", "delta_qc", "delta_cav", "theta")


@dataclass(frozen=True)
class SweepAxis:
    """Swept coordinate: evenly spaced on a linear or logarithmic scale."""

    name: str
    start: float
    stop: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.name not in AXES:
            raise ValidationError(f"unknown axis {self.name!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValidationError(f"axis bounds must be finite, got "
                                  f"{self.start}, {self.stop}")
        if self.count < 2:
            raise ValidationError("axis count must be >= 2")
        if not self.start < self.stop:
            raise ValidationError("axis start must be < stop")
        if self.scale not in ("linear", "log"):
            raise ValidationError("axis scale must be linear or log")
        if self.scale == "log" and self.start <= 0:
            raise ValidationError("log axis requires start > 0")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a quantity, the fixed parameters and the swept axis."""

    quantity: str
    fixed: SystemParams
    axis: SweepAxis
    t_max: float = 100.0
    quad_tol: float = 1e-9

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise ValidationError(f"unknown quantity {self.quantity!r}")
        if self.axis.name not in QUANTITIES[self.quantity][0]:
            raise ValidationError(
                f"quantity {self.quantity!r} cannot sweep axis {self.axis.name!r}"
            )
        if self.quantity == "witness" and self.axis.start != 0.0:
            raise ValidationError("witness sweeps must start at tau = 0 "
                                  "(the envelope needs the full history)")
        for name in ("t_max", "quad_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be finite and > 0, got {value}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SweepSpec":
        """The spec of ``to_dict``; a key left out takes the field's default,
        and a key of older manifests (``alpha_grid``, ``output_path``) is
        ignored."""
        given = {k: d[k] for k in ("t_max", "quad_tol") if k in d}
        return cls(quantity=d["quantity"], fixed=SystemParams(**d["fixed"]),
                   axis=SweepAxis(**d["axis"]), **given)


@dataclass
class SweepSummary:
    quantity: str
    n_rows: int
    n_failed: int
    minimum: float | None
    maximum: float | None
    argmax: float | None


@dataclass(eq=False)
class SweepBlock:
    """Rows of one sweep, held by column.

    ``const`` holds the cells that every row shares (the parameters not
    swept and, in a figure panel, ``curve``).  ``coords`` holds the per-row
    coordinates (the axis and, for a parameter axis, the swept parameter's
    column), ``values`` the per-row observables and ``status`` the per-row
    label.  Columns are numeric arrays (int, uint, float or bool), all as
    long as ``status``; anything else is a ValueError.

    The row-status rule is the block's own: a row given ``ok`` with a
    non-finite observable becomes ``invalid``, and every other label
    (``pole``, ``undefined-period``, ``invalid``) stands.  So a builder
    reports only its failures.  The observables of a row whose status is
    not ``ok`` are never read: such a row has empty observable cells.
    """

    const: dict
    coords: dict
    values: dict
    status: np.ndarray

    def __post_init__(self):
        self.status = np.asarray(self.status, dtype=str)
        self.coords = {c: np.asarray(col) for c, col in self.coords.items()}
        self.values = {c: np.asarray(col) for c, col in self.values.items()}
        for name, col in (self.coords | self.values).items():
            if col.dtype.kind not in "biuf":
                raise ValueError(f"column {name!r} is not numeric ({col.dtype})")
            if col.shape != self.status.shape:
                raise ValueError(f"column {name!r} has shape {col.shape}, "
                                 f"status has {self.status.shape}")
        finite = np.logical_and.reduce([np.isfinite(c) for c in self.values.values()])
        if not np.all(finite):  # labels are compared only where a cell is not finite
            self.status = np.where((self.status == "ok") & ~finite, "invalid", self.status)

    def __len__(self) -> int:
        return len(self.status)

    def row(self, i: int) -> dict:
        """Row i as a dict of Python scalars, observables None unless its
        status is ok."""
        status = str(self.status[i])
        values = {c: col[i].item() if status == "ok" else None
                  for c, col in self.values.items()}
        return (self.const | {c: col[i].item() for c, col in self.coords.items()}
                | values | {"status": status})


class SweepTable:
    """Sweep results as a sequence of blocks; ``len`` counts their rows."""

    def __init__(self, blocks):
        self.blocks = list(blocks)

    def __len__(self) -> int:
        return sum(len(b) for b in self.blocks)

    def rows(self) -> list[dict]:
        """Row view: one dict per row, in order (see ``SweepBlock.row``)."""
        return [b.row(i) for b in self.blocks for i in range(len(b))]


def _params_at(fixed: SystemParams, axis_name: str, value: float) -> SystemParams:
    """The fixed parameters with the axis's parameter set to ``value``
    (lambda_ratio in units of gamma)."""
    if axis_name == "lambda_ratio":
        value *= fixed.gamma
    return replace(fixed, **{AXES[axis_name][0]: value})


def _time_series_block(spec: SweepSpec) -> SweepBlock:
    dp = derive(spec.fixed)
    ts = spec.axis.values()
    theta = spec.fixed.theta
    # steps large enough to overflow give non-finite cells, which the block
    # turns into invalid rows; numpy's warnings about them are noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if spec.quantity in ("amplitude", "coherence", "trace_distance"):
            A, _ = amplitude_grid(dp, ts)
            # |A| by libm hypot, as abs() of a single complex; np.abs rounds otherwise
            abs_a = np.hypot(A.real, A.imag)
        if spec.quantity == "amplitude":
            cols = {"re_a": A.real, "im_a": A.imag, "abs_a": abs_a}
        elif spec.quantity == "decay_rate":
            cols = {"decay_rate": decay_rate_grid(dp, ts)}
        elif spec.quantity == "coherence":
            cols = {"c_l1": abs(math.sin(2.0 * theta)) * abs_a}
        elif spec.quantity == "trace_distance":
            # evolved distance of the equatorial antipodal pair: |A(t)|
            cols = {"d_trace": abs_a}
        elif spec.quantity == "lgi3":
            c3, _ = lgi_series(dp, theta, ts)
            cols = {"c3": c3, "violated3": (c3 > 1.0).astype(int)}
        elif spec.quantity == "lgi4":
            _, c4 = lgi_series(dp, theta, ts)
            cols = {"c4": c4, "violated4": (c4 > 2.0).astype(int)}
        elif spec.quantity == "witness":
            w, env = witness_series(dp, theta, ts)
            cols = {"w_q": w, "envelope": env}
        else:  # pragma: no cover
            raise ValidationError(f"not a time-series quantity: {spec.quantity}")
    status = np.full(len(ts), "ok")
    if spec.quantity == "decay_rate":
        # decay_rate_grid marks the zeros of A with NaN
        status = np.where(np.isnan(cols["decay_rate"]), "pole", status)
    return SweepBlock(asdict(spec.fixed), {spec.axis.name: ts}, cols, status)


def _gp_rows(spec: SweepSpec, params: list) -> tuple[dict, list]:
    """Geometric phases of all rows, integrated in one quadrature."""
    phi, err, _, errors = geometric_phases([derive(p) for p in params],
                                           [p.theta for p in params], spec.quad_tol,
                                           keep_nodes=False)
    # geometric_phases gives a ValidationError only to a row without a period
    status = ["ok" if exc is None else
              "undefined-period" if isinstance(exc, ValidationError) else "invalid"
              for exc in errors]
    return {"phi_g": phi, "quad_err": err}, status


def _blp_rows(spec: SweepSpec, params: list) -> tuple[dict, list]:
    """BLP measures of all rows, evaluated in one batched pass."""
    # extend the horizon until the backflow gains (which die off with the
    # amplitude envelope exp(-lam t / 2)) are converged, within a cap
    t_eff = [max(spec.t_max, min(5000.0, 2.0 * math.log(1e4) / p.lam)) for p in params]
    n_measure, alpha, residual, truncated, errors = blp_measures(params, t_eff)
    cols = {"n_measure": n_measure, "alpha_best": alpha,
            "residual_bound": residual, "truncated": truncated.astype(int)}
    return cols, ["ok" if exc is None else "invalid" for exc in errors]


_ROWS = {"gp": _gp_rows, "blp": _blp_rows}


def _param_block(spec: SweepSpec) -> SweepBlock:
    """Block of a parameter sweep: the swept parameter and the axis vary,
    and the quantity's row function evaluates all rows at once, giving
    (columns, status)."""
    values = spec.axis.values()
    params = [_params_at(spec.fixed, spec.axis.name, v) for v in values.tolist()]
    cols, status = _ROWS[spec.quantity](spec, params)
    name = AXES[spec.axis.name][0]
    const = {k: v for k, v in asdict(spec.fixed).items() if k != name}
    coords = {name: np.array([getattr(p, name) for p in params]),
              spec.axis.name: values}
    return SweepBlock(const, coords, cols, status)


def _summary(spec: SweepSpec, block: SweepBlock) -> SweepSummary:
    """Row counts, and min, max and first argmax of the first observable
    over the ok rows."""
    ok = block.status == "ok"
    n_failed = len(block) - int(np.count_nonzero(ok))
    if n_failed == len(block):
        return SweepSummary(spec.quantity, len(block), n_failed, None, None, None)
    vals = block.values[QUANTITIES[spec.quantity][1][0]][ok]
    at = block.coords[spec.axis.name][ok]
    return SweepSummary(spec.quantity, len(block), n_failed, float(vals.min()),
                        float(vals.max()), float(at[vals.argmax()]))


def run_sweep(spec: SweepSpec):
    """Evaluate the sweep; returns (table, summary).

    The table holds one ``SweepBlock``, its rows in axis order: the fixed
    parameters as constant cells, the axis (and the swept parameter) and
    the observables as columns, built in the calling process: a parameter
    axis by ``_param_block``, which evaluates all rows in one batched pass,
    a time or tau axis by ``_time_series_block``, which takes one kernel
    call over the axis.
    """
    build = _param_block if AXES[spec.axis.name][0] else _time_series_block
    block = build(spec)
    return SweepTable([block]), _summary(spec, block)


def _fmt(v) -> str:
    """A constant cell: empty for None, integers as such, floats at 17
    significant digits."""
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return format(float(v), ".17g")


def _cells(col: np.ndarray) -> list[str]:
    """The cells of a numeric column: integers and bools by %d, floats by
    %.17g, all in one format call."""
    fmt = "%d\n" if col.dtype.kind in "biu" else "%.17g\n"
    return (fmt * len(col) % tuple(col.tolist())).split("\n")[:-1]


def _csv_line(cells) -> str:
    out = io.StringIO()
    csv.writer(out).writerow(cells)
    return out.getvalue()


def _write_block(fh, block: SweepBlock, columns: list[str], axes: dict) -> None:
    """Rows of one block, each through the block's one line template: its
    constant cells are formatted into the template once, its varying cells
    fill the %s slots.  ``axes`` holds the coordinate columns already
    formatted for this file, by dtype and bytes."""
    status = block.status.tolist()
    failed = [i for i, st in enumerate(status) if st != "ok"]
    # csv quotes a lone empty cell: an empty line would read as no row
    empty = '""' if len(columns) == 1 else ""
    template, cols = [], []
    for c in columns:
        if c in block.coords:
            col = block.coords[c]
            key = (col.dtype.str, col.tobytes())
            if key not in axes:
                axes[key] = _cells(col)
            cols.append(axes[key])
        elif c in block.values:
            cells = _cells(block.values[c])
            for i in failed:
                cells[i] = empty
            cols.append(cells)
        elif c == "status":
            cols.append(status)  # status labels are plain words: nothing to quote
        else:  # constant, or empty where the block lacks the column
            template.append(_fmt(block.const.get(c)).replace("%", "%%"))
            continue
        template.append("%s")
    line = _csv_line(template)
    fh.writelines(map(line.__mod__, zip(*cols) if cols else [()] * len(block)))


def make_outdir(path: Path) -> None:
    """Create directory ``path`` and its parents; a path that cannot be a
    directory (it or a parent is a file, say) is a ValidationError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create directory {str(path)!r}: "
                              f"{exc.strerror}") from None


def write_rows(path, table: SweepTable, columns: list[str]) -> None:
    """Write a table's rows as CSV after the schema line, block by block.

    The bytes are those of ``csv.writer`` given every cell formatted alone
    (``%.17g`` floats, integers and bools as integers, strings, empty for
    the observables of a row that is not ok or a column the block lacks).
    Each coordinate column is formatted once per file, so the curves of a
    panel share their formatted axis.  The parent directory is made with
    ``make_outdir``, so a parent that cannot be one is a ValidationError.
    """
    path = Path(path)
    make_outdir(path.parent)
    axes: dict = {}
    with open(path, "w", newline="") as fh:
        fh.write(SCHEMA_TAG + "\n" + _csv_line(columns))
        for block in table.blocks:
            _write_block(fh, block, columns, axes)


def sweep_columns(spec: SweepSpec, extra: tuple[str, ...] = ()) -> list[str]:
    return (list(extra) + list(PARAM_COLUMNS) + [spec.axis.name]
            + list(QUANTITIES[spec.quantity][1]) + ["status"])


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

_LGI_TAU = SweepAxis("tau", 0.0, 4.0, 801)
_COH_TIME = SweepAxis("time", 0.0, 50.0, 1001)
_WIT_TAU = SweepAxis("tau", 0.0, 50.0, 2001)
_GAMMA_TIME = SweepAxis("time", 0.0, 30.0, 1201)
_LAM_AXIS = SweepAxis("lambda_ratio", 0.01, 1.0, 41, "log")
_LAM_AXIS_BLP = SweepAxis("lambda_ratio", 0.01, 1.0, 21, "log")
_DELTA_AXIS = SweepAxis("delta", 0.0, 10.0, 41)

OMEGA_FAMILY = (0.0, 0.1, 0.5, 1.0, 2.0)
DELTA_FAMILY = (0.0, 0.1, 1.0, 10.0)


def _p(lam=0.01, omega=0.0, delta=0.0, theta=0.0):
    return SystemParams(lam=lam, omega_rabi=omega, delta_qc=delta, theta=theta)


def _preset_table() -> dict:
    """Panel layout per figure preset.

    Families not fully enumerated in the source material use the values
    named in its discussion; the emitted manifest records every parameter
    set so callers can override.
    """
    presets: dict[str, list] = {}
    # LGI vs drive strength (four curves) and vs detuning
    presets["fig2"] = [
        ("c3", "omega_rabi",
         [SweepSpec("lgi3", _p(omega=om), _LGI_TAU) for om in (0.0, 0.5, 1.0, 2.0)]),
        ("c4", "omega_rabi",
         [SweepSpec("lgi4", _p(omega=om), _LGI_TAU) for om in (0.0, 0.5, 1.0, 2.0)]),
    ]
    presets["fig3"] = [
        ("c3", "delta_qc",
         [SweepSpec("lgi3", _p(omega=0.1, delta=d), _LGI_TAU) for d in DELTA_FAMILY]),
        ("c4", "delta_qc",
         [SweepSpec("lgi4", _p(omega=0.1, delta=d), _LGI_TAU) for d in DELTA_FAMILY]),
    ]
    presets["fig4"] = [
        ("coherence", "omega_rabi",
         [SweepSpec("coherence", _p(omega=om, theta=math.pi / 4), _COH_TIME)
          for om in OMEGA_FAMILY]),
    ]
    presets["fig5"] = [
        ("a_witness", "omega_rabi",
         [SweepSpec("witness", _p(omega=om, theta=math.pi / 4), _WIT_TAU)
          for om in (0.0, 0.1, 0.5, 1.0)]),
        ("b_witness", "delta_qc",
         [SweepSpec("witness", _p(omega=0.1, delta=d, theta=math.pi / 4), _WIT_TAU)
          for d in DELTA_FAMILY]),
    ]
    presets["fig6"] = [
        ("decay_rate", "omega_rabi",
         [SweepSpec("decay_rate", _p(omega=om, theta=math.pi / 4), _GAMMA_TIME)
          for om in OMEGA_FAMILY]),
    ]
    # geometric phase: the undriven resonant point has no dressed period, so
    # the drive family starts at the smallest nonzero coupling
    presets["fig7"] = [
        ("gp", "omega_rabi",
         [SweepSpec("gp", _p(omega=om, theta=math.pi / 6), _LAM_AXIS)
          for om in (0.01, 0.05, 0.1, 0.3, 0.5, 1.0)]),
    ]
    presets["fig8"] = [
        ("gp", "delta_qc",
         [SweepSpec("gp", _p(omega=0.1, delta=d, theta=math.pi / 6), _LAM_AXIS)
          for d in DELTA_FAMILY]),
    ]
    presets["fig9"] = [
        (f"{chr(ord('a') + i)}_blp", "omega_rabi",
         [SweepSpec("blp", _p(omega=om, delta=d), _LAM_AXIS_BLP)
          for om in OMEGA_FAMILY])
        for i, d in enumerate(DELTA_FAMILY)
    ]
    presets["fig10"] = [
        ("blp", "omega_rabi",
         [SweepSpec("blp", _p(omega=om), _DELTA_AXIS)
          for om in (0.01, 0.1, 0.5, 1.0)]),
    ]
    return presets


PRESET_NAMES = tuple(sorted(_preset_table().keys(), key=lambda s: int(s[3:])))


def figure_preset(name: str, outdir) -> dict:
    """Emit the CSV files and manifest for one figure preset.

    Each curve is one ``run_sweep`` in this process; the panel's curves go
    to one CSV file.  Returns {"files": [paths...], "manifest": path,
    "n_failed": int}.
    """
    presets = _preset_table()
    if name not in presets:
        raise ValidationError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    outdir = Path(outdir)
    make_outdir(outdir)
    files = []
    manifest_entries = []
    n_failed = 0
    for panel, curve_key, specs in presets[name]:
        blocks = []
        for spec in specs:
            sweep, summary = run_sweep(spec)
            curve_value = getattr(spec.fixed, curve_key)
            blocks += [replace(b, const=b.const | {"curve": curve_value})
                       for b in sweep.blocks]
            n_failed += summary.n_failed
            manifest_entries.append({
                "panel": panel,
                "curve_key": curve_key,
                "curve_value": curve_value,
                "spec": spec.to_dict(),
            })
        path = outdir / f"{name}_{panel}.csv"
        write_rows(path, SweepTable(blocks), sweep_columns(specs[0], extra=("curve",)))
        files.append(str(path))
    manifest_path = outdir / f"{name}_manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump({"figure": name, "schema": 1, "sweeps": manifest_entries},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"files": files, "manifest": str(manifest_path), "n_failed": n_failed}
