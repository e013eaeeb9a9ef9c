"""Parameter/time sweeps with CSV emission and figure presets.

Output files are plain CSV: one leading comment line with the schema tag,
a header row, then data rows with floats printed at 17 significant digits.
Failed rows are never silent NaNs; they carry a status label and empty
observable cells.  See FORMATS.md for the column layout per quantity.
"""

from __future__ import annotations

import csv
import json
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .amplitude import amplitude_grid, decay_rate_grid
from .nonmarkov import blp_measure
from .params import SystemParams, ValidationError, derive
from .phase import geometric_phases
from .temporal import lgi_series, witness_series

__all__ = ["SweepAxis", "SweepSpec", "SweepSummary", "run_sweep",
           "write_rows", "figure_preset", "PRESET_NAMES"]

SCHEMA_TAG = "# drivenqubit-csv 1"

QUANTITY_AXES = {
    "amplitude": {"time"},
    "decay_rate": {"time"},
    "coherence": {"time"},
    "trace_distance": {"time"},
    "lgi3": {"tau"},
    "lgi4": {"tau"},
    "witness": {"tau"},
    "gp": {"lambda_ratio", "omega", "delta", "theta"},
    "blp": {"lambda_ratio", "omega", "delta", "theta"},
}

OBSERVABLE_COLUMNS = {
    "amplitude": ("re_a", "im_a", "abs_a"),
    "decay_rate": ("decay_rate",),
    "coherence": ("c_l1",),
    "trace_distance": ("d_trace",),
    "lgi3": ("c3", "violated3"),
    "lgi4": ("c4", "violated4"),
    "witness": ("w_q", "envelope"),
    "gp": ("phi_g", "quad_err"),
    "blp": ("n_measure", "alpha_best", "residual_bound", "truncated"),
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
        if self.name not in {"time", "tau", "lambda_ratio", "omega", "delta", "theta"}:
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
    output_path: str | None = None
    t_max: float = 100.0
    quad_tol: float = 1e-9

    def __post_init__(self):
        if self.quantity not in QUANTITY_AXES:
            raise ValidationError(f"unknown quantity {self.quantity!r}")
        if self.axis.name not in QUANTITY_AXES[self.quantity]:
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
        return cls(
            quantity=d["quantity"],
            fixed=SystemParams(**d["fixed"]),
            axis=SweepAxis(**d["axis"]),
            output_path=d.get("output_path"),
            t_max=d.get("t_max", 100.0),
            quad_tol=d.get("quad_tol", 1e-9),
        )


@dataclass
class SweepSummary:
    quantity: str
    n_rows: int
    n_failed: int
    minimum: float | None
    maximum: float | None
    argmax: float | None


def _params_at(fixed: SystemParams, axis_name: str, value: float) -> SystemParams:
    if axis_name == "lambda_ratio":
        return replace(fixed, lam=value * fixed.gamma)
    if axis_name == "omega":
        return replace(fixed, omega_rabi=value)
    if axis_name == "delta":
        return replace(fixed, delta_qc=value)
    if axis_name == "theta":
        return replace(fixed, theta=value)
    return fixed


def _time_series_rows(spec: SweepSpec) -> list[dict]:
    dp = derive(spec.fixed)
    ts = spec.axis.values()
    theta = spec.fixed.theta
    # steps large enough to overflow give non-finite cells, which the guard
    # below turns into invalid rows; numpy's warnings about them are noise
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
    finite = np.logical_and.reduce([np.isfinite(c) for c in cols.values()])
    base = asdict(spec.fixed) | {"status": "ok"}
    keys = (spec.axis.name, *cols)
    rows = [base | dict(zip(keys, vals))
            for vals in zip(ts.tolist(), *(c.tolist() for c in cols.values()))]
    empty = dict.fromkeys(cols)
    for i in np.flatnonzero(~finite).tolist():
        # decay_rate_grid marks the zeros of A with NaN
        pole = spec.quantity == "decay_rate" and math.isnan(rows[i]["decay_rate"])
        rows[i] |= empty | {"status": "pole" if pole else "invalid"}
    return rows


def _failed_row(base: dict, quantity: str, status: str = "invalid") -> dict:
    return base | dict.fromkeys(OBSERVABLE_COLUMNS[quantity]) | {"status": status}


def _gp_rows(spec: SweepSpec, values) -> list[dict]:
    """Rows of a geometric-phase sweep, all integrated in one quadrature."""
    values = values.tolist()
    params = [_params_at(spec.fixed, spec.axis.name, v) for v in values]
    phi, err, _, errors = geometric_phases([derive(p) for p in params],
                                           [p.theta for p in params], spec.quad_tol)
    rows = []
    for p, v, phi_i, err_i, exc in zip(params, values, phi.tolist(), err.tolist(),
                                       errors):
        base = asdict(p) | {spec.axis.name: v}
        if exc is None and math.isfinite(phi_i) and math.isfinite(err_i):
            rows.append(base | {"phi_g": phi_i, "quad_err": err_i, "status": "ok"})
        else:
            # geometric_phases gives a ValidationError only to a row without a period
            status = "undefined-period" if isinstance(exc, ValidationError) else "invalid"
            rows.append(_failed_row(base, "gp", status))
    return rows


def _blp_row(spec: SweepSpec, value: float) -> dict:
    p = _params_at(spec.fixed, spec.axis.name, float(value))
    base = asdict(p) | {spec.axis.name: float(value)}
    try:
        # extend the horizon until the backflow gains (which die off with
        # the amplitude envelope exp(-lam t / 2)) are converged, within a cap
        t_eff = max(spec.t_max, min(5000.0, 2.0 * math.log(1e4) / p.lam))
        result = blp_measure(p, t_max=t_eff)
        cells = {
            "n_measure": result.n_measure,
            "alpha_best": result.alpha,
            "residual_bound": result.residual_bound,
            "truncated": int(result.truncated),
        }
    except ValidationError:
        return _failed_row(base, "blp")
    if not all(math.isfinite(v) for v in cells.values()):
        return _failed_row(base, "blp")
    return base | cells | {"status": "ok"}


def _check_workers(workers: int) -> None:
    if not workers >= 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")


def run_sweep(spec: SweepSpec, workers: int = 1):
    """Evaluate the sweep; returns (rows, summary), rows in axis order.

    A ``gp`` sweep integrates its rows together; with workers > 1 its rows
    are split into at most ``workers`` contiguous chunks, one process and
    one quadrature each, and the rows come out as a serial run gives them.
    A ``blp`` sweep sends its rows to the pool one at a time.
    """
    _check_workers(workers)
    if spec.quantity == "gp":
        values = spec.axis.values()
        chunks = np.array_split(values, min(workers, values.size))
        if len(chunks) > 1:
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                rows = [r for part in pool.map(_gp_rows, [spec] * len(chunks), chunks)
                        for r in part]
        else:
            rows = _gp_rows(spec, values)
    elif spec.quantity == "blp":
        values = spec.axis.values()
        if workers > 1:
            with ProcessPoolExecutor(max_workers=min(workers, values.size)) as pool:
                rows = list(pool.map(_blp_row, [spec] * len(values), values))
        else:
            rows = [_blp_row(spec, v) for v in values]
    else:
        rows = _time_series_rows(spec)
    key = OBSERVABLE_COLUMNS[spec.quantity][0]
    good = [(r[spec.axis.name], r[key]) for r in rows
            if r["status"] == "ok" and r[key] is not None]
    n_failed = sum(1 for r in rows if r["status"] != "ok")
    if good:
        vals = np.array([v for _, v in good], dtype=float)
        summary = SweepSummary(spec.quantity, len(rows), n_failed,
                               float(vals.min()), float(vals.max()),
                               float(good[int(vals.argmax())][0]))
    else:
        summary = SweepSummary(spec.quantity, len(rows), n_failed, None, None, None)
    return rows, summary


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return format(float(v), ".17g")


# %-format of each column in a row with no empty cell; floats by default
_CELL_FORMATS = {"violated3": "%d", "violated4": "%d", "truncated": "%d",
                 "status": "%s"}


def write_rows(path, rows: list[dict], columns: list[str]) -> None:
    """Write rows as CSV after the schema line.

    A row whose cells are all filled goes out through one %-format line, the
    bytes ``csv.writer`` would write for it; rows with an empty (None or
    missing) cell take the per-cell path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = ",".join(_CELL_FORMATS.get(c, "%.17g") for c in columns) + "\r\n"
    get = operator.itemgetter(*columns)
    cells_of = get if len(columns) > 1 else lambda row: (get(row),)
    with open(path, "w", newline="") as fh:
        fh.write(SCHEMA_TAG + "\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            try:
                cells = cells_of(row)
            except KeyError:
                cells = (None,)
            if None in cells:
                writer.writerow([_fmt(row.get(c)) for c in columns])
            else:
                fh.write(line % cells)


def sweep_columns(spec: SweepSpec, extra: tuple[str, ...] = ()) -> list[str]:
    return (list(extra) + list(PARAM_COLUMNS) + [spec.axis.name]
            + list(OBSERVABLE_COLUMNS[spec.quantity]) + ["status"])


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


def figure_preset(name: str, outdir, workers: int = 1) -> dict:
    """Emit the CSV files and manifest for one figure preset.

    Returns {"files": [paths...], "manifest": path, "n_failed": int}.
    """
    _check_workers(workers)
    table = _preset_table()
    if name not in table:
        raise ValidationError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    manifest_entries = []
    n_failed = 0
    for panel, curve_key, specs in table[name]:
        rows_all = []
        for spec in specs:
            rows, summary = run_sweep(spec, workers=workers)
            curve_value = getattr(spec.fixed, curve_key)
            for r in rows:
                r["curve"] = curve_value
            rows_all += rows
            n_failed += summary.n_failed
            manifest_entries.append({
                "panel": panel,
                "curve_key": curve_key,
                "curve_value": curve_value,
                "spec": spec.to_dict(),
            })
        path = outdir / f"{name}_{panel}.csv"
        write_rows(path, rows_all, sweep_columns(specs[0], extra=("curve",)))
        files.append(str(path))
    manifest_path = outdir / f"{name}_manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump({"figure": name, "schema": 1, "sweeps": manifest_entries},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"files": files, "manifest": str(manifest_path), "n_failed": n_failed}
