"""Parameter/time sweeps with CSV emission and figure presets.

Results stay columnar from the kernels to the file.  ``run_sweep`` returns
a ``SweepTable`` of ``SweepBlock``s: a block holds the cells its rows share
once (the parameters not swept and, in a figure panel, ``curve``), its
varying columns as numeric arrays and a status column.  ``write_rows``
makes one format call per block, one line template per status label: the
shared cells and the label are formatted into the template once, each
coordinate column once per figure (once per file from ``write_rows``), and
the observables fill its slots; ``SweepTable.rows()`` is the row view, one
dict per row.  Every block of a sweep or a figure comes from ``_blocks``,
in the calling process, which keeps the parameters of the ``gp`` and
``blp`` rows as columns too: one ``derive_columns`` call covers them all,
and each time or tau series takes the one-row ``derive`` of its fixed
parameters.

What is particular to a quantity is written once, in its entry of one of
three tables.  ``QUANTITIES`` gives the axes it sweeps and its observable
columns; it is the one place their names are written.  ``_SERIES`` gives
a time or tau quantity the series it reads (the amplitude with its modulus,
the decay-rate grid, ``lgi_series`` or ``witness_series``) and a function
that returns its observables from that series, in ``QUANTITIES`` order;
the quantities that read one series (``lgi3`` and ``lgi4``; ``amplitude``,
``coherence`` and ``trace_distance``) share its evaluation.  ``_ROWS``
gives a parameter quantity (``gp``, ``blp``) its row function, which takes
the quantity's rows gathered from every sweep of the call and returns
whole columns, in ``QUANTITIES`` order, and a status.

Output files are plain CSV: one leading comment line with the schema tag,
a header row, then data rows with floats printed at 17 significant digits.
Failed rows are never silent NaNs; they carry a status label and empty
observable cells.  See FORMATS.md for the column layout per quantity.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .amplitude import amplitude_grid, decay_rate_grid
from .nonmarkov import blp_measures
from .params import (DerivedColumns, DerivedParams, SystemParams, ValidationError, _take,
                     check_column, derive, derive_columns)
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
        if not math.isfinite(self.stop - self.start):  # linspace would overflow
            raise ValidationError(f"axis span must be finite, got "
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
            # 10**log10(stop) may round past the largest float; geomspace
            # then sets the ends to start and stop, so no value overflows
            with np.errstate(over="ignore"):
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
        # shallow copies: the fields are numbers and strings
        return vars(self) | {"fixed": dict(vars(self.fixed)), "axis": dict(vars(self.axis))}

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


def _amplitude(dp: DerivedParams, ts: np.ndarray) -> tuple:
    A, _ = amplitude_grid(dp, ts)
    # |A| by libm hypot, as abs() of a single complex; np.abs rounds otherwise
    return A, np.hypot(A.real, A.imag)


def _decay_rate(dp: DerivedParams, ts: np.ndarray) -> tuple:
    return (decay_rate_grid(dp, ts),)


def _lgi(dp: DerivedParams, ts: np.ndarray) -> tuple:
    return lgi_series(dp, dp.params.theta, ts)


def _witness(dp: DerivedParams, ts: np.ndarray) -> tuple:
    return witness_series(dp, dp.params.theta, ts)


# time or tau quantity -> (the series it reads: a function of the derived
# constants and the axis values; its observables: a function of the fixed
# parameters and the series' outputs, in the order of QUANTITIES)
_SERIES = {
    "amplitude": (_amplitude, lambda p, A, abs_a: (A.real, A.imag, abs_a)),
    "decay_rate": (_decay_rate, lambda p, rate: (rate,)),
    "coherence": (_amplitude, lambda p, A, abs_a: (abs(math.sin(2.0 * p.theta)) * abs_a,)),
    # evolved distance of the equatorial antipodal pair: |A(t)|
    "trace_distance": (_amplitude, lambda p, A, abs_a: (abs_a,)),
    "lgi3": (_lgi, lambda p, c3, c4: (c3, (c3 > 1.0).astype(int))),
    "lgi4": (_lgi, lambda p, c3, c4: (c4, (c4 > 2.0).astype(int))),
    "witness": (_witness, lambda p, w_q, envelope: (w_q, envelope)),
}


def _time_series_block(spec: SweepSpec, series: dict) -> SweepBlock:
    """The block of a time or tau sweep, its observables read from its
    ``_SERIES`` series, which ``series`` holds by (series, fixed, axis):
    the sweeps of one call that read one series share one evaluation."""
    read, observe = _SERIES[spec.quantity]
    key = (read, spec.fixed, spec.axis)
    if key not in series:
        dp, ts = derive(spec.fixed), spec.axis.values()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            series[key] = dp, ts, read(dp, ts)
    dp, ts, out = series[key]
    # steps large enough to overflow give non-finite cells, which the block
    # turns into invalid rows; numpy's warnings about them are noise
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cols = dict(zip(QUANTITIES[spec.quantity][1], observe(spec.fixed, *out)))
    # constants that overflow make every row invalid (DerivedParams.overflow)
    status = np.full(len(ts), "ok" if dp.overflow() is None else "invalid")
    if spec.quantity == "decay_rate":
        # decay_rate_grid marks the zeros of A with NaN
        status = np.where(np.isnan(cols["decay_rate"]) & (status == "ok"), "pole",
                          status)
    return SweepBlock(dict(vars(spec.fixed)), {spec.axis.name: ts}, cols, status)


def _sweep_table(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """(parameter table, axis values) of a parameter sweep: a row per field
    of ``PARAM_COLUMNS``, in its order (theta last), a column per sweep row,
    the swept field set to the axis values (lambda_ratio in units of gamma)
    and checked."""
    name, values = AXES[spec.axis.name][0], spec.axis.values()
    with np.errstate(over="ignore"):  # a lam that overflows fails the check
        column = values * spec.fixed.gamma if name == "lam" else values
    check_column(name, column)
    table = np.repeat([[getattr(spec.fixed, f)] for f in PARAM_COLUMNS], values.size, axis=1)
    table[PARAM_COLUMNS.index(name)] = column
    return table, values


def _gp_rows(rows: DerivedColumns, theta, quad_tol, t_max):
    """(phi_g, quad_err) of gp rows, all in one quadrature, each row to its
    own tolerance, and their status.  A failed row reads NaN, which its
    block labels invalid, unless it has no period: ``undefined-period``."""
    phi, err, _ = geometric_phases(rows, theta, quad_tol)
    return (phi, err), np.where(rows.no_period & ~rows.overflow, "undefined-period", "ok")


def _blp_rows(rows: DerivedColumns, theta, quad_tol, t_max):
    """(n_measure, alpha_best, residual_bound, truncated) of blp rows, all in
    one batched pass, and their status; a failed row reads NaN, which its
    block labels invalid."""
    # extend the horizon until the backflow gains (which die off with the
    # amplitude envelope exp(-lam t / 2)) are converged, within a cap; below
    # lam ~ 1e-307 the quotient overflows to inf, and the cap holds
    with np.errstate(over="ignore"):
        t_eff = np.maximum(t_max, np.minimum(5000.0, 2.0 * math.log(1e4) / rows.lam))
    n_measure, alpha, residual, truncated, _ = blp_measures(rows, t_eff)
    return (n_measure, alpha, residual, truncated.astype(int)), np.full(t_eff.size, "ok")


# parameter quantity -> its row function: of the quantity's rows gathered
# (their constants, theta, quad_tol and t_max), its columns in the order of
# QUANTITIES and a status
_ROWS = {"gp": _gp_rows, "blp": _blp_rows}


def _blocks(specs: list):
    """The block of each spec, in order.

    One ``derive_columns`` call gives the constants of every row of the
    parameter sweeps (``_sweep_table``, in spec order, so the first bad
    swept value raises).  At the first block asked for, each quantity of
    ``_ROWS`` gathers its rows and takes one call of its row function, and
    each of its sweeps reads its own rows of the result.  A time or tau
    block reads a series evaluated once in this call (``_time_series_block``:
    the ``lgi3`` and ``lgi4`` curves of one parameter set share one
    ``lgi_series``).
    """
    swept = {i: _sweep_table(spec) for i, spec in enumerate(specs) if spec.quantity in _ROWS}
    table = np.concatenate([np.empty((len(PARAM_COLUMNS), 0))]
                           + [t for t, _ in swept.values()], axis=1)
    rows = derive_columns(**dict(zip(PARAM_COLUMNS, table[:-1])))
    # per row: the index of its spec, and the spec fields the row functions read
    owner = np.repeat(np.fromiter(swept, int), [values.size for _, values in swept.values()])
    quantity, quad_tol, t_max = (np.array([getattr(spec, f) for spec in specs])[owner]
                                 for f in ("quantity", "quad_tol", "t_max"))
    evaluated = {}
    for q, evaluate in _ROWS.items():
        mine = quantity == q
        if mine.any():
            evaluated[q] = owner[mine], evaluate(_take(rows, mine), table[-1, mine],
                                                 quad_tol[mine], t_max[mine])
    series = {}
    for i, spec in enumerate(specs):
        if i not in swept:
            yield _time_series_block(spec, series)
            continue
        own, (cols, status) = evaluated[spec.quantity]
        name, mine = AXES[spec.axis.name][0], own == i
        const = {k: v for k, v in vars(spec.fixed).items() if k != name}
        coords = {name: table[PARAM_COLUMNS.index(name), owner == i],
                  spec.axis.name: swept[i][1]}
        yield SweepBlock(const, coords, dict(zip(QUANTITIES[spec.quantity][1],
                                                 (col[mine] for col in cols))), status[mine])


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

    The table holds one ``SweepBlock`` (``_blocks``), its rows in axis
    order: the fixed parameters as constant cells, the axis (and the swept
    parameter) and the observables as columns.
    """
    block, = _blocks([spec])
    return SweepTable([block]), _summary(spec, block)


def _number_format(col: np.ndarray) -> str:
    """The format of a numeric column's cells, or of a number as a 0-d array:
    floats by %.17g, integers and bools by %d (Python ints past int64 give
    an array of objects)."""
    return "%.17g" if col.dtype.kind == "f" else "%d"


def _fmt(v) -> str:
    """A constant cell: empty for None, a string as such, a number as a cell
    of its kind (``_number_format``)."""
    if v is None:
        return ""
    return v if isinstance(v, str) else _number_format(np.asarray(v)) % v


def _cells(col: np.ndarray) -> list[str]:
    """The cells of a numeric column (``_number_format``), all in one format
    call."""
    return ((_number_format(col) + "\n") * len(col) % tuple(col.tolist())).split("\n")[:-1]


def _csv_line(cells) -> str:
    out = io.StringIO()
    csv.writer(out).writerow(cells)
    return out.getvalue()


def _write_block(fh, block: SweepBlock, columns: list[str], axes: dict) -> None:
    """Rows of one block in one format call, one line template per status
    label present: its constant cells and the label are formatted in once,
    the coordinate cells fill %s slots (``axes`` holds the coordinate
    columns already formatted for this file, by dtype and bytes), and the
    observables fill %.17g or %d slots in the ``ok`` template and %s slots,
    given the empty cell, in the others."""
    failed = np.flatnonzero(block.status != "ok").tolist()
    # csv quotes a lone empty cell: an empty line would read as no row
    empty = '""' if len(columns) == 1 else ""
    cols = []
    for c in columns:
        if c in block.coords:
            col = block.coords[c]
            key = (col.dtype.str, col.tobytes())
            if key not in axes:
                axes[key] = _cells(col)
            cols.append(axes[key])
        elif c in block.values:
            cells = block.values[c].tolist()
            for i in failed:
                cells[i] = empty
            cols.append(cells)

    def cell(c, label):
        if c in block.coords or (c in block.values and label != "ok"):
            return "%s"
        if c in block.values:
            return _number_format(block.values[c])
        return (label if c == "status" else _fmt(block.const.get(c))).replace("%", "%%")

    lines = {label: _csv_line([cell(c, label) for c in columns])
             for label in {"ok", *block.status[failed].tolist()}}
    template = ("".join(map(lines.__getitem__, block.status.tolist())) if failed
                else lines["ok"] * len(block))
    fh.write(template % tuple(itertools.chain.from_iterable(zip(*cols))))


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
    Each block is one format call, one line template per status label
    (``_write_block``), and one write; each coordinate column is formatted
    once per call, so the curves of a panel share their formatted axis
    (``figure_preset`` shares it across all the files of a figure).
    The parent directory is made with ``make_outdir``, so a parent that
    cannot be one is a ValidationError.
    """
    _write_table(path, table, columns, {})


def _write_table(path, table: SweepTable, columns: list[str], axes: dict) -> None:
    """``write_rows``, with the coordinate columns already formatted (by
    dtype and bytes) in ``axes``, which gains the ones formatted here."""
    path = Path(path)
    make_outdir(path.parent)
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
    """Panel layout per figure preset, as tuples: figure name ->
    ((panel, curve key, (spec, ...)), ...).  Built once, as ``_PRESETS``.

    Families not fully enumerated in the source material use the values
    named in its discussion; the emitted manifest records the full
    specification of every curve.
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
    # tuples all the way down: the one table of the process is shared
    return {name: tuple((panel, key, tuple(specs)) for panel, key, specs in panels)
            for name, panels in presets.items()}


_PRESETS = _preset_table()
PRESET_NAMES = tuple(sorted(_PRESETS, key=lambda s: int(s[3:])))


def figure_preset(name: str, outdir) -> dict:
    """Emit the CSV files and manifest for one figure preset.

    The panels are read from ``_PRESETS``, the table built once at import.
    The blocks of all the preset's curves come from one ``_blocks``, so
    its ``blp`` curves share one batched pass, its ``gp`` curves one
    quadrature, and curves with one series share it; a panel's
    curves go to one CSV file, and each coordinate column is formatted
    once per figure.  Returns
    {"files": [paths...], "manifest": path, "n_failed": int}.
    """
    if name not in _PRESETS:
        raise ValidationError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    outdir = Path(outdir)
    make_outdir(outdir)
    files = []
    manifest_entries = []
    n_failed = 0
    blocks = _blocks([spec for _, _, specs in _PRESETS[name] for spec in specs])
    axes: dict = {}
    for panel, curve_key, specs in _PRESETS[name]:
        curves = []
        for spec, block in zip(specs, blocks):  # zip takes no block past the panel
            curve_value = getattr(spec.fixed, curve_key)
            curves.append(replace(block, const=block.const | {"curve": curve_value}))
            n_failed += int(np.count_nonzero(block.status != "ok"))
            manifest_entries.append({
                "panel": panel,
                "curve_key": curve_key,
                "curve_value": curve_value,
                "spec": spec.to_dict(),
            })
        path = outdir / f"{name}_{panel}.csv"
        _write_table(path, SweepTable(curves), sweep_columns(specs[0], extra=("curve",)),
                     axes)
        files.append(str(path))
    manifest_path = outdir / f"{name}_manifest.json"
    with open(manifest_path, "w") as fh:  # one write, not one per json token
        fh.write(json.dumps({"figure": name, "schema": 1, "sweeps": manifest_entries},
                            indent=2, sort_keys=True) + "\n")
    return {"files": files, "manifest": str(manifest_path), "n_failed": n_failed}
