"""Command-line front end.

Subcommands: ``params`` (derived constants), ``sweep`` (one observable over
one axis, CSV out), ``figure`` (preset reproduction of the standard figure
families), ``check`` (dual-route consistency suite).

All rate flags are in units of gamma and times in units of 1/gamma.  An
optional key=value config file mirrors the flags; explicit flags win.
Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .params import SystemParams, ValidationError, derive
from .selfcheck import run_all
from .sweeps import (PRESET_NAMES, SweepAxis, SweepSpec, figure_preset,
                     make_outdir, run_sweep, sweep_columns, write_rows)

USAGE_EXIT = 1
NUMERIC_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _read_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc.strerror}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


# SystemParams field of each parameter flag
_PARAM_KEYS = {"lam": "lam", "omega": "omega_rabi", "delta": "delta_qc",
               "delta_cav": "delta_cav", "theta": "theta"}
_FLOAT_KEYS = (*_PARAM_KEYS, "tmax", "tol", "axis_min", "axis_max")
_INT_KEYS = ("points", "workers")
_STR_KEYS = ("quantity", "axis", "scale", "out", "preset")


def _merge_config(args: argparse.Namespace) -> argparse.Namespace:
    if not getattr(args, "config", None):
        return args
    cfg = _read_config(args.config)
    for key, raw in cfg.items():
        if key == "lambda":
            key = "lam"
        if not hasattr(args, key):
            raise ValidationError(f"config key {key!r} does not mirror any flag")
        if getattr(args, key) is not None:
            continue  # explicit flag wins
        convert = float if key in _FLOAT_KEYS else int if key in _INT_KEYS else str
        try:
            setattr(args, key, convert(raw))
        except ValueError:
            raise ValidationError(f"{args.config}: {key} = {raw!r} is not a valid "
                                  f"{convert.__name__}") from None
    return args


def _add_param_flags(p: argparse.ArgumentParser):
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="cavity spectral width (units of gamma)")
    p.add_argument("--omega", type=float, default=None,
                   help="qubit/classical-field coupling (units of gamma)")
    p.add_argument("--delta", type=float, default=None,
                   help="qubit/classical-field detuning (units of gamma)")
    p.add_argument("--delta-cav", dest="delta_cav", type=float, default=None,
                   help="qubit/cavity-center detuning (units of gamma)")
    p.add_argument("--theta", type=float, default=None,
                   help="initial superposition angle (radians)")
    p.add_argument("--config", default=None,
                   help="key = value file mirroring the flags; flags override")


def _given(args, keys) -> dict:
    """{name: flag value} of the flags that were given, flag or config."""
    return {name: getattr(args, key) for key, name in keys.items()
            if getattr(args, key) is not None}


def _params_from(args) -> SystemParams:
    """Parameters from the flags given; the others take SystemParams'
    defaults, and lam, which has none, 0.01."""
    return SystemParams(**{"lam": 0.01} | _given(args, _PARAM_KEYS))


def build_parser() -> _Parser:
    parser = _Parser(prog="drivenqubit",
                     description="Driven qubit in a lossy cavity: dynamics, "
                                 "quantumness and memory diagnostics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="print derived constants")
    _add_param_flags(p_params)

    p_sweep = sub.add_parser("sweep", help="sweep one observable, write CSV")
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--quantity", default=None,
                         help="amplitude|decay_rate|coherence|trace_distance|"
                              "lgi3|lgi4|witness|gp|blp")
    p_sweep.add_argument("--axis", default=None,
                         help="time|tau|lambda_ratio|omega|delta|theta")
    p_sweep.add_argument("--axis-min", dest="axis_min", type=float, default=None)
    p_sweep.add_argument("--axis-max", dest="axis_max", type=float, default=None)
    p_sweep.add_argument("--points", type=int, default=None)
    p_sweep.add_argument("--scale", default=None, choices=["linear", "log"])
    p_sweep.add_argument("--tmax", type=float, default=None,
                         help="integration horizon for blp rows")
    p_sweep.add_argument("--tol", type=float, default=None,
                         help="quadrature tolerance for gp rows")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="accepted for compatibility; no effect (must be >= 1)")
    p_sweep.add_argument("--out", default=None, help="output CSV path")

    p_fig = sub.add_parser("figure", help="emit preset figure CSV families")
    p_fig.add_argument("--preset", default=None,
                       help=f"one of: {', '.join(PRESET_NAMES)}")
    p_fig.add_argument("--out", default=None, help="output directory")
    p_fig.add_argument("--workers", type=int, default=None,
                       help="accepted for compatibility; no effect (must be >= 1)")
    p_fig.add_argument("--config", default=None)

    p_check = sub.add_parser("check", help="run the dual-route consistency suite")
    p_check.add_argument("--quick", action="store_true",
                         help="reduced parameter grid")
    return parser


def _cmd_params(args) -> int:
    params = _params_from(args)
    dp = derive(params)
    print(f"gamma      = {params.gamma:.17g}")
    print(f"lambda     = {params.lam:.17g}")
    print(f"omega      = {params.omega_rabi:.17g}")
    print(f"delta      = {params.delta_qc:.17g}")
    print(f"delta_cav  = {params.delta_cav:.17g}")
    print(f"theta      = {params.theta:.17g}")
    print(f"eta        = {dp.eta:.17g}")
    print(f"omega_d    = {dp.omega_d:.17g}")
    print(f"m_const    = {dp.m_const.real:.17g}{dp.m_const.imag:+.17g}j")
    print(f"f_const    = {dp.f_const.real:.17g}{dp.f_const.imag:+.17g}j")
    print(f"tau_r      = {dp.tau_r:.17g}")
    print(f"tau_q      = {dp.tau_q:.17g}")
    if dp.no_period() is None:
        print(f"period     = {2 * math.pi / dp.omega_d:.17g}")
    for w in dp.flags():
        print(f"warning: {w}")
    return 0


def _cmd_sweep(args, parser) -> int:
    for flag in ("quantity", "axis", "out"):
        if getattr(args, flag) is None:
            parser.error(f"--{flag} is required (flag or config)")
    axis_defaults = {
        "time": (0.0, 30.0), "tau": (0.0, 4.0), "lambda_ratio": (0.01, 1.0),
        "omega": (0.0, 2.0), "delta": (0.0, 10.0), "theta": (0.0, math.pi / 2),
    }
    if args.axis not in axis_defaults:
        parser.error(f"unknown axis {args.axis!r}")
    lo, hi = axis_defaults[args.axis]
    axis = SweepAxis(
        name=args.axis,
        start=args.axis_min if args.axis_min is not None else lo,
        stop=args.axis_max if args.axis_max is not None else hi,
        count=args.points if args.points is not None else 201,
        scale=args.scale or "linear",
    )
    spec = SweepSpec(
        quantity=args.quantity,
        fixed=_params_from(args),
        axis=axis,
        output_path=args.out,
        **_given(args, {"tmax": "t_max", "tol": "quad_tol"}),
    )
    out = Path(args.out)
    # an unwritable --out fails before any row is computed
    if out.is_dir():
        raise ValidationError(f"--out {args.out!r} is a directory")
    make_outdir(out.parent)
    table, summary = run_sweep(spec)
    write_rows(args.out, table, sweep_columns(spec))
    print(f"wrote {args.out}: {summary.n_rows} rows, {summary.n_failed} failed")
    if summary.minimum is not None:
        print(f"{spec.quantity}: min={summary.minimum:.17g} "
              f"max={summary.maximum:.17g} argmax={summary.argmax:.17g}")
    return NUMERIC_EXIT if summary.n_failed else 0


def _cmd_figure(args, parser) -> int:
    if args.preset is None:
        parser.error("--preset is required")
    if args.out is None:
        parser.error("--out is required")
    result = figure_preset(args.preset, args.out)
    for path in result["files"]:
        print(f"wrote {path}")
    print(f"wrote {result['manifest']}")
    if result["n_failed"]:
        print(f"{result['n_failed']} rows failed", file=sys.stderr)
        return NUMERIC_EXIT
    return 0


def _cmd_check(args) -> int:
    results = run_all(quick=args.quick)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return NUMERIC_EXIT if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        # --workers has no effect; it stays accepted for older command lines
        # and config files, and is checked before any file or row is made
        if getattr(args, "workers", None) is not None and args.workers < 1:
            raise ValidationError(f"workers must be >= 1, got {args.workers}")
        if args.command == "params":
            return _cmd_params(args)
        if args.command == "sweep":
            return _cmd_sweep(args, parser)
        if args.command == "figure":
            return _cmd_figure(args, parser)
        return _cmd_check(args)
    except ValidationError as exc:
        print(f"drivenqubit: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ArithmeticError, RuntimeError) as exc:
        print(f"drivenqubit: numerical failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
