"""Command-line front end.

Subcommands: ``params`` (derived constants), ``sweep`` (one observable over
one axis, CSV out), ``figure`` (preset reproduction of the standard figure
families), ``check`` (dual-route consistency suite).

All rate flags are in units of gamma and times in units of 1/gamma.  A
``--config`` file of ``key = value`` lines means the flags ``--key=value``,
placed before the command line: argparse checks both alike, a later value
wins, so command-line flags beat the file.
Exit codes: 0 success, 1 usage error, 2 numerical failure or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from pathlib import Path

from . import __version__
from .params import SystemParams, ValidationError, derive
from .selfcheck import run_all
from .sweeps import (AXES, PRESET_NAMES, QUANTITIES, SweepAxis, SweepSpec,
                     figure_preset, make_outdir, run_sweep, sweep_columns,
                     write_rows)

USAGE_EXIT = 1
NUMERIC_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a negative float literal is a value, as float() reads it: "-1e-3",
        # "-1_000", "-inf", "-infinity" and "-nan" included; argparse's own
        # pattern has no exponent, separator or word, so it would read them
        # as flags
        self._negative_number_matcher = re.compile(
            r"^-((\d[\d_]*\.?[\d_]*|\.\d[\d_]*)(e[-+]?\d[\d_]*)?|inf|infinity|nan)$",
            re.IGNORECASE)

    def error(self, message):  # argparse would exit with code 2
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _config_argv(path: str) -> list[str]:
    """The flags ``--key=value`` of a config file's ``key = value`` lines,
    in file order; ``_`` in a key reads as ``-``."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc.strerror}") from None
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        out.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return out


def _workers(text: str) -> int:
    """--workers: an int >= 1 (it has no effect)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"workers must be >= 1, got {n}")
    return n


def _add_param_flags(p: argparse.ArgumentParser):
    # defaults are SystemParams' own, but lam has none there
    p.add_argument("--lambda", dest="lam", type=float, default=0.01,
                   help="cavity spectral width (units of gamma)")
    p.add_argument("--omega", type=float, default=SystemParams.omega_rabi,
                   help="qubit/classical-field coupling (units of gamma)")
    p.add_argument("--delta", type=float, default=SystemParams.delta_qc,
                   help="qubit/classical-field detuning (units of gamma)")
    p.add_argument("--delta-cav", dest="delta_cav", type=float,
                   default=SystemParams.delta_cav,
                   help="qubit/cavity-center detuning (units of gamma)")
    p.add_argument("--theta", type=float, default=SystemParams.theta,
                   help="initial superposition angle (radians)")
    _add_config_flag(p)


def _add_config_flag(p: argparse.ArgumentParser):
    # every value is kept, so a config file that sets config shows
    p.add_argument("--config", action="append",
                   help="key = value file of flags; command-line flags win")


def _params_from(args) -> SystemParams:
    return SystemParams(lam=args.lam, omega_rabi=args.omega, delta_qc=args.delta,
                        delta_cav=args.delta_cav, theta=args.theta)


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process: it depends only on module
    constants, and parsing leaves it as it was (each parse starts from the
    defaults, and ``--config`` appends to a fresh list)."""
    parser = _Parser(prog="drivenqubit",
                     description="Driven qubit in a lossy cavity: dynamics, "
                                 "quantumness and memory diagnostics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="print derived constants")
    _add_param_flags(p_params)

    p_sweep = sub.add_parser("sweep", help="sweep one observable, write CSV")
    # a subcommand reports its own usage errors
    p_sweep.set_defaults(parser=p_sweep)
    _add_param_flags(p_sweep)
    p_sweep.add_argument("--quantity", choices=QUANTITIES)
    p_sweep.add_argument("--axis", choices=AXES)
    p_sweep.add_argument("--axis-min", dest="axis_min", type=float, default=None)
    p_sweep.add_argument("--axis-max", dest="axis_max", type=float, default=None)
    p_sweep.add_argument("--points", type=int, default=201)
    p_sweep.add_argument("--scale", default="linear", choices=["linear", "log"])
    p_sweep.add_argument("--tmax", type=float, default=SweepSpec.t_max,
                         help="integration horizon for blp rows")
    p_sweep.add_argument("--tol", type=float, default=SweepSpec.quad_tol,
                         help="quadrature tolerance for gp rows")
    p_sweep.add_argument("--workers", type=_workers, default=1,
                         help="accepted for compatibility; no effect (must be >= 1)")
    p_sweep.add_argument("--out", help="output CSV path")

    p_fig = sub.add_parser("figure", help="emit preset figure CSV families")
    p_fig.set_defaults(parser=p_fig)
    p_fig.add_argument("--preset", help=f"one of: {', '.join(PRESET_NAMES)}")
    p_fig.add_argument("--out", help="output directory")
    p_fig.add_argument("--workers", type=_workers, default=1,
                       help="accepted for compatibility; no effect (must be >= 1)")
    _add_config_flag(p_fig)

    sub.add_parser("check", help="run the dual-route consistency suite")
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


def _require(args, *flags) -> None:
    """A usage error, on the subcommand's parser, for the first flag not set."""
    for flag in flags:
        if getattr(args, flag) is None:
            args.parser.error(f"--{flag} is required (flag or config)")


def _cmd_sweep(args) -> int:
    _require(args, "quantity", "axis", "out")
    _, (lo, hi) = AXES[args.axis]
    axis = SweepAxis(
        name=args.axis,
        start=args.axis_min if args.axis_min is not None else lo,
        stop=args.axis_max if args.axis_max is not None else hi,
        count=args.points,
        scale=args.scale,
    )
    spec = SweepSpec(quantity=args.quantity, fixed=_params_from(args), axis=axis,
                     t_max=args.tmax, quad_tol=args.tol)
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


def _cmd_figure(args) -> int:
    _require(args, "preset", "out")
    result = figure_preset(args.preset, args.out)
    for path in result["files"]:
        print(f"wrote {path}")
    print(f"wrote {result['manifest']}")
    if result["n_failed"]:
        print(f"{result['n_failed']} rows failed", file=sys.stderr)
        return NUMERIC_EXIT
    return 0


def _cmd_check(args) -> int:
    results = run_all()
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return NUMERIC_EXIT if failed else 0


def main(argv=None) -> int:
    """Run one command; returns its exit code.  Calls in one process share
    one parser (``build_parser``)."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            given = args.config
            args = parser.parse_args([argv[0], *_config_argv(given[-1]), *argv[1:]])
            if args.config != given:
                raise ValidationError(f"{given[-1]}: a config file cannot set config")
        if args.command == "params":
            return _cmd_params(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "figure":
            return _cmd_figure(args)
        return _cmd_check(args)
    except ValidationError as exc:
        print(f"drivenqubit: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ArithmeticError, RuntimeError, MemoryError) as exc:
        kind = "out of memory" if isinstance(exc, MemoryError) else "numerical failure"
        print(f"drivenqubit: {kind}: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
