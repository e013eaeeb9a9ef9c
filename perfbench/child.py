"""Runs one workload in a fresh interpreter; started by run.py.

Drives the package only through ``drivenqubit.cli.main(argv)``, one command
after another (a closed loop with one client).  The first command is the
cheap probe; the line ``ready`` on stdout marks its result, so the parent
can time interpreter start-up plus imports.  The line also gives the time
from the imports to that result, raw and scaled to the reference speed, and
the time spent in the calibration kernel (see calib.py).  With ``--probe``
the process stops there.  Otherwise it repeats passes over the commands
listed in ``--commands`` for about ``--seconds`` and prints one JSON line
with the timings.

The reference outputs are never loaded here, so that the peak memory this
process reports is the program's.  Each pass's outputs are hashed instead;
the first pass with a given hash copies them to ``verify/<n>`` in
``--workdir``, where run.py checks them after this process has ended.

With ``--trace 1`` untraced, coarse-traced and fully traced passes take
turns (see tracing.py); the traced ones give the per-layer metrics and
their spans are written to ``spans.csv.gz`` in ``--workdir``.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import workloads  # noqa: E402
from reference import check_verdicts  # noqa: E402
from tracing import Tracer, blp_percentiles, layer_metrics, layer_overhead, merge  # noqa: E402

# Seconds between samples of the calibration kernel inside a command, and
# inside the imports and first command of start-up.
SAMPLE_INTERVAL_S = 0.25
SETUP_INTERVAL_S = 0.1
# Pass kinds of a traced run, in turn.
KINDS = ("plain", "coarse", "full")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(backend: str) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "backend": backend,
    }


def run_command(main, argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(list(argv))
    return buf.getvalue()


def run_pass(cli, cmds, tracer, label):
    """Run every command once; returns (seconds, scaled seconds, stdout),
    each keyed by command.

    The calibration kernel is timed before and after each command and, in
    untraced passes, every ``SAMPLE_INTERVAL_S`` inside it (see calib.py);
    the kernel's own time is left out of the commands' times.  ``cli.main``
    is looked up here so that a traced pass calls the traced binding."""
    main = cli.main
    times, scaled, stdout = {}, {}, {}
    interval = SAMPLE_INTERVAL_S if tracer is None else 0.0
    for cmd in cmds:
        if tracer is not None:
            tracer.run = f"{label}:{cmd['key']}"
        with calib.SpeedClock("mixed", interval) as clock:
            stdout[cmd["key"]] = run_command(main, cmd["argv"])
        times[cmd["key"]] = clock.raw_s
        scaled[cmd["key"]] = clock.scaled_s
    return times, scaled, stdout
def digest_outputs(cmds, stdout) -> str:
    """Hash of one pass's outputs: every CSV file and every check verdict."""
    h = hashlib.sha256()
    for cmd in cmds:
        h.update(cmd["key"].encode() + b"\0")
        if cmd["outdir"] is None:
            h.update(json.dumps(check_verdicts(stdout[cmd["key"]])).encode())
            continue
        for path in sorted(Path(cmd["outdir"]).glob("*.csv")):
            with open(path, "rb") as fh:
                h.update(path.name.encode() + b"\0" + hashlib.file_digest(fh, "sha256").digest())
    return h.hexdigest()


def save_outputs(cmds, stdout, dest: Path) -> None:
    """Copy one pass's outputs to ``dest`` for run.py to verify."""
    dest.mkdir(parents=True)
    for cmd in cmds:
        if cmd["outdir"] is None:
            (dest / f"{cmd['key']}.json").write_text(
                json.dumps(check_verdicts(stdout[cmd["key"]])))
        elif Path(cmd["outdir"]).is_dir():
            shutil.copytree(cmd["outdir"], dest / cmd["key"])


def write_spans(fh, spans) -> None:
    for name, start, end, parent, run, work in spans:
        fh.write(f"{run},{name},{start:.9f},{end:.9f},{parent},{json.dumps(work)}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--commands", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    with calib.SpeedClock("python", SETUP_INTERVAL_S) as clock:
        import drivenqubit
        from drivenqubit import cli

        if not Path(drivenqubit.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"drivenqubit imported from {drivenqubit.__file__}, "
                             f"not from {ROOT / 'src'}")
        run_command(cli.main, workloads.PROBE_ARGV)
    print(f"ready {clock.raw_s!r} {clock.scaled_s!r} {sum(clock.samples)!r}", flush=True)
    if args.probe:
        return 0

    cmds = json.loads(args.commands.read_text())
    verify_dir = args.workdir / "verify"
    shutil.rmtree(verify_dir, ignore_errors=True)

    tracer = span_file = None
    if args.trace:
        tracer = Tracer()
        cost = tracer.span_cost()
        span_file = gzip.open(args.workdir / "spans.csv.gz", "wt", compresslevel=1)
        span_file.write("run,name,start,end,parent,work\n")

    passes = []
    layers: dict[str, list] = {"coarse": [], "full": []}
    overheads, blp_durations = [], []
    outputs: dict[str, int] = {}
    begin = time.perf_counter()
    try:
        while True:
            k = len(passes)
            kind = KINDS[k % len(KINDS)] if tracer else "plain"
            for cmd in cmds:
                if cmd["outdir"] is not None:
                    shutil.rmtree(cmd["outdir"], ignore_errors=True)
            if kind != "plain":
                tracer.install(full=kind == "full")
            try:
                times, scaled, stdout = run_pass(cli, cmds, tracer if kind != "plain" else None, k)
            finally:
                if kind != "plain":
                    tracer.uninstall()
            if kind != "plain":
                spans = tracer.take()
                layers[kind].append(layer_metrics(spans))
                if kind == "coarse":
                    overheads.append(layer_overhead(spans, cost))
                    blp_durations += [s[2] - s[1] for s in spans
                                      if s[0] == "nonmarkov.blp_measure"]
                write_spans(span_file, spans)
            digest = digest_outputs(cmds, stdout)
            if digest not in outputs:
                outputs[digest] = len(outputs)
                save_outputs(cmds, stdout, verify_dir / str(outputs[digest]))
            passes.append({"kind": kind, "wall_s": sum(times.values()),
                           "scaled_s": sum(scaled.values()), "commands": times,
                           "outputs": outputs[digest]})
            # stop where the run ends nearest to --seconds: before a pass
            # that would overrun by more than half of it
            enough = len(passes) >= (len(KINDS) if tracer else 1)
            elapsed = time.perf_counter() - begin
            if enough and elapsed + 0.5 * elapsed / len(passes) >= args.seconds:
                break
    finally:
        if span_file is not None:
            span_file.close()

    result = {
        "facts": machine_facts(drivenqubit.backend_name()),
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        metrics = merge(layers["coarse"], layers["full"])
        metrics.update(blp_percentiles(blp_durations))
        result["layers"] = metrics
        result["absent"] = tracer.absent
        result["span_cost_s"] = cost
        result["layer_overhead_s"] = {name: statistics.median(o[name] for o in overheads)
                                      for name in overheads[0]}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
