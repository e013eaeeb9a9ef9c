#!/usr/bin/env python3
"""drivenqubit benchmark: end-to-end and per-layer metrics of the CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload memory|grids|scalar|all] [--seed N]
                             [--seconds S] [--trace 0|1]

For each workload it starts fresh interpreters with BLAS/OpenMP pinned to
one thread.  Several of them only time start-up to the first command's
result (``setup_s``); one of them then repeats passes over the workload's
commands for ``--seconds`` (see child.py).  With ``--trace 0`` it reports
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced run.  A readable report goes to stderr, one JSON object per
workload to stdout (the last line is the last workload's), and the full
record with the machine facts to ``perfbench/_work/<workload>/result.json``.

Exits with 1, printing no result, when the checkout holds no package to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import reference
from stats import quartiles
from workloads import WORKLOADS, commands, load_reference, pick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
PER_LAYER_UNITS = {
    "amplitude.grid_calls": "count", "amplitude.grid_points": "count",
    "amplitude.grid_s": "s", "amplitude.grid_mpts_per_s": "Mpts/s",
    "amplitude.scalar_calls": "count", "amplitude.scalar_s": "s",
    "amplitude.oracle_calls": "count", "amplitude.oracle_s": "s",
    "nonmarkov.blp_rows": "count", "nonmarkov.blp_s": "s", "nonmarkov.blp_self_s": "s",
    "nonmarkov.blp_ms_p50": "ms", "nonmarkov.blp_ms_p98": "ms",
    "nonmarkov.intervals": "count", "nonmarkov.points_per_interval": "count",
    "phase.gp_rows": "count", "phase.gp_s": "s", "phase.gp_self_s": "s",
    "quadrature.nodes": "count", "quadrature.nodes_per_row": "count",
    "temporal.lgi_calls": "count", "temporal.lgi_s": "s", "temporal.witness_s": "s",
    "sweeps.rows": "count", "sweeps.rows_failed": "count", "sweeps.write_s": "s",
    "sweeps.write_rows_per_s": "1/s",
    "selfcheck.checks": "count", "selfcheck.failed": "count", "selfcheck.s": "s",
    "params.derive_calls": "count",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.absent": "count",
}
# Layer times whose sum should dominate each workload's traced pass.
SPLITS = {
    "memory": ("nonmarkov.blp_s",),
    "grids": ("sweeps.write_s", "temporal.lgi_s"),
    "scalar": ("phase.gp_s", "selfcheck.s"),
}


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    # cache bytecode as an installed package does, so set-up does not compile
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def start_child(workload, seconds, trace, probe=False):
    """Start child.py; returns (process, seconds until its first result, the
    same scaled to the reference speed).  The child scales the part from its
    imports on (see calib.py); the interpreter's start before it is raw."""
    cmd = [sys.executable, str(HERE / "child.py"),
           "--commands", str(WORK / workload / "commands.json"),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(WORK / workload)]
    if probe:
        cmd.append("--probe")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    words = proc.stdout.readline().split()
    elapsed = time.perf_counter() - t0
    if len(words) != 4 or words[0] != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload}: child did not start (exit {proc.returncode})")
    inner_raw, inner_scaled, kernel = map(float, words[1:])
    ready = elapsed - kernel
    return proc, ready, ready - inner_raw + inner_scaled


def finish(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("child timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}")
    return out


def time_setup(workload: str) -> tuple[float, float]:
    """Seconds from starting a probe child to its first result, raw and
    scaled to the reference speed."""
    proc, ready, scaled = start_child(workload, 0, 0, probe=True)
    finish(proc)
    return ready, scaled


def verify(entries, saved: Path) -> tuple[int, int]:
    """(attempted, failed) rows and check lines of one pass's outputs, saved
    by the child under ``saved``, against the reference entries."""
    attempted = failed = 0
    for entry in entries:
        if "check" in entry:
            got = json.loads((saved / f"{entry['key']}.json").read_text())
            a, f = reference.compare_checks(got, entry["check"])
        else:
            a = f = 0
            for name, ref_text in entry["files"].items():
                path = saved / entry["key"] / name
                got = path.read_text() if path.is_file() else None
                fa, ff = reference.compare_csv(got, ref_text)
                a, f = a + fa, f + ff
        attempted, failed = attempted + a, failed + f
    return attempted, failed


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    work = WORK / workload
    work.mkdir(parents=True, exist_ok=True)
    entries = pick(load_reference(workload), workload, seed)
    cmds = commands(entries, work / "out")
    (work / "commands.json").write_text(json.dumps(
        [{"key": c.key, "argv": c.argv, "outdir": c.outdir and str(c.outdir)} for c in cmds]))
    # probes before and after the passes, so that set-up samples span the run
    probes = 0 if trace else SETUP_PROBES
    setups = [time_setup(workload) for _ in range(probes - probes // 2)]
    proc, *_ = start_child(workload, seconds, trace)
    child = json.loads(finish(proc).strip().splitlines()[-1])
    setups += [time_setup(workload) for _ in range(probes // 2)]

    passes = child["passes"]
    verdicts = {n: verify(entries, work / "verify" / str(n))
                for n in {p["outputs"] for p in passes}}
    shutil.rmtree(work / "out", ignore_errors=True)
    shutil.rmtree(work / "verify", ignore_errors=True)
    for p in passes:
        p["attempted"], p["failed"] = verdicts[p["outputs"]]
    plain = [p["wall_s"] for p in passes if p["kind"] == "plain"]
    scaled = [p["scaled_s"] for p in passes if p["kind"] == "plain"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "facts": child["facts"],
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "setup_samples_s": [raw for raw, _ in setups],
        "setup_scaled_s": [scaled for _, scaled in setups],
        "wall_quartiles_s": quartiles(scaled),
        "wall_raw_quartiles_s": quartiles(plain),
        "command_median_s": {k: statistics.median(p["commands"][k] for p in passes
                                                  if p["kind"] == "plain")
                             for k in passes[0]["commands"]},
        "passes": passes,
    }
    if trace:
        layers = dict(child["layers"])
        coarse, full = (statistics.median(p["wall_s"] for p in passes if p["kind"] == kind)
                        for kind in ("coarse", "full"))
        layers["trace.wall_s"] = coarse
        layers["trace.overhead_s"] = coarse - statistics.median(plain)
        layers["trace.absent"] = len(child["absent"])
        record["absent"] = child["absent"]
        record["full_trace_overhead_s"] = full - statistics.median(plain)
        record["span_cost_s"] = child["span_cost_s"]
        record["layer_overhead_s"] = child["layer_overhead_s"]
        record["metrics"] = {k: layers[k] for k in PER_LAYER_UNITS}
    else:
        record["metrics"] = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "wall_s": statistics.median(scaled),
            "peak_rss_mb": child["peak_rss_mb"],
            "ok_frac": 1.0 - failed / attempted,
        }
    with open(WORK / workload / "result.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def report(record: dict) -> None:
    w = record["workload"]
    f = record["facts"]
    passes = [p for p in record["passes"] if p["kind"] == "plain"]
    q1, med, q3 = record["wall_quartiles_s"]
    r1, rmed, r3 = record["wall_raw_quartiles_s"]
    rows = record["attempted"] // len(record["passes"])
    say = lambda s="": print(s, file=sys.stderr)  # noqa: E731
    say(f"== {w} (seed {record['seed']}, trace {record['trace']}) ==")
    say(f"  python {f['python']}, numpy {f['numpy']}, scipy {f['scipy']}, "
        f"nproc {f['nproc']}, cpu {f['cpu']}, backend {f['backend']}")
    say(f"  wall_s median {med:.4f} s, quartiles [{q1:.4f}, {q3:.4f}] over "
        f"{len(passes)} untraced passes; {rows} rows and checks per pass")
    say(f"  raw (unscaled) pass time median {rmed:.4f} s, quartiles [{r1:.4f}, {r3:.4f}]")
    if record["setup_samples_s"]:
        say(f"  raw (unscaled) set-up median {statistics.median(record['setup_samples_s']):.4f} s")
    say(f"  failed_frac {record['failed_frac']:.6g} frac "
        f"({record['failed']} of {record['attempted']})")
    units = END_TO_END if not record["trace"] else PER_LAYER_UNITS
    for name, value in record["metrics"].items():
        say(f"  {name:32s} {value:14.6g} {units[name]}")
    if record["trace"]:
        m = record["metrics"]
        share = sum(m[k] for k in SPLITS[w]) / m["trace.wall_s"]
        say(f"  split: {' + '.join(SPLITS[w])} = {share:.1%} of traced wall_s")
        say(f"  tracer cost: {1e6 * record['span_cost_s']:.2f} us per span; coarse passes "
            f"{m['trace.overhead_s']:+.4f} s, full passes "
            f"{record['full_trace_overhead_s']:+.4f} s against untraced")
        say("  estimated tracer cost inside layer times (coarse passes): " + ", ".join(
            f"{k} {1e3 * v:.2f} ms" for k, v in record["layer_overhead_s"].items() if v))
        for name in record["absent"]:
            say(f"  absent: drivenqubit.{name}")
        say(f"  spans: {WORK / w / 'spans.csv.gz'}")
    say("  per command (median s): "
        + ", ".join(f"{k} {v:.3f}" for k, v in record["command_median_s"].items()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="drivenqubit benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "drivenqubit" / "cli.py").is_file():
        print(f"perfbench: no drivenqubit package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        record = run_workload(name, args.seed, args.seconds, args.trace)
        report(record)
        units = PER_LAYER_UNITS if args.trace else END_TO_END
        print(json.dumps({
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
