"""Workload definitions: the CLI commands each workload runs.

A workload is a fixed list of commands (figure presets, ``check``) plus a few
seeded sweeps.  The seeded sweeps are drawn, by the run's seed, from a pool
of sweeps that were themselves drawn once from the validated parameter box
(lambda in [0.01, 1] on a log scale, omega in [0, 2], delta in [0, 10],
theta in [0, pi/2]).  The pool and the expected output of every command in
it are stored together in ``reference/<workload>.json.xz``, so every
command a run can send has a stored reference to be checked against.

Standard library only: the benchmark's parent process imports this module
without numpy.
"""

from __future__ import annotations

import json
import lzma
import math
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

WORKLOADS = ("memory", "grids", "scalar")
SWEEP_FILE = "out.csv"

# The first command of every run: cheap, so that the time to its result is
# the cost of starting the interpreter and importing the package.
PROBE_ARGV = ("params", "--lambda", "0.1", "--omega", "0.5", "--delta", "1")

# Fixed part of each workload: (key, argv without --out).
FIXED = {
    "memory": [(p, ["figure", "--preset", p, "--workers", "1"]) for p in ("fig9", "fig10")],
    "grids": [(p, ["figure", "--preset", p, "--workers", "1"])
              for p in ("fig2", "fig3", "fig4", "fig5", "fig6")],
    "scalar": [(p, ["figure", "--preset", p, "--workers", "1"]) for p in ("fig7", "fig8")]
              + [("check", ["check"])],
}

# Seeded part: group -> (pool size, picks per run).
POOLS = {
    "memory": {"blp": (32, 3)},
    "grids": {q: (12, 1) for q in ("amplitude", "decay_rate", "coherence",
                                   "trace_distance", "lgi3", "lgi4", "witness")},
    "scalar": {"gp": (16, 1)},
}

_TIME_AXIS = {"amplitude": "time", "decay_rate": "time", "coherence": "time",
              "trace_distance": "time", "lgi3": "tau", "lgi4": "tau", "witness": "tau"}

# Axis ranges of the parameter sweeps span the whole validated box.
_PARAM_AXES = {
    "lambda_ratio": ["--axis-min", "0.01", "--axis-max", "1", "--scale", "log"],
    "omega": ["--axis-min", "0", "--axis-max", "2"],
    "delta": ["--axis-min", "0", "--axis-max", "10"],
    "theta": ["--axis-min", "0", "--axis-max", repr(math.pi / 2)],
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation; its CSV files land in ``outdir`` (None for
    ``check``, which only prints)."""

    key: str
    argv: tuple[str, ...]
    outdir: Path | None


def draw_sweep(rng: random.Random, workload: str, group: str) -> list[str]:
    """One seeded sweep for a pool: argv without --out."""
    lam = 10 ** rng.uniform(-2.0, 0.0)
    omega = rng.uniform(0.0, 2.0)
    delta = rng.uniform(0.0, 10.0)
    theta = rng.uniform(0.0, math.pi / 2)
    params = ["--lambda", repr(lam), "--omega", repr(omega), "--delta", repr(delta),
              "--theta", repr(theta)]
    if workload == "grids":
        axis = ["--axis", _TIME_AXIS[group], "--points", "201"]
    elif group == "blp":
        # theta does not enter the memory measure, so it is not swept
        name = rng.choice(["lambda_ratio", "omega", "delta"])
        axis = ["--axis", name, *_PARAM_AXES[name], "--points", "6"]
    else:
        name = rng.choice(sorted(_PARAM_AXES))
        axis = ["--axis", name, *_PARAM_AXES[name], "--points", "21"]
    return ["sweep", "--quantity", group, *axis, *params, "--workers", "1"]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.xz"


def load_reference(workload: str) -> dict:
    with lzma.open(reference_path(workload), "rt") as fh:
        return json.load(fh)


def save_reference(workload: str, store: dict) -> None:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    with lzma.open(reference_path(workload), "wt", preset=9) as fh:
        json.dump(store, fh, sort_keys=True, separators=(",", ":"))


def pick(store: dict, workload: str, seed: int) -> list[dict]:
    """The reference entries (fixed first, then seeded) that a run sends."""
    rng = random.Random(seed)
    entries = list(store["fixed"])
    for group, (_, k) in POOLS[workload].items():
        pool = [e for e in store["pool"] if e["group"] == group]
        entries.extend(rng.sample(pool, k))
    return entries


def commands(entries: list[dict], workdir: Path) -> list[Command]:
    """Attach output locations under ``workdir`` to reference entries."""
    out = []
    for e in entries:
        argv = list(e["argv"])
        outdir = None if argv[0] == "check" else workdir / e["key"]
        if argv[0] == "figure":
            argv += ["--out", str(outdir)]
        elif argv[0] == "sweep":
            argv += ["--out", str(outdir / SWEEP_FILE)]
        out.append(Command(e["key"], tuple(argv), outdir))
    return out
