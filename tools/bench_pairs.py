"""Run the benchmark on two checkouts in alternating pairs and judge the change.

    python tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10]
                                [--seconds 30] [--seed 1]

PARENT and CHANGE are the roots of two checkouts.  Pair i runs the command
of CHANGE's BENCHMARK.json (``perfbench/run.py``) in both, with seed
``--seed`` + i, the parent first in even pairs and the change first in odd
ones.  For each end-to-end metric of BENCHMARK.json it prints every run, the
medians, the parent's quartiles, the pairs the change won, and two verdicts
(``verdict``): a gain needs wins in at least nine tenths of the pairs and a
median gap wider than the parent's quartile spread; a metric whose median
is worse than the parent's by more than its bound (a share of the parent's
median, as in ``perfbench/compare.py``) is a regression, and one whose
parent spread is wider than its bound is unresolved.  Uses the standard
library alone and writes nothing but what the benchmark writes itself.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """The paired verdicts of one metric, from its values per pair.

    Returns the parent's (q1, median, q3), the change's median, the pairs
    the change won (ties count for neither), ``gain`` (wins in at least
    nine tenths of the pairs and a median gap in the change's favour wider
    than q3 - q1 of the parent) and ``regression``: "regression" where the
    change's median is worse by more than ``bound`` times the parent's,
    else "unresolved" where the parent's spread is wider than that (unless
    every change run beats every parent run), else "none".
    """
    sign = 1.0 if better == "lower" else -1.0
    q1, med, q3 = statistics.quantiles(parent, n=4)
    c_med = statistics.median(change)
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    gap = sign * (med - c_med)  # > 0: the change is better
    scale = abs(med) or 1.0
    if -gap > bound * scale:
        regression = "regression"
    elif q3 - q1 > bound * scale and not all(sign * (p - c) > 0.0
                                             for p in parent for c in change):
        regression = "unresolved"
    else:
        regression = "none"
    return {"parent": (q1, med, q3), "change": c_med, "wins": wins, "pairs": len(parent),
            "gain": 10 * wins >= 9 * len(parent) and gap > q3 - q1,
            "regression": regression}


def run(checkout: Path, command: list, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one benchmark run in ``checkout``."""
    out = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds)],
                         cwd=checkout, capture_output=True, text=True, check=True)
    record = json.loads(out.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in record["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: the verdicts need the parent's quartiles")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run(getattr(args, side), bench["command"], args.workload,
                                  seed, args.seconds))
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: "
                  + ", ".join(f"{k} {v:.6g}" for k, v in runs[side][-1].items()),
                  file=sys.stderr, flush=True)
    print(f"== {args.workload}: {args.pairs} pairs of {args.seconds:g} s runs ==")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        v = verdict(parent, change, metric["better"], metric["bound"])
        q1, med, q3 = v["parent"]
        print(f"{name} ({metric['unit']}, {metric['better']} is better, "
              f"bound {metric['bound']:g}): parent median {med:.6g} "
              f"[q1 {q1:.6g}, q3 {q3:.6g}], change median {v['change']:.6g} "
              f"({(v['change'] - med) / (abs(med) or 1.0):+.2%}), change won "
              f"{v['wins']} of {v['pairs']}; gain: {'yes' if v['gain'] else 'no'}; "
              f"regression: {v['regression']}")
        print(f"  parent runs: {' '.join(f'{x:.6g}' for x in parent)}")
        print(f"  change runs: {' '.join(f'{x:.6g}' for x in change)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
