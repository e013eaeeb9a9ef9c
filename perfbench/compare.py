#!/usr/bin/env python3
"""Compare two benchmark results metric by metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are result records written by run.py
(``perfbench/_work/<workload>/result.json``) or files holding a list of them
under ``"results"``, such as ``perfbench/baseline.json``.  Records are
matched by workload and trace mode.  Two records whose kernel backend
differs are not compared: the command exits with 1.  An end-to-end metric
that is worse than the base by more than its bound in BENCHMARK.json is
marked ``WORSE``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    data = json.loads(Path(path).read_text())
    records = data["results"] if "results" in data else [data]
    return {(r["workload"], r["trace"]): r for r in records}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = load(argv[0]), load(argv[1])
    e2e = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    status = 0
    for key in sorted(base.keys() & new.keys()):
        b, n = base[key], new[key]
        if b["facts"]["backend"] != n["facts"]["backend"]:
            print(f"{key[0]}: backend {b['facts']['backend']} vs {n['facts']['backend']}; "
                  "not comparable", file=sys.stderr)
            status = 1
            continue
        print(f"== {key[0]} (trace {key[1]}) ==")
        for name, bv in b["metrics"].items():
            nv = n["metrics"].get(name)
            if nv is None:
                print(f"  {name:32s} {bv:14.6g} {'absent':>14s}")
                continue
            change = (nv - bv) / bv if bv else 0.0
            mark = ""
            if name in e2e:
                worse = -change if e2e[name]["better"] == "higher" else change
                mark = "WORSE" if worse > e2e[name]["bound"] else "ok"
            print(f"  {name:32s} {bv:14.6g} {nv:14.6g} {change:+9.2%} {mark}")
    return status


if __name__ == "__main__":
    sys.exit(main())
