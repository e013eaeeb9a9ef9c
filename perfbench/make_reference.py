"""Regenerate the stored reference outputs of every workload.

Draws each workload's pool of seeded sweeps from the validated parameter box
with a fixed seed, runs every fixed and pooled command once through
``drivenqubit.cli.main`` and stores argv plus outputs in
``reference/<workload>.json.xz``.  A drawn sweep with any row whose status is
not ``ok`` is redrawn, so no pooled command fails at the commit that made the
references.

Run it only at a commit whose outputs are the accepted ones, from the root
of the checkout:

    python3 perfbench/make_reference.py --source <commit id>
"""

from __future__ import annotations

import argparse
import random
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402
from child import run_command  # noqa: E402

POOL_SEED = 20190402


def run_entry(main, key, argv, workdir: Path) -> dict:
    entry = {"key": key, "argv": argv}
    (cmd,) = workloads.commands([entry], workdir)
    stdout = run_command(main, cmd.argv)
    if cmd.outdir is None:
        entry["check"] = reference.check_verdicts(stdout)
    else:
        entry["files"] = {p.name: p.read_text() for p in sorted(cmd.outdir.glob("*.csv"))}
    return entry


def all_ok(entry: dict) -> bool:
    if "check" in entry:
        return all(v == "PASS" for _, v in entry["check"])
    return all(reference.compare_csv(text, text)[1] == 0 for text in entry["files"].values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--source", required=True, help="commit the outputs come from")
    args = ap.parse_args(argv)

    from drivenqubit.cli import main as cli_main

    workdir = ROOT / "perfbench" / "_work" / "make_reference"
    for name in workloads.WORKLOADS:
        shutil.rmtree(workdir, ignore_errors=True)
        rng = random.Random(f"{POOL_SEED}-{name}")
        fixed = [run_entry(cli_main, key, argv, workdir) for key, argv in workloads.FIXED[name]]
        if not all(map(all_ok, fixed)):
            raise SystemExit(f"{name}: a fixed command has failed rows or checks")
        pool = []
        for group, (size, _) in workloads.POOLS[name].items():
            while sum(1 for e in pool if e["group"] == group) < size:
                key = f"{group}-{sum(1 for e in pool if e['group'] == group):02d}"
                entry = run_entry(cli_main, key, workloads.draw_sweep(rng, name, group), workdir)
                if all_ok(entry):
                    pool.append(entry | {"group": group})
        workloads.save_reference(name, {"source": args.source, "fixed": fixed, "pool": pool})
        print(f"{name}: {len(fixed)} fixed, {len(pool)} pooled commands -> "
              f"{workloads.reference_path(name)}")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
