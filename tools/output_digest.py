"""Print the SHA-256 of every output of the figure presets and of ``check``.

Runs ``drivenqubit figure`` for fig2-fig10 and ``drivenqubit check`` through
``drivenqubit.cli.main``, in one process, into a temporary directory that is
removed afterwards.  ``check``'s standard output is hashed as ``check.txt``.
Prints one ``sha256 path`` line per output file, sorted by path, with
paths relative to that directory, so two checkouts are byte-identical in
their outputs when their listings are::

    PYTHONPATH=src python tools/output_digest.py > a.txt      # in each checkout
    diff a.txt b.txt

Exits 1 if a command does not exit 0.
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from drivenqubit.cli import main

PRESETS = [f"fig{k}" for k in range(2, 11)]


def digests(outdir: Path) -> list[str]:
    """Run every preset and ``check`` into ``outdir``; the sorted
    ``sha256 path`` lines of what they wrote."""
    for name in PRESETS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["figure", "--preset", name, "--out", str(outdir)])
        if code != 0:
            raise SystemExit(f"figure --preset {name} exited {code}")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check"])
    if code != 0:
        raise SystemExit(f"check exited {code}")
    (outdir / "check.txt").write_text(out.getvalue())
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()} {path.relative_to(outdir)}"
            for path in sorted(outdir.rglob("*")) if path.is_file()]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = digests(Path(tmp))
    sys.stdout.write("".join(line + "\n" for line in lines))
