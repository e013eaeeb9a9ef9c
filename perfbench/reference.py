"""Check a command's output against the stored reference output.

A CSV row fails when its status is not ``ok``, when it differs from the
reference row in status, or when any cell lies outside tolerance of the
reference cell.  A ``check`` line fails when its verdict is not PASS or
differs from the reference verdict.  Missing and surplus rows fail too.

Tolerances, applied as ``|got - ref| <= tol * max(1, |ref|)``:

* BLP columns ``n_measure`` and ``residual_bound``: 1e-10, the tolerance
  within which a faster memory measure must reproduce the previous one;
* ``alpha_best``: 1e-4, the ``xatol`` of the bounded search that finds it.
  The gain is flat near its maximum, so a change of 1e-12 in the gains can
  move the optimizer's steps far beyond 1e-10; the gain it reaches is
  ``n_measure``, held to 1e-10;
* every other numeric column: 1e-9;
* 0/1 flags must match, unless the reference value of the quantity they
  flag lies within that quantity's tolerance of the flag's threshold.

Standard library only.
"""

from __future__ import annotations

import csv
import io
import re

DEFAULT_TOL = 1e-9
COLUMN_TOL = {"n_measure": 1e-10, "residual_bound": 1e-10, "alpha_best": 1e-4}
# flag column -> (flagged column, threshold)
FLAGS = {
    "violated3": ("c3", 1.0),
    "violated4": ("c4", 2.0),
    "truncated": ("residual_bound", 2e-4),
}

_CHECK_LINE = re.compile(r"^\[(PASS|FAIL)\] (.*?): ")


def tolerance(column: str) -> float:
    return COLUMN_TOL.get(column, DEFAULT_TOL)


def _close(got: str, ref: str, tol: float) -> bool:
    if got == ref:
        return True
    try:
        g, r = float(got), float(ref)
    except ValueError:
        return False
    return abs(g - r) <= tol * max(1.0, abs(r))


def _row_ok(got: dict, ref: dict) -> bool:
    if got.get("status") != "ok" or ref.get("status") != "ok":
        return False
    for col, rv in ref.items():
        gv = got.get(col)
        if gv is None:
            return False
        if col in FLAGS:
            if gv != rv:
                flagged, threshold = FLAGS[col]
                if not _close(ref[flagged], repr(threshold), tolerance(flagged)):
                    return False
        elif col != "status" and not _close(gv, rv, tolerance(col)):
            return False
    return True


def _parse(text: str) -> tuple[str, list[dict]]:
    schema, _, body = text.partition("\n")
    return schema, list(csv.DictReader(io.StringIO(body)))


def compare_csv(got_text: str | None, ref_text: str) -> tuple[int, int]:
    """(attempted, failed) rows of one CSV; attempted counts reference rows
    plus any surplus rows."""
    ref_schema, ref_rows = _parse(ref_text)
    if got_text is None:
        return len(ref_rows), len(ref_rows)
    schema, rows = _parse(got_text)
    attempted = max(len(rows), len(ref_rows))
    if schema != ref_schema or (rows and list(rows[0]) != list(ref_rows[0])):
        return attempted, attempted
    failed = attempted - len(ref_rows) + sum(
        1 for i, ref in enumerate(ref_rows) if i >= len(rows) or not _row_ok(rows[i], ref))
    return attempted, failed


def check_verdicts(stdout: str) -> list[list[str]]:
    """[name, verdict] for every check line ``drivenqubit check`` printed."""
    out = []
    for line in stdout.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            out.append([m.group(2), m.group(1)])
    return out


def compare_checks(got: list[list[str]], ref: list[list[str]]) -> tuple[int, int]:
    """(attempted, failed) check lines."""
    got_map = dict((name, verdict) for name, verdict in got)
    attempted = max(len(got), len(ref))
    failed = attempted - len(ref) + sum(
        1 for name, verdict in ref if got_map.get(name) != verdict or verdict != "PASS")
    return attempted, failed
