"""Span tracing of the package's layers, installed from outside the package.

Each target is a public function wrapped where its calling module looks it
up (``drivenqubit.sweeps.blp_measure`` is the binding that ``sweeps`` calls),
so the package itself is not modified.  A span records its name, start, end,
parent span and run id (the CLI command it belongs to), plus an optional
work count taken from the call.  Spans stay in memory until the caller
writes them out; a layer's self time is its duration minus the time its
direct child spans cover.

Scalar amplitude calls take about a microsecond and are made some 10^5
times per pass, so a span around each would roughly double the time of the
layers that make them.  They are therefore traced only in "full" passes;
"coarse" passes trace every other target, and the layer times come from
those (``merge``).

A target whose function no longer exists is reported as absent, not as an
error, so a change that deletes a function (``backend.amp_damp``,
``lgi_c4``, ...) still traces.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

from stats import percentile

GRID_SPANS = ("amplitude.grid", "backend.amp_damp")


def _size(args, result):
    return int(result[0].size)


def _sweep_counts(args, result):
    summary = result[1]
    return (summary.n_rows, summary.n_failed)


def _check_counts(args, result):
    return (len(result), sum(1 for r in result if not r.passed))


# (module under drivenqubit, attribute, span name, work count or None)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "run_sweep", "sweeps.run_sweep", _sweep_counts),
    ("sweeps", "run_sweep", "sweeps.run_sweep", _sweep_counts),
    ("cli", "write_rows", "sweeps.write_rows", lambda args, result: len(args[1])),
    ("sweeps", "write_rows", "sweeps.write_rows", lambda args, result: len(args[1])),
    ("cli", "run_all", "selfcheck.run_all", _check_counts),
    ("selfcheck", "amplitude_oracle_ode", "amplitude.oracle", None),
    ("sweeps", "blp_measure", "nonmarkov.blp_measure",
     lambda args, result: len(result.intervals.intervals)),
    ("sweeps", "geometric_phase_detailed", "phase.geometric_phase",
     lambda args, result: len(result[2])),
    ("sweeps", "lgi_c3", "temporal.lgi", None),
    ("sweeps", "lgi_c4", "temporal.lgi", None),
    ("sweeps", "witness_series", "temporal.witness_series", None),
    ("amplitude", "amplitude_grid", "amplitude.grid", _size),
    ("nonmarkov", "amplitude_grid", "amplitude.grid", _size),
    ("sweeps", "amplitude_grid", "amplitude.grid", _size),
    ("temporal", "amplitude_grid", "amplitude.grid", _size),
    ("nonmarkov", "amp_damp", "backend.amp_damp", _size),
    ("amplitude", "derive", "params.derive", None),
    ("nonmarkov", "derive", "params.derive", None),
    ("sweeps", "derive", "params.derive", None),
    ("selfcheck", "derive", "params.derive", None),
    ("cli", "derive", "params.derive", None),
)

# Traced in full passes only.
SCALAR_TARGETS = (
    ("amplitude", "amplitude_closed_form", "amplitude.scalar", None),
    ("nonmarkov", "amplitude_closed_form", "amplitude.scalar", None),
    ("phase", "amplitude_closed_form", "amplitude.scalar", None),
    ("states", "amplitude_closed_form", "amplitude.scalar", None),
    ("temporal", "amplitude_closed_form", "amplitude.scalar", None),
    ("amplitude", "amplitude_derivative", "amplitude.scalar", None),
    ("nonmarkov", "amplitude_derivative", "amplitude.scalar", None),
)
AMPLITUDE_SPANS = GRID_SPANS + ("amplitude.scalar", "amplitude.oracle")
# Layer time metric -> the span it sums (grid spans have no children).
LAYER_SPANS = {
    "amplitude.oracle_s": "amplitude.oracle",
    "nonmarkov.blp_s": "nonmarkov.blp_measure",
    "phase.gp_s": "phase.geometric_phase",
    "temporal.lgi_s": "temporal.lgi",
    "temporal.witness_s": "temporal.witness_series",
    "sweeps.write_s": "sweeps.write_rows",
    "selfcheck.s": "selfcheck.run_all",
}
# Self-time metric -> the layer time it is part of.
SELF_OF = {"nonmarkov.blp_self_s": "nonmarkov.blp_s", "phase.gp_self_s": "phase.gp_s"}


class Tracer:
    """Collects spans while installed; ``run`` labels the spans of one command."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.run = ""
        self.absent: list[str] = []
        self._coarse = self._resolve(TARGETS)
        self._scalar = self._resolve(SCALAR_TARGETS)

    def _resolve(self, targets) -> list:
        out = []
        for mod_name, attr, name, work in targets:
            module = importlib.import_module(f"drivenqubit.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
            else:
                out.append((module, attr, fn, self._wrap(name, fn, work)))
        return out

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run, 0)
            if work is not None:
                spans[idx] = (name, start, end, parent, self.run, work(args, result))
            return result

        return traced

    def install(self, full: bool) -> None:
        """Wrap the coarse targets, and the scalar ones too if ``full``."""
        for module, attr, _, wrapped in self._coarse + (self._scalar if full else []):
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._coarse + self._scalar:
            setattr(module, attr, original)

    def take(self) -> list:
        """Return the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out

    def span_cost(self) -> float:
        """Seconds one span adds to the layer around it: a traced no-op
        against a plain one, best of five rounds."""
        def noop():
            return None

        traced, clock = self._wrap("calibration", noop, None), time.perf_counter
        calls, best = 20_000, float("inf")
        for _ in range(5):
            t0 = clock()
            for _ in range(calls):
                noop()
            t1 = clock()
            for _ in range(calls):
                traced()
            t2 = clock()
            self.spans.clear()
            best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
        return best


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def nested_spans(spans) -> dict[str, int]:
    """For each span name, the number of spans nested at any depth inside
    spans of that name: each costs the enclosing layer one ``span_cost``."""
    out: dict[str, int] = {}
    for _, _, _, parent, _, _ in spans:
        while parent >= 0:
            name = spans[parent][0]
            out[name] = out.get(name, 0) + 1
            parent = spans[parent][3]
    return out


def layer_overhead(spans, cost: float) -> dict[str, float]:
    """Estimated tracer cost inside each layer time of one pass."""
    nested = nested_spans(spans)
    return {metric: cost * nested.get(span, 0) for metric, span in LAYER_SPANS.items()}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer totals of one traced pass (percentiles are pooled separately
    by ``blp_percentiles``).  Self times exclude the direct amplitude
    children the pass traced."""
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    amp_children: dict[str, float] = {}
    work: dict[str, list] = {}
    under_blp = [False] * len(spans)
    blp_points = 0
    for i, (name, start, end, parent, _, w) in enumerate(spans):
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        work.setdefault(name, []).append(w)
        if parent >= 0:
            pname = spans[parent][0]
            under_blp[i] = under_blp[parent] or pname == "nonmarkov.blp_measure"
            if name in AMPLITUDE_SPANS:
                amp_children[pname] = amp_children.get(pname, 0.0) + (end - start)
        if under_blp[i] and name in GRID_SPANS:
            blp_points += w

    def n(name):
        return count.get(name, 0)

    def s(name):
        return total.get(name, 0.0)

    def w_sum(name, k=None):
        return sum((w[k] if k is not None else w) for w in work.get(name, []) if w)

    def ratio(a, b):
        return a / b if b else 0.0

    grid_points = sum(w_sum(g) for g in GRID_SPANS)
    grid_s = sum(s(g) for g in GRID_SPANS)
    intervals = w_sum("nonmarkov.blp_measure")
    nodes = w_sum("phase.geometric_phase")
    rows = w_sum("sweeps.run_sweep", 0)
    written = w_sum("sweeps.write_rows")
    blp, gp = LAYER_SPANS["nonmarkov.blp_s"], LAYER_SPANS["phase.gp_s"]
    return {
        "amplitude.grid_calls": sum(n(g) for g in GRID_SPANS),
        "amplitude.grid_points": grid_points,
        "amplitude.grid_s": grid_s,
        "amplitude.grid_mpts_per_s": ratio(grid_points, grid_s) / 1e6,
        "amplitude.scalar_calls": n("amplitude.scalar"),
        "amplitude.scalar_s": s("amplitude.scalar"),
        "amplitude.oracle_calls": n("amplitude.oracle"),
        "amplitude.oracle_s": s("amplitude.oracle"),
        "nonmarkov.blp_rows": n(blp),
        "nonmarkov.blp_s": s(blp),
        "nonmarkov.blp_self_s": s(blp) - amp_children.get(blp, 0.0),
        "nonmarkov.intervals": intervals,
        "nonmarkov.points_per_interval": ratio(blp_points, intervals),
        "phase.gp_rows": n(gp),
        "phase.gp_s": s(gp),
        "phase.gp_self_s": s(gp) - amp_children.get(gp, 0.0),
        "quadrature.nodes": nodes,
        "quadrature.nodes_per_row": ratio(nodes, n(gp)),
        "temporal.lgi_calls": n("temporal.lgi"),
        "temporal.lgi_s": s("temporal.lgi"),
        "temporal.witness_s": s("temporal.witness_series"),
        "sweeps.rows": rows,
        "sweeps.rows_failed": w_sum("sweeps.run_sweep", 1),
        "sweeps.write_s": s("sweeps.write_rows"),
        "sweeps.write_rows_per_s": ratio(written, s("sweeps.write_rows")),
        "selfcheck.checks": w_sum("selfcheck.run_all", 0),
        "selfcheck.failed": w_sum("selfcheck.run_all", 1),
        "selfcheck.s": s("selfcheck.run_all"),
        "params.derive_calls": n("params.derive"),
    }


def merge(coarse: list[dict], full: list[dict]) -> dict[str, float]:
    """Per-layer metrics of a traced run from ``layer_metrics`` of its coarse
    and full passes: medians over the coarse passes, except the scalar
    amplitude figures, which only full passes have.  A self time also drops
    the layer's scalar amplitude children: the amplitude time under the layer
    in a full pass less that in a coarse pass."""
    def median(passes, name):
        return statistics.median(m[name] for m in passes)

    def amp_children(passes, self_name):
        return statistics.median(m[SELF_OF[self_name]] - m[self_name] for m in passes)

    out = {name: median(coarse, name) for name in coarse[0]}
    for name in ("amplitude.scalar_calls", "amplitude.scalar_s"):
        out[name] = median(full, name)
    for name in SELF_OF:
        out[name] -= amp_children(full, name) - amp_children(coarse, name)
    return out


def blp_percentiles(durations_s: list[float]) -> dict[str, float]:
    """Median and 98th percentile of BLP row times, in milliseconds."""
    ms = [1e3 * d for d in durations_s]
    return {"nonmarkov.blp_ms_p50": percentile(ms, 50) if ms else 0.0,
            "nonmarkov.blp_ms_p98": percentile(ms, 98) if ms else 0.0}
