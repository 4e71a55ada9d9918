"""``sweep``: the paper reproduction users run.

One operation is ``run_grid(cells, jobs=1)`` into a fresh results root
followed by ``reproduce`` over that root, where ``cells`` is
``default_grid(seed)`` without its exact-optimum cell (E7).  It passes
when every cell committed and ``reproduce`` reports no failing cell.
The seed drives the grid's seeded cells.  ``op_ms`` is the median
sweep; ``work_per_s`` counts cells run plus cells reproduced.  Both are
scaled to the reference box's speed (``HostClock``).

E7 is 90% of a full sweep, and its exhaustive search alone varies by
+-20% between calls in one process on a shared machine, so it runs once
after the timed loop instead, untimed: it must commit with every row
``sound`` (lower bound <= OPT <= strategy upper bound), and its elapsed
time is reported as a per-layer figure.

Cells are traced from outside through the grid's event sink
(``cell.started`` / ``cell.committed``); the harness overhead is the
grid's wall time minus the cells' own ``timing.json`` figures.
"""

from __future__ import annotations

import json
import shutil
import time

from repro.evaluation import default_grid, reproduce, run_grid, smoke_grid
from repro.evaluation.manifest import read_metrics

from .common import Run, median


class CellSpans:
    """Event sink for ``run_grid``: one span per cell, named after the
    cell's experiment class."""

    def __init__(self, tracer, experiments, rid):
        self.tracer = tracer
        self.experiments = experiments
        self.rid = rid
        self.open = {}

    def emit(self, kind, label, **_fields):
        if kind == "cell.started":
            exp = self.experiments[label]
            cls = exp if exp in ("e7", "spill") else "other"
            self.open[label] = self.tracer.begin(f"evaluation.cell.{cls}",
                                                 self.rid)
        elif label in self.open:
            self.tracer.end(self.open.pop(label))


def check(result, specs, failures, root):
    """Failure message for one sweep's outputs, or ``""``."""
    if result.failed or len(result.executed) != len(specs):
        return (f"{len(result.executed)}/{len(specs)} cells committed, "
                f"failed: {result.failed}")
    if failures:
        return f"reproduce failed: {[f.label for f in failures]}"
    for spec in specs:
        if spec.experiment == "e7":
            rows = read_metrics(root / spec.label)
            if not rows or not all(row.get("sound") for row in rows):
                return f"{spec.label}: a row is not sound"
    return ""


def sweep(specs, root, sink, tracer):
    """``run_grid`` then ``reproduce``; returns (result, failures, grid
    wall seconds)."""
    quiet = lambda _line: None  # noqa: E731
    t0 = time.perf_counter()
    with tracer.span("evaluation.grid"):
        result = run_grid(specs, root, log=quiet, events=sink)
    grid_wall = time.perf_counter() - t0
    with tracer.span("evaluation.reproduce"):
        failures = reproduce(root, log=quiet)
    return result, failures, grid_wall


def cells_elapsed(root, specs) -> float:
    return sum(json.loads((root / s.label / "timing.json").read_text())
               ["elapsed_s"] for s in specs)


def main(run: Run) -> None:
    grid = smoke_grid if run.tiny else default_grid
    cells = 0
    times = []
    wall_busy = 0.0
    layers = {"evaluation.overhead_s": 0.0}
    started = time.perf_counter()
    r = 0
    while not run.expired(started, r):
        tracer = run.tracer_for(r)
        specs = [s for s in grid(run.seed) if s.experiment != "e7"]
        root = run.work / f"results{r}"
        sink = CellSpans(tracer, {s.label: s.experiment for s in specs},
                         f"rep{r}")
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.rep", f"rep{r}"):
                result, failures, grid_wall = sweep(specs, root, sink, tracer)
        except Exception as exc:  # one failed op, keep measuring
            run.record(False, f"sweep: {type(exc).__name__}: {exc}")
            r += 1
            continue
        wall = time.perf_counter() - t0
        problem = check(result, specs, failures, root)
        run.record(not problem, problem)
        if tracer.enabled and not problem:
            layers["evaluation.overhead_s"] += (
                grid_wall - cells_elapsed(root, specs))
        scaled = run.clock.scale(wall)
        run.unit_done(tracer.enabled, scaled, 2 * len(specs))
        times.append(scaled)
        wall_busy += wall
        cells += 2 * len(specs)
        shutil.rmtree(root)
        r += 1
    run.e2e["work_per_s"] = cells / sum(times)
    run.e2e["op_ms"] = median(times) * 1e3
    layers["evaluation.cell.e7_s"] = exact_optimum_cell(run)
    run.layers.update(layers)
    run.report["sweep.grid_s"] = (median(times), "s")
    run.report["sweep.reps"] = (len(times), "count")
    run.report["sweep.cells"] = (cells // 2 // len(times), "count")
    run.report["wall.work_per_s"] = (cells / wall_busy, "1/s")


def exact_optimum_cell(run: Run) -> float:
    """Run the grid's E7 cell once, untimed and untraced; returns its
    ``timing.json`` elapsed seconds (0 when the grid has none)."""
    specs = [s for s in default_grid(run.seed) if s.experiment == "e7"]
    if run.tiny or not specs:
        return 0.0
    root = run.work / "results-e7"
    try:
        result = run_grid(specs, root, log=lambda _line: None)
        problem = check(result, specs, [], root)
    except Exception as exc:  # a failed check, not a crash
        problem = f"e7: {type(exc).__name__}: {exc}"
    run.record(not problem, problem)
    return 0.0 if problem else cells_elapsed(root, specs)
