"""End-to-end benchmark of the repro library, its sweep harness and its
bound server.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sandwich --seed 0 --seconds 20 --trace 0

Workloads: ``sandwich``, ``sweep``, ``service-mixed``
(see ``perfbench/README.md``).  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` records spans around every call
the benchmark makes into a layer and reports per-layer figures.  Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: workload name -> module under perfbench/
WORKLOADS = {
    "sandwich": "sandwich",
    "sweep": "sweep",
    "service-mixed": "service",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long the run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test input sizes (used by selftest.py)")
    return p.parse_args(argv)


def layer_metrics(run, common) -> dict:
    """Per-layer figures of a traced run: span self times plus the
    counts and server-side readings the workload collected."""
    spans = run.spans
    self_s = spans.self_times()
    wall = spans.root_wall()
    bench_self = sum(v for k, v in self_s.items() if k.startswith("bench."))
    traced, plain = run.unit_cost[True], run.unit_cost[False]
    values = dict(run.layers)
    values["trace.wall_s"] = wall
    values["trace.coverage_pct"] = 100.0 * (wall - bench_self) / wall
    values["trace.overhead_pct"] = 100.0 * (
        common.median(traced) / common.median(plain) - 1.0)
    values["trace.spans"] = len(spans.closed())
    out = {}
    for name, unit in common.LAYER_METRICS.items():
        if name in values:
            value = values[name]
        elif name.endswith("_s"):
            value = self_s.get(name[:-2], 0.0)
        else:
            value = 0
        out[name] = (value, unit)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"error: imported repro from {repro.__file__}, not this "
              "checkout", file=sys.stderr)
        return 2

    from perfbench import common

    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # Keep every temporary file (spilled move logs, stores) inside the
    # checkout, and skip the per-cell `git rev-parse` of sweep manifests.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    os.environ["REPRO_GIT_SHA"] = "perfbench"
    try:
        run = common.Run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.tiny, ROOT, work)
        module = importlib.import_module(f"perfbench.{WORKLOADS[args.workload]}")
        if not args.trace and args.workload != "service-mixed":
            run.e2e["setup_s"] = common.probe_setup(run)
        module.main(run)
        if args.trace:
            run.spans.write(work_root / "traces"
                            / f"{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    run.e2e.setdefault("peak_rss_mb", common.peak_rss_mb())
    run.report["host.speed"] = (run.clock.speed(), "ratio")
    for name, (value, unit) in run.report.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    if args.trace:
        metrics = layer_metrics(run, common)
    else:
        metrics = {name: (run.e2e[name], unit)
                   for name, unit in common.END_TO_END.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:>16.6g} {unit}")
    print(f"{'attempted':28s} {run.attempted:>16d}")
    print(f"{'failed':28s} {run.failed:>16d}")
    for message in run.failures[:20]:
        print(f"FAILED: {message}", file=sys.stderr)
    bad = [n for n, (v, _u) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
