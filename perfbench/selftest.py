"""The benchmark's own tests.  Run from the checkout root with

    python3 -m pytest perfbench/selftest.py -q

(the file name keeps them out of the library's default pytest run: they
start interpreters and a server, and test the benchmark, not repro).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import common, sandwich, service, sweep  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402

WORKLOADS = ("sandwich", "sweep", "service-mixed")


def bench(workload, seed=0, trace=0, cwd=ROOT, script=None):
    script = script or ROOT / "perfbench" / "run.py"
    out = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    return out


def last_json(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_each_workload(workload):
    res = last_json(bench(workload))
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(common.END_TO_END)
    for name, metric in res["metrics"].items():
        assert metric["unit"] == common.END_TO_END[name]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", ("sandwich", "sweep"))
def test_traced_run_accounts_for_the_wall(workload):
    res = last_json(bench(workload, seed=7, trace=1))
    metrics = res["metrics"]
    assert res["correct"] is True
    assert set(metrics) == set(common.LAYER_METRICS)
    assert 90.0 < metrics["trace.coverage_pct"]["value"] <= 100.0
    # span self times only: the harness overhead and the untimed E7 cell
    # are measured separately
    not_spans = ("evaluation.overhead_s", "evaluation.cell.e7_s")
    layer_s = sum(m["value"] for n, m in metrics.items()
                  if n.endswith("_s") and not n.startswith("trace.")
                  and n not in not_spans)
    assert layer_s <= metrics["trace.wall_s"]["value"] * 1.0001


def test_held_out_seed_passes_checks():
    for workload in ("sandwich", "service-mixed"):
        res = last_json(bench(workload, seed=424242))
        assert res["correct"] is True and res["failed"] == 0


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = bench("sandwich", cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# -- corrupted outputs are failures ----------------------------------
def tiny_run(workload, tmp_path):
    return common.Run(workload, 0, 0.0, False, True, ROOT, tmp_path)


def test_wrong_bound_counts_every_pipeline_as_failed(tmp_path, monkeypatch):
    real = sandwich.automated_wavefront_bound

    def inflated(cdag, s):
        return dataclasses.replace(real(cdag, s), value=1e12)

    monkeypatch.setattr(sandwich, "automated_wavefront_bound", inflated)
    run = tiny_run("sandwich", tmp_path)
    sandwich.main(run)
    assert run.attempted == len(sandwich.TINY_FAMILIES)
    assert run.failed == run.attempted
    assert "lower bound" in run.failures[0]


def test_pinned_mismatch_is_a_failure():
    pinned = sandwich.PINNED_SEED0["jacobi1d"]
    out = {"lb": pinned[0], "games": [pinned[1:3], pinned[3:5]],
           "n": 1, "m": 1}
    assert sandwich.check("jacobi1d", out,
                          sandwich.PINNED_SEED0["jacobi1d"]) == ""
    out["games"][1] = (pinned[3], pinned[4] + 1)
    assert "pinned" in sandwich.check("jacobi1d", out,
                                      sandwich.PINNED_SEED0["jacobi1d"])


def test_corrupted_service_response_is_a_failure():
    path, body = "/v1/bound", {"builder": "chain", "params": {"length": 8},
                               "seed": 0, "s": 2}
    good = {"cached": True, **service.expected_response(path, body)}
    assert service.check_response(path, body, good) == ""
    bad = dict(good, value=good["value"] + 1.0)
    assert service.check_response(path, body, bad) != ""


def test_failed_sweep_is_reported():
    class Result:
        failed = [("e7", "worker killed by SIGKILL")]
        executed = ["e1"]

    assert "committed" in sweep.check(Result, [object(), object()], [], ROOT)


def test_failed_requests_count_and_miss_the_limit(tmp_path):
    run = tiny_run("service-mixed", tmp_path)
    results = [("/v1/bound", 0, 0.001, True, True, False)] * 98 + \
        [("/v1/bound", 1, 0.002, False, None, False)] * 2
    stats = {"counters": {"hits": 98, "misses": 0, "puts": 0},
             "hit_rate": 1.0, "db_bytes": 1}
    session = {"start_s": 0.5, "wall": 10.0, "factor": 1.0,
               "results": results, "stats": stats, "server_mb": 1.0,
               "leak_kb": 0.0, "fds": 0.0}
    service.summarize(run, [session])
    assert run.attempted == 100 and run.failed == 2
    assert run.layers["service.p99_ms"] == 10.0 * 1e3


def test_host_clock_scales_by_the_reference_loop(monkeypatch):
    readings = iter([0.01, 0.03, 0.05])
    monkeypatch.setattr(common, "reference_loop", lambda: next(readings))
    clock = common.HostClock()
    # the loop read 0.01 before the unit and 0.03 after it: the unit is
    # scaled by the nominal loop time over their mean
    assert clock.scale(2.0) == pytest.approx(
        2.0 * common.REF_NOMINAL_S / 0.02)
    assert clock.speed() == pytest.approx(common.REF_NOMINAL_S / 0.02)


# -- tracing -----------------------------------------------------------
def test_self_time_subtracts_children():
    tr = Tracer()
    tr.spans = [["root", 0.0, 10.0, None, "r"],
                ["a", 1.0, 4.0, 0, "r"],
                ["b", 3.0, 6.0, 0, "r"],
                ["c", 2.0, 3.0, 1, "r"]]
    self_s = tr.self_times()
    assert self_s == {"root": 5.0, "a": 2.0, "b": 3.0, "c": 1.0}
    assert tr.root_wall() == 10.0
