"""``sandwich``: the paper's bound pair on its own CDAG families.

Each pipeline takes one CDAG through what a user runs to sandwich the
data movement of a computation: build -> compile -> DFS and min-live
schedules -> ``automated_wavefront_bound`` (the lower bound) ->
``run_spill_game`` on both schedules (upper bounds), and checks
``lower bound <= game I/O`` for both games.

A round runs every family once, in a seeded order; ``op_ms`` is the
median round, scaled to the reference box's speed (``HostClock``).
Round ``r`` of seed ``s`` plays with fast memory
``S = base + (5s + r // 2) mod 8`` and builds the random forest from
seed ``1000s + r``.  Rounds ``2j`` and ``2j + 1`` share ``S``, so a
traced run, which traces the even rounds, compares traced and untraced
rounds on the same inputs.  Every CDAG is built afresh, so no memo keyed
by object identity can serve a later round.  CDAG sizes stay fixed:
the bound heuristic's pruning makes its cost jump with size, and the
wavefront bound's cost does not depend on S.
"""

from __future__ import annotations

import time

import numpy as np
from repro.algorithms import (
    cg_iteration_cdag,
    gmres_iteration_cdag,
    jacobi_cdag,
    matmul_cdag,
)
from repro.bounds import automated_wavefront_bound
from repro.core import (
    butterfly_cdag,
    dfs_schedule,
    min_liveset_schedule,
    pyramid_cdag,
)
from repro.pebbling import run_spill_game
from repro.pebbling.workloads import component_forest_cdag

from .common import Run, median


def _forest(seed):
    return component_forest_cdag(8, 40, seed=seed)


def _tiny_forest(seed):
    return component_forest_cdag(3, 10, seed=seed)


#: (family, build(forest seed), base fast-memory size S); a round of
#: all eight takes about a second on the reference box
FAMILIES = (
    ("jacobi1d", lambda fs: jacobi_cdag((64,), 32), 16),
    ("jacobi2d", lambda fs: jacobi_cdag((8, 8), 6), 16),
    ("cg", lambda fs: cg_iteration_cdag((8, 8), 2), 16),
    ("gmres", lambda fs: gmres_iteration_cdag((6, 6), 3), 16),
    ("matmul", lambda fs: matmul_cdag(8), 4),
    ("fft", lambda fs: butterfly_cdag(8), 4),
    ("pyramid", lambda fs: pyramid_cdag(40), 16),
    ("forest", _forest, 8),
)

#: the same families at smoke-test sizes
TINY_FAMILIES = (
    ("jacobi1d", lambda fs: jacobi_cdag((12,), 6), 4),
    ("cg", lambda fs: cg_iteration_cdag((3, 3), 1), 6),
    ("fft", lambda fs: butterfly_cdag(4), 4),
    ("forest", _tiny_forest, 4),
)

#: seed 0, round 0 (S = base) of the full-size run: (lower bound, DFS
#: game moves, DFS game I/O, min-live game moves, min-live game I/O).
#: The heuristic's wavefront is 1 on matmul and FFT, so their bound is 0.
PINNED_SEED0 = {
    "jacobi1d": (74.0, 14096, 5999, 10204, 4072),
    "jacobi2d": (96.0, 5292, 2450, 3197, 1405),
    "cg": (484.0, 5020, 1621, 5937, 2075),
    "gmres": (258.0, 3851, 1141, 4747, 1574),
    "matmul": (0.0, 4480, 1536, 4494, 1417),
    "fft": (0.0, 9536, 3456, 9856, 3840),
    "pyramid": (8.0, 3600, 1339, 3600, 1339),
    "forest": (22.0, 1671, 650, 1643, 633),
}


def fast_memory(base, k, compiled) -> int:
    """S for one CDAG: the family's base plus the round's offset ``k``,
    raised so every operation's operands and result fit."""
    return max(base + k, int(compiled.in_degree.max()) + 1)


def pipeline(tracer, build, base, k, forest_seed, rid):
    """One CDAG through the sandwich; returns the figures the checks
    need.  Every call into ``repro`` sits in a span of its layer."""
    with tracer.span("core.build", rid):
        cdag = build(forest_seed)
    with tracer.span("core.compile", rid):
        c = cdag.compiled()
    with tracer.span("core.schedule", rid):
        schedules = (dfs_schedule(cdag), min_liveset_schedule(cdag))
    s = fast_memory(base, k, c)
    with tracer.span("bounds.wavefront", rid):
        bound = automated_wavefront_bound(cdag, s)
    games = []
    for schedule in schedules:
        with tracer.span("pebbling.game", rid):
            record = run_spill_game(cdag, s, schedule=schedule)
        games.append((len(record.log), record.io_count))
    return {"n": c.n, "m": c.m, "s": s, "lb": float(bound.value),
            "games": games}


def check(family, out, pinned=None):
    """Failure message for one pipeline's outputs, or ``""``."""
    for moves, io in out["games"]:
        if not out["lb"] <= io:
            return f"{family}: lower bound {out['lb']} > game I/O {io}"
        if moves < io:
            return f"{family}: {moves} moves but {io} I/O moves"
    if pinned is not None:
        got = (out["lb"],) + tuple(x for g in out["games"] for x in g)
        if got != tuple(pinned):
            return f"{family}: pinned seed-0 figures {pinned}, got {got}"
    return ""


def main(run: Run) -> None:
    families = TINY_FAMILIES if run.tiny else FAMILIES
    order = np.random.default_rng(run.seed)
    vertices = 0
    busy = wall_busy = 0.0
    round_times = []
    counts = {"core.vertices": 0, "core.edges": 0,
              "pebbling.moves": 0, "pebbling.io": 0}
    started = time.perf_counter()
    r = 0
    while not run.expired(started, r):
        k = (5 * run.seed + r // 2) % 8
        tracer = run.tracer_for(r)
        t_round = time.perf_counter()
        round_vertices = 0
        with tracer.span("bench.round", f"round{r}"):
            for f in order.permutation(len(families)).tolist():
                family, build, base = families[f]
                rid = f"r{r}.{family}"
                try:
                    out = pipeline(tracer, build, base, k,
                                   1000 * run.seed + r, rid)
                except Exception as exc:  # one failed op, keep measuring
                    run.record(False, f"{family}: {type(exc).__name__}: "
                               f"{exc}")
                    continue
                pinned = PINNED_SEED0.get(family) \
                    if run.seed == 0 and r == 0 and not run.tiny else None
                problem = check(family, out, pinned)
                run.record(not problem, problem)
                round_vertices += out["n"]
                if tracer.enabled:
                    counts["core.vertices"] += out["n"]
                    counts["core.edges"] += out["m"]
                    for moves, io in out["games"]:
                        counts["pebbling.moves"] += moves
                        counts["pebbling.io"] += io
        wall = time.perf_counter() - t_round
        scaled = run.clock.scale(wall)
        run.unit_done(tracer.enabled, scaled, max(round_vertices, 1))
        round_times.append(scaled)
        busy += scaled
        wall_busy += wall
        vertices += round_vertices
        r += 1
    run.e2e["work_per_s"] = vertices / busy
    run.e2e["op_ms"] = median(round_times) * 1e3
    run.layers.update(counts)
    run.report["sandwich.vertices_per_s"] = (vertices / busy, "vertices/s")
    run.report["sandwich.rounds"] = (len(round_times), "count")
    run.report["wall.work_per_s"] = (vertices / wall_busy, "vertices/s")
