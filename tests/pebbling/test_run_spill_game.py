"""``run_spill_game`` dispatcher: differential + lifecycle suites.

``run_spill_game`` is the one entry point the harness, the CLI, the
bound server and the benchmarks use to play a spill strategy.  Its
contract is *move-for-move fidelity* to the backend it dispatches to:
for any (CDAG, schedule, memory) every fast loop (``batched``, and
``kernel`` for the sequential games) must reproduce the ``dict``
reference loop's record — same move columns, same counts, same
counters, same final pebble state after replay.  These tests pin that
contract on randomized multi-component forests, the star and chains
workloads and the instance-disjoint multi-processor case, plus
determinism (same inputs ⇒ byte-identical columns), argument
validation, spilled logs, and the spill-file lifecycle (teardown never
leaks spill directories).
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.core import CDAG
from repro.core.builders import grid_stencil_cdag, independent_chains_cdag
from repro.core.ordering import dfs_schedule, topological_schedule
from repro.pebbling import (
    GameError,
    MemoryHierarchy,
    MoveLog,
    ParallelRBWPebbleGame,
    RBWPebbleGame,
    RedBluePebbleGame,
    parallel_spill_game,
    run_spill_game,
    spill_game_rbw,
    spill_game_redblue,
)
from repro.pebbling.workloads import component_forest_cdag, star_spill_setup

SEQ_BACKENDS = ("batched", "dict", "kernel")
PAR_BACKENDS = ("batched", "dict")


def assert_same_game(a, b):
    """Identical move columns and counters (move-for-move equivalence)."""
    assert len(a.log) == len(b.log)
    for col_a, col_b in zip(a.log.columns(), b.log.columns()):
        assert np.array_equal(col_a, col_b)
    assert a.counts == b.counts
    assert a.summary() == b.summary()


def assert_same_parallel_game(a, b):
    assert_same_game(a, b)
    assert a.vertical_io == b.vertical_io
    assert a.horizontal_io == b.horizontal_io
    assert a.compute_per_processor == b.compute_per_processor


def roomy_memory(cdag):
    """Enough red pebbles for every operation plus a little slack."""
    return max(cdag.in_degree(v) for v in cdag.vertices) + 2


def chain_components_cdag(num_chains=4, length=6):
    """Independent untagged-sink chains with per-chain processors."""
    verts, edges, inputs = [], [], []
    for k in range(num_chains):
        prev = ("in", k)
        verts.append(prev)
        inputs.append(prev)
        for j in range(length):
            v = ("op", k, j)
            verts.append(v)
            edges.append((prev, v))
            prev = v
    return CDAG.from_edge_list(verts, edges, inputs, [], name="pchains")


class TestSequentialDifferential:
    """Every sequential backend through the dispatcher vs the dict loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("policy", ["lru", "belady"])
    def test_forest_rbw_matches_all_backends(self, seed, policy):
        cdag = component_forest_cdag(6, 12, seed=seed)
        schedule = dfs_schedule(cdag)
        s = roomy_memory(cdag)
        ref = spill_game_rbw(
            cdag, s, schedule=schedule, policy=policy, backend="dict"
        )
        for backend in SEQ_BACKENDS:
            got = run_spill_game(
                cdag, s, schedule=schedule, policy=policy, backend=backend
            )
            assert_same_game(ref, got)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("policy", ["lru", "belady"])
    def test_forest_redblue_matches_all_backends(self, seed, policy):
        cdag = component_forest_cdag(5, 10, seed=seed)
        schedule = dfs_schedule(cdag)
        s = roomy_memory(cdag)
        ref = spill_game_redblue(
            cdag, s, schedule=schedule, policy=policy, backend="dict"
        )
        for backend in SEQ_BACKENDS:
            got = run_spill_game(
                cdag, s, schedule=schedule, policy=policy,
                backend=backend, engine="redblue",
            )
            assert_same_game(ref, got)

    @pytest.mark.parametrize("backend", SEQ_BACKENDS)
    def test_chains_workload_with_contiguous_schedule(self, backend):
        cdag = independent_chains_cdag(12, 8)
        schedule = dfs_schedule(cdag)
        ref = spill_game_rbw(cdag, 4, schedule=schedule, backend="dict")
        got = run_spill_game(cdag, 4, schedule=schedule, backend=backend)
        assert_same_game(ref, got)

    @pytest.mark.parametrize("backend", SEQ_BACKENDS)
    def test_interleaved_schedule_through_tight_memory(self, backend):
        """The BFS order interleaves chains through three red pebbles,
        so values are evicted and reloaded between chain steps."""
        cdag = independent_chains_cdag(8, 5)
        schedule = topological_schedule(cdag)
        ref = spill_game_rbw(cdag, 3, schedule=schedule, backend="dict")
        got = run_spill_game(cdag, 3, schedule=schedule, backend=backend)
        assert_same_game(ref, got)
        assert got.summary()["loads"] > 0

    @pytest.mark.parametrize("backend", SEQ_BACKENDS)
    def test_connected_stencil_matches(self, backend):
        cdag = grid_stencil_cdag((6, 6), 2)
        ref = spill_game_rbw(cdag, 6, backend="dict")
        assert_same_game(ref, run_spill_game(cdag, 6, backend=backend))

    @pytest.mark.parametrize("backend", SEQ_BACKENDS)
    def test_zero_op_components_ride_along(self, backend):
        cdag = component_forest_cdag(3, 8, seed=1)
        lonely = ("lonely", 0)
        cdag.add_vertex(lonely)
        cdag.tag_input(lonely)
        schedule = dfs_schedule(cdag)
        s = roomy_memory(cdag)
        ref = spill_game_rbw(cdag, s, schedule=schedule, backend="dict")
        got = run_spill_game(cdag, s, schedule=schedule, backend=backend)
        assert_same_game(ref, got)

    @pytest.mark.parametrize("engine", ["rbw", "redblue"])
    def test_final_pebble_state_matches(self, engine):
        cdag = component_forest_cdag(4, 10, seed=3)
        schedule = dfs_schedule(cdag)
        s = roomy_memory(cdag)
        game_cls = RBWPebbleGame if engine == "rbw" else RedBluePebbleGame
        ref = run_spill_game(
            cdag, s, schedule=schedule, engine=engine, backend="dict"
        )
        got = run_spill_game(
            cdag, s, schedule=schedule, engine=engine, backend="kernel"
        )
        ga, gb = game_cls(cdag, s), game_cls(cdag, s)
        ga.replay(ref)
        gb.replay(got)
        assert ga.red_ids == gb.red_ids
        assert ga.blue_ids == gb.blue_ids
        if engine == "rbw":
            assert ga.white_ids == gb.white_ids

    @pytest.mark.parametrize("backend", SEQ_BACKENDS)
    def test_capacity_error_matches_sequential(self, backend):
        """Too few red pebbles to fire an operation fails the same way
        through the dispatcher as through the game function."""
        cdag = component_forest_cdag(4, 10, seed=2)
        schedule = dfs_schedule(cdag)
        with pytest.raises(GameError) as direct:
            spill_game_rbw(cdag, 1, schedule=schedule, backend=backend)
        with pytest.raises(GameError) as dispatched:
            run_spill_game(cdag, 1, schedule=schedule, backend=backend)
        assert str(direct.value) == str(dispatched.value)


class TestDispatcherContract:
    def test_defaults_play_the_lru_batched_rbw_game(self):
        """``run_spill_game(cdag, s)`` is the default RBW LRU batched
        game on the default schedule."""
        cdag = component_forest_cdag(4, 9, seed=4)
        s = roomy_memory(cdag)
        assert_same_game(spill_game_rbw(cdag, s), run_spill_game(cdag, s))
        assert_same_game(
            spill_game_rbw(cdag, s, policy="lru", backend="batched"),
            run_spill_game(cdag, s),
        )

    def test_engine_validation(self):
        cdag = component_forest_cdag(2, 6)
        with pytest.raises(ValueError, match="engine"):
            run_spill_game(cdag, 4, engine="quantum")

    def test_policy_validation(self):
        cdag = component_forest_cdag(2, 6)
        with pytest.raises(ValueError, match="policy"):
            run_spill_game(cdag, 4, policy="mru")

    def test_backend_validation(self):
        cdag = component_forest_cdag(2, 6)
        with pytest.raises(ValueError, match="backend"):
            run_spill_game(cdag, 4, backend="gpu")

    def test_worker_pool_arguments_are_gone(self):
        """The dispatcher plays every game in-process: the old
        ``workers``/``mp_context`` keywords are not accepted."""
        cdag = component_forest_cdag(2, 6)
        with pytest.raises(TypeError):
            run_spill_game(cdag, 4, workers=2)
        with pytest.raises(TypeError):
            run_spill_game(cdag, 4, mp_context="fork")


class TestParallelDifferential:
    """P-RBW games through the dispatcher vs the dict loop."""

    @pytest.mark.parametrize("num_ops", [8, 16, 24])
    def test_star_workload(self, num_ops):
        cdag, hierarchy = star_spill_setup(num_ops)
        ref = parallel_spill_game(cdag, hierarchy, backend="dict")
        for backend in PAR_BACKENDS:
            got = run_spill_game(cdag, hierarchy, backend=backend)
            assert_same_parallel_game(ref, got)

    @pytest.mark.parametrize("policy", ["lru", "belady"])
    def test_star_policy_is_ignored(self, policy):
        """P-RBW's owner-computes strategy always evicts LRU: the
        sequential eviction rule is accepted and has no effect."""
        cdag, hierarchy = star_spill_setup(12)
        assert_same_parallel_game(
            run_spill_game(cdag, hierarchy),
            run_spill_game(cdag, hierarchy, policy=policy),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forest_single_processor(self, seed):
        """Randomized components marching through one register file."""
        cdag = component_forest_cdag(5, 9, seed=seed)
        maxd = max(cdag.in_degree(v) for v in cdag.vertices)
        hierarchy = MemoryHierarchy.cluster(
            nodes=1, cores_per_node=1,
            registers_per_core=maxd + 2, cache_size=maxd + 3,
        )
        schedule = dfs_schedule(cdag)
        ref = parallel_spill_game(
            cdag, hierarchy, schedule=schedule, backend="dict"
        )
        for backend in PAR_BACKENDS:
            got = run_spill_game(
                cdag, hierarchy, schedule=schedule, backend=backend
            )
            assert_same_parallel_game(ref, got)

    def test_instance_disjoint_interleaved_schedule(self):
        """Per-processor components under a schedule that interleaves
        the components move-burst by move-burst."""
        cdag = chain_components_cdag(4, 6)
        hierarchy = MemoryHierarchy.cluster(
            nodes=2, cores_per_node=2, registers_per_core=4, cache_size=6
        )
        assignment = {v: v[1] for v in cdag.vertices}
        schedule = [("in", k) for k in range(4)]
        for j in range(6):
            for k in range(4):
                schedule.append(("op", k, j))
        ref = parallel_spill_game(
            cdag, hierarchy, assignment=assignment, schedule=schedule,
            backend="dict",
        )
        got = run_spill_game(
            cdag, hierarchy, assignment=assignment, schedule=schedule
        )
        assert_same_parallel_game(ref, got)
        assert sorted(got.compute_per_processor) == [0, 1, 2, 3]

    def test_kernel_backend_rejected(self):
        cdag, hierarchy = star_spill_setup(4)
        with pytest.raises(ValueError, match="backend"):
            run_spill_game(cdag, hierarchy, backend="kernel")

    def test_record_replays_end_to_end(self):
        cdag, hierarchy = star_spill_setup(16)
        ref = parallel_spill_game(cdag, hierarchy, backend="dict")
        got = run_spill_game(cdag, hierarchy)
        replayed = ParallelRBWPebbleGame(cdag, hierarchy).replay(got)
        assert replayed.summary() == got.summary()
        fresh = ParallelRBWPebbleGame(cdag, hierarchy)
        fresh.replay(ref)
        again = ParallelRBWPebbleGame(cdag, hierarchy)
        again.replay(got)
        assert fresh.pebbles_ids == again.pebbles_ids
        assert fresh.blue_ids == again.blue_ids
        assert fresh.white_ids == again.white_ids


class TestDeterminism:
    @pytest.mark.parametrize("backend", SEQ_BACKENDS)
    def test_same_inputs_byte_identical(self, backend):
        """The move columns are a pure function of (cdag, schedule,
        memory, policy): two runs on freshly built CDAGs agree byte for
        byte."""
        runs = []
        for _ in range(2):
            cdag = component_forest_cdag(5, 11, seed=7)
            schedule = dfs_schedule(cdag)
            record = run_spill_game(
                cdag, roomy_memory(cdag), schedule=schedule,
                backend=backend,
            )
            runs.append(
                tuple(col.tobytes() for col in record.log.columns())
            )
        assert runs[0] == runs[1]


class TestSpillOutput:
    @pytest.mark.parametrize("engine", ["rbw", "redblue", "prbw"])
    def test_spilled_log_matches_in_ram(self, engine, tmp_path):
        if engine == "prbw":
            cdag, memory = star_spill_setup(16)
            kwargs = {}
        else:
            cdag = component_forest_cdag(4, 9, seed=6)
            memory = roomy_memory(cdag)
            kwargs = {"engine": engine, "schedule": dfs_schedule(cdag)}
        in_ram = run_spill_game(cdag, memory, **kwargs)
        spilled = run_spill_game(cdag, memory, spill=str(tmp_path), **kwargs)
        assert spilled.log.is_spilled
        assert_same_game(in_ram, spilled)
        spilled.log.close()
        assert os.listdir(tmp_path) == []

    def test_spilled_game_through_redblue_replay(self):
        cdag = component_forest_cdag(4, 9, seed=5)
        schedule = dfs_schedule(cdag)
        s = roomy_memory(cdag)
        record = run_spill_game(
            cdag, s, schedule=schedule, engine="redblue", spill=True,
        )
        replayed = RedBluePebbleGame(cdag, s).replay(record)
        assert replayed.summary() == record.summary()
        record.log.close()


# ----------------------------------------------------------------------
# Spill-file lifecycle: idempotent close + finalize teardown
# ----------------------------------------------------------------------
def _leak_spilled_log(spill_base: str) -> int:
    """Pool worker: create a spilled log, append, and *never* close it.
    The weakref.finalize teardown must reclaim the files at exit."""
    from repro.pebbling.state import OP_LOAD

    log = MoveLog(spill=spill_base, block_size=8)
    for k in range(100):
        log.append_ids(OP_LOAD, k)
    return len(os.listdir(spill_base))


class TestSpillTeardown:
    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_worker_teardown_leaves_spill_dir_empty(self, tmp_path):
        """Process shutdown must never leak spill files, even when the
        process forgets to close its log."""
        base = str(tmp_path)
        with multiprocessing.get_context("fork").Pool(2) as pool:
            populated = pool.map(_leak_spilled_log, [base] * 4)
        # While alive, each worker saw its own spill dir in place...
        assert all(n >= 1 for n in populated)
        # ...and after pool shutdown the finalizers removed everything.
        assert os.listdir(base) == []

    def test_close_is_idempotent(self, tmp_path):
        from repro.pebbling.state import OP_STORE

        log = MoveLog(spill=str(tmp_path), block_size=4)
        for k in range(10):
            log.append_ids(OP_STORE, k)
        spill_dir = log._spill.directory
        log.close()
        assert not os.path.isdir(spill_dir)
        log.close()  # second (and third) close: harmless no-ops
        log.close()
        assert not log.is_spilled

    def test_gc_closes_unclosed_log(self, tmp_path):
        import gc

        from repro.pebbling.state import OP_LOAD

        log = MoveLog(spill=str(tmp_path), block_size=4)
        for k in range(10):
            log.append_ids(OP_LOAD, k)
        spill_dir = log._spill.directory
        assert os.path.isdir(spill_dir)
        del log
        gc.collect()
        assert not os.path.isdir(spill_dir)
