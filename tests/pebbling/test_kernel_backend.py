"""Kernel backend plumbing: mode resolution, numba tiers, replay paths.

Move-for-move equivalence of the kernel's *decisions* is pinned in
``test_spill_strategies.py``; this module covers the execution-tier
plumbing around them: the ``REPRO_KERNEL`` environment variable and the
``kernel_mode=`` argument, the numba fast path (and its numpy fallback
when numba is absent), and the bulk replay fast path inside the engines
— including its fall-back-to-per-move behaviour on invalid logs, which
must preserve the reference diagnostics exactly.
"""

import numpy as np
import pytest

from repro.core.builders import grid_stencil_cdag, independent_chains_cdag
from repro.pebbling import (
    GameError,
    MemoryHierarchy,
    MoveLog,
    ParallelRBWPebbleGame,
    RBWPebbleGame,
    RedBluePebbleGame,
    parallel_spill_game,
    spill_game_rbw,
)
from repro.pebbling import kernel


def same_columns(a, b):
    for col_a, col_b in zip(a.log.columns(), b.log.columns()):
        assert np.array_equal(col_a, col_b)
    assert a.summary() == b.summary()


class TestKernelModeResolution:
    def test_default_mode_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert kernel.kernel_mode() == "numpy"

    def test_env_variable_selects_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "off")
        assert kernel.kernel_mode() == "off"
        monkeypatch.setenv("REPRO_KERNEL", "  NumPy ")
        assert kernel.kernel_mode() == "numpy"

    def test_explicit_argument_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "off")
        assert kernel.kernel_mode("numpy") == "numpy"

    def test_unknown_mode_raises(self, monkeypatch):
        with pytest.raises(ValueError, match="kernel mode"):
            kernel.kernel_mode("cuda")
        monkeypatch.setenv("REPRO_KERNEL", "gpu")
        with pytest.raises(ValueError, match="kernel mode"):
            kernel.kernel_mode()

    def test_strategy_rejects_unknown_kernel_mode(self):
        cdag = grid_stencil_cdag((5,), 3)
        with pytest.raises(ValueError, match="kernel mode"):
            spill_game_rbw(cdag, 3, backend="kernel", kernel_mode="cuda")

    def test_mode_off_falls_back_to_batched(self, monkeypatch):
        """backend="kernel" with the kernel disabled still plays the
        game — through the batched loop — with identical moves."""
        cdag = grid_stencil_cdag((6,), 4)
        ref = spill_game_rbw(cdag, 4, backend="batched")
        monkeypatch.setenv("REPRO_KERNEL", "off")
        via_env = spill_game_rbw(cdag, 4, backend="kernel")
        monkeypatch.delenv("REPRO_KERNEL")
        via_arg = spill_game_rbw(
            cdag, 4, backend="kernel", kernel_mode="off"
        )
        same_columns(ref, via_env)
        same_columns(ref, via_arg)


class TestNumbaTiers:
    def test_numba_mode_degrades_to_numpy_when_absent(self, monkeypatch):
        """mode="numba" without numba installed must silently run the
        numpy tier — same moves, no import error."""
        monkeypatch.setattr(kernel, "_numba_probe", False)
        cdag = independent_chains_cdag(10, 5)
        ref = spill_game_rbw(cdag, 4, backend="batched")
        got = spill_game_rbw(
            cdag, 4, backend="kernel", kernel_mode="numba"
        )
        same_columns(ref, got)

    def test_numba_jitted_planner_matches(self, monkeypatch):
        """With numba installed, the jitted arity-1 LRU planner must be
        move-for-move equal to the reference (skipped when absent)."""
        pytest.importorskip("numba")
        monkeypatch.setattr(kernel, "_numba_probe", None)
        cdag = independent_chains_cdag(10, 5)
        ref = spill_game_rbw(cdag, 4, backend="batched")
        got = spill_game_rbw(
            cdag, 4, backend="kernel", kernel_mode="numba"
        )
        same_columns(ref, got)

    def test_numba_availability_probe_is_cached(self, monkeypatch):
        monkeypatch.setattr(kernel, "_numba_probe", None)
        first = kernel.numba_available()
        assert kernel.numba_available() is first
        assert kernel._numba_probe is first

    def test_flat_lru_python_tier_matches_reference(self):
        """The njit-able flat loop runs under plain Python too (the tier
        numba compiles); pin it against the batched loop directly."""
        cdag = independent_chains_cdag(8, 6)
        c = cdag.compiled()
        plan = kernel._seq_plan_for(cdag, c, None)
        assert plan.arity1
        chunks = list(
            kernel._plan_lru_arity1_numba(plan, c, 4, use_jit=False)
        )
        ref = list(kernel._plan_lru_arity1(plan, c, 4))
        assert len(chunks) == len(ref)
        for a, b in zip(chunks, ref):
            assert np.array_equal(np.asarray(a), np.asarray(b))


class TestSequentialReplayFastPath:
    def test_replay_uses_kernel_and_matches_per_move(self, monkeypatch):
        cdag = independent_chains_cdag(10, 5)
        record = spill_game_rbw(cdag, 4)
        fast = RBWPebbleGame(cdag, 4)
        fast.replay(record)
        monkeypatch.setenv("REPRO_KERNEL", "off")
        slow = RBWPebbleGame(cdag, 4)
        slow.replay(record)
        assert fast.red_ids == slow.red_ids
        assert fast.blue_ids == slow.blue_ids
        assert fast.white_ids == slow.white_ids
        assert fast.record.summary() == slow.record.summary()

    def test_invalid_log_falls_back_to_exact_diagnostic(self):
        """A corrupted column log is rejected by the bulk validator and
        the per-move fallback raises the reference error message."""
        cdag = independent_chains_cdag(6, 4)
        record = spill_game_rbw(cdag, 4)
        kinds, vids = (
            np.concatenate(list(cols))
            for cols in zip(*record.log.select_columns("kinds", "vertex_ids"))
        )
        # First move is a LOAD of an input; retarget it to vertex 0's
        # successor, which holds no blue pebble: R1 must fire.
        c = cdag.compiled()
        bad_v = next(
            i for i in range(c.n) if not c.is_input_mask[i]
        )
        vids = vids.copy()
        vids[0] = bad_v
        bad = MoveLog(compiled=c)
        bad.extend_block(kinds, vids)
        with pytest.raises(GameError, match="R1 violated"):
            RBWPebbleGame(cdag, 4).replay(bad)

    def test_redblue_replay_fast_path(self, monkeypatch):
        cdag = grid_stencil_cdag((6,), 4)
        from repro.pebbling import spill_game_redblue

        record = spill_game_redblue(cdag, 4)
        fast = RedBluePebbleGame(cdag, 4, strict=False)
        fast.replay(record)
        monkeypatch.setenv("REPRO_KERNEL", "off")
        slow = RedBluePebbleGame(cdag, 4, strict=False)
        slow.replay(record)
        assert fast.red_ids == slow.red_ids
        assert fast.blue_ids == slow.blue_ids
        assert fast.record.summary() == slow.record.summary()


class TestParallelReplayFastPath:
    def _setup(self):
        cdag = grid_stencil_cdag((5, 5), 2)
        hierarchy = MemoryHierarchy.cluster(
            nodes=2, cores_per_node=2, registers_per_core=8, cache_size=16
        )
        return cdag, hierarchy

    def test_replay_matches_per_move(self, monkeypatch):
        cdag, hierarchy = self._setup()
        record = parallel_spill_game(cdag, hierarchy)
        fast = ParallelRBWPebbleGame(cdag, hierarchy)
        fast.replay(record)
        monkeypatch.setenv("REPRO_KERNEL", "off")
        slow = ParallelRBWPebbleGame(cdag, hierarchy)
        slow.replay(record)
        assert fast.pebbles_ids == slow.pebbles_ids
        assert dict(fast.occupancy_ids) == dict(slow.occupancy_ids)
        assert fast.blue_ids == slow.blue_ids
        assert fast.white_ids == slow.white_ids
        assert fast.record.vertical_io == slow.record.vertical_io
        assert fast.record.horizontal_io == slow.record.horizontal_io
        assert (
            fast.record.compute_per_processor
            == slow.record.compute_per_processor
        )

    def test_invalid_parallel_log_rejected_then_diagnosed(self):
        cdag, hierarchy = self._setup()
        record = parallel_spill_game(cdag, hierarchy)
        kinds, vids, locs, srcs = (
            np.concatenate(list(cols))
            for cols in zip(*record.log.iter_chunks())
        )
        kinds = kinds.copy()
        kinds[0] = 3  # first move becomes a DELETE of an absent pebble
        bad = MoveLog(compiled=cdag.compiled())
        bad.extend_block(kinds, vids, locs, srcs)
        game = ParallelRBWPebbleGame(cdag, hierarchy)
        assert not kernel.replay_parallel_kernel(game, bad)
        with pytest.raises(GameError):
            game.replay(bad)
