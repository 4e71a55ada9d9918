"""Kernel replay paths inside the engines.

Move-for-move equivalence of the kernel's *decisions* (the sequential
``batched`` backend) is pinned in ``test_spill_strategies.py``; this
module covers the bulk replay fast path the engines always try first —
its agreement with the per-move loop, and its fall-back-to-per-move
behaviour on invalid logs, which must preserve the reference
diagnostics exactly.
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


def force_per_move_replay(monkeypatch):
    """Make the engines' bulk validators decline every log, so replay
    takes the per-move fallback."""
    monkeypatch.setattr(
        kernel, "replay_sequential_kernel", lambda game, log, rbw: False
    )
    monkeypatch.setattr(
        kernel, "replay_parallel_kernel", lambda game, log: False
    )


class TestSequentialReplayFastPath:
    def test_replay_uses_kernel_and_matches_per_move(self, monkeypatch):
        cdag = independent_chains_cdag(10, 5)
        record = spill_game_rbw(cdag, 4)
        fast = RBWPebbleGame(cdag, 4)
        fast.replay(record)
        force_per_move_replay(monkeypatch)
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
        force_per_move_replay(monkeypatch)
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
        force_per_move_replay(monkeypatch)
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
