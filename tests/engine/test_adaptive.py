"""Adaptive chunk sizing: convergence, bounds, engine integration."""

import pytest

from repro.engine import (
    AdaptiveChunkSizer,
    ChunkRunner,
    ExecutionOptions,
    Task,
    collect,
    plan_chunks_adaptive,
)
from repro.qec import repetition_code_memory


def make_task(max_shots=4_000):
    circuit = repetition_code_memory(
        3, rounds=2, data_flip_probability=0.05, measure_flip_probability=0.05
    )
    return Task(circuit, decoder="compiled-matching", max_shots=max_shots)


class TestSizerUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveChunkSizer(100, target_seconds=0)
        with pytest.raises(ValueError):
            AdaptiveChunkSizer(100, min_shots=0)
        with pytest.raises(ValueError):
            AdaptiveChunkSizer(100, min_shots=500, max_shots=100)
        with pytest.raises(ValueError):
            AdaptiveChunkSizer(100, smoothing=0)
        with pytest.raises(ValueError):
            AdaptiveChunkSizer(100, max_step=1.0)

    def test_initial_is_clamped(self):
        sizer = AdaptiveChunkSizer(10, min_shots=256, max_shots=1024)
        assert sizer.next_shots() == 256
        sizer = AdaptiveChunkSizer(10**9, min_shots=256, max_shots=1024)
        assert sizer.next_shots() == 1024

    def test_converges_to_target_latency(self):
        """At a steady 10k shots/sec and a 0.25s target the size should
        settle at ~2500 shots."""
        sizer = AdaptiveChunkSizer(
            256, target_seconds=0.25, min_shots=64, max_shots=65_536
        )
        for _ in range(20):
            shots = sizer.next_shots()
            sizer.observe(shots, shots / 10_000)
        assert sizer.next_shots() == 2_500
        assert sizer.observations == 20

    def test_never_leaves_bounds_under_noisy_rates(self):
        sizer = AdaptiveChunkSizer(
            512, target_seconds=0.1, min_shots=256, max_shots=2_048
        )
        # Wildly alternating rates: clamping must hold at every step.
        for rate in [10, 10**7, 25, 10**6, 1, 10**8] * 5:
            shots = sizer.next_shots()
            assert 256 <= shots <= 2_048
            sizer.observe(shots, shots / rate)
        assert 256 <= sizer.next_shots() <= 2_048

    def test_single_observation_moves_at_most_max_step(self):
        sizer = AdaptiveChunkSizer(
            1_000, target_seconds=1.0, min_shots=1, max_shots=10**9,
            max_step=2.0,
        )
        sizer.observe(1_000, 0.0001)  # suggests a 10^7-shot chunk
        assert sizer.next_shots() == 2_000
        sizer = AdaptiveChunkSizer(
            1_000, target_seconds=1.0, min_shots=1, max_shots=10**9,
            max_step=2.0,
        )
        sizer.observe(1_000, 1_000)  # suggests a 1-shot chunk
        assert sizer.next_shots() == 500

    def test_zero_inputs_ignored(self):
        sizer = AdaptiveChunkSizer(500)
        sizer.observe(0, 1.0)
        sizer.observe(100, 0.0)
        assert sizer.observations == 0
        assert sizer.next_shots() == 500


class TestPlanAdaptive:
    def test_budget_exactly_consumed_within_bounds(self):
        task = make_task(max_shots=4_000)
        sizer = AdaptiveChunkSizer(
            300, target_seconds=0.05, min_shots=100, max_shots=1_000
        )
        shots = []
        with ChunkRunner(workers=1) as runner:
            for result in runner.run(plan_chunks_adaptive(task, 3, sizer)):
                sizer.observe(result.shots, result.seconds)
                shots.append(result.shots)
        assert sum(shots) == 4_000
        # Every chunk except a final remainder respects the bounds.
        assert all(s <= 1_000 for s in shots)
        assert all(s >= 100 for s in shots[:-1])

    def test_chunk_indices_stay_sequential(self):
        task = make_task(max_shots=1_500)
        sizer = AdaptiveChunkSizer(400, min_shots=100, max_shots=800)
        indices = [
            spec.chunk_index
            for spec in plan_chunks_adaptive(task, 3, sizer)
        ]
        assert indices == list(range(len(indices)))


class TestCollectIntegration:
    def test_adaptive_collect_gathers_full_budget(self):
        stats = collect(
            [make_task(max_shots=3_000)],
            options=ExecutionOptions(
                base_seed=11,
                adaptive_chunks=True,
                chunk_shots=250,
                min_chunk_shots=100,
                max_chunk_shots=1_000,
            ),
        )[0]
        assert stats.shots == 3_000
        assert stats.chunks >= 3_000 // 1_000

    def test_options_validation(self):
        with pytest.raises(ValueError):
            ExecutionOptions(target_chunk_seconds=0)
        with pytest.raises(ValueError):
            ExecutionOptions(min_chunk_shots=0)
        with pytest.raises(ValueError):
            ExecutionOptions(min_chunk_shots=100, max_chunk_shots=50)
