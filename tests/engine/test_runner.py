"""The barrier-free chunk scheduler: ordering, overrun, clean shutdown."""

import multiprocessing
import time
from multiprocessing import shared_memory

import pytest

from repro.engine import ChunkRunner, collect, plan_chunks
from repro.engine.tasks import Task
from repro.engine.workers import ChunkResult
from repro.qec import repetition_code_memory


def make_specs(n_chunks=8, chunk_shots=100):
    circuit = repetition_code_memory(
        3, rounds=2, data_flip_probability=0.05, measure_flip_probability=0.05
    )
    task = Task(
        circuit, decoder="compiled-matching",
        max_shots=n_chunks * chunk_shots,
    )
    return plan_chunks(task, 3, chunk_shots)


class TestSubmissionOrder:
    def test_serial_order(self):
        specs = make_specs()
        with ChunkRunner(workers=1) as runner:
            indices = [r.chunk_index for r in runner.run(specs)]
        assert indices == list(range(len(specs)))

    def test_pooled_reorder_buffer_restores_order(self):
        specs = make_specs(n_chunks=12)
        with ChunkRunner(workers=2) as runner:
            results = list(runner.run(specs))
        assert [r.chunk_index for r in results] == list(range(len(specs)))
        assert all(isinstance(r, ChunkResult) for r in results)

    def test_pooled_matches_serial_counts(self):
        specs = make_specs(n_chunks=10)
        with ChunkRunner(workers=1) as serial:
            expected = [(r.chunk_index, r.shots, r.errors)
                        for r in serial.run(specs)]
        with ChunkRunner(workers=2) as pooled:
            observed = [(r.chunk_index, r.shots, r.errors)
                        for r in pooled.run(specs)]
        assert observed == expected


class TestPickleWire:
    def test_pooled_run_creates_no_shared_memory(self, monkeypatch):
        """Specs and results travel pickled over each worker's pipe, so
        a pooled run never creates a named shared-memory segment (which
        could outlive a crashed run) and counts still equal serial.

        The spy records constructions instead of raising: a raising
        spy could be caught by a caller and hidden behind a fallback.
        """
        created = []

        class SpySharedMemory(shared_memory.SharedMemory):
            def __init__(self, *args, **kwargs):
                created.append((args, kwargs))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", SpySharedMemory)
        circuit = repetition_code_memory(
            3, rounds=2, data_flip_probability=0.05,
            measure_flip_probability=0.05,
        )
        task = Task(circuit, decoder="compiled-matching", max_shots=1_200)
        serial = collect([task], base_seed=7, workers=1, chunk_shots=200)
        pooled = collect([task], base_seed=7, workers=2, chunk_shots=200)
        assert [(s.shots, s.errors) for s in pooled] == [
            (s.shots, s.errors) for s in serial
        ]
        assert created == []


class TestEarlyStopShutdown:
    def test_abandoned_run_exits_cleanly(self):
        """Breaking out of a pooled run must not deadlock close/join —
        the in-flight window's feeder has to be released."""
        specs = make_specs(n_chunks=30, chunk_shots=50)
        started = time.time()
        with ChunkRunner(workers=2) as runner:
            for result in runner.run(specs):
                assert result.chunk_index == 0
                break
        assert time.time() - started < 60

    def test_bounded_speculative_overrun(self, monkeypatch):
        """The feeder may not eagerly submit the whole budget: after an
        early stop at the first result, at most one consumed chunk plus
        one in-flight window of speculative chunks ever started."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("tracking hook requires fork inheritance")
        import repro.engine.workers as workers_mod

        executed = multiprocessing.Manager().list()
        real_run_chunk = workers_mod.run_chunk

        def tracking_run_chunk(spec):
            executed.append(spec.chunk_index)
            return real_run_chunk(spec)

        # Patched before __enter__ so forked workers inherit the hook.
        monkeypatch.setattr(workers_mod, "run_chunk", tracking_run_chunk)
        specs = make_specs(n_chunks=40, chunk_shots=50)
        with ChunkRunner(workers=2) as runner:
            window = 2 * runner.workers
            for _ in runner.run(specs):
                break
        assert len(executed) <= 1 + window, list(executed)
        assert len(executed) < len(specs)

    def test_second_run_after_abandoned_run(self):
        """The runner survives an abandoned run and serves the next."""
        specs = make_specs(n_chunks=6)
        with ChunkRunner(workers=2) as runner:
            for _ in runner.run(specs):
                break
            indices = [r.chunk_index for r in runner.run(specs)]
        assert indices == list(range(len(specs)))

    def test_exception_in_consumer_terminates_pool(self):
        specs = make_specs(n_chunks=6)
        with pytest.raises(RuntimeError, match="consumer failed"):
            with ChunkRunner(workers=2) as runner:
                for _ in runner.run(specs):
                    raise RuntimeError("consumer failed")

    def test_clean_exit_stops_workers_gracefully(self):
        """Clean exit must let workers drain and exit on the stop
        sentinel rather than be terminated: a graceful exit (code 0)
        proves no worker died mid-chunk, so forked children flushed
        coverage and never dropped a leased chunk.  (Explicit empty
        fault plan: the CI chaos leg exports REPRO_FAULTS, and an
        injected SIGKILL would make exit codes meaningless here.)"""
        with ChunkRunner(workers=2, fault_plan="") as runner:
            pool = runner._pool
            processes = [
                pool._handles[slot].process for slot in pool.live_slots()
            ]
            list(runner.run(make_specs(n_chunks=4)))
        # After a clean __exit__ the pool is stopped and detached...
        assert runner._pool is None
        # ...and every worker exited voluntarily (exit code 0), not via
        # SIGTERM (which would show as a negative exitcode).
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode == 0, process.exitcode

    def test_stale_generator_cleanup_spares_newer_run(self):
        """Finalizing an abandoned older run() generator must not trip
        the stop event of a newer run on the same runner.

        The older run covers fewer chunks than the in-flight window so
        its feeder finishes on its own (a *stalled* open feeder would
        hold the pool's shared task queue — one active pooled run at a
        time is the runner's contract; the collector honors it).
        """
        with ChunkRunner(workers=2) as runner:
            older = runner.run(make_specs(n_chunks=3))
            assert next(older).chunk_index == 0
            specs = make_specs(n_chunks=8)
            newer = runner.run(specs)
            first = next(newer)
            older.close()  # old cleanup fires mid-consumption of newer
            rest = list(newer)
        indices = [first.chunk_index] + [r.chunk_index for r in rest]
        assert indices == list(range(len(specs)))
