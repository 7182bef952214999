"""The one parent-worker wire: pickled specs out, pickled results back.

Pooled runs have no other channel, so these pin down that the wire is
lossless (serial == pooled bitwise for every backend/decoder pair,
``none`` included, and a pickled spec replays the same shots), that its
byte accounting is the pickled size, that the runner reclaims its
workers on every exit path, that each worker compiles a circuit once,
and that the knobs of removed mechanisms fail loudly instead of being
ignored.
"""

import importlib
import os
import pickle

import pytest

import repro.engine as engine
import repro.obs as obs
from repro import cli
from repro.engine import (
    ChunkRunner,
    ExecutionOptions,
    Task,
    collect,
    plan_chunks,
)
from repro.engine.workers import ChunkResult, run_chunk
from repro.qec import repetition_code_memory


def make_task(
    backend="frame", decoder="compiled-matching", max_shots=400, p=0.05
):
    # Vary ``p`` to get a fingerprint no other test compiled: forked
    # workers inherit the parent's sampler cache, so a shared circuit
    # would turn first-chunk compiles into hits.
    circuit = repetition_code_memory(
        3, rounds=2, data_flip_probability=p, measure_flip_probability=p
    )
    return Task(
        circuit, decoder=decoder, sampler=backend, max_shots=max_shots
    )


def triples(results):
    return [(r.chunk_index, r.shots, r.errors) for r in results]


def worker_processes(runner):
    pool = runner._pool
    return [pool._handles[slot].process for slot in pool.live_slots()]


GRID = [
    (backend, decoder)
    for backend in ("frame", "frame-interp", "symbolic")
    for decoder in ("compiled-matching", "matching", "lookup", "none")
]


class TestWireIdentity:
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("backend,decoder", GRID)
    def test_serial_and_pooled_bitwise_identical(
        self, backend, decoder, workers
    ):
        specs = plan_chunks(make_task(backend, decoder), 3, 100)
        with ChunkRunner(workers=1) as runner:
            serial = triples(runner.run(specs))
        with ChunkRunner(workers=workers) as runner:
            pooled = triples(runner.run(specs))
        assert pooled == serial

    @pytest.mark.parametrize("backend,decoder", GRID)
    def test_pickled_spec_replays_identical_shots(self, backend, decoder):
        spec = plan_chunks(make_task(backend, decoder, p=0.07), 5, 100)[2]
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        assert triples([run_chunk(copy)]) == triples([run_chunk(spec)])

    def test_result_survives_the_wire(self):
        result = ChunkResult(
            task_id="t", chunk_index=3, shots=100, errors=4, seconds=0.5,
            pid=1234, attempt=1, spans=(("span", 1.0),),
            metrics=(("counter", "repro_chunks_total", (), 1.0),),
        )
        assert pickle.loads(pickle.dumps(result)) == result

    @pytest.mark.parametrize("workers,label", [(1, "inproc"), (2, "pickle")])
    def test_timeline_names_the_wire(self, workers, label):
        obs.enable(tracing=False, metrics=True)
        specs = plan_chunks(make_task(), 3, 100)
        with ChunkRunner(workers=workers) as runner:
            list(runner.run(specs))
        timelines = obs.drain_timelines()
        assert len(timelines) == len(specs)
        assert {t.transport for t in timelines} == {label}


class TestWireBytes:
    def test_spec_bytes_are_the_pickled_spec(self):
        obs.enable(tracing=False, metrics=True)
        specs = plan_chunks(make_task(max_shots=600), 3, 100)
        # Explicit empty fault plan: a retried spec carries a different
        # attempt number and so pickles to a different size.
        with ChunkRunner(workers=2, fault_plan="") as runner:
            results = list(runner.run(specs))
        for result in results:
            assert result.spec_bytes == len(
                pickle.dumps(specs[result.chunk_index])
            )

    def test_spec_bytes_carry_the_circuit_text(self):
        obs.enable(tracing=False, metrics=True)
        task = make_task()
        specs = plan_chunks(task, 3, 100)
        with ChunkRunner(workers=2, fault_plan="") as runner:
            results = list(runner.run(specs))
        text_bytes = len(task.circuit.to_text().encode())
        assert all(r.spec_bytes > text_bytes for r in results)

    def test_bytes_unmeasured_with_metrics_off(self):
        specs = plan_chunks(make_task(), 3, 100)
        with ChunkRunner(workers=2) as runner:
            results = list(runner.run(specs))
        assert all(r.spec_bytes == 0 for r in results)
        assert all(r.result_bytes == 0 for r in results)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_stats_report_wire_bytes(self, workers):
        task = make_task(max_shots=600)
        (stats,) = collect(
            [task], base_seed=11, workers=workers, chunk_shots=200,
            profile=True,
        )
        if workers == 1:
            assert stats.transport_bytes == 0
        else:
            assert stats.transport_bytes > 0


class TestLifecycle:
    def test_consumer_failure_reclaims_every_worker(self):
        specs = plan_chunks(make_task(max_shots=1200), 3, 100)
        with pytest.raises(RuntimeError, match="consumer failed"):
            with ChunkRunner(workers=2) as runner:
                processes = worker_processes(runner)
                for _result in runner.run(specs):
                    raise RuntimeError("consumer failed")
        assert runner._pool is None
        assert processes and not any(p.is_alive() for p in processes)

    def test_failure_with_reorder_held_results_reclaims_workers(self):
        """An exception raised while later chunks still sit in the
        reorder buffer (and leases are outstanding) must still take
        every worker down."""
        specs = plan_chunks(make_task(max_shots=3000, p=0.04), 3, 100)
        with pytest.raises(RuntimeError, match="mid-stream"):
            with ChunkRunner(workers=2) as runner:
                processes = worker_processes(runner)
                for result in runner.run(specs):
                    if result.chunk_index >= 3:
                        raise RuntimeError("mid-stream consumer failure")
        assert not any(p.is_alive() for p in processes)

    @pytest.mark.parametrize("fail", [False, True])
    def test_exit_path_picks_the_stop_mode(self, monkeypatch, fail):
        """Clean exits stop gracefully (workers may still be sending
        results); the exception path terminates at once."""
        specs = plan_chunks(make_task(max_shots=2000, p=0.03), 3, 100)
        seen = {}

        def run():
            with ChunkRunner(workers=2) as runner:
                pool = runner._pool
                real_stop = pool.stop

                def spying_stop(graceful=True):
                    seen["graceful"] = graceful
                    return real_stop(graceful=graceful)

                monkeypatch.setattr(pool, "stop", spying_stop)
                next(runner.run(specs))
                if fail:
                    raise RuntimeError("boom")

        if fail:
            with pytest.raises(RuntimeError, match="boom"):
                run()
        else:
            run()
        assert seen["graceful"] is not fail

    def test_worker_spans_reach_the_parent(self):
        obs.enable(tracing=True, metrics=True)
        specs = plan_chunks(make_task(), 3, 100)
        with ChunkRunner(workers=2) as runner:
            results = list(runner.run(specs))
        assert [r.chunk_index for r in results] == list(range(len(specs)))
        pids = {span.pid for span in obs.drain_spans()}
        assert pids - {os.getpid()}
        assert sum(
            m.value for _, m in obs.registry().select("repro_chunks_total")
        ) == len(specs)


class TestOneCompilePerWorker:
    def test_each_worker_compiles_once_in_its_first_chunk(self):
        """Sampler compile count == workers that ran chunks — not
        chunks — and every later chunk is a cache hit."""
        obs.enable(tracing=False, metrics=True)
        workers = 2
        specs = plan_chunks(make_task(max_shots=800, p=0.041), 3, 100)
        # Explicit empty fault plan: under the CI chaos leg's
        # REPRO_FAULTS a killed worker's replacement compiles again,
        # which is one extra (correct) compile this count can't allow.
        with ChunkRunner(workers=workers, fault_plan="") as runner:
            pids = {result.pid for result in runner.run(specs)}
        reg = obs.registry()
        misses = sum(
            m.value
            for _, m in reg.select("repro_cache_misses_total", kind="sampler")
        )
        hits = sum(
            m.value
            for _, m in reg.select("repro_cache_hits_total", kind="sampler")
        )
        assert 1 <= len(pids) <= workers
        assert misses == len(pids)
        assert hits == len(specs) - misses


class TestRemovedKnobs:
    """The knobs of removed mechanisms (the shared-memory wire, the warm
    broadcast, worker heartbeats, retry backoff) are gone; callers that
    still pass them get an error, never a silently ignored setting."""

    @pytest.mark.parametrize("kwargs", [
        {"transport": "pickle"},
        {"slot_bytes": 4096},
        {"retry_backoff": 0.01},
        {"heartbeat_interval_seconds": 0.5},
        {"heartbeat_timeout_seconds": 5.0},
    ])
    def test_chunk_runner_rejects_wire_arguments(self, kwargs):
        with pytest.raises(TypeError):
            ChunkRunner(workers=2, **kwargs)

    def test_execution_options_have_no_transport(self):
        with pytest.raises(TypeError):
            ExecutionOptions(transport="pickle")

    def test_execution_options_have_no_retry_backoff(self):
        with pytest.raises(TypeError):
            ExecutionOptions(retry_backoff=0.01)

    def test_collect_rejects_retry_backoff(self):
        with pytest.raises(TypeError):
            collect([make_task()], base_seed=1, retry_backoff=0.01)

    def test_warm_spec_is_gone(self):
        assert "warm_spec" not in engine.__all__
        with pytest.raises(ImportError):
            from repro.engine import warm_spec  # noqa: F401

    def test_collect_rejects_transport(self):
        with pytest.raises(TypeError):
            collect([make_task()], base_seed=1, transport="pickle")

    def test_shared_memory_module_is_gone(self):
        assert not hasattr(engine, "TRANSPORTS")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.engine.shm")

    @pytest.mark.parametrize("command", ["collect", "decode"])
    @pytest.mark.parametrize(
        "flag", ["--transport", "--simulator", "--sampler"]
    )
    def test_cli_rejects_removed_flags(self, command, flag, capsys):
        argv = [command] + (["c.stim"] if command == "decode" else [])
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv + [flag, "frame"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_cli_rejects_retry_backoff(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["collect", "--retry-backoff", "0.1"])
        assert exc.value.code == 2
        assert "--retry-backoff" in capsys.readouterr().err
