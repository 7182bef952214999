"""The supervision layer on its own: spawn, message, detect, replace, stop.

These drive :class:`SupervisedPool` directly with real chunk specs,
without the lease scheduler on top, so each mechanism the scheduler
relies on — targeted sends, the four-field error reply, death events,
in-place respawn and both shutdown paths — is pinned down by itself.
"""

import os
import signal
import time

import pytest

import repro.obs as obs
from repro.engine import Task, plan_chunks
from repro.engine.faults import NOOP, FaultPlan
from repro.engine.supervise import SupervisedPool, WorkerEvent
from repro.engine.workers import ChunkResult, run_chunk
from repro.qec import repetition_code_memory


def make_task(p=0.05):
    circuit = repetition_code_memory(
        3, rounds=2, data_flip_probability=p, measure_flip_probability=p
    )
    return Task(circuit, decoder="compiled-matching", max_shots=300)


def make_spec(index=0):
    return plan_chunks(make_task(), 3, 100)[index]


def wait_events(pool, done, timeout=30.0):
    """Poll ``pool`` until ``done(events)`` holds; returns every event."""
    events = []
    deadline = time.monotonic() + timeout
    while not done(events):
        assert time.monotonic() < deadline, events
        events.extend(pool.poll(0.1))
    return events


def messages(events, kind):
    return [
        e.payload for e in events
        if e.kind == "message" and e.payload[0] == kind
    ]


def deaths(events):
    return [e for e in events if e.kind == "died"]


@pytest.fixture
def make_pool():
    """Start pools on demand; every pool is stopped at teardown."""
    pools = []

    def start(workers=2, **kwargs):
        kwargs.setdefault("fault_plan", NOOP)
        pool = SupervisedPool(workers, **kwargs)
        pools.append(pool)
        pool.start()
        return pool

    yield start
    for pool in pools:
        pool.stop(graceful=False)


class TestSpawn:
    def test_one_live_process_per_slot(self, make_pool):
        pool = make_pool(workers=3)
        assert pool.live_slots() == [0, 1, 2]
        pids = [pool.worker_pid(slot) for slot in range(3)]
        assert len(set(pids)) == 3
        assert os.getpid() not in pids
        assert all(pid > 0 for pid in pids)


class TestMessages:
    def test_chunk_reply_carries_token_index_and_result(self, make_pool):
        pool = make_pool()
        spec = make_spec(1)
        assert pool.send(1, ("chunk", 7, 4, spec))
        events = wait_events(pool, lambda ev: messages(ev, "result"))
        ((kind, token, index, result),) = messages(events, "result")
        assert (kind, token, index) == ("result", 7, 4)
        assert isinstance(result, ChunkResult)
        assert result.pid == pool.worker_pid(1)
        reference = run_chunk(spec)
        assert (result.chunk_index, result.shots, result.errors) == (
            reference.chunk_index, reference.shots, reference.errors
        )

    def test_reply_arrives_from_the_addressed_slot(self, make_pool):
        pool = make_pool()
        pool.send(0, ("chunk", 1, 0, make_spec(0)))
        events = wait_events(pool, lambda ev: messages(ev, "result"))
        (event,) = [e for e in events if e.kind == "message"]
        assert event.slot == 0
        assert event.pid == pool.worker_pid(0)

    def test_chunk_exception_is_a_four_field_error_reply(self, make_pool):
        pool = make_pool(fault_plan=FaultPlan.parse("raise@0x*"))
        pool.send(0, ("chunk", 3, 0, make_spec(0)))
        events = wait_events(pool, lambda ev: messages(ev, "error"))
        (payload,) = messages(events, "error")
        assert len(payload) == 4
        kind, token, index, message = payload
        assert (kind, token, index) == ("error", 3, 0)
        assert message.startswith("FaultInjected: injected decode failure")

    def test_worker_survives_an_in_chunk_exception(self, make_pool):
        pool = make_pool(workers=1, fault_plan=FaultPlan.parse("raise@0x*"))
        pid = pool.worker_pid(0)
        pool.send(0, ("chunk", 1, 0, make_spec(0)))
        pool.send(0, ("chunk", 1, 1, make_spec(1)))
        events = wait_events(pool, lambda ev: messages(ev, "result"))
        assert [p[2] for p in messages(events, "error")] == [0]
        assert [p[2] for p in messages(events, "result")] == [1]
        assert deaths(events) == []
        assert pool.worker_pid(0) == pid

    @pytest.mark.parametrize("metrics", [False, True])
    def test_worker_telemetry_follows_wire_config(self, make_pool, metrics):
        if metrics:
            obs.enable(tracing=False, metrics=True)
        pool = make_pool(workers=1, wire_config=obs.wire_config())
        pool.send(0, ("chunk", 1, 0, make_spec(0)))
        events = wait_events(pool, lambda ev: messages(ev, "result"))
        ((_, _, _, result),) = messages(events, "result")
        assert bool(result.metrics) is metrics
        assert result.spans == ()


class TestDeaths:
    def test_kill_retires_the_slot(self, make_pool):
        pool = make_pool()
        process = pool._handles[0].process
        pool.kill(0)
        assert not process.is_alive()
        assert pool.live_slots() == [1]
        assert not pool.send(0, ("chunk", 1, 0, make_spec(0)))

    def test_external_sigkill_is_reported_as_a_death(self, make_pool):
        pool = make_pool()
        pid = pool.worker_pid(1)
        os.kill(pid, signal.SIGKILL)
        events = wait_events(pool, deaths)
        assert deaths(events) == [WorkerEvent("died", 1, pid)]
        assert pool.live_slots() == [0]

    def test_stop_message_ends_the_worker_loop(self, make_pool):
        pool = make_pool(workers=1)
        process = pool._handles[0].process
        assert pool.send(0, ("stop",))
        events = wait_events(pool, deaths)
        assert [e.slot for e in deaths(events)] == [0]
        process.join(5)
        assert process.exitcode == 0

    def test_respawn_replaces_the_worker_in_place(self, make_pool):
        pool = make_pool()
        old_pid = pool.worker_pid(0)
        pool.kill(0)
        new_pid = pool.respawn(0)
        assert new_pid not in (0, old_pid)
        assert pool.worker_pid(0) == new_pid
        assert pool.live_slots() == [0, 1]
        pool.send(0, ("chunk", 2, 0, make_spec(0)))
        events = wait_events(pool, lambda ev: messages(ev, "result"))
        assert [e.pid for e in events if e.kind == "message"] == [new_pid]

    def test_respawn_of_a_live_worker_kills_it_first(self, make_pool):
        pool = make_pool(workers=1)
        old = pool._handles[0].process
        pool.respawn(0)
        assert not old.is_alive()
        assert pool.live_slots() == [0]

    def test_poll_without_live_workers_returns_nothing(self, make_pool):
        pool = make_pool()
        pool.kill(0)
        pool.kill(1)
        assert pool.live_slots() == []
        assert pool.poll(0.01) == []


class TestStop:
    def test_graceful_stop_lets_workers_exit_cleanly(self, make_pool):
        pool = make_pool()
        processes = [pool._handles[slot].process for slot in (0, 1)]
        pool.send(0, ("chunk", 1, 0, make_spec(0)))
        pool.stop(graceful=True)
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode == 0
        assert pool.live_slots() == []

    def test_forced_stop_terminates_workers(self, make_pool):
        pool = make_pool()
        processes = [pool._handles[slot].process for slot in (0, 1)]
        pool.stop(graceful=False)
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode == -signal.SIGTERM
        assert pool.live_slots() == []
