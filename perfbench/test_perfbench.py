"""The benchmark's own tests: toy-size runs, checks that trip, names that match.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import measure, run, workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _traces_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path / "traces")


def _toy_qec(seed: int, reference: dict | None = None) -> workloads.QecSurface:
    return workloads.QecSurface(
        seed, distance=3, rounds=2, p=0.01, batch_shots=512,
        reference=reference or {"shots": 1, "errors": 0},
    )


@pytest.fixture(scope="module")
def toy_qec_reference() -> dict:
    """The toy circuit's logical error rate, measured on an unrelated seed."""
    source = _toy_qec(10_000)
    state = source.build()
    for index in range(40):
        source.observe(index, source.batch(state, index))
    return {"shots": source.shots, "errors": source.errors}


def _toy(name: str, tmp_path: Path, reference: dict):
    if name == "qec_surface":
        return _toy_qec(3, reference)
    if name == "layered_deep":
        return workloads.LayeredDeep(3, n_qubits=10, n_layers=10, batch_shots=500)
    return workloads.EnginePooled(
        3, tmp_path / "work", distances=(3,), probabilities=(0.01,),
        task_shots=256, chunk_shots=128,
    )


def _run(workload, trace: bool) -> dict:
    return run.run_workload(workload, 0.0, trace, "toy", min_batches=3)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_workload_runs_at_toy_size(name, trace, tmp_path, toy_qec_reference):
    record = _run(_toy(name, tmp_path, toy_qec_reference), trace)
    assert record["correct"], record["messages"]
    assert record["failed"] == 0 and record["attempted"] >= 3
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(record["metrics"]) == list(expected)
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())


def test_traced_self_times_and_residual_sum_to_wall(tmp_path, toy_qec_reference):
    record = _run(_toy("qec_surface", tmp_path, toy_qec_reference), True)
    values = {name: m["value"] for name, m in record["metrics"].items()}
    parts = sum(values[f"self_s.{layer}"] for layer in measure.LAYERS)
    parts += values["trace.residual_s"]
    assert parts == pytest.approx(values["trace.wall_s"], rel=1e-9)
    assert values["decoders.decode_s"] > 0 and values["frame.sample_s"] > 0
    assert values["trace.overhead_ratio"] > 0
    rows = sum(values[f"decoders.rows.{label}"] for label, _, _ in workloads.DEFECT_CLASSES)
    assert rows == min(workloads.COUNT_BATCHES, values["trace.batches"]) * 512
    assert 0 < values["decoders.unique_ratio"] <= 1


class _FlippedPredictions:
    """A decoder whose every prediction has bit 0 flipped."""

    def __init__(self, decoder):
        self.decoder = decoder

    def decode_batch_packed(self, detectors):
        predictions = self.decoder.decode_batch_packed(detectors).copy()
        predictions[:, 0] ^= np.uint64(1)
        return predictions


class _FlippedRecords:
    """A symbolic sampler whose measurement records come out inverted."""

    def __init__(self, sampler):
        self.sampler = sampler

    def __getattr__(self, name):
        return getattr(self.sampler, name)

    def sample(self, shots, rng, symbol_values):
        return 1 - self.sampler.sample(shots, rng, symbol_values=symbol_values)


def _corrupted_record(workload, corrupt) -> dict:
    build = workload.build

    def corrupted_build():
        return corrupt(build())

    workload.build = corrupted_build
    return _run(workload, False)


def test_flipped_prediction_bit_trips_qec_check(tmp_path, toy_qec_reference):
    def corrupt(state):
        state.decoder = _FlippedPredictions(state.decoder)
        return state

    record = _corrupted_record(_toy("qec_surface", tmp_path, toy_qec_reference), corrupt)
    assert not record["correct"]
    assert record["failed"] == record["attempted"]


def test_flipped_records_trip_marginal_check(tmp_path, toy_qec_reference):
    workload = _toy("layered_deep", tmp_path, toy_qec_reference)
    record = _corrupted_record(workload, _FlippedRecords)
    assert not record["correct"]
    assert record["failed"] == 1


def test_pooled_count_drift_trips_engine_check(tmp_path, toy_qec_reference):
    workload = _toy("engine_pooled", tmp_path, toy_qec_reference)
    collect = workload._collect

    def drifting(tasks, workers, store=None):
        stats = collect(tasks, workers, store)
        if workers > 1 and store is not None and not stats[0].resumed:
            stats[0].errors += 1
        return stats

    workload._collect = drifting
    record = _run(workload, False)
    assert not record["correct"]
    assert record["failed"] == record["attempted"]


def test_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_tail_is_the_eleventh_largest_batch():
    stats = measure.batch_stats([float(i) for i in range(1, 101)])
    assert stats["tail"] == 90.0
    assert stats["tail_percentile"] == pytest.approx(90.0)
    assert stats["p50"] == 50.5 and stats["count"] == 100
    assert measure.batch_stats([1.0, 3.0, 2.0])["tail"] == 3.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qec_surface",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
