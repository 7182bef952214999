"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed alone, and calls
the program only through its public facades.  Every call into a layer
sits in a ``repro.obs`` span named ``<layer>.<call>``; with tracing off
those spans are the shared no-op, so the untraced run pays a flag test
per call.

Why these four (the layer each should move, and the one it must not):

``qec_surface``
    The ROADMAP hot path, serial and in-process: frame sampling then
    compiled-matching decode.  Decode dominates, and within decode the
    few rows with 13 or more defects that fall back to blossom.  Moves
    on ``frame`` and ``decoders`` changes; no noise-draw change in
    ``core`` reaches it.
``layered_deep``
    The noiseless Table-1 layered circuit: Eq. 4 evaluation is most of
    a batch and Algorithm-1 initialization most of set-up.  The paper's
    "flat in gate count" regime; a noise-draw change must not move it.
``engine_pooled``
    Four surface-memory tasks through ``repro.engine.collect`` on two
    workers, each call into a fresh result store and followed by a
    resume call.  The only workload where scheduling, pool start,
    transport and the store do work; it shares the sample and decode
    layers with ``qec_surface``, so the gap between the two is engine
    overhead.

Dropped as unsteady: ``layered_noisy``, the Fig. 3c circuit (100 qubits,
p = 0.001) on the symbolic backend, whose batches are ~94% symbol draw.
The draw streams 32 MB float slabs, and its speed followed the shared
host's memory traffic: batch-time median IQR/median of 0.13 to 0.35
across five ten-seed sets on a two-core host, against a 0.25 bound.
Noise-draw changes still show end to end on ``qec_surface`` (the frame
backend's noise plans) and per layer in ``core.draw_s``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import repro
import repro.obs as obs
from perfbench import measure
from repro.backends import compile_backend
from repro.decoders import compile_decoder, wilson_interval
from repro.dem import extract_dem
from repro.engine import ExecutionOptions, Task, collect
from repro.qec import surface_code_memory
from repro.workloads import layered_random_circuit

REFERENCE = Path(__file__).with_name("reference.json")

#: Width of the Wilson bands compared in the logical-error-rate check.
#: At z = 5 a correct program fails the check less than once in 10^6 runs,
#: and the band is wide enough to absorb a change of RNG stream or of
#: decoder tie-breaking.
WILSON_Z = 5.0
#: Per-measurement marginal check: two-proportion z limit.  With up to
#: a few thousand measurements per check the chance that a correct
#: program trips it is below 10^-5.
MARGINAL_Z = 6.0

#: Defect-count classes the traced decode is split by (inclusive
#: bounds).  They follow the decoder's paths: zero rows short-circuit,
#: one or two defects are table gathers, up to 12 are enumerated, and
#: 13 or more fall back to blossom.
DEFECT_CLASSES = (("k0", 0, 0), ("k1_2", 1, 2), ("k3_12", 3, 12), ("k13p", 13, None))
#: Row counts are exact over this many leading traced batches.
COUNT_BATCHES = 8

#: Stream keys under the workload seed.
_CIRCUIT, _BATCH, _CHECK, _ENGINE = 0, 1, 2, 3
#: Batch index of the untimed warm-up batch, far from any timed index.
WARMUP_INDEX = 10**9


class Seeds:
    """Independent random streams, all derived from the workload seed."""

    def __init__(self, seed: int):
        self.seed = seed

    def sequence(self, *key: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.seed, spawn_key=key)

    def generator(self, *key: int) -> np.random.Generator:
        return np.random.default_rng(self.sequence(*key))


@dataclass
class Outcome:
    """What one batch carried from circuit to result."""

    shots: int
    detail: dict[str, Any] = field(default_factory=dict)


class Workload:
    """Interface the runner drives; see :mod:`perfbench.run`."""

    name = ""
    setup_repeats = 3

    def build(self) -> Any:
        """Cold build of everything the first batch needs (timed)."""
        raise NotImplementedError

    def batch(self, state: Any, index: int) -> Outcome:
        """One timed batch."""
        raise NotImplementedError

    def observe(self, index: int, outcome: Outcome) -> None:
        """Record a batch's result for the checks (untimed)."""

    def check(self, state: Any) -> tuple[int, list[str]]:
        """Correctness checks: (failed batches, messages)."""
        return 0, []

    def trace_extras(self, state: Any) -> None:
        """Extra traced calls that only the per-layer metrics need."""

    def layer_metrics(self, spans, outcomes: list[Outcome]) -> dict[str, float]:
        """Per-layer metrics this workload reports beyond the span sums."""
        return {}

    def working_set(self, state: Any) -> dict[str, int]:
        """Byte sizes of the main arrays, computed from their shapes."""
        return {}


def _packed_bytes(rows: int, bits: int) -> int:
    return rows * ((bits + 63) // 64) * 8


def _load_reference(name: str) -> dict:
    return json.loads(REFERENCE.read_text())[name]


# -- qec_surface ---------------------------------------------------------


@dataclass
class _QecState:
    sampler: Any
    dem: Any
    decoder: Any


class QecSurface(Workload):
    """Rotated surface-code memory: frame sampling + compiled matching."""

    name = "qec_surface"
    setup_repeats = 9

    def __init__(
        self,
        seed: int,
        *,
        distance: int = 7,
        rounds: int = 3,
        p: float = 0.002,
        batch_shots: int = 4096,
        reference: dict | None = None,
    ):
        self.seeds = Seeds(seed)
        self.batch_shots = batch_shots
        self.circuit = surface_code_memory(
            distance,
            rounds,
            after_clifford_depolarization=p,
            before_measure_flip_probability=p,
        )
        self.reference = reference or _load_reference(self.name)
        self.shots = 0
        self.errors = 0
        self.batches = 0

    def build(self) -> _QecState:
        with obs.span("circuit.fingerprint"):
            self.circuit.fingerprint()
        with obs.span("frame.compile"):
            sampler = compile_backend(self.circuit, "frame")
        with obs.span("dem.extract"):
            dem = extract_dem(self.circuit)
        with obs.span("decoders.compile"):
            decoder = compile_decoder(dem, "compiled-matching")
        return _QecState(sampler, dem, decoder)

    def batch(self, state: _QecState, index: int) -> Outcome:
        rng = self.seeds.generator(_BATCH, index)
        with obs.span("frame.sample", batch=index):
            detectors, observables = state.sampler.sample_detectors_packed(
                self.batch_shots, rng
            )
        detail: dict[str, Any] = {}
        if obs.is_tracing():
            predictions = self._decode_by_defects(
                state.decoder, detectors, index, detail
            )
        else:
            with obs.span("decoders.decode", batch=index):
                predictions = state.decoder.decode_batch_packed(detectors)
        detail["errors"] = int(
            np.count_nonzero((predictions ^ observables).any(axis=1))
        )
        return Outcome(self.batch_shots, detail)

    @staticmethod
    def _decode_by_defects(decoder, detectors, index, detail) -> np.ndarray:
        """Decode the batch one defect-count class at a time (traced run).

        The split changes the decoder's work a little (dedupe and
        enumeration run per class), so traced decode time is not exactly
        the untraced one; the tracing-overhead figure includes the gap.
        """
        defects = np.bitwise_count(detectors).sum(axis=1)
        predictions = None
        for label, low, high in DEFECT_CLASSES:
            in_class = defects >= low
            if high is not None:
                in_class &= defects <= high
            rows = np.flatnonzero(in_class)
            detail[f"rows.{label}"] = int(rows.size)
            if rows.size == 0:
                continue
            part = detectors[rows]
            with obs.span(f"decoders.decode.{label}", batch=index, rows=int(rows.size)):
                decoded = decoder.decode_batch_packed(part)
            if predictions is None:
                predictions = np.zeros(
                    (detectors.shape[0], decoded.shape[1]), dtype=decoded.dtype
                )
            predictions[rows] = decoded
            if label != "k0" and index < COUNT_BATCHES:
                unique = np.unique(part.view(f"V{part.shape[1] * 8}")).size
                detail["unique"] = detail.get("unique", 0) + int(unique)
        return predictions

    def observe(self, index: int, outcome: Outcome) -> None:
        self.shots += outcome.shots
        self.errors += outcome.detail["errors"]
        self.batches += 1

    def check(self, state: _QecState) -> tuple[int, list[str]]:
        """The run's logical error rate lies in the reference's Wilson band.

        Both rates carry a z = ``WILSON_Z`` Wilson interval; the check
        fails when the intervals do not overlap.  Failing it marks every
        batch of the run failed, since the rate is theirs jointly.
        """
        if self.shots == 0:
            return 0, []  # every batch raised; those are counted already
        low, high = wilson_interval(self.errors, self.shots, WILSON_Z)
        ref = self.reference
        ref_low, ref_high = wilson_interval(ref["errors"], ref["shots"], WILSON_Z)
        if high < ref_low or low > ref_high:
            return self.batches, [
                f"logical error rate {self.errors}/{self.shots} has band "
                f"[{low:.3g}, {high:.3g}], disjoint from the reference "
                f"band [{ref_low:.3g}, {ref_high:.3g}]"
            ]
        return 0, []

    def layer_metrics(self, spans, outcomes: list[Outcome]) -> dict[str, float]:
        counted = outcomes[:COUNT_BATCHES]
        metrics = {
            f"decoders.rows.{label}": float(
                sum(o.detail.get(f"rows.{label}", 0) for o in counted)
            )
            for label, _, _ in DEFECT_CLASSES
        }
        nonzero = sum(
            metrics[f"decoders.rows.{label}"] for label, _, _ in DEFECT_CLASSES[1:]
        )
        unique = sum(o.detail.get("unique", 0) for o in counted)
        metrics["decoders.unique_ratio"] = unique / nonzero if nonzero else 0.0
        return metrics

    def working_set(self, state: _QecState) -> dict[str, int]:
        n_qubits = self.circuit.n_qubits
        n_det = state.dem.n_detectors
        return {
            "frame_xz_bits": 2 * _packed_bytes(n_qubits, self.batch_shots),
            "packed_detectors": _packed_bytes(self.batch_shots, n_det),
            "decoder_pair_distances_float64": (n_det + 1) ** 2 * 8,
        }


# -- layered_deep --------------------------------------------------------


class LayeredDeep(Workload):
    """The noiseless Table-1 layered circuit on the symbolic backend."""

    name = "layered_deep"
    setup_repeats = 7

    def __init__(
        self,
        seed: int,
        *,
        n_qubits: int = 200,
        n_layers: int = 200,
        batch_shots: int = 10_000,
    ):
        self.seeds = Seeds(seed)
        self.circuit = layered_random_circuit(
            n_qubits,
            n_layers=n_layers,
            cnot_pairs_per_layer=5,
            seed=self.seeds.sequence(_CIRCUIT),
        )
        self.batch_shots = batch_shots
        self.marginals: np.ndarray | None = None

    def build(self):
        """Algorithm 1's initialization: the compiled symbolic sampler."""
        with obs.span("core.init"):
            return repro.compile_sampler(self.circuit)

    def batch(self, sampler, index: int) -> Outcome:
        rng = self.seeds.generator(_BATCH, index)
        with obs.span("core.draw", batch=index):
            symbols = sampler.draw_symbols(self.batch_shots, rng)
        with obs.span("core.eval", batch=index):
            records = sampler.sample(self.batch_shots, rng, symbol_values=symbols)
        return Outcome(self.batch_shots, {"records": records})

    def observe(self, index: int, outcome: Outcome) -> None:
        records = outcome.detail.pop("records")
        if index == 0:
            self.marginals = records.mean(axis=0)

    def _frame_marginals(self) -> np.ndarray:
        with obs.span("ref.frame_compile"):
            frame = compile_backend(self.circuit, "frame")
        rng = self.seeds.generator(_CHECK)
        with obs.span("ref.frame_sample"):
            records = frame.sample(self.batch_shots, rng)
        return records.mean(axis=0)

    def check(self, sampler) -> tuple[int, list[str]]:
        """Batch 0's per-measurement marginals agree with the frame backend's.

        The two backends draw different random streams, so the check is
        a two-proportion z-test per measurement, not a bitwise compare.
        A failure marks the checked batch failed.
        """
        if self.marginals is None:
            return 0, []
        reference = self._frame_marginals()
        n = self.batch_shots
        pooled = (self.marginals + reference) / 2
        variance = np.maximum(pooled * (1 - pooled), 1.0 / n) * (2.0 / n)
        z = np.abs(self.marginals - reference) / np.sqrt(variance)
        bad = np.flatnonzero(z > MARGINAL_Z)
        if bad.size:
            return 1, [
                f"{bad.size} measurement marginals differ from the frame "
                f"backend's (first: measurement {int(bad[0])}, "
                f"symbolic {self.marginals[bad[0]]:.4f} vs frame "
                f"{reference[bad[0]]:.4f})"
            ]
        return 0, []

    def trace_extras(self, sampler) -> None:
        """The Stim-role frame backend on the same circuit (Table 1 / Fig. 3)."""
        self._frame_marginals()

    def working_set(self, sampler) -> dict[str, int]:
        return {
            "symbol_matrix_bits": _packed_bytes(sampler.width, self.batch_shots),
            "measurement_records_uint8": self.batch_shots * sampler.n_measurements,
        }


# -- engine_pooled -------------------------------------------------------


class EnginePooled(Workload):
    """A four-task surface-memory sweep through ``repro.engine.collect``.

    Every round runs the sweep under one base seed derived from the
    workload seed, so every round's counts must equal one ``workers=1``
    run of the same seed: the serial == pooled contract, checked per
    round.
    """

    name = "engine_pooled"
    setup_repeats = 7
    workers = 2
    extra_repeats = 3

    def __init__(
        self,
        seed: int,
        work_dir: Path,
        *,
        distances: tuple[int, ...] = (3, 5),
        probabilities: tuple[float, ...] = (0.002, 0.004),
        task_shots: int = 8192,
        chunk_shots: int = 4096,
    ):
        self.seeds = Seeds(seed)
        self.work_dir = Path(work_dir)
        self.chunk_shots = chunk_shots
        self.base_seed = int(self.seeds.sequence(_ENGINE).generate_state(1)[0])
        self.circuits = [
            (d, p, surface_code_memory(d, d, p, p))
            for d in distances
            for p in probabilities
        ]
        self.task_shots = task_shots
        #: Round index -> (per-task (shots, errors), resume returned them).
        self.rounds: dict[int, tuple[list[tuple[int, int]], bool]] = {}

    def build(self) -> list[Task]:
        """Fill the process-wide sampler cache the engine and its forked
        workers read: sampler, DEM and decoder of every task circuit."""
        tasks = []
        for d, p, circuit in self.circuits:
            compiled = circuit.compile(sampler="frame", decoder="compiled-matching")
            # Each property builds its artifact on first access.
            with obs.span("circuit.fingerprint"):
                _ = compiled.fingerprint
            with obs.span("frame.compile"):
                _ = compiled.sampler
            with obs.span("dem.extract"):
                _ = compiled.dem
            with obs.span("decoders.compile"):
                _ = compiled.decoder
            tasks.append(
                Task(
                    circuit,
                    decoder="compiled-matching",
                    sampler="frame",
                    max_shots=self.task_shots,
                    metadata={"d": d, "p": p},
                )
            )
        return tasks

    def _collect(self, tasks: list[Task], workers: int, store: Path | None = None):
        return collect(
            tasks,
            options=ExecutionOptions(
                base_seed=self.base_seed,
                workers=workers,
                chunk_shots=self.chunk_shots,
                store=None if store is None else str(store),
                profile=obs.is_tracing(),
            ),
        )

    @contextmanager
    def _fresh_store(self, index: int):
        """An empty result-store path, removed again afterwards."""
        self.work_dir.mkdir(parents=True, exist_ok=True)
        store = self.work_dir / f"round-{index}.jsonl"
        store.unlink(missing_ok=True)
        try:
            yield store
        finally:
            store.unlink(missing_ok=True)

    def batch(self, tasks: list[Task], index: int) -> Outcome:
        with self._fresh_store(index) as store:
            with obs.span("engine.collect", batch=index):
                stats = self._collect(tasks, self.workers, store)
            with obs.span("engine.resume", batch=index):
                resumed = self._collect(tasks, self.workers, store)
        return Outcome(
            sum(s.shots for s in stats), {"stats": stats, "resumed": resumed}
        )

    def observe(self, index: int, outcome: Outcome) -> None:
        counts = [(s.shots, s.errors) for s in outcome.detail["stats"]]
        resumed = outcome.detail["resumed"]
        resume_ok = all(r.resumed for r in resumed) and [
            (r.shots, r.errors) for r in resumed
        ] == counts
        self.rounds[index] = (counts, resume_ok)

    def reference_counts(self, tasks: list[Task]) -> list[tuple[int, int]]:
        return [(s.shots, s.errors) for s in self._collect(tasks, 1)]

    def check(self, tasks: list[Task]) -> tuple[int, list[str]]:
        """Each round's counts equal a ``workers=1`` run of the same seed
        and its resume call returned the stored rows unchanged; the
        serial run itself completed every task's budget."""
        expected = self.reference_counts(tasks)
        if any(shots != self.task_shots for shots, _ in expected):
            return len(self.rounds), [
                f"serial run did not complete its budget: {expected}"
            ]
        bad = sorted(
            i for i, (counts, resume_ok) in self.rounds.items()
            if counts != expected or not resume_ok
        )
        if not bad:
            return 0, []
        counts, resume_ok = self.rounds[bad[0]]
        return len(bad), [
            f"{len(bad)} rounds failed; first: round {bad[0]} counts {counts} "
            f"(serial {expected}), resume {'ok' if resume_ok else 'changed rows'}"
        ]

    def trace_extras(self, tasks: list[Task]) -> None:
        """Pool start-up (a one-chunk task), and ``workers=1`` collect
        calls into a fresh store, as the pooled rounds make, for the
        scaling figure."""
        one_chunk = Task(
            tasks[0].circuit,
            decoder="compiled-matching",
            sampler="frame",
            max_shots=self.chunk_shots,
        )
        for _ in range(self.extra_repeats):
            with obs.span("engine.pool_start"):
                self._collect([one_chunk], self.workers)
        for repeat in range(self.extra_repeats):
            with self._fresh_store(WARMUP_INDEX + 1 + repeat) as store:
                with obs.span("engine.serial"):
                    self._collect(tasks, 1, store)

    def layer_metrics(self, spans, outcomes: list[Outcome]) -> dict[str, float]:
        """Engine metrics per round, from the profiled ``TaskStats``.

        ``decoders.decode_s`` and ``frame.sample_s`` here are worker busy
        seconds summed over workers.  ``engine.worker_busy_ratio`` is
        worker seconds over (workers x round wall time), and
        ``engine.scaling_efficiency`` the median ``workers=1`` collect
        time over the median pooled one, both into a fresh store: the
        speed-up, 2.0 being ideal on two workers.
        """
        rounds = [o.detail["stats"] for o in outcomes]
        walls = [s.duration for s in spans if s.name == "engine.collect"]
        n = max(len(rounds), 1)

        def per_round(field_name: str) -> float:
            return sum(getattr(s, field_name) for r in rounds for s in r) / n

        busy = [
            sum(s.worker_seconds for s in r) / (self.workers * wall)
            for r, wall in zip(rounds, walls)
        ]
        pooled = measure.median_span(spans, "engine.collect")
        serial = measure.median_span(spans, "engine.serial")
        return {
            "decoders.decode_s": per_round("decode_seconds"),
            "frame.sample_s": per_round("sample_seconds"),
            "engine.queue_wait_s": per_round("queue_wait_seconds"),
            "engine.hold_s": per_round("hold_seconds"),
            "engine.transport_bytes": per_round("transport_bytes"),
            "engine.failed_chunks": float(
                sum(s.failed_chunks for r in rounds for s in r)
            ),
            "engine.worker_busy_ratio": float(np.median(busy)) if busy else 0.0,
            "engine.pool_start_s": measure.median_span(spans, "engine.pool_start"),
            "engine.scaling_efficiency": serial / pooled if pooled else 0.0,
            "engine.resume_s": measure.span_seconds(spans, "engine.resume") / n,
        }

    def working_set(self, tasks: list[Task]) -> dict[str, int]:
        largest = max(self.circuits, key=lambda item: item[2].n_qubits)[2]
        return {
            "frame_xz_bits_per_chunk": 2 * _packed_bytes(largest.n_qubits, self.chunk_shots),
        }
