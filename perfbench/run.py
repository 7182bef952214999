"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload qec_surface --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off: a closed loop of batches, one after another, for ``--seconds``
seconds (and at least ``MIN_BATCHES`` batches).  With ``--trace 1`` it
runs the same loop untraced for half the time, then repeats the same
batches, plus one cold set-up, inside ``repro.obs`` spans, and reports
per-layer metrics: each layer's self time, the unattributed residual,
and the tracing overhead (traced against untraced batch time).  Peak memory
is read after set-up and the first ``MIN_BATCHES`` batches, so it
measures the same work however many batches fit in the run.

Every run checks the program's outputs (see each workload's ``check``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the metrics by name with units, the tail percentile and the
provenance of the result.  The exit code is 1 when a check fails and 2
when the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for result stores and exported traces, inside the checkout.
WORK_DIR = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_traces"

#: A run measures at least this many batches, so a tail percentile with
#: ten batches beyond it exists and sits at or above the median.
MIN_BATCHES = 21

END_TO_END = {
    "shots_per_s": "1/s",
    "batch_s.p50": "s",
    "batch_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run.  Times of batch-phase calls are
#: seconds per batch; set-up calls are seconds per cold build; ``self_s``
#: and ``trace`` times are totals over the traced phase.  A layer the
#: workload does not reach reads 0.  ``ref.frame_over_eval`` is the
#: frame backend's sampling time over Eq. 4 evaluation on the same
#: circuit: the paper's Table 1 comparison, which leaves the symbol draw
#: out of the symbolic side.
PER_LAYER = {
    "decoders.decode_s": "s",
    "decoders.decode_s.k0": "s",
    "decoders.decode_s.k1_2": "s",
    "decoders.decode_s.k3_12": "s",
    "decoders.decode_s.k13p": "s",
    "decoders.rows.k0": "count",
    "decoders.rows.k1_2": "count",
    "decoders.rows.k3_12": "count",
    "decoders.rows.k13p": "count",
    "decoders.unique_ratio": "ratio",
    "frame.sample_s": "s",
    "core.draw_s": "s",
    "core.eval_s": "s",
    "core.init_s": "s",
    "frame.compile_s": "s",
    "dem.extract_s": "s",
    "decoders.compile_s": "s",
    "circuit.fingerprint_s": "s",
    "ref.frame_sample_s": "s",
    "ref.frame_compile_s": "s",
    "ref.frame_over_eval": "ratio",
    "engine.pool_start_s": "s",
    "engine.queue_wait_s": "s",
    "engine.hold_s": "s",
    "engine.transport_bytes": "bytes",
    "engine.worker_busy_ratio": "ratio",
    "engine.scaling_efficiency": "ratio",
    "engine.resume_s": "s",
    "engine.failed_chunks": "count",
    "self_s.circuit": "s",
    "self_s.core": "s",
    "self_s.frame": "s",
    "self_s.dem": "s",
    "self_s.decoders": "s",
    "self_s.engine": "s",
    "self_s.ref": "s",
    "trace.residual_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.batches": "count",
}

WORKLOADS = ("qec_surface", "layered_deep", "engine_pooled")


def make_workload(name: str, seed: int):
    from perfbench import workloads

    if name == "qec_surface":
        return workloads.QecSurface(seed)
    if name == "layered_deep":
        return workloads.LayeredDeep(seed)
    if name == "engine_pooled":
        return workloads.EnginePooled(seed, WORK_DIR)
    raise ValueError(f"unknown workload {name!r}")


def _build(workload) -> tuple[object, float]:
    """One cold build after emptying the shared sampler cache; returns
    the state and the seconds it took.

    The caller drops the previous build first and it is collected here,
    so no build pays for collecting another one's garbage.
    """
    from repro.engine import shared_cache

    shared_cache().clear()
    gc.collect()
    started = time.perf_counter()
    state = workload.build()
    return state, time.perf_counter() - started


def _loop(workload, state, seconds: float, min_batches: int, count: int | None = None,
          start: int = 0):
    """Closed loop of batches: run until ``seconds`` have passed and at
    least ``min_batches`` ran, or exactly ``count`` batches when given.
    Batch indices run from ``start``.

    Each outcome goes to ``workload.observe`` as soon as its batch is
    timed, so large outputs are reduced and dropped one batch at a time.
    Returns ``(latencies, outcomes, raised)``; a batch that raises is
    counted in ``raised`` and has no outcome.
    """
    import repro.obs as obs

    latencies, outcomes, raised = [], [], 0
    deadline = time.perf_counter() + seconds
    index = start
    while True:
        ran = index - start
        if count is not None and ran >= count:
            break
        if count is None and ran >= min_batches and time.perf_counter() >= deadline:
            break
        started = time.perf_counter()
        try:
            with obs.span("bench.batch", batch=index):
                outcome = workload.batch(state, index)
        except Exception:
            traceback.print_exc()
            raised += 1
            outcome = None
        latencies.append(time.perf_counter() - started)
        if outcome is not None:
            workload.observe(index, outcome)
        outcomes.append(outcome)
        index += 1
    return latencies, outcomes, raised


def _traced_phase(workload, batches: int, tag: str) -> dict:
    """Cold set-up, ``batches`` batches and the extras, all inside spans."""
    import repro.obs as obs
    from perfbench import measure
    from repro.engine import shared_cache

    obs.reset()
    obs.enable(tracing=True, metrics=False)
    try:
        with obs.span("bench.run"):
            shared_cache().clear()
            with obs.span("bench.setup"):
                state = workload.build()
            latencies, outcomes, raised = _loop(workload, state, 0.0, 0, count=batches)
            with obs.span("bench.extras"):
                workload.trace_extras(state)
        spans = obs.drain_spans()
        timelines = obs.drain_timelines()
    finally:
        obs.reset()
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    obs.write_chrome_trace(spans, TRACE_DIR / f"{tag}.trace.json", timelines=timelines)
    return {
        "spans": measure.own_spans(spans),
        "latencies": latencies,
        "outcomes": [o for o in outcomes if o is not None],
        "raised": raised,
    }


def _per_layer_values(workload, traced: dict, untraced_latencies: list[float]) -> dict:
    from perfbench import measure
    from perfbench.workloads import DEFECT_CLASSES

    spans = traced["spans"]
    n = max(len(traced["latencies"]), 1)

    def per_batch(name: str) -> float:
        return measure.span_seconds(spans, name) / n

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    labels = [label for label, _, _ in DEFECT_CLASSES]
    for label in labels:
        metrics[f"decoders.decode_s.{label}"] = per_batch(f"decoders.decode.{label}")
    metrics["decoders.decode_s"] = per_batch("decoders.decode") + sum(
        metrics[f"decoders.decode_s.{label}"] for label in labels
    )
    metrics["frame.sample_s"] = per_batch("frame.sample")
    metrics["core.draw_s"] = per_batch("core.draw")
    metrics["core.eval_s"] = per_batch("core.eval")
    for name in ("core.init", "frame.compile", "dem.extract", "decoders.compile",
                 "circuit.fingerprint"):
        metrics[f"{name}_s"] = measure.span_seconds(spans, name)
    metrics["ref.frame_sample_s"] = measure.median_span(spans, "ref.frame_sample")
    metrics["ref.frame_compile_s"] = measure.median_span(spans, "ref.frame_compile")
    if metrics["core.eval_s"] and metrics["ref.frame_sample_s"]:
        metrics["ref.frame_over_eval"] = metrics["ref.frame_sample_s"] / metrics["core.eval_s"]
    metrics.update(workload.layer_metrics(spans, traced["outcomes"]))

    attributed = measure.attribute(spans)
    for layer, seconds in attributed["self_s"].items():
        metrics[f"self_s.{layer}"] = seconds
    metrics["trace.residual_s"] = attributed["residual_s"]
    metrics["trace.wall_s"] = attributed["wall_s"]
    untraced = sum(untraced_latencies)
    metrics["trace.overhead_ratio"] = sum(traced["latencies"]) / untraced if untraced else 0.0
    metrics["trace.batches"] = float(len(traced["latencies"]))
    return metrics


def run_workload(workload, seconds: float, trace: bool, tag: str,
                 min_batches: int = MIN_BATCHES) -> dict:
    """Set up, measure and check one workload; returns the full record."""
    from perfbench import measure
    from perfbench.workloads import WARMUP_INDEX

    state, first = _build(workload)
    setup_times = [first]
    workload.batch(state, WARMUP_INDEX)
    loop_seconds = seconds / 2 if trace else seconds
    started = time.perf_counter()
    latencies, outcomes, raised = _loop(workload, state, 0.0, 0, count=min_batches)
    # Peak memory is read after set-up and a fixed number of batches, the
    # same work on every host: a batch's transient memory depends on its
    # data, so a peak read at the deadline would grow with speed.
    peak_rss = measure.peak_rss_mb()
    # The other cold builds are spread evenly over the run, each followed
    # by an untimed warm-up batch, so set-up time samples the host over
    # the whole run as the batches do, not only in its first seconds.
    segments = workload.setup_repeats
    for segment in range(segments):
        if segment:
            state = None
            state, build_seconds = _build(workload)
            setup_times.append(build_seconds)
            workload.batch(state, WARMUP_INDEX)
        end = started + loop_seconds * (segment + 1) / segments
        more = _loop(workload, state, end - time.perf_counter(), 0, start=len(latencies))
        latencies += more[0]
        outcomes += more[1]
        raised += more[2]
    check_failed, messages = workload.check(state)
    attempted = len(latencies)
    failed = min(attempted, raised + check_failed)

    stats = measure.batch_stats(latencies)
    shots = sum(o.shots for o in outcomes if o is not None)
    record = {
        "workload": workload.name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "batch_stats": stats,
        "setup_times_s": setup_times,
        "provenance": measure.provenance(ROOT, workload.working_set(state)),
    }
    if trace:
        traced = _traced_phase(workload, attempted, tag)
        record["attempted"] += len(traced["latencies"])
        record["failed"] += traced["raised"]
        record["correct"] = record["failed"] == 0
        values = _per_layer_values(workload, traced, latencies)
        units = PER_LAYER
    else:
        values = {
            "shots_per_s": shots / sum(latencies),
            "batch_s.p50": stats["p50"],
            "batch_s.tail": stats["tail"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss,
        }
        units = END_TO_END
    record["failed_fraction"] = record["failed"] / record["attempted"]
    record["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    return record


def _print_record(record: dict) -> None:
    stats = record["batch_stats"]
    print(f"workload {record['workload']}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(
        f"  {'failed_fraction':<28} {record['failed_fraction']:>14.6g} ratio"
        f"  ({record['failed']} of {record['attempted']})"
    )
    print(
        f"  batch_s.tail is p{stats['tail_percentile']:.1f} of "
        f"{stats['count']} batches"
    )
    for message in record["messages"]:
        print(f"  CHECK FAILED: {message}")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "metrics"}))


def _stop_resource_tracker() -> None:
    """Stop the helper process ``multiprocessing`` starts to track shared
    memory (the engine's shm transport starts it), and wait for it.

    Left alone it outlives the run by a moment, after the result line is
    printed.  The engine's workers have all been joined by now, so no
    other process holds the tracker's pipe open.
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - platform without it
        return
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _exit_on_sigterm() -> None:
    """Turn SIGTERM into ``SystemExit`` in this process, so the engine's
    context managers and the ``finally`` below stop every worker before
    the run ends.  Forked workers inherit the handler and keep the
    default action."""
    main_pid = os.getpid()

    def handler(signum, frame):
        if os.getpid() != main_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: the program is missing: no {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    workload = make_workload(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    _exit_on_sigterm()
    try:
        record = run_workload(workload, args.seconds, bool(args.trace), tag)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        _stop_resource_tracker()
    _print_record(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
