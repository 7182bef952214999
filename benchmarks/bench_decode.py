"""Per-shot vs compiled MWPM decoding: syndromes/sec per decoder to JSON.

The compiled matching decoder must beat the per-shot MatchingDecoder
by >= 5x on a d=7 surface-code DEM at 1024-shot batches, with identical
predictions (its contract guarantees them wherever the minimum-weight
matching is unique, and this DEM's sample has no tie that splits
them).  This bench
measures decode_batch throughput for every registered matching-class
decoder, verifies the predictions agree, and records the numbers to a
JSON file the trajectory can track across PRs.

Run:  PYTHONPATH=src python benchmarks/bench_decode.py \\
          [--distance 7] [--shots 1024] [--out benchmarks/results/bench_decode.json]
"""

from __future__ import annotations

import argparse
import json
import os
import time

import numpy as np

from repro.decoders import compile_decoder
from repro.obs import format_rate, safe_rate
from repro.qec import surface_code_dem

DECODERS = ("matching", "compiled-matching")
REFERENCE = "matching"


def _best_of(callable_, repeats: int):
    best = float("inf")
    value = None
    for _ in range(repeats):
        started = time.perf_counter()
        value = callable_()
        best = min(best, time.perf_counter() - started)
    return best, value


def run_bench(
    distance: int,
    rounds: int,
    shots: int,
    p: float,
    repeats: int,
    seed: int,
) -> dict:
    extract_started = time.perf_counter()
    dem = surface_code_dem(distance, rounds, p)
    extract_seconds = time.perf_counter() - extract_started
    syndromes, _ = dem.sample(shots, np.random.default_rng(seed))

    result = {
        "dem": {
            "family": "surface_code_memory",
            "distance": distance,
            "rounds": rounds,
            "p": p,
            "n_detectors": dem.n_detectors,
            "n_observables": dem.n_observables,
            "n_mechanisms": len(dem.mechanisms),
            "extract_seconds": extract_seconds,
        },
        "shots_per_batch": shots,
        "mean_defects_per_shot": float(syndromes.sum(axis=1).mean()),
        "repeats": repeats,
        "decoders": {},
    }
    predictions = {}
    for name in DECODERS:
        init_started = time.perf_counter()
        decoder = compile_decoder(dem, name)
        init_seconds = time.perf_counter() - init_started
        decode_seconds, predicted = _best_of(
            lambda: decoder.decode_batch(syndromes), repeats
        )
        predictions[name] = predicted
        result["decoders"][name] = {
            "init_seconds": init_seconds,
            "decode_seconds": decode_seconds,
            # None (JSON null) when the batch timed at ~0s.
            "syndromes_per_sec": safe_rate(shots, decode_seconds),
        }

    reference = predictions[REFERENCE]
    for name in DECODERS:
        identical = bool(np.array_equal(predictions[name], reference))
        result["decoders"][name]["predictions_identical"] = identical
    compiled_rate = result["decoders"]["compiled-matching"]["syndromes_per_sec"]
    reference_rate = result["decoders"][REFERENCE]["syndromes_per_sec"]
    result["compiled_matching_speedup"] = (
        safe_rate(compiled_rate, reference_rate)
        if compiled_rate is not None
        else None
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--distance", type=int, default=7)
    parser.add_argument(
        "--rounds", type=int, default=3,
        help="memory rounds (default 3; detectors scale with rounds)",
    )
    parser.add_argument(
        "--shots", type=int, default=1024,
        help="syndromes per decode_batch call (default 1024)",
    )
    parser.add_argument("--p", type=float, default=0.002)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default="benchmarks/results/bench_decode.json",
        help="JSON output path ('' disables writing)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="exit nonzero unless compiled/reference >= this ratio",
    )
    args = parser.parse_args(argv)

    result = run_bench(
        args.distance, args.rounds, args.shots, args.p, args.repeats,
        args.seed,
    )

    print(f"d={args.distance} surface-code DEM "
          f"({result['dem']['n_detectors']} detectors, "
          f"{result['dem']['n_mechanisms']} mechanisms), "
          f"{args.shots} syndromes/batch, best of {args.repeats}")
    print(f"{'decoder':<18} {'init (s)':>10} {'decode (s)':>11} "
          f"{'syndromes/sec':>14} {'identical':>10}")
    for name, row in result["decoders"].items():
        print(f"{name:<18} {row['init_seconds']:>10.4f} "
              f"{row['decode_seconds']:>11.4f} "
              f"{format_rate(args.shots, row['decode_seconds']):>14} "
              f"{str(row['predictions_identical']):>10}")
    speedup = result["compiled_matching_speedup"]
    print(f"compiled matching speedup over per-shot reference: "
          f"{'-' if speedup is None else format(speedup, '.2f') + 'x'}")

    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=2)
        print(f"wrote {args.out}")

    if not all(
        row["predictions_identical"] for row in result["decoders"].values()
    ):
        print("FAIL: decoder predictions diverge from the reference")
        return 1
    if args.min_speedup is not None and (
        speedup is None or speedup < args.min_speedup
    ):
        print(f"FAIL: speedup below required {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
