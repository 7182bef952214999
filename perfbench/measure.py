"""Statistics, host facts and span attribution for the benchmark.

Nothing here touches the program under test except through
``repro.obs`` span records handed in by the caller.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
from pathlib import Path

#: First component of every span name the benchmark records; anything
#: else in the buffer was recorded inside the program and is folded
#: into the benchmark span that encloses it.
LAYERS = ("circuit", "core", "frame", "dem", "decoders", "engine", "ref")
BENCH = "bench"

#: A tail percentile needs at least this many batches beyond it.
TAIL_BEYOND = 10


def batch_stats(latencies: list[float]) -> dict:
    """Median and tail batch latency.

    The tail is the highest percentile with at least ``TAIL_BEYOND``
    batches beyond it — the ``TAIL_BEYOND + 1``-th largest latency —
    reported with the percentile it stands for and the sample count.
    With too few batches for a tail, the maximum stands in and the
    percentile reads 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n > TAIL_BEYOND:
        tail = ordered[n - TAIL_BEYOND - 1]
        percentile = 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail = ordered[-1]
        percentile = 100.0
    return {
        "p50": statistics.median(ordered),
        "tail": tail,
        "tail_percentile": percentile,
        "count": n,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child.

    ``ru_maxrss`` is in KiB on Linux.  The children figure is the
    maximum over terminated children (pool workers), not their sum.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _git_sha(root: Path) -> str | None:
    """HEAD's commit from the ``.git`` directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _cache_sizes() -> dict[str, int]:
    """Unified/data cache sizes in bytes by level, from Linux sysfs."""
    sizes: dict[str, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2}.get(text[-1:], 1)
        sizes[f"L{level}"] = int(text.rstrip("KM")) * scale
    return sizes


def provenance(root: Path, working_set: dict[str, int]) -> dict:
    """Where and on what a result was measured.

    ``working_set`` holds byte counts the workload computed from its
    array shapes; each is set beside the cache sizes so a reader can see
    which arrays fit in which level.
    """
    import networkx
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        affinity = None
    caches = _cache_sizes()
    return {
        "git_sha": _git_sha(root),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "networkx": networkx.__version__,
        "platform": " ".join(os.uname()[i] for i in (0, 2, 4)),
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "caches_bytes": caches,
        "working_set_bytes_computed": {
            name: {
                "bytes": size,
                **{
                    f"vs_{level}": float(f"{size / cache:.3g}")
                    for level, cache in caches.items()
                    if level in ("L2", "L3")
                },
            }
            for name, size in working_set.items()
        },
    }


def own_spans(spans) -> list:
    """The spans the benchmark recorded: a layer or ``bench`` name prefix."""
    return [s for s in spans if s.name.split(".", 1)[0] in LAYERS + (BENCH,)]


def attribute(mine) -> dict:
    """Self time per layer plus the unattributed residual.

    ``mine`` holds the benchmark's own spans (:func:`own_spans`).  A
    span's self time is its duration minus its children's durations;
    the children of one span run one after another on one thread, so
    the subtraction is exact.  Layer ``bench`` is the benchmark's own
    code between layer calls: the explicit residual.  The self times
    and the residual sum to the root span's wall time.
    """
    ids = {s.span_id for s in mine}
    child_time: dict[str, float] = {}
    for s in mine:
        if s.parent_id in ids:
            child_time[s.parent_id] = child_time.get(s.parent_id, 0.0) + s.duration
    self_s = dict.fromkeys(LAYERS, 0.0)
    residual = 0.0
    roots = [s for s in mine if s.parent_id not in ids]
    for s in mine:
        own = s.duration - child_time.get(s.span_id, 0.0)
        layer = s.name.split(".", 1)[0]
        if layer == BENCH:
            residual += own
        else:
            self_s[layer] += own
    return {
        "self_s": self_s,
        "residual_s": residual,
        "wall_s": sum(s.duration for s in roots),
    }


def span_seconds(spans, name: str) -> float:
    """Total duration of the benchmark spans called ``name``."""
    return sum((s.duration for s in spans if s.name == name), 0.0)


def median_span(spans, name: str) -> float:
    """Median duration of the benchmark spans called ``name`` (0 if none)."""
    durations = [s.duration for s in spans if s.name == name]
    return statistics.median(durations) if durations else 0.0
