"""Compile-once batched MWPM decoding.

:class:`MatchingDecoder` rediscovers shortest paths while decoding:
every defect pair of every syndrome walks Dijkstra through a NetworkX
graph (amortized by a path cache, but still per-pair Python work).  The
compiled decoder does all path-finding at **compile time** instead:

* the decoding graph (shared construction — see
  :func:`~repro.decoders.matching.build_decoding_graph`) is lowered into
  flat CSR adjacency arrays;
* Dijkstra runs once from every node, producing an all-pairs distance
  matrix and, via the predecessor trees, a per-pair *path observable
  mask* (the XOR of edge masks along the shortest path);
* decoding a batch then dedupes identical syndromes and settles each
  unique row on the cheapest path that is exact for it:

  - one and two defects (the bulk at QEC-relevant error rates): pure
    array gathers of one precomputed pair;
  - at least ``_RELAX_MIN_DEFECTS`` (11) defects: the min-cost
    assignment relaxation of perfect matching, solved for all such rows
    at once by batched shortest augmenting paths.  A row whose optimal
    assignment has only even cycles is decoded from it; the rest fall
    through to the next two paths;
  - up to ``_MAX_ENUM_NODES`` (12) nodes: enumerate all perfect
    pairings at once, one ``(rows, pairings)`` total-weight tensor per
    defect-count group built from vectorized distance lookups;
  - everything else (more nodes, unreachable pairs, enumerated ties
    that change the prediction): the same ``nx.max_weight_matching``
    call the reference makes.

Both batch entry points — unpacked ``decode_batch`` and the packed-wire
``decode_batch_packed`` — reduce their unique rows to one CSR-style
defect view and share a single decode core, so the packed path (zero-row
short-circuit, void-view dedupe, defect extraction straight from the
uint64 words) predicts bit for bit what the unpacked path predicts.

The contract with :class:`MatchingDecoder`: every prediction comes from
a matching of the same minimum total weight, and predictions are
identical wherever the minimum-weight matching is unique.  The CSR
Dijkstra mirrors NetworkX's traversal exactly (same strictly-improving
relaxation, insertion-order tie-breaking on equal distances, adjacency
iteration in edge-insertion order), so path masks agree.  Between
equal-weight matchings:

* relaxation rows take the solver's choice — a free column first, then
  the lowest index — with each cycle split into pairs from its lowest
  node;
* enumerated rows use the optimum only where it is unique or every
  near-optimal pairing predicts the same correction, and otherwise
  defer to blossom, which breaks the tie exactly as the reference does.

**Why the relaxation is exact.**  A perfect matching ``M`` gives an
assignment of cost ``2 w(M)`` (each pair assigned both ways), so the
optimal assignment costs ``A* <= 2 OPT``.  When ``A*`` has only even
cycles, both ways of alternating round each cycle weigh the same: if
one were lighter, replacing the cycle by its 2-cycles would give an
assignment cheaper than ``A*``.  The matching built from it therefore
weighs ``A*/2 <= OPT``, so it is a minimum-weight perfect matching.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from itertools import count

import networkx as nx
import numpy as np

import repro.obs as obs
from repro.decoders.matching import BOUNDARY, build_decoding_graph, dedupe_rows
from repro.decoders.registry import checked_packed_syndromes, checked_syndromes
from repro.dem.model import DetectorErrorModel
from repro.gf2 import bitops


def _count_decode_rows(total: int, nonzero: int, unique: int) -> None:
    """Per-worker dedupe-effectiveness counters for the packed decode
    path: of ``total`` rows, ``nonzero`` carried defects and only
    ``unique`` of those actually ran the decode core."""
    pid = str(os.getpid())
    obs.counter("repro_decode_rows_total", pid=pid).inc(total)
    obs.counter("repro_decode_nonzero_rows_total", pid=pid).inc(nonzero)
    obs.counter("repro_decode_unique_rows_total", pid=pid).inc(unique)

# Defect sets with more nodes than this fall back to blossom matching:
# the pairing count (k-1)!! reaches 10395 at k=12 — still one cheap
# vectorized reduction per row slab — but grows factorially beyond.
# (Each per-row blossom call costs ~ms of Python/NetworkX work, so at
# QEC-relevant rates the k=11..12 tail dominated whole-batch decoding
# when the ceiling sat at 10.)
_MAX_ENUM_NODES = 12
# Bound on elements materialized per enumeration slab, so one dense
# defect-count group cannot blow up memory.  The largest intermediate
# is the pre-sum gather of shape (rows, pairings, padded/2): 4M float64
# ~= 32 MB.
_ENUM_SLAB_ELEMENTS = 1 << 22
# Two pairings closer than this in total weight are treated as tied;
# float noise across differently-ordered sums is ~1e-13 at QEC weight
# scales, while mathematically distinct totals differ by far more.
_TIE_TOL = 1e-9
# Rows with at least this many defects try the assignment relaxation
# before enumeration and blossom.  The padded-12 group enumerates at
# ~0.5 ms a row, far above the relaxation's cost; the padded-10 group
# enumerates at ~30 us a row, so moving it as well does not pay.
_RELAX_MIN_DEFECTS = 11
# Bound on the (rows, N, N) cost tensor of one relaxation slab; the
# solve keeps a few tensors of that shape alive (~8 MB each).
_RELAX_SLAB_ELEMENTS = 1 << 20


def _count_decode_paths(**rows: int) -> None:
    """Unique rows settled per decode path (gather, relax, enumerate,
    blossom)."""
    for path, n in rows.items():
        obs.counter("repro_decode_path_rows_total", path=path).inc(n)


_PAIRINGS: dict[int, np.ndarray] = {}


def _pairings(k: int) -> np.ndarray:
    """All perfect pairings of ``k`` nodes: (pairings, k/2, 2) indices.

    Each pairing always couples the lowest unpaired node first, so every
    pairing appears exactly once.
    """
    if k not in _PAIRINGS:
        result: list[list[tuple[int, int]]] = []

        def recurse(avail: tuple[int, ...], acc: list) -> None:
            if not avail:
                result.append(acc)
                return
            first = avail[0]
            for i in range(1, len(avail)):
                recurse(
                    avail[1:i] + avail[i + 1:],
                    acc + [(first, avail[i])],
                )

        recurse(tuple(range(k)), [])
        _PAIRINGS[k] = np.array(result, dtype=np.int64).reshape(-1, k // 2, 2)
    return _PAIRINGS[k]


def _solve_assignment(cost: np.ndarray) -> np.ndarray:
    """Minimum-cost assignments for a stack of square cost matrices.

    ``cost`` has shape (problems, n, n) with finite entries; returns
    ``col4row`` of shape (problems, n): row ``i`` of problem ``p`` is
    assigned column ``col4row[p, i]``.  Shortest augmenting paths
    (Crouse, IEEE TAES 2016) from a row-minimum warm start; all
    problems advance in lockstep and finished ones drop out.  Ties pick
    a free column first, then the lowest index, so each problem's
    answer depends on its own matrix only.
    """
    problems, n, _ = cost.shape
    span = np.arange(problems)
    # Warm start: u = row minima makes every reduced cost >= 0 with
    # v = 0; each row claims its row-minimum column, in row order,
    # while that column is free.
    u = cost.min(axis=2)
    v = np.zeros((problems, n))
    col4row = np.full((problems, n), -1, dtype=np.int64)
    row4col = np.full((problems, n), -1, dtype=np.int64)
    first_min = cost.argmin(axis=2)
    for row in range(n):
        col = first_min[:, row]
        free = row4col[span, col] < 0
        col4row[free, row] = col[free]
        row4col[span[free], col[free]] = row
    while True:
        (active,) = np.nonzero((col4row < 0).any(axis=1))
        if active.size == 0:
            return col4row
        _augment(cost, u, v, col4row, row4col, active)


def _augment(
    cost: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    col4row: np.ndarray,
    row4col: np.ndarray,
    active: np.ndarray,
) -> None:
    """One shortest augmenting path in each ``active`` problem, from its
    lowest unassigned row; updates duals and assignment in place."""
    m, n = active.size, cost.shape[1]
    local = np.arange(m)
    start = (col4row[active] < 0).argmax(axis=1)
    path_cost = np.full((m, n), np.inf)
    path = np.zeros((m, n), dtype=np.int64)  # row preceding each column
    rows_seen = np.zeros((m, n), dtype=bool)
    cols_seen = np.zeros((m, n), dtype=bool)
    min_val = np.zeros(m)
    sink = np.zeros(m, dtype=np.int64)
    row = start.copy()
    live = local
    while live.size:
        p, r = active[live], row[live]
        rows_seen[live, r] = True
        reduced = (
            min_val[live, None] + cost[p, r] - u[p, r][:, None] - v[p]
        )
        seen = cols_seen[live]
        shorter = (reduced < path_cost[live]) & ~seen
        path_cost[live] = np.where(shorter, reduced, path_cost[live])
        path[live] = np.where(shorter, r[:, None], path[live])
        key = np.where(seen, np.inf, path_cost[live])
        lowest = key.min(axis=1)
        tied = key == lowest[:, None]
        tied_free = tied & (row4col[p] < 0)
        col = np.where(
            tied_free.any(axis=1), tied_free.argmax(axis=1), tied.argmax(axis=1)
        )
        min_val[live] = lowest
        cols_seen[live, col] = True
        owner = row4col[p, col]
        found = owner < 0
        sink[live[found]] = col[found]
        row[live[~found]] = owner[~found]
        live = live[~found]

    # Dual update keeps every reduced cost >= 0 and the assigned ones 0.
    u[active, start] += min_val
    rows_seen[local, start] = False
    assigned = np.where(rows_seen, col4row[active], 0)
    u[active] += np.where(
        rows_seen,
        min_val[:, None] - np.take_along_axis(path_cost, assigned, axis=1),
        0.0,
    )
    v[active] -= np.where(cols_seen, min_val[:, None] - path_cost, 0.0)

    # Flip the path from the sink column back to the start row.
    col = sink
    live = local
    while live.size:
        p, c = active[live], col[live]
        r = path[live, c]
        row4col[p, c] = r
        col[live] = col4row[p, r]
        col4row[p, r] = c
        live = live[r != start[live]]


def _padded_costs(dist: np.ndarray, real: np.ndarray) -> np.ndarray:
    """Assignment costs of the matching relaxation, padded to one size.

    ``dist`` is a (rows, N, N) stack of symmetric pair distances and
    ``real`` a (rows, N) mask of the real slots: an even number of them,
    ahead of the dummy slots.  Dummy slots come in (2t, 2t+1) couples
    at cost 0.  Every other entry off the real block, the diagonal and
    unreachable real pairs cost more than any assignment within the
    real block, so the optimum never uses them while the real block has
    a finite assignment.
    """
    size = dist.shape[1]
    slots = np.arange(size)
    usable = real[:, :, None] & real[:, None, :] & np.isfinite(dist)
    big = 1.0 + 2.0 * size * np.abs(np.where(usable, dist, 0.0)).max()
    cost = np.where(usable, dist, big)
    couple = ~real[:, :, None] & (slots[:, None] ^ 1 == slots[None, :])
    cost[couple] = 0.0
    cost[:, slots, slots] = big
    return cost


def _cycle_pairs(col4row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split assignments into pairs along their cycles.

    Returns ``(even, opens)``: ``even[p]`` is true when every cycle of
    problem ``p`` has even length, and ``opens[p, i]`` marks the slots
    that open a pair ``(i, col4row[p, i])`` — positions 0, 2, 4, ...
    along each cycle, counted from its lowest slot.
    """
    problems, n = col4row.shape
    slots = np.broadcast_to(np.arange(n), (problems, n))
    # Round each cycle once: the lowest slot met anchors the cycle, the
    # step that returns to the start is its length.
    anchor = slots.copy()
    length = np.zeros((problems, n), dtype=np.int64)
    node = col4row
    for step in range(1, n + 1):
        np.minimum(anchor, node, out=anchor)
        length[(length == 0) & (node == slots)] = step
        node = np.take_along_axis(col4row, node, axis=1)
    even = (length % 2 == 0).all(axis=1)
    # In an even cycle a slot sits at an even position from the anchor
    # iff it is an even number of steps short of reaching it.
    opens = slots == anchor
    node = slots
    for step in range(1, n):
        node = np.take_along_axis(col4row, node, axis=1)
        opens |= (node == anchor) & (length > step) & (step % 2 == 0)
    return even, opens


class CompiledMatchingDecoder:
    """MWPM decoder lowered to flat arrays with precomputed paths."""

    def __init__(self, dem: DetectorErrorModel):
        self.n_detectors = dem.n_detectors
        self.n_observables = dem.n_observables
        graph = build_decoding_graph(dem)

        # -- CSR lowering: detectors 0..n-1, boundary -> index n --------
        n_nodes = self.n_detectors + 1
        self._boundary = self.n_detectors
        index_of = {BOUNDARY: self._boundary}
        for d in range(self.n_detectors):
            index_of[d] = d
        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        indices: list[int] = []
        weights: list[float] = []
        edge_masks: list[np.ndarray] = []
        for node in list(range(self.n_detectors)) + [BOUNDARY]:
            # Adjacency iteration order == edge insertion order; the
            # reference's Dijkstra visits neighbors in exactly this
            # order, which is what makes tie-broken paths line up.
            for neighbor, data in graph.adj[node].items():
                indices.append(index_of[neighbor])
                weights.append(data["weight"])
                edge_masks.append(data["mask"])
            indptr[index_of[node] + 1] = len(indices)
        self._indptr = indptr
        self._indices = np.array(indices, dtype=np.int64)
        self._weights = np.array(weights, dtype=np.float64)
        if edge_masks:
            csr_masks = np.stack(edge_masks).astype(np.uint8)
        else:
            csr_masks = np.zeros((0, self.n_observables), dtype=np.uint8)

        # -- all-pairs Dijkstra at compile time -------------------------
        self._dist = np.full((n_nodes, n_nodes), np.inf, dtype=np.float64)
        self._mask = np.zeros(
            (n_nodes, n_nodes, self.n_observables), dtype=np.uint8
        )
        for source in range(n_nodes):
            dist, pred, pred_edge, order = self._dijkstra(source)
            self._dist[source] = dist
            row = self._mask[source]
            for v in order[1:]:
                row[v] = row[pred[v]] ^ csr_masks[pred_edge[v]]

    # -- decoding -----------------------------------------------------------

    def decode(self, syndrome: np.ndarray) -> np.ndarray:
        """Predict the observable flips for one detector sample."""
        syndrome = np.asarray(syndrome, dtype=np.uint8).reshape(1, -1)
        return self.decode_batch(syndrome)[0]

    def decode_batch(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode many detector samples: shape (shots, n_detectors)."""
        syndromes = checked_syndromes(syndromes, self.n_detectors)
        if syndromes.shape[0] == 0:
            return np.zeros((0, self.n_observables), dtype=np.uint8)
        unique, inverse = dedupe_rows(syndromes)
        rows, flat = np.nonzero(unique)
        counts = np.bincount(rows, minlength=unique.shape[0])
        decoded = self._decode_unique(counts, flat)
        return decoded[inverse]

    def decode_batch_packed(self, syndromes: np.ndarray) -> np.ndarray:
        """Decode packed syndromes; returns packed predictions.

        Input and output use the packed wire format: shot-major uint64
        rows — ``(shots, words_for(n_detectors))`` in,
        ``(shots, words_for(n_observables))`` out — little-endian bit
        order, padding bits zero.  All-zero rows (the bulk at low
        physical error rates) short-circuit before dedupe, the surviving
        rows dedupe through a contiguous void view, and defect indices
        come straight from the nonzero words.  The unique rows then run
        the same decode core as :meth:`decode_batch`, so predictions are
        bitwise identical to packing that method's output.
        """
        syndromes = checked_packed_syndromes(syndromes, self.n_detectors)
        out = np.zeros(
            (syndromes.shape[0], bitops.words_for(self.n_observables)),
            dtype=np.uint64,
        )
        nonzero = bitops.nonzero_rows_packed(syndromes)
        if nonzero.size == 0:
            if obs.is_metrics():
                _count_decode_rows(syndromes.shape[0], 0, 0)
            return out
        unique, inverse = bitops.dedupe_rows_packed(syndromes[nonzero])
        if obs.is_metrics():
            _count_decode_rows(
                syndromes.shape[0], int(nonzero.size), int(unique.shape[0])
            )
        rows, flat = bitops.nonzero_bits(unique)
        counts = np.bincount(rows, minlength=unique.shape[0])
        decoded = self._decode_unique(counts, flat)
        out[nonzero] = bitops.pack_rows(decoded)[inverse]
        return out

    def _decode_unique(
        self, counts: np.ndarray, flat: np.ndarray
    ) -> np.ndarray:
        """Decode deduplicated syndromes given per-row defect counts and
        the flat (row-major, ascending) defect index stream.

        The shared core of the packed and unpacked batch paths: both
        reduce their unique rows to this CSR-style view, so their
        predictions agree bit for bit by construction.
        """
        offsets = np.zeros(counts.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        decoded = np.zeros((counts.size, self.n_observables), np.uint8)

        # One defect matches to the boundary, two defects to each other:
        # both are a single precomputed pair — pure array gathers.
        (one,) = np.nonzero(counts == 1)
        if one.size:
            defect = flat[offsets[one]]
            finite = np.isfinite(self._dist[defect, self._boundary])
            decoded[one[finite]] = self._mask[
                defect[finite], self._boundary
            ]
        (two,) = np.nonzero(counts == 2)
        if two.size:
            pairs = flat[offsets[two][:, None] + np.arange(2)]
            finite = np.isfinite(self._dist[pairs[:, 0], pairs[:, 1]])
            decoded[two[finite]] = self._mask[
                pairs[finite, 0], pairs[finite, 1]
            ]

        # Many defects: the assignment relaxation settles most rows in
        # one batched solve; the rest take enumeration or blossom.
        pending = counts.copy()
        (many,) = np.nonzero(counts >= _RELAX_MIN_DEFECTS)
        relaxed = self._relax_rows(many, counts, offsets, flat, decoded)
        pending[relaxed] = 0

        # Three to twelve nodes: enumerate perfect pairings per
        # defect-count group, vectorized over all rows of the group.
        blossom = [np.nonzero(pending > _MAX_ENUM_NODES)[0]]
        for padded in range(4, _MAX_ENUM_NODES + 2, 2):
            blossom.append(
                self._enumerate_group(pending, offsets, flat, padded, decoded)
            )
        blossom = np.concatenate(blossom)
        for row in blossom:
            decoded[row] = self._match(
                flat[offsets[row]: offsets[row] + counts[row]]
            )
        if obs.is_metrics():
            gather, relax = one.size + two.size, relaxed.size
            _count_decode_paths(
                gather=gather,
                relax=relax,
                enumerate=int(np.count_nonzero(counts))
                - gather - relax - blossom.size,
                blossom=blossom.size,
            )
        return decoded

    def _node_rows(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        offsets: np.ndarray,
        flat: np.ndarray,
        size: int,
    ) -> np.ndarray:
        """Matching nodes of ``rows`` as a (rows, size) index matrix:
        the defects in ascending order, then the boundary when the
        count is odd, then -1 in every slot left over."""
        slots = np.arange(size)
        k = counts[rows][:, None]
        index = np.minimum(offsets[rows][:, None] + slots, flat.size - 1)
        nodes = np.where(slots < k, flat[index], -1)
        nodes[(slots == k) & (k % 2 == 1)] = self._boundary
        return nodes

    def _relax_rows(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        offsets: np.ndarray,
        flat: np.ndarray,
        decoded: np.ndarray,
    ) -> np.ndarray:
        """Decode the ``rows`` the assignment relaxation settles and
        return them; the others are left for enumeration or blossom."""
        # Largest rows first, so each slab pads to its first row's size
        # and the slab holds at most _RELAX_SLAB_ELEMENTS costs.
        rows = rows[np.argsort(-counts[rows], kind="stable")]
        settled = [rows[:0]]
        start = 0
        while start < rows.size:
            size = int(counts[rows[start]] + 1) // 2 * 2
            part = rows[start:start + max(
                1, _RELAX_SLAB_ELEMENTS // (size * size)
            )]
            start += part.size
            ok, lo, hi = self._relax(
                self._node_rows(part, counts, offsets, flat, size)
            )
            decoded[part[ok]] = np.bitwise_xor.reduce(
                self._mask[lo[ok], hi[ok]], axis=1
            )
            settled.append(part[ok])
        return np.concatenate(settled)

    def _relax(
        self, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Minimum-weight perfect matchings via the assignment relaxation.

        ``nodes`` is a (rows, N) matrix from :meth:`_node_rows` with N
        even.  Returns ``(settled, lo, hi)``: ``settled[r]`` is true when
        row ``r``'s optimal assignment has only even cycles and all its
        pairs are reachable, and for those rows ``(lo, hi)`` lists the
        matched node pairs, smaller index first.  Slots that open no
        real pair hold ``(boundary, boundary)``, whose distance and mask
        are both zero.
        """
        slots = np.arange(nodes.shape[1])
        real = nodes >= 0
        safe = np.where(real, nodes, self._boundary)
        dist = self._dist[safe[:, :, None], safe[:, None, :]]
        # Every pair reads dist[lo, hi], as enumeration and blossom do.
        upper = slots[:, None] < slots[None, :]
        dist = np.where(upper, dist, dist.swapaxes(1, 2))
        pair = real[:, :, None] & real[:, None, :]
        reachable = (np.isfinite(dist) | ~pair).all(axis=(1, 2))

        col4row = _solve_assignment(_padded_costs(dist, real))
        even, opens = _cycle_pairs(col4row)
        settled = reachable & even
        opens &= real & settled[:, None]
        mate = np.take_along_axis(safe, col4row, axis=1)
        lo = np.where(opens, np.minimum(safe, mate), self._boundary)
        hi = np.where(opens, np.maximum(safe, mate), self._boundary)
        return settled, lo, hi

    def _enumerate_group(
        self,
        counts: np.ndarray,
        offsets: np.ndarray,
        flat: np.ndarray,
        padded: int,
        decoded: np.ndarray,
    ) -> np.ndarray:
        """Decode every row whose defect set pads to ``padded`` nodes;
        returns the rows left for blossom."""
        (rows,) = np.nonzero((counts == padded - 1) | (counts == padded))
        if not rows.size:
            return rows
        nodes = self._node_rows(rows, counts, offsets, flat, padded)

        pairings = _pairings(padded)
        # Slab the group so the (rows, pairings, pairs-per-pairing)
        # gather stays memory-bounded; rows are independent, so
        # slabbing cannot change any prediction.
        slab = max(
            1,
            _ENUM_SLAB_ELEMENTS // (pairings.shape[0] * pairings.shape[1]),
        )
        return np.concatenate([
            self._enumerate_slab(
                rows[start:start + slab],
                nodes[start:start + slab],
                pairings,
                decoded,
            )
            for start in range(0, rows.size, slab)
        ])

    def _enumerate_slab(
        self,
        rows: np.ndarray,
        nodes: np.ndarray,
        pairings: np.ndarray,
        decoded: np.ndarray,
    ) -> np.ndarray:
        """Vectorized minimum-weight pairing for one slab of rows;
        returns the rows left for blossom."""
        dist = self._dist[nodes[:, :, None], nodes[:, None, :]]
        totals = dist[:, pairings[:, :, 0], pairings[:, :, 1]].sum(axis=2)
        span = np.arange(rows.size)
        best_index = totals.argmin(axis=1)
        best = totals[span, best_index]
        near = totals <= best[:, None] + _TIE_TOL

        chosen = pairings[best_index]
        a = np.take_along_axis(nodes, chosen[:, :, 0], axis=1)
        b = np.take_along_axis(nodes, chosen[:, :, 1], axis=1)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        predictions = np.bitwise_xor.reduce(self._mask[lo, hi], axis=1)

        finite = np.isfinite(best)
        unsafe = ~finite | (near.sum(axis=1) > 1)
        decoded[rows[~unsafe]] = predictions[~unsafe]
        blossom = []
        for r in np.nonzero(unsafe & finite)[0]:
            prediction = self._tie_prediction(nodes[r], pairings, near[r])
            if prediction is None:
                blossom.append(rows[r])
            else:
                decoded[rows[r]] = prediction
        return np.concatenate(
            [rows[unsafe & ~finite], np.array(blossom, dtype=np.int64)]
        )

    def _tie_prediction(
        self,
        node_row: np.ndarray,
        pairings: np.ndarray,
        near_row: np.ndarray,
    ) -> np.ndarray | None:
        """A row with a weight tie: the shared prediction when every
        near-optimal pairing predicts the same correction, else ``None``
        — the row then takes the same blossom call the reference
        decoder makes, so tie-breaking agrees bitwise.  (Rows with
        unreachable pairs go to blossom directly, where
        maximum-cardinality semantics kick in.)"""
        tied = pairings[np.nonzero(near_row)[0]]
        a = node_row[tied[:, :, 0]]
        b = node_row[tied[:, :, 1]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        predictions = np.bitwise_xor.reduce(self._mask[lo, hi], axis=1)
        if np.any(predictions != predictions[0]):
            return None
        return predictions[0]

    # -- internals -------------------------------------------------------------

    def _match(self, defects: np.ndarray) -> np.ndarray:
        """Blossom-match >= 3 defects over precomputed pair distances."""
        nodes = [int(d) for d in defects]
        labels: list = list(nodes)
        idx = list(nodes)
        if len(nodes) % 2 == 1:
            labels.append(BOUNDARY)
            idx.append(self._boundary)
        sub = self._dist[np.ix_(idx, idx)]

        complete = nx.Graph()
        for i in range(len(idx)):
            for j in range(i + 1, len(idx)):
                if np.isfinite(sub[i, j]):
                    complete.add_edge(labels[i], labels[j], weight=-sub[i, j])
        matching = nx.max_weight_matching(complete, maxcardinality=True)

        prediction = np.zeros(self.n_observables, dtype=np.uint8)
        for u, v in matching:
            a = self._boundary if u == BOUNDARY else u
            b = self._boundary if v == BOUNDARY else v
            # The reference XORs the path found from the pair's earlier
            # node in defect order (the smaller index; boundary last) —
            # read the mask from the same direction.
            if a > b:
                a, b = b, a
            prediction ^= self._mask[a, b]
        return prediction

    def _dijkstra(self, source: int):
        """NetworkX-identical Dijkstra over the CSR arrays.

        Returns (distances, predecessor node, predecessor CSR edge slot,
        finalization order).  Ties on the heap resolve by insertion
        order and relaxation is strictly-improving only, matching
        ``nx.single_source_dijkstra`` so path choices (and therefore
        observable masks) agree with the reference decoder even between
        equal-weight paths.
        """
        n_nodes = self._indptr.size - 1
        dist = np.full(n_nodes, np.inf, dtype=np.float64)
        pred = np.full(n_nodes, -1, dtype=np.int64)
        pred_edge = np.full(n_nodes, -1, dtype=np.int64)
        final = np.zeros(n_nodes, dtype=bool)
        order: list[int] = []
        seen: dict[int, float] = {source: 0.0}
        tiebreak = count()
        fringe: list[tuple[float, int, int]] = [(0.0, next(tiebreak), source)]
        while fringe:
            d, _, v = heappop(fringe)
            if final[v]:
                continue
            final[v] = True
            dist[v] = d
            order.append(v)
            for slot in range(self._indptr[v], self._indptr[v + 1]):
                u = int(self._indices[slot])
                vu = d + self._weights[slot]
                if not final[u] and (u not in seen or vu < seen[u]):
                    seen[u] = vu
                    heappush(fringe, (vu, next(tiebreak), u))
                    pred[u] = v
                    pred_edge[u] = slot
        return dist, pred, pred_edge, order
