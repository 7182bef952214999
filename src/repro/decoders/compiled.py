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
* decoding a batch then dedupes identical syndromes, resolves the
  one- and two-defect syndromes (the bulk at QEC-relevant error rates)
  with pure array gathers, and matches small defect sets (up to 10
  nodes — virtually every remaining shot) by enumerating all perfect
  pairings at once: one ``(rows, pairings)`` total-weight tensor per
  defect-count group, built from vectorized distance lookups.  Blossom
  matching over the NetworkX graph survives only as the fallback for
  very large defect sets, unreachable pairs, and weight ties.

Both batch entry points — unpacked ``decode_batch`` and the packed-wire
``decode_batch_packed`` — reduce their unique rows to one CSR-style
defect view and share a single decode core, so the packed path (zero-row
short-circuit, void-view dedupe, defect extraction straight from the
uint64 words) predicts bit-for-bit what the unpacked path predicts.

Predictions are bitwise identical to :class:`MatchingDecoder`: the CSR
Dijkstra mirrors NetworkX's traversal exactly (same strictly-improving
relaxation, insertion-order tie-breaking on equal distances, adjacency
iteration in edge-insertion order); the enumerated matching is used
only where its optimum is unique (or every near-optimal pairing
predicts the same correction), and everything else goes through the
same ``nx.max_weight_matching`` call the reference makes.
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

        # Three or more defects: enumerate perfect pairings per
        # defect-count group, vectorized over all rows of the group.
        for padded in range(4, _MAX_ENUM_NODES + 2, 2):
            self._enumerate_group(counts, offsets, flat, padded, decoded)
        for row in np.nonzero(counts > _MAX_ENUM_NODES)[0]:
            decoded[row] = self._match(
                flat[offsets[row]: offsets[row] + counts[row]]
            )
        return decoded

    def _enumerate_group(
        self,
        counts: np.ndarray,
        offsets: np.ndarray,
        flat: np.ndarray,
        padded: int,
        decoded: np.ndarray,
    ) -> None:
        """Decode every row whose defect set pads to ``padded`` nodes."""
        groups = []
        (odd,) = np.nonzero(counts == padded - 1)
        if odd.size:
            defects = flat[offsets[odd][:, None] + np.arange(padded - 1)]
            boundary = np.full((odd.size, 1), self._boundary, np.int64)
            groups.append((odd, np.hstack([defects, boundary])))
        (even,) = np.nonzero(counts == padded)
        if even.size:
            groups.append(
                (even, flat[offsets[even][:, None] + np.arange(padded)])
            )
        if not groups:
            return
        rows = np.concatenate([g[0] for g in groups])
        nodes = np.concatenate([g[1] for g in groups])

        pairings = _pairings(padded)
        # Slab the group so the (rows, pairings, pairs-per-pairing)
        # gather stays memory-bounded; rows are independent, so
        # slabbing cannot change any prediction.
        slab = max(
            1,
            _ENUM_SLAB_ELEMENTS // (pairings.shape[0] * pairings.shape[1]),
        )
        for start in range(0, rows.size, slab):
            self._enumerate_slab(
                rows[start:start + slab],
                nodes[start:start + slab],
                pairings,
                decoded,
            )

    def _enumerate_slab(
        self,
        rows: np.ndarray,
        nodes: np.ndarray,
        pairings: np.ndarray,
        decoded: np.ndarray,
    ) -> None:
        """Vectorized minimum-weight pairing for one slab of rows."""
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
        for r in np.nonzero(unsafe)[0]:
            decoded[rows[r]] = self._resolve_tied(
                nodes[r], pairings, near[r], finite[r]
            )

    def _resolve_tied(
        self,
        node_row: np.ndarray,
        pairings: np.ndarray,
        near_row: np.ndarray,
        finite: bool,
    ) -> np.ndarray:
        """A row with unreachable pairs or a weight tie.

        If every near-optimal pairing predicts the same correction the
        tie is harmless; otherwise (and for unreachable pairs, where
        maximum-cardinality semantics kick in) defer to the same blossom
        call the reference decoder makes, so tie-breaking agrees
        bitwise.
        """
        defects = node_row[node_row != self._boundary]
        if finite:
            tied = pairings[np.nonzero(near_row)[0]]
            a = node_row[tied[:, :, 0]]
            b = node_row[tied[:, :, 1]]
            lo, hi = np.minimum(a, b), np.maximum(a, b)
            predictions = np.bitwise_xor.reduce(self._mask[lo, hi], axis=1)
            if not np.any(predictions != predictions[0]):
                return predictions[0]
        return self._match(defects)

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
