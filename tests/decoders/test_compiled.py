"""CompiledMatchingDecoder: the matching contract with the reference.

The compiled decoder's contract is "same minimum matching weight, much
faster": every prediction comes from a matching of the weight
:class:`MatchingDecoder`'s blossom finds, and predictions are identical
wherever the minimum-weight matching is unique.  That needs all-pairs
Dijkstra at compile time to reproduce the reference's per-shot
path-finding exactly, including tie-breaking between equal-weight paths
(middle-of-the-code defects genuinely tie), and the batched assignment
relaxation to be exact on every row it settles.
"""

import itertools

import networkx as nx
import numpy as np
import pytest

import repro.obs as obs
from repro.decoders import CompiledMatchingDecoder, MatchingDecoder
from repro.decoders.compiled import (
    _RELAX_MIN_DEFECTS,
    _cycle_pairs,
    _padded_costs,
    _solve_assignment,
)
from repro.dem import DetectorErrorModel, ErrorMechanism
from repro.gf2 import bitops
from repro.qec import repetition_code_dem, surface_code_dem

#: (distance, rounds, probability) of the surface-code DEMs compared
#: shot by shot; d=5 r=5 p=0.004 puts ~5% of its shots above
#: ``_RELAX_MIN_DEFECTS`` defects, so it exercises the relaxation.
SURFACE_DEMS = [(3, 2, 0.004), (5, 2, 0.004), (7, 2, 0.004), (5, 5, 0.004)]


@pytest.fixture(scope="module")
def surface_dems():
    return {key: surface_code_dem(*key) for key in SURFACE_DEMS}


def _path_rows() -> dict[str, float]:
    return {
        entry["labels"]["path"]: entry["value"]
        for entry in obs.registry().snapshot()
        if entry["name"] == "repro_decode_path_rows_total"
    }


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("key", SURFACE_DEMS, ids=["3", "5", "7", "5-r5"])
    def test_surface_code_predictions_identical(self, surface_dems, key):
        dem = surface_dems[key]
        reference = MatchingDecoder(dem)
        compiled = CompiledMatchingDecoder(dem)
        shots = 512 if key[0] < 7 else 192
        syndromes, _ = dem.sample(shots, np.random.default_rng(key[0]))
        obs.enable(tracing=False, metrics=True)
        assert np.array_equal(
            compiled.decode_batch(syndromes),
            reference.decode_batch(syndromes),
        )
        if key[1] == 5:
            assert _path_rows()["relax"] >= 1

    def test_repetition_code_predictions_identical(self):
        dem = repetition_code_dem(5, rounds=4, probability=0.08)
        reference = MatchingDecoder(dem)
        compiled = CompiledMatchingDecoder(dem)
        syndromes, _ = dem.sample(2000, np.random.default_rng(0))
        assert np.array_equal(
            compiled.decode_batch(syndromes),
            reference.decode_batch(syndromes),
        )

    def test_every_defect_parity_path(self, surface_dems):
        """Zero, single (odd -> boundary), pair, and many-defect
        syndromes all agree shot by shot."""
        dem = surface_dems[3, 2, 0.004]
        reference = MatchingDecoder(dem)
        compiled = CompiledMatchingDecoder(dem)
        rows = [np.zeros(dem.n_detectors, dtype=np.uint8)]
        for k in (1, 2, 3, 4, 5, 7):
            row = np.zeros(dem.n_detectors, dtype=np.uint8)
            row[np.random.default_rng(k).choice(
                dem.n_detectors, size=k, replace=False
            )] = 1
            rows.append(row)
        for row in rows:
            assert np.array_equal(
                compiled.decode(row), reference.decode(row)
            ), f"defect count {int(row.sum())}"

    def test_path_counts_sum_to_nonzero_unique_rows(self, surface_dems):
        """Also: packed and unpacked entries agree on relaxation rows,
        whose unique rows the two dedupes hand over in different orders."""
        dem = surface_dems[5, 5, 0.004]
        compiled = CompiledMatchingDecoder(dem)
        syndromes, _ = dem.sample(512, np.random.default_rng(1))
        unpacked = compiled.decode_batch(syndromes)
        obs.enable(tracing=False, metrics=True)
        packed = compiled.decode_batch_packed(bitops.pack_rows(syndromes))
        assert np.array_equal(packed, bitops.pack_rows(unpacked))
        paths = _path_rows()
        assert set(paths) == {"gather", "relax", "enumerate", "blossom"}
        unique = sum(
            entry["value"]
            for entry in obs.registry().snapshot()
            if entry["name"] == "repro_decode_unique_rows_total"
        )
        assert sum(paths.values()) == unique > 0
        assert paths["relax"] >= 1


def _brute_force_assignment(cost: np.ndarray) -> float:
    n = cost.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    return float(cost[np.arange(n), perms].sum(axis=1).min())


def _symmetric_costs(rng, problems: int, n: int, integer: bool):
    if integer:
        # Small integers: plenty of exactly tied assignments.
        cost = rng.integers(0, 3, size=(problems, n, n)).astype(float)
    else:
        cost = rng.random((problems, n, n))
    return cost + cost.swapaxes(1, 2)


def _assignment_cost(cost: np.ndarray, col4row: np.ndarray) -> np.ndarray:
    return np.take_along_axis(cost, col4row[:, :, None], axis=2)[..., 0].sum(1)


class TestAssignmentRelaxation:
    @pytest.mark.parametrize("integer", [False, True])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_batched_assignment_is_optimal(self, n, integer):
        rng = np.random.default_rng(n + 10 * integer)
        cost = _symmetric_costs(rng, 6, n, integer)
        col4row = _solve_assignment(cost)
        assert (np.sort(col4row, axis=1) == np.arange(n)).all()
        got = _assignment_cost(cost, col4row)
        for problem, total in zip(cost, got):
            assert total == pytest.approx(
                _brute_force_assignment(problem), abs=1e-9
            )

    @pytest.mark.parametrize("integer", [False, True])
    def test_padded_mixed_batch_is_optimal(self, integer):
        """Real blocks of 2-8 slots padded to 8 with dummy couples: each
        problem's optimum is its real block's matching relaxation."""
        rng = np.random.default_rng(7 + integer)
        size, sizes = 8, [2, 4, 6, 8, 2, 6, 4, 8]
        dist = _symmetric_costs(rng, len(sizes), size, integer)
        real = np.arange(size) < np.array(sizes)[:, None]
        cost = _padded_costs(dist, real)
        col4row = _solve_assignment(cost)
        got = _assignment_cost(cost, col4row)
        for problem, n, total in zip(dist, sizes, got):
            block = problem[:n, :n].copy()
            np.fill_diagonal(block, np.inf)
            assert total == pytest.approx(
                _brute_force_assignment(block), abs=1e-9
            )
        # Dummies only ever pair with their couple.
        couples = np.broadcast_to(np.arange(size) ^ 1, col4row.shape)
        assert (col4row[~real] == couples[~real]).all()

    def test_odd_cycles_are_rejected(self):
        # Two far-apart triangles: the optimal assignment runs round each
        # triangle (cost 6) where any perfect matching needs a long edge.
        near = np.ones((3, 3))
        cost = np.block([[near, 10 * near], [10 * near, near]])
        np.fill_diagonal(cost, 100.0)
        col4row = _solve_assignment(cost[None])
        even, _ = _cycle_pairs(col4row)
        assert not even[0]

    def test_cycles_split_from_lowest_slot(self):
        # Slots 0->3->1->2->0 form a 4-cycle, 4<->5 a 2-cycle.
        even, opens = _cycle_pairs(np.array([[3, 2, 0, 1, 5, 4]]))
        assert even[0]
        assert opens[0].tolist() == [True, True, False, False, True, False]

    def test_settled_rows_match_blossom_weight(self, surface_dems):
        dem = surface_dems[5, 5, 0.004]
        compiled = CompiledMatchingDecoder(dem)
        syndromes, _ = dem.sample(2048, np.random.default_rng(3))
        counts = syndromes.sum(axis=1)
        many = syndromes[counts >= _RELAX_MIN_DEFECTS]
        rows, flat = np.nonzero(many)
        counts = np.bincount(rows, minlength=many.shape[0])
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]])
        size = int(counts.max() + 1) // 2 * 2
        nodes = compiled._node_rows(
            np.arange(many.shape[0]), counts, offsets, flat, size
        )
        settled, lo, hi = compiled._relax(nodes)
        assert settled.sum() >= 10
        weights = compiled._dist[lo, hi].sum(axis=1)
        for row in np.nonzero(settled)[0]:
            real = nodes[row][nodes[row] >= 0]
            graph = nx.Graph()
            for a, b in itertools.combinations(real, 2):
                graph.add_edge(a, b, weight=-compiled._dist[a, b])
            matching = nx.max_weight_matching(graph, maxcardinality=True)
            blossom = sum(compiled._dist[min(e), max(e)] for e in matching)
            assert weights[row] == pytest.approx(blossom, abs=1e-9)


class TestEdgeCases:
    def test_zero_shots(self, surface_dems):
        dem = surface_dems[3, 2, 0.004]
        for decoder in (MatchingDecoder(dem), CompiledMatchingDecoder(dem)):
            empty = np.zeros((0, dem.n_detectors), dtype=np.uint8)
            out = decoder.decode_batch(empty)
            assert out.shape == (0, dem.n_observables)
            assert out.dtype == np.uint8

    def test_zero_defect_batch(self, surface_dems):
        dem = surface_dems[3, 2, 0.004]
        decoder = CompiledMatchingDecoder(dem)
        out = decoder.decode_batch(
            np.zeros((5, dem.n_detectors), dtype=np.uint8)
        )
        assert out.shape == (5, dem.n_observables)
        assert not out.any()

    def test_unreachable_defect_decodes_to_zeros(self):
        # Two disconnected chains, no boundary edges: a defect pair split
        # across components cannot be matched.
        dem = DetectorErrorModel(n_detectors=16, n_observables=1)
        for a in range(15):
            if a != 7:
                flips = (0,) if a == 0 else ()
                dem.add_group([ErrorMechanism(0.1, (a, a + 1), flips)])
        reference = MatchingDecoder(dem)
        compiled = CompiledMatchingDecoder(dem)

        def row(*defects):
            out = np.zeros(16, dtype=np.uint8)
            out[list(defects)] = 1
            return out

        syndromes = np.array(
            [
                row(0, 8),  # unmatched pair across components
                row(0, 1),  # matched within the first component
                row(0),  # odd, boundary unreachable
                row(0, 1, 8),  # odd with one cross-component defect
                # >= _RELAX_MIN_DEFECTS defects with odd components: the
                # relaxation must hand them to blossom, not decode them.
                row(*range(5), *range(8, 15)),
                row(*range(6), *range(8, 13)),
                row(*range(7), *range(8, 15)),
            ]
        )
        assert np.array_equal(
            compiled.decode_batch(syndromes),
            reference.decode_batch(syndromes),
        )

    def test_single_detector_dem(self):
        dem = DetectorErrorModel(n_detectors=1, n_observables=1)
        dem.add_group([ErrorMechanism(0.2, (0,), (0,))])
        compiled = CompiledMatchingDecoder(dem)
        assert compiled.decode(np.array([1], dtype=np.uint8)).tolist() == [1]
        assert compiled.decode(np.array([0], dtype=np.uint8)).tolist() == [0]


class TestParallelEdgeProbabilities:
    def test_equal_mask_parallel_edges_xor_convolve(self):
        # Two independent mechanisms on the same detector pair with the
        # same observable signature: the edge must carry
        # p1(1-p2) + p2(1-p1), i.e. be *more* likely than either alone.
        dem_two = DetectorErrorModel(n_detectors=2, n_observables=0)
        dem_two.add_group([ErrorMechanism(0.1, (0, 1), ())])
        dem_two.add_group([ErrorMechanism(0.2, (0, 1), ())])
        graph = MatchingDecoder(dem_two).graph
        assert graph[0][1]["probability"] == pytest.approx(
            0.1 * 0.8 + 0.2 * 0.9
        )

    def test_differing_mask_keeps_lighter_edge(self):
        dem = DetectorErrorModel(n_detectors=2, n_observables=1)
        dem.add_group([ErrorMechanism(0.05, (0, 1), (0,))])
        dem.add_group([ErrorMechanism(0.2, (0, 1), ())])
        graph = MatchingDecoder(dem).graph
        assert graph[0][1]["probability"] == pytest.approx(0.2)
        assert graph[0][1]["mask"].tolist() == [0]

    def test_convolved_edge_changes_decoding(self):
        # Without the parallel-edge fix the direct (D0, D1) edge keeps
        # only p=0.12 (weight 1.99) and loses to the two boundary edges
        # (combined weight 1.93); with XOR convolution it carries
        # p~0.216 and wins, flipping the prediction.
        dem = DetectorErrorModel(n_detectors=2, n_observables=1)
        dem.add_group([ErrorMechanism(0.12, (0, 1), ())])
        dem.add_group([ErrorMechanism(0.12, (0, 1), ())])
        dem.add_group([ErrorMechanism(0.275, (0,), (0,))])
        dem.add_group([ErrorMechanism(0.275, (1,), ())])
        for decoder in (MatchingDecoder(dem), CompiledMatchingDecoder(dem)):
            assert decoder.decode(np.array([1, 1])).tolist() == [0]
