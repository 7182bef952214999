"""SamplerCache LRU semantics, build-on-miss accounting, and the one
set of artifact builders the engine and interactive handles share."""

import pytest

from repro.engine import SamplerCache, Task, plan_chunks, run_chunk
from repro.engine.cache import (
    cached_decoder,
    cached_dem,
    reset_shared_cache,
    shared_cache,
)
from repro.qec import repetition_code_memory


class TestSamplerCache:
    def test_miss_builds_then_hit_reuses(self):
        cache = SamplerCache(capacity=4)
        builds = []

        def build():
            builds.append(1)
            return object()

        first = cache.get_or_build("k", build)
        second = cache.get_or_build("k", build)
        assert first is second
        assert len(builds) == 1
        assert cache.stats() == {"hits": 1, "misses": 1, "entries": 1}

    def test_lru_evicts_least_recently_used(self):
        cache = SamplerCache(capacity=2)
        cache.get_or_build("a", lambda: "A")
        cache.get_or_build("b", lambda: "B")
        cache.get_or_build("a", lambda: "A")  # refresh a; b is now LRU
        cache.get_or_build("c", lambda: "C")  # evicts b
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert len(cache) == 2

    def test_evicted_entry_rebuilds(self):
        cache = SamplerCache(capacity=1)
        cache.get_or_build("a", lambda: "first")
        cache.get_or_build("b", lambda: "B")
        assert cache.get_or_build("a", lambda: "rebuilt") == "rebuilt"

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            SamplerCache(capacity=0)

    def test_clear_resets_counters(self):
        cache = SamplerCache()
        cache.get_or_build("a", lambda: 1)
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}


class TestSharedCache:
    def test_process_global_singleton(self):
        reset_shared_cache()
        try:
            assert shared_cache() is shared_cache()
        finally:
            reset_shared_cache()

    def test_reset_drops_instance(self):
        first = shared_cache()
        reset_shared_cache()
        try:
            assert shared_cache() is not first
        finally:
            reset_shared_cache()


class TestArtifactBuilders:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        reset_shared_cache()
        yield
        reset_shared_cache()

    def test_decoders_share_one_dem(self):
        circuit = repetition_code_memory(
            3, rounds=2, data_flip_probability=0.05,
            measure_flip_probability=0.05,
        )
        fingerprint = circuit.fingerprint()
        cached_decoder(fingerprint, circuit, "compiled-matching")
        cached_decoder(fingerprint, circuit, "lookup")
        dem = cached_dem(fingerprint, circuit)
        assert cached_dem(fingerprint, circuit) is dem
        assert shared_cache().stats() == {
            "hits": 3, "misses": 3, "entries": 3
        }

    def test_chunk_reuses_what_a_compiled_handle_built(self):
        circuit = repetition_code_memory(
            3, rounds=2, data_flip_probability=0.05,
            measure_flip_probability=0.05,
        )
        compiled = circuit.compile(sampler="frame")
        sampler, decoder = compiled.sampler, compiled.decoder
        cache = shared_cache()
        misses = cache.misses
        task = Task(circuit, decoder="compiled-matching", sampler="frame",
                    max_shots=100)
        run_chunk(plan_chunks(task, 3, 100)[0])
        # Only the parsed circuit is new: the handle never caches its
        # own circuit object, while sampler and decoder are hits.
        assert cache.misses == misses + 1
        key = ("sampler", compiled.fingerprint, "frame")
        assert cache.get_or_build(key, object) is sampler
        key = ("decoder", compiled.fingerprint, "compiled-matching")
        assert cache.get_or_build(key, object) is decoder
