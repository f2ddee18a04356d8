"""Decode caching, offline materialization, and the bottleneck-shift
extension experiment (Takeaway 2 performed, not just observed)."""

import numpy as np
import pytest

from repro.data.cache import CachingLoader, DecodedArrayDataset, materialize_decoded
from repro.data.dataset import BlobImageDataset
from repro.errors import DataLoaderError
from repro.experiments.ext_bottleneck_shift import (
    format_bottleneck_shift,
    run_bottleneck_shift,
)
from repro.imaging.image import Image


class TestCachingLoader:
    def test_hit_after_miss(self, sjpg_blob):
        cache = CachingLoader()
        first = cache(sjpg_blob)
        second = cache(sjpg_blob)
        assert first is second
        assert cache.misses == 1 and cache.hits == 1
        assert cache.hit_rate == 0.5

    def test_distinct_sources_distinct_entries(self, small_blobs):
        cache = CachingLoader()
        a = cache(small_blobs[0])
        b = cache(small_blobs[1])
        assert a is not b
        assert cache.misses == 2

    def test_lru_eviction(self, small_blobs):
        cache = CachingLoader(capacity=2)
        cache(small_blobs[0])
        cache(small_blobs[1])
        cache(small_blobs[2])  # evicts blob 0
        cache(small_blobs[0])  # miss again
        assert cache.misses == 4

    def test_lru_recency(self, small_blobs):
        cache = CachingLoader(capacity=2)
        cache(small_blobs[0])
        cache(small_blobs[1])
        cache(small_blobs[0])  # refresh 0
        cache(small_blobs[2])  # evicts 1
        cache(small_blobs[0])  # still cached
        assert cache.hits == 2

    def test_clear(self, sjpg_blob):
        cache = CachingLoader()
        cache(sjpg_blob)
        cache.clear()
        cache(sjpg_blob)
        assert cache.misses == 1 and cache.hits == 0

    def test_invalid_capacity(self):
        with pytest.raises(DataLoaderError):
            CachingLoader(capacity=0)

    def test_keys_are_content_addressed(self, small_blobs):
        """Regression: ``hash(source)`` keys can collide (and str hashes
        are randomized per process), silently serving the wrong decoded
        image. Blob keys must derive from the content digest, and equal
        content must hit regardless of object identity."""
        key_a = CachingLoader.cache_key(small_blobs[0])
        key_b = CachingLoader.cache_key(small_blobs[1])
        assert key_a != key_b
        assert key_a[0] == "blob" and isinstance(key_a[1], bytes)
        # A copy with different identity but equal bytes is the same entry.
        assert CachingLoader.cache_key(bytes(bytearray(small_blobs[0]))) == key_a
        cache = CachingLoader()
        decoded = {}
        for blob in small_blobs[:2]:
            decoded[CachingLoader.cache_key(blob)] = cache(blob)
        for blob in small_blobs[:2]:  # hits must return the matching image
            assert cache(blob) is decoded[CachingLoader.cache_key(blob)]
        assert cache.misses == 2 and cache.hits == 2

    def test_path_and_blob_keys_disjoint(self, tmp_path):
        """A path string and a blob with the same bytes never collide."""
        name = str(tmp_path / "img.sjpg")
        assert CachingLoader.cache_key(name) != CachingLoader.cache_key(
            name.encode("utf-8")
        )

    def test_as_dataset_loader(self, small_blobs):
        cache = CachingLoader()
        dataset = BlobImageDataset(small_blobs, loader=cache)
        for index in range(len(dataset)):
            dataset[index]
        for index in range(len(dataset)):
            dataset[index]
        assert cache.hit_rate == pytest.approx(0.5)


class TestOfflineMaterialization:
    def test_materialize_shapes(self, small_blobs):
        arrays = materialize_decoded(small_blobs[:3])
        assert len(arrays) == 3
        assert all(a.ndim == 3 and a.dtype == np.uint8 for a in arrays)

    def test_decoded_dataset_serves_images(self, small_blobs):
        arrays = materialize_decoded(small_blobs[:4])
        dataset = DecodedArrayDataset(arrays, labels=[0, 1, 2, 3])
        image, label = dataset[2]
        assert isinstance(image, Image)
        assert label == 2
        assert np.array_equal(image.to_array(), arrays[2])

    def test_loader_op_near_free(self, small_blobs):
        from repro.core.lotustrace import InMemoryTraceLog

        arrays = materialize_decoded(small_blobs[:4])
        log = InMemoryTraceLog()
        dataset = DecodedArrayDataset(arrays, log_file=log)
        for index in range(4):
            dataset[index]
        loader_times = [r.duration_ns for r in log.records() if r.name == "Loader"]
        assert len(loader_times) == 4
        assert max(loader_times) < 5_000_000  # well under one decode


class TestBottleneckShift:
    @pytest.fixture(scope="class")
    def result(self):
        # 64 images / batch 4 -> 15 steady-state waits, so the
        # frac_waits_over_gpu_step statistic is quantized at ~0.07 rather
        # than 0.125 and one noisy wait cannot flip the bound verdict.
        return run_bottleneck_shift(images=64, seed=1)

    def test_offline_gpu_bound(self, result):
        assert not result.variants["offline"].preprocessing_bound

    def test_cached_gpu_bound(self, result):
        assert not result.variants["cached"].preprocessing_bound

    def test_loader_cpu_collapses(self, result):
        assert (
            result.variants["offline"].loader_cpu_ms
            < 0.1 * result.variants["online"].loader_cpu_ms
        )

    def test_cache_warm(self, result):
        assert result.cache_hit_rate >= 0.5

    def test_formatting(self, result):
        text = format_bottleneck_shift(result)
        assert "speedup" in text and "gpu" in text
