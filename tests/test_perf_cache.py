"""The MapCal table memo and its fresh_cache() contract."""

from __future__ import annotations

import pytest

from repro.core.mapcal import TABLE_MEMO_SIZE, mapcal, mapcal_table
from repro.perf.cache import fresh_cache
from repro.queueing.geom_geom_k import FiniteSourceGeomGeomK


class TestLRU:
    def test_miss_then_hit(self):
        with fresh_cache() as cache:
            cold = mapcal_table(32, 0.01, 0.09, 0.01)
            assert (cache.hits, cache.misses) == (0, 1)
            warm = mapcal_table(32, 0.01, 0.09, 0.01)
            assert (cache.hits, cache.misses) == (1, 1)
        assert warm is cold

    def test_eviction_is_least_recently_used(self):
        def table(i):  # one tiny, distinct table per i
            return mapcal_table(1, 0.01, 0.09, (i + 1) / 1000)

        with fresh_cache() as cache:
            for i in range(TABLE_MEMO_SIZE):
                table(i)
            table(0)                  # touch 0: 1 is now least recent
            table(TABLE_MEMO_SIZE)    # evicts 1
            misses = cache.misses
            table(0)
            assert cache.misses == misses
            table(1)
            assert cache.misses == misses + 1

    def test_clear_resets_counters(self):
        mapcal_table(16, 0.01, 0.09, 0.01)
        with fresh_cache() as cache:
            assert (cache.hits, cache.misses) == (0, 0)
            mapcal_table(16, 0.01, 0.09, 0.01)
            assert (cache.hits, cache.misses) == (0, 1)


class TestIntegration:
    def test_mapcal_table_is_one_miss_per_table(self):
        with fresh_cache() as cache:
            mapcal_table(50, 0.01, 0.09, 0.01)
            mapcal_table(50, 0.01, 0.09, 0.01)
            mapcal_table(50, 0.01, 0.09, 0.01, method="chain")
            assert (cache.hits, cache.misses) == (1, 2)

    def test_mapcal_matches_uncached_value(self):
        with fresh_cache():
            cold = mapcal(12, 0.02, 0.08, 0.01)
            warm = mapcal(12, 0.02, 0.08, 0.01)
        oracle = FiniteSourceGeomGeomK(12, 0.02, 0.08)
        assert cold == warm == oracle.min_windows_for_overflow(0.01)

    def test_validation_still_precedes_cache(self):
        with fresh_cache() as cache:
            with pytest.raises(ValueError):
                mapcal(-1, 0.01, 0.09, 0.01)
            with pytest.raises(ValueError):
                mapcal(8, 0.01, 0.09, 1.5)
            with pytest.raises(ValueError):
                mapcal_table(8, 0.0, 0.09, 0.01)
            with pytest.raises(ValueError):
                mapcal_table(8, 0.01, 0.09, 0.01, method="linear")
            assert cache.misses == 0
