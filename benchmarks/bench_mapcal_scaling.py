"""Complexity check: the closed-form MapCal table and the paper's chain.

The paper states Algorithm 1 costs O(k^3) (kernel construction + Gaussian
elimination) and the Algorithm 2 precomputation O(d^4); those claims
describe ``method="chain"``, whose kernel cost the growth-rate test bounds.
The default ``method="binomial"`` reads every ``K`` off one Binomial(k, q)
PMF table, O(d^2) per table.  These benches time both across k/d and guard
the table memo: one miss per table, then hits.
"""

import time

import pytest

from repro.core.mapcal import mapcal, mapcal_table
from repro.markov.binomial import busy_block_kernel
from repro.perf.cache import fresh_cache


@pytest.mark.parametrize("k", [8, 16, 32, 64])
def test_mapcal_cost(benchmark, k):
    K = benchmark(lambda: mapcal(k, 0.01, 0.09, 0.01))
    assert 0 < K <= k


@pytest.mark.parametrize("d", [8, 16, 32])
def test_mapping_table_cost(benchmark, d):
    mapping = benchmark.pedantic(
        lambda: mapcal_table(d, 0.01, 0.09, 0.01), rounds=3, iterations=1
    )
    assert mapping.d == d


def test_mapping_table_is_one_pass_at_d200(benchmark):
    """Regression guard for the d=200 table build and its memo.

    A cold build is one memo miss and stays well under the chain's ~1.5 s
    (the closed form takes ~11 ms); a rebuild is one hit and costs no
    more than a dictionary lookup.
    """
    with fresh_cache() as cache:
        t0 = time.perf_counter()
        mapping = benchmark.pedantic(
            lambda: mapcal_table(200, 0.01, 0.09, 0.01),
            rounds=1, iterations=1,
        )
        cold = time.perf_counter() - t0
        assert mapping.d == 200
        assert (cache.hits, cache.misses) == (0, 1)

        t0 = time.perf_counter()
        rebuilt = mapcal_table(200, 0.01, 0.09, 0.01)
        warm = time.perf_counter() - t0
        assert (cache.hits, cache.misses) == (1, 1)
        assert rebuilt is mapping
    assert cold < 0.25, f"cold d=200 table took {cold * 1e3:.0f} ms"
    assert warm < 0.1, f"warm d=200 table took {warm * 1e3:.0f} ms"


def test_kernel_growth_is_polynomial(benchmark):
    """Doubling k should grow the kernel cost by far less than 2^5 — a loose
    ceiling that still catches exponential or heavily supercubic slips."""
    benchmark.pedantic(lambda: busy_block_kernel(128, 0.01, 0.09),
                       rounds=3, iterations=1)

    def cost(k, repeats=5):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            busy_block_kernel(k, 0.01, 0.09)
            best = min(best, time.perf_counter() - t0)
        return best

    cost(64)  # warm-up
    t64, t128 = cost(64), cost(128)
    assert t128 / max(t64, 1e-9) < 32.0
