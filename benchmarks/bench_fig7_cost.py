"""Benchmark: regenerate Fig. 7 (computation cost of Algorithm 2).

Paper shape: millisecond-scale cost dominated by the d-driven MapCal
precomputation; n-dependence barely visible.  pytest-benchmark additionally
times the d = 16, n = 400 cell directly for the timing table.
"""

from repro.core.queuing_ffd import QueuingFFD
from repro.experiments.fig7_cost import run_fig7
from repro.workload.patterns import generate_pattern_instance


def test_fig7_cost_table(benchmark, save_result):
    result = benchmark.pedantic(
        lambda: run_fig7(d_values=(8, 16, 24, 32), n_values=(100, 400, 1600),
                         seed=2013),
        rounds=1, iterations=1,
    )
    save_result(result)

    # d-term dominates and grows superlinearly in d.
    def mapcal_ms(d):
        return max(r[2] for r in result.rows if r[0] == d)

    assert mapcal_ms(32) > mapcal_ms(8)
    # n-dependence is mild: pack time at n=1600 stays in the ms range.
    assert all(r[3] < 1000.0 for r in result.rows)


def test_fig7_algorithm2_hot_path(benchmark):
    vms, pms = generate_pattern_instance("equal", 400, seed=0)
    placer = QueuingFFD(rho=0.01, d=16)
    placer.mapping_for(vms)  # warm the table memo

    benchmark(lambda: placer.place(vms, pms))
