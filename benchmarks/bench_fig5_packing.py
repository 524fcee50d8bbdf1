"""Benchmark: regenerate Fig. 5 (packing result, QUEUE vs RP vs RB).

Paper shape: QUEUE uses 30-45% fewer PMs than RP depending on spike size,
and modestly more than RB.  The timed body is one full strategy comparison;
the saved table is the figure's data.
"""

from repro.experiments.fig5_packing import run_fig5


def test_fig5_packing(benchmark, save_result):
    # the published defaults, exactly what `python -m repro bench` runs
    result = benchmark.pedantic(run_fig5, rounds=1, iterations=1)
    save_result(result)

    # Shape assertions mirroring the paper's claims.
    for row in result.rows:
        _, _, queue, rp, rb, reduction, extra = row
        assert rb <= queue <= rp
        assert extra >= 0
    large = [r[5] for r in result.rows if r[0] == "Rb<Re"]
    equal = [r[5] for r in result.rows if r[0] == "Rb=Re"]
    small = [r[5] for r in result.rows if r[0] == "Rb>Re"]
    assert min(large) > max(equal) > 0
    assert min(equal) > max(small) > 0
