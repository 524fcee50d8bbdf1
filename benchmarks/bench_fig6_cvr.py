"""Benchmark: regenerate Fig. 6 (runtime CVR per placement).

Paper shape: RP never violates; QUEUE's CVR stays around/below rho = 0.01;
RB's CVR is "unacceptably high" (orders of magnitude above rho).
"""

from repro.experiments.fig6_cvr import run_fig6


def test_fig6_cvr(benchmark, save_result):
    # the published defaults, exactly what `python -m repro bench` runs
    result = benchmark.pedantic(run_fig6, rounds=1, iterations=1)
    save_result(result)

    rows = {(r[0], r[1]): r for r in result.rows}
    for pattern in ("Rb=Re", "Rb>Re", "Rb<Re"):
        assert rows[(pattern, "RP")][2] == 0.0
        assert rows[(pattern, "QUEUE")][2] <= 0.02
        assert rows[(pattern, "RB")][2] > 0.1
