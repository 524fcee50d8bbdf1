"""Benchmark: regenerate Fig. 10 (time-ordered migration events).

Paper shape: QUEUE's cumulative-migration curve is flat near zero; RB and
RB-EX burst early (over-tight initial packing); RB keeps climbing through
the whole period (cycle migration).
"""

from repro.experiments.fig10_timeline import run_fig10


def test_fig10_timeline(benchmark, save_result):
    # the published defaults, exactly what `python -m repro bench` runs
    result = benchmark.pedantic(run_fig10, rounds=1, iterations=1)
    save_result(result)

    queue = result.column("QUEUE_cum_migrations")
    rb = result.column("RB_cum_migrations")
    rbex = result.column("RB-EX_cum_migrations")
    assert queue == sorted(queue) and rb == sorted(rb) and rbex == sorted(rbex)
    assert rb[-1] > queue[-1]
    assert queue[-1] <= 5  # essentially flat
    # RB's early burst: at least a third of its migrations land in the
    # first quarter of the period.
    quarter = len(rb) // 4
    assert rb[quarter] >= rb[-1] / 4
