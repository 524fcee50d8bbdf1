"""Benchmark: regenerate Fig. 8 (sample web-server workload trace).

Paper shape: a two-level trace — normal request rate with aperiodic short
spikes at the peak rate; burstiness confirmed by an index of dispersion
far above 1.
"""

from repro.experiments.fig8_trace import run_fig8


def test_fig8_trace(benchmark, save_result):
    # the published defaults, exactly what `python -m repro bench` runs
    result = benchmark.pedantic(run_fig8, rounds=1, iterations=1)
    save_result(result)

    requests = result.column("requests")
    states = result.column("state")
    off_levels = [r for r, s in zip(requests, states) if s == "OFF"]
    on_levels = [r for r, s in zip(requests, states) if s == "ON"]
    assert off_levels, "trace must show the normal level"
    if on_levels:  # spikes are rare; when sampled, they sit ~3x higher
        assert min(on_levels) > 2 * max(off_levels) / 1.5
    assert any("index of dispersion" in n for n in result.notes)
