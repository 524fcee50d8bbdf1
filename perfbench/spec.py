"""What the benchmark measures: workloads, metrics, bounds and run length.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``), so the two never disagree.

Every end-to-end metric is reported on every workload.  Each workload
supplies its own *operation* (the unit its users wait on and count) and
*work unit* (what its throughput counts):

==============  ==========================  ===============================
workload        operation (``op_*_ms``)     work unit (``throughput_per_s``)
==============  ==========================  ===============================
sim-fleet       one simulated interval      VM-intervals simulated
sim-serving     one simulated interval      VM-intervals simulated
service-churn   one admission, submit to    service decisions (admissions,
                recorded outcome            sheds, departures, refits)
plan-dense      one trace fit (HMM)         VMs planned (fit + both
                                            placements)
==============  ==========================  ===============================
"""

from __future__ import annotations

#: seconds one run measures (the default of ``run.py --seconds``)
RUN_SECONDS = 16

WORKLOADS = [
    ("sim-fleet",
     "12,800-VM fleet with failures, energy and replans every 50 intervals: "
     "per-PM Python loops in the tick and warm sparse replans dominate; "
     "service and estimation do no work"),
    ("sim-serving",
     "400-VM fleet with the request-serving plane over a long horizon: "
     "fixed per-tick cost and repro.serving dominate, replans are minor"),
    ("service-churn",
     "placement service on 2,000 PMs under Poisson churn with fsync'd WAL, "
     "checkpoints, refits and recovery: the only Eq. (17) scan, WAL and "
     "recovery workload"),
    ("plan-dense",
     "offline planning of 1,000 fitted ON/OFF traces, ~60 VMs per PM: HMM "
     "estimation and cold MapCal at d=128 dominate; dense heterogeneous "
     "batch placement"),
]

#: (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("throughput_per_s", "1/s", "higher", 0.24),
    ("op_p50_ms", "ms", "lower", 0.24),
    ("op_p99_ms", "ms", "lower", 0.24),
    ("pms_used", "count", "lower", 0.2),
]

#: layers timed in the traced run, named after the repo modules they enter
LAYERS = [
    "simulation.datacenter.step",
    "simulation.failures.step",
    "simulation.scheduler.resolve_overloads",
    "simulation.monitor.record_interval",
    "simulation.energy.fleet_power",
    "serving.step",
    "core.queuing_ffd.place",
    "core.heterogeneous.place",
    "core.mapcal.mapping_for",
    "core.online.admit",
    "core.online.admit_batch",
    "core.online.depart",
    "service.submit",
    "service.process_next",
    "service.depart",
    "service.wal.append",
    "service.checkpoint",
    "service.recalibrate",
    "markov.hmm.fit",
]

#: layers whose per-call latency is reported (calls are many)
LAYERS_WITH_PERCENTILES = {
    "simulation.datacenter.step", "service.process_next",
    "service.wal.append", "core.online.admit", "markov.hmm.fit",
}

#: shed reasons counted by the service layer (repro.placement.base)
SHED_REASONS = ["fleet_full", "shed_inbox_full", "shed_priority",
                "shed_solver_degraded"]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out: list[tuple[str, str, str]] = []
    for prefix in LAYERS:
        out.append((f"{prefix}_s", "s", "lower"))
        out.append((f"{prefix}_calls", "count", "lower"))
        if prefix in LAYERS_WITH_PERCENTILES:
            out.append((f"{prefix}_p50_ms", "ms", "lower"))
            out.append((f"{prefix}_p99_ms", "ms", "lower"))
    out += [
        ("simulation.migrations_completed", "count", "lower"),
        ("simulation.migrations_attempted", "count", "lower"),
        ("simulation.migration_useful_ratio", "ratio", "higher"),
        ("simulation.cvr_mean", "ratio", "lower"),
        ("serving.request_p99_intervals", "intervals", "lower"),
        ("perf.cache.hits", "count", "higher"),
        ("perf.cache.misses", "count", "lower"),
        ("perf.cache.hit_rate", "ratio", "higher"),
        ("service.inbox_wait_p50_ms", "ms", "lower"),
        ("service.inbox_wait_p99_ms", "ms", "lower"),
        ("service.recover_s", "s", "lower"),
    ]
    out += [(f"service.shed.{r}", "count", "lower") for r in SHED_REASONS]
    out += [
        ("markov.hmm.em_iterations", "count", "lower"),
        ("plan.plan_s", "s", "lower"),
        ("other_s", "s", "lower"),
        ("wall_s", "s", "lower"),
        ("trace.repeats", "count", "higher"),
        ("trace.throughput_traced_per_s", "1/s", "higher"),
        ("trace.throughput_untraced_per_s", "1/s", "higher"),
        ("trace.overhead_ratio", "ratio", "higher"),
    ]
    return out


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer_metrics()],
    }
