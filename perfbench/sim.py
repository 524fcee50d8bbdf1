"""``sim-fleet`` and ``sim-serving``: the batch datacenter simulator.

Both run the configuration of ``repro perf``: the paper's "large"-spike
pattern, ``QueuingFFD(rho=0.01, d=16)``, failures, 5% migration failures,
the energy model, a stationary start, a reconsolidation replan every 50
intervals, the vectorized tick and telemetry off.  ``sim-serving`` adds the
request-serving plane (``SERVING_DEFAULTS``) on a small fleet over a long
horizon.
"""

from __future__ import annotations

import gc
import hashlib
from dataclasses import asdict

from common import Repeat, now, require, same_stats, seeds
from tracer import root_span

from repro.core.queuing_ffd import QueuingFFD
from repro.perf.cache import fresh_cache
from repro.simulation.energy import EnergyModel
from repro.simulation.scenario import Scenario
from repro.workload.patterns import generate_pattern_instance

SIZES = {
    "sim-fleet": {"full": {"n_vms": 12800, "horizon": 120},
                  "tiny": {"n_vms": 200, "horizon": 60}},
    "sim-serving": {"full": {"n_vms": 400, "horizon": 1500},
                    "tiny": {"n_vms": 60, "horizon": 120}},
}

#: replan period (intervals) of the reconsolidation scheduler
REPLAN_PERIOD = 50


class SimWorkload:
    """One simulator workload at a given size."""

    def __init__(self, name: str, seed: int, scale: str = "full"):
        self.name = name
        self.serving = name == "sim-serving"
        cfg = SIZES[name][scale]
        self.n_vms, self.horizon = cfg["n_vms"], cfg["horizon"]
        instance_seed, self.sim_seed = seeds(seed, 2)
        self.vms, self.pms = generate_pattern_instance(
            "large", self.n_vms, seed=instance_seed)
        self.min_repeats = 4
        #: time untraced repeats only after a traced one, and require the
        #: same simulated statistics from both
        self.traced_reference = True

    def _scenario(self) -> Scenario:
        return Scenario(
            self.vms, self.pms,
            placer=QueuingFFD(rho=0.01, d=16),
            failures=True,
            migration_failure_probability=0.05,
            energy_model=EnergyModel(),
            start_stationary=True,
            tick_mode="vectorized",
            reconsolidation={"period": REPLAN_PERIOD},
            serving=True if self.serving else None,
        )

    def repeat(self, tracer) -> Repeat:
        stamps: list[float] = []
        with fresh_cache() as cache:
            t0 = now()
            with root_span(tracer):
                run = self._scenario().start(
                    seed=self.sim_seed, on_tick=lambda t: stamps.append(now()))
            build_s = now() - t0
            gc.collect()  # garbage of earlier repeats is not this one's cost
            t1 = now()
            with root_span(tracer):
                run.advance(self.horizon)
            t2 = now()
            run.close()
            cache_stats = {"hits": cache.hits, "misses": cache.misses}
        report = run.finish()
        edges = [t1] + stamps
        op_s = [b - a for a, b in zip(edges, edges[1:])]
        record = report.record
        stats = {
            "migrations": report.total_migrations,
            "failed_migration_attempts": record.failed_migration_attempts,
            "pms_used_series": hashlib.sha256(
                record.pms_used_series.tobytes()).hexdigest(),
            "pms_used": float(record.pms_used_series.mean()),
            "cvr_mean": report.mean_cvr,
            "cvr_max": report.max_cvr,
            "energy_joules": report.energy_joules,
            "serving": (asdict(report.serving)
                        if report.serving is not None else None),
        }
        return Repeat(build_s=build_s, wall_s=t2 - t1,
                      work=float(self.n_vms * self.horizon),
                      attempted=self.horizon, failed=0, op_s=op_s,
                      segments=op_s,
                      stats=stats, outputs=report, cache=cache_stats)

    def check(self, repeats: list[Repeat]) -> None:
        """Traced and timed runs of one seed simulate identical statistics."""
        same_stats(repeats)
        report = repeats[-1].outputs
        require(len(report.record.pms_used_series) == self.horizon,
                "simulation recorded the wrong number of intervals")
        if self.serving:
            s = report.serving
            require(s.arrivals == s.completions + s.lost + s.backlog
                    + s.tier_backlog,
                    "serving plane lost track of requests: arrivals != "
                    "completed + lost + queued")

    def pms_used(self, repeats: list[Repeat]) -> float:
        return repeats[0].stats["pms_used"]

    def quality(self, repeats: list[Repeat],
                traced: list[Repeat]) -> dict[str, float]:
        stats = repeats[0].stats
        completed = stats["migrations"]
        attempted = completed + stats["failed_migration_attempts"]
        return {
            "simulation.migrations_completed": float(completed),
            "simulation.migrations_attempted": float(attempted),
            "simulation.migration_useful_ratio": (
                completed / attempted if attempted else 1.0),
            "simulation.cvr_mean": stats["cvr_mean"],
            "serving.request_p99_intervals": (
                stats["serving"]["p99"] if stats["serving"] else 0.0),
        }

