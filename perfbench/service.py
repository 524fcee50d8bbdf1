"""``service-churn``: the durable placement service under Poisson churn.

The pool is static: 2,000 PMs with capacities from the paper's 80-100
range, ``QueuingFFD(rho=0.01, d=16)``, an fsync'd WAL, ``repro serve``'s
checkpoint cadence (256 records) and inbox (1,024), and telemetry events
into an in-memory ring.  The loop is closed with one caller, as in
``repro serve``: each tick applies its departures, submits its arrivals
together, drains the inbox and only then starts the next tick.

Arrivals are Poisson per tick (mean 20) with geometric lifetimes (mean 12
ticks).  Each draws one of three VM classes with distinct ``(p_on,
p_off)``, sizes and priority classes, so every periodic ``recalibrate``
re-solves MapCal cold.  The classes share one stationary ON probability
``q``: MapCal's block table depends only on ``q``, so a refit never raises
reservations past capacity (which would make it fail) and lands as a
journaled no-op.

Each repeat starts from the mean stationary population (rate x life VMs
with memoryless residual lifetimes), placed by the consolidator's batch
path and checkpointed before the timed ticks begin.
"""

from __future__ import annotations

import gc
import itertools
import shutil
import statistics
from pathlib import Path

import numpy as np

from common import Repeat, now, require, same_stats, seeds
from oracles import check_eq17_state
from spec import SHED_REASONS
from tracer import percentile_ms, root_span

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.perf.cache import fresh_cache
from repro.service.service import PlacementService
from repro.telemetry import RingBufferSink, Telemetry

SIZES = {
    # 56 ticks hold ~1,120 admissions, so ten fall beyond the p99
    "full": {"pms": 2000, "ticks": 56},
    "tiny": {"pms": 40, "ticks": 8},
}
RATE = 20.0          # mean arrivals per tick
MEAN_LIFE = 12.0     # mean VM lifetime (ticks)
RECALIBRATE_EVERY = 8
CHECKPOINT_EVERY = 256
INBOX = 1024
RHO, D = 0.01, 16
#: (priority class, p_on, p_off, R_b, R_e, weight); q = 0.1 for all
CLASSES = [
    ("critical", 0.01, 0.09, 6.0, 16.0, 0.2),
    ("standard", 0.02, 0.18, 8.0, 8.0, 0.5),
    ("batch", 0.05, 0.45, 4.0, 12.0, 0.3),
]
RECOVERIES = 5


def _placer() -> QueuingFFD:
    return QueuingFFD(rho=RHO, d=D)


class ServiceWorkload:
    """Seed-determined churn schedule replayed through a fresh service."""

    def __init__(self, seed: int, scale: str = "full", *, workdir: Path):
        cfg = SIZES[scale]
        self.ticks = cfg["ticks"]
        self.min_repeats = 3
        self.traced_reference = False
        self.workdir = workdir
        pool_seed, traffic_seed = seeds(seed, 2)
        rng = np.random.default_rng(pool_seed)
        self.pms = [PMSpec(capacity=float(c))
                    for c in rng.uniform(80.0, 100.0, cfg["pms"])]
        rng = np.random.default_rng(traffic_seed)
        specs = [VMSpec(p_on=p_on, p_off=p_off, r_base=rb, r_extra=re)
                 for _, p_on, p_off, rb, re, _ in CLASSES]
        weights = np.array([c[-1] for c in CLASSES])

        def draw(n: int) -> list[tuple[int, int]]:
            """(class index, lifetime in ticks) for ``n`` arrivals."""
            kinds = rng.choice(len(CLASSES), size=n, p=weights)
            lives = rng.geometric(1.0 / MEAN_LIFE, size=n)
            return [(int(k), int(life)) for k, life in zip(kinds, lives)]

        self.specs = specs
        self.prefill = draw(round(RATE * MEAN_LIFE))
        self.arrivals = [draw(int(rng.poisson(RATE)))
                         for _ in range(self.ticks)]
        self._repeat_no = 0

    # ------------------------------------------------------------------ #
    def _build(self, path: Path):
        svc = PlacementService(
            self.pms, _placer(), wal_path=path / "wal.jsonl",
            checkpoint_path=path / "checkpoint.json",
            inbox_capacity=INBOX, checkpoint_every=CHECKPOINT_EVERY,
            telemetry=Telemetry(RingBufferSink()))
        placed = svc.consolidator.admit_batch(
            [self.specs[k] for k, _ in self.prefill])
        deaths: dict[int, list[int]] = {}
        for (vm_id, _), (_, life) in zip(placed, self.prefill):
            deaths.setdefault(life - 1, []).append(vm_id)
        svc.checkpoint()
        return svc, deaths

    def repeat(self, tracer) -> Repeat:
        self._repeat_no += 1
        path = self.workdir / f"repeat-{self._repeat_no}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        with fresh_cache() as cache:
            t0 = now()
            with root_span(tracer):
                svc, deaths = self._build(path)
            build_s = now() - t0
            gc.collect()  # garbage of earlier repeats is not this one's cost
            t1 = now()
            with root_span(tracer):
                out = self._churn(svc, deaths, tracer)
            t2 = now()
            cache_stats = {"hits": cache.hits, "misses": cache.misses}
        latencies, decisions, sheds, used, waits, ticks = out
        m = svc.metrics()
        stats = {
            "fingerprint": svc.consolidator.state_fingerprint(),
            "wal_seq": svc.wal.last_seq,
            "counters": dict(svc.counters),
            "recalibrate_noops": m["recalibrate_noops"],
            "pms_used": float(np.mean(used)),
        }
        return Repeat(build_s=build_s, wall_s=t2 - t1, work=float(decisions),
                      attempted=decisions, failed=sum(sheds.values()),
                      op_s=latencies, segments=ticks, stats=stats,
                      outputs=(svc, path),
                      cache=cache_stats,
                      extra={"sheds": sheds, "inbox_wait_s": waits})

    def _churn(self, svc: PlacementService, deaths, tracer):
        """The timed closed loop over the schedule's ticks."""
        results = svc.results
        submitted: dict[str, float] = {}
        latencies: list[float] = []
        waits: list[float] = []
        sheds: dict[str, int] = {}
        used: list[int] = []
        ticks: list[float] = []
        decisions = 0
        decided = len(results)

        def settle(stamp: float, start: float) -> None:
            """Record every outcome journaled since the last call."""
            nonlocal decided
            fresh = len(results) - decided
            decided = len(results)
            for key in itertools.islice(reversed(results), fresh):
                outcome = results[key]
                if key not in submitted:
                    continue
                if outcome["op"] == "shed":
                    sheds[outcome["reason"]] = sheds.get(outcome["reason"], 0) + 1
                else:
                    latencies.append(stamp - submitted[key])
                    if tracer is not None:
                        waits.append(start - submitted[key])

        for t, arrivals in enumerate(self.arrivals):
            tick_start = now()
            for vm_id in sorted(deaths.pop(t, [])):
                svc.depart(f"d-{vm_id}", vm_id)
                decisions += 1
            decided = len(results)
            keys = []
            for j, (kind, life) in enumerate(arrivals):
                key = f"a-{t}-{j}"
                keys.append((key, life))
                submitted[key] = now()
                svc.submit(key, self.specs[kind], CLASSES[kind][0])
                settle(now(), submitted[key])
            while svc.inbox.depth:
                start = now()
                svc.process_next()
                settle(now(), start)
            decisions += len(arrivals)
            for key, life in keys:
                outcome = results[key]
                if outcome["op"] == "admit":
                    deaths.setdefault(t + life, []).append(outcome["vm_id"])
            if (t + 1) % RECALIBRATE_EVERY == 0:
                svc.recalibrate(f"recal-{t}")
                decisions += 1
                decided = len(results)
            ticks.append(now() - tick_start)
            used.append(svc.consolidator.n_used_pms)
        return latencies, decisions, sheds, used, waits, ticks

    # ------------------------------------------------------------------ #
    def recover(self, repeat: Repeat) -> list[float]:
        """Time :meth:`PlacementService.recover` from the repeat's files and
        require each recovered state to equal the live one."""
        svc, path = repeat.outputs
        live = svc.capture_state()
        times = []
        for _ in range(RECOVERIES):
            t0 = now()
            back = PlacementService.recover(
                self.pms, _placer(), wal_path=path / "wal.jsonl",
                checkpoint_path=path / "checkpoint.json",
                inbox_capacity=INBOX, checkpoint_every=CHECKPOINT_EVERY)
            times.append(now() - t0)
            check_recovered(live, svc.consolidator.state_fingerprint(), back)
        return times

    def check(self, repeats: list[Repeat]) -> None:
        """Eq. (17) holds on the final state; recovery reproduces it."""
        same_stats(repeats)
        svc, _ = repeats[-1].outputs
        check_eq17_state(svc.consolidator.capture_state(), placer=_placer())
        self.recover_s = self.recover(repeats[-1])

    def pms_used(self, repeats: list[Repeat]) -> float:
        return repeats[0].stats["pms_used"]

    def quality(self, repeats: list[Repeat],
                traced: list[Repeat]) -> dict[str, float]:
        sheds = repeats[-1].extra["sheds"]
        waits = [w for r in traced for w in r.extra["inbox_wait_s"]]
        out = {f"service.shed.{r}": float(sheds.get(r, 0))
               for r in SHED_REASONS}
        out["service.recover_s"] = statistics.median(self.recover_s)
        out["service.inbox_wait_p50_ms"] = percentile_ms(waits, 50)
        out["service.inbox_wait_p99_ms"] = percentile_ms(waits, 99)
        return out


def check_recovered(live_state: dict, live_fingerprint: str,
                    recovered: PlacementService) -> None:
    """Recovered service state must equal the live one, byte for byte."""
    require(recovered.consolidator.state_fingerprint() == live_fingerprint,
            "recovered consolidator fingerprint differs from the live one")
    require(recovered.capture_state() == live_state,
            "recovered service state differs from the live one")
