"""In-memory span recorder wrapped around calls into the repro layers.

The program itself carries no benchmark spans: :func:`instrument` swaps
each layer's public entry point for a thin wrapper that records one span
per call, and restores the originals on exit, so untraced repeats run the
unmodified code.  Spans are kept in memory and written out once, when the
run ends.  A layer's self time is its span durations minus the part its
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path

import numpy as np

#: span name of the benchmark's own top-level regions (set-up and the
#: timed operation); their self time is the coverage gap ``other_s``
ROOT = "bench"


class Tracer:
    """Append-only span log: ``(name, start, end, parent index)``."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def wrap(self, fn, name: str):
        """``fn`` recording one ``name`` span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, call durations."""
        spans = [s for s in self.spans if s is not None]
        child = [0.0] * len(self.spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _ = span
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[idx]
            entry["durations"].append(end - start)
        return out

    def write(self, path: Path, **meta) -> None:
        """Dump every span as compact JSON (names interned)."""
        names: dict[str, int] = {}
        rows = []
        for span in self.spans:
            if span is None:
                continue
            name, start, end, parent = span
            rows.append([names.setdefault(name, len(names)),
                         round(start, 7), round(end, 7), parent])
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "names": list(names),
                                    "spans": rows}, separators=(",", ":")))


def root_span(tracer: Tracer | None):
    """A top-level :data:`ROOT` span, or nothing when untraced."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.span(ROOT)


def percentile_ms(durations, q: float) -> float:
    """Nearest-rank ``q``-th percentile of durations (s), in ms; 0 if empty.

    Nearest rank always returns an observed duration, so a tail made of a
    few large steps (a replan interval, a checkpoint) is not blended with
    its neighbours.
    """
    if not len(durations):
        return 0.0
    return float(np.percentile(np.asarray(durations, dtype=float), q,
                               method="inverted_cdf")) * 1e3


def _entry_points():
    """(owner, attribute, span name) of every instrumented layer call."""
    from repro.core.heterogeneous import HeterogeneousQueuingFFD
    from repro.core.online import OnlineConsolidator
    from repro.core.queuing_ffd import QueuingFFD
    from repro.serving import ServingLayer
    from repro.service.service import PlacementService
    from repro.service.wal import WriteAheadLog
    from repro.simulation.datacenter import Datacenter
    from repro.simulation.energy import EnergyModel
    from repro.simulation.failures import FailureInjector
    from repro.simulation.monitor import Monitor
    from repro.simulation.reconsolidation import ReconsolidationScheduler

    return [
        (Datacenter, "step", "simulation.datacenter.step"),
        (FailureInjector, "step", "simulation.failures.step"),
        (ReconsolidationScheduler, "resolve_overloads",
         "simulation.scheduler.resolve_overloads"),
        (Monitor, "record_interval", "simulation.monitor.record_interval"),
        (EnergyModel, "fleet_power", "simulation.energy.fleet_power"),
        (ServingLayer, "step", "serving.step"),
        (QueuingFFD, "place_with_states", "core.queuing_ffd.place"),
        (HeterogeneousQueuingFFD, "place_with_states",
         "core.heterogeneous.place"),
        (QueuingFFD, "mapping_for", "core.mapcal.mapping_for"),
        (OnlineConsolidator, "admit", "core.online.admit"),
        (OnlineConsolidator, "admit_batch", "core.online.admit_batch"),
        (OnlineConsolidator, "depart", "core.online.depart"),
        (PlacementService, "submit", "service.submit"),
        (PlacementService, "process_next", "service.process_next"),
        (PlacementService, "depart", "service.depart"),
        (WriteAheadLog, "append", "service.wal.append"),
        (PlacementService, "checkpoint", "service.checkpoint"),
        (PlacementService, "recalibrate", "service.recalibrate"),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer | None):
    """Route every layer entry point through ``tracer`` (no-op for None)."""
    if tracer is None:
        yield
        return
    saved = []
    try:
        for owner, attr, name in _entry_points():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
