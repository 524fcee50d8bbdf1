"""Repeat scheduling and result assembly shared by every workload.

A workload supplies ``repeat(traced)``: it builds a fresh stack (timed as
one set-up sample), runs one fixed, seed-determined unit of work (timed),
and returns a :class:`Repeat`.  Every repeat of a run does identical work,
so its deterministic ``stats`` must agree across repeats and between the
traced and untraced ones.  Set-up time is the median over repeats; step
and operation times are summarised per position across repeats (see
:func:`envelope`).
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from tracer import ROOT, Tracer, instrument, percentile_ms


#: traced and untraced repeats each, at least, in a traced run
TRACED_MIN_REPEATS = 2


class CheckFailed(AssertionError):
    """A correctness check on the program's output did not hold."""


@dataclass
class Repeat:
    """One fresh set-up plus one timed unit of work."""

    build_s: float
    wall_s: float
    work: float  # work units done in ``wall_s`` (throughput numerator)
    attempted: int
    failed: int
    op_s: list[float]
    #: durations of the timed region's fixed, seed-determined steps, in
    #: order; step ``i`` does the same work in every repeat of a run
    segments: list[float]
    stats: dict[str, Any]
    #: workload objects the correctness checks inspect (kept for the
    #: newest traced and the newest untraced repeat only)
    outputs: Any = None
    cache: dict[str, float] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)


def require(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


def same_stats(repeats: list[Repeat]) -> None:
    """Every repeat (traced or not) must produce identical statistics."""
    first = repeats[0].stats
    for i, rep in enumerate(repeats[1:], start=1):
        for key in first:
            require(rep.stats.get(key) == first[key],
                    f"repeat {i} statistic {key!r} differs: "
                    f"{rep.stats.get(key)!r} != {first[key]!r}")


def schedule(repeat: Callable[[Tracer | None], Repeat], *, seconds: float,
             trace: bool, min_repeats: int, max_repeats: int = 40,
             traced_reference: bool = False,
             ) -> tuple[list[Repeat], list[Repeat], Tracer | None]:
    """Run repeats for ``seconds`` of measured time.

    Untraced runs (``trace=False``) optionally start with one traced,
    untimed reference repeat, then time untraced repeats.  Traced runs
    alternate traced and untraced repeats (traced first) so the two
    throughputs are paired.  Returns ``(timed, traced, tracer)``: the
    untraced repeats that feed the end-to-end metrics, the traced ones,
    and the tracer holding every traced span.
    """
    tracer = Tracer() if (trace or traced_reference) else None
    timed: list[Repeat] = []
    traced: list[Repeat] = []

    def run(into: list[Repeat], with_tracer: Tracer | None) -> None:
        # only the newest repeat of each kind keeps its outputs, so memory
        # does not grow with the number of repeats
        for done in into:
            done.outputs = None
        with instrument(with_tracer):
            into.append(repeat(with_tracer))

    if traced_reference and not trace:
        run(traced, tracer)

    def measured() -> float:
        return sum(r.wall_s for r in timed + (traced if trace else []))

    # a traced run only needs enough untraced repeats for the overhead ratio
    least = TRACED_MIN_REPEATS if trace else min_repeats
    while len(timed) + len(traced) < max_repeats:
        enough = (measured() >= seconds and len(timed) >= least
                  and (len(traced) >= least or not trace))
        if enough:
            break
        if trace and len(traced) <= len(timed):
            run(traced, tracer)
        else:
            run(timed, None)
    return timed, traced, tracer


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: across-repeat percentile of each position's duration (see ``envelope``)
ACROSS_REPEATS = 80.0


def envelope(rows: list[list[float]]) -> np.ndarray:
    """Per position, the ``ACROSS_REPEATS``-th percentile of its durations
    across repeats.

    Every repeat does the same work at each position (step or operation),
    so only the host changes between them.  On a shared host the same step
    runs up to twice as fast while the neighbours are idle, in phases of a
    few seconds.  A median over repeats flips between the fast and the
    slow phase; the slowest repeat tracks the slow phase but also collects
    every one-off stall (an fsync, a host hiccup), and more of them the
    more repeats fit in the run.  The 80th percentile tracks the slow phase
    and ignores a stall in one repeat of five.
    """
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise ValueError(f"repeats did different work: {sorted(lengths)}")
    return np.percentile(np.array(rows, dtype=float), ACROSS_REPEATS, axis=0)


def throughput(repeats: list[Repeat]) -> float:
    """Work per second of one repeat, each step charged its envelope time."""
    return repeats[0].work / float(
        envelope([r.segments for r in repeats]).sum())


def end_to_end(timed: list[Repeat], *, setup_fixed_s: float,
               builds: list[float], pms_used: float) -> dict[str, float]:
    """The end-to-end metrics from the untraced repeats."""
    ops = [r.op_s for r in timed]
    return {
        "setup_s": setup_fixed_s + statistics.median(builds),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_per_s": throughput(timed),
        "op_p50_ms": percentile_ms(envelope(ops), 50),
        "op_p99_ms": percentile_ms(envelope(ops), 99),
        "pms_used": float(pms_used),
    }


def per_layer(tracer: Tracer, traced: list[Repeat],
              untraced: list[Repeat], layers: list[str],
              with_percentiles: set[str]) -> dict[str, float]:
    """Per-layer busy time and calls per traced repeat, plus coverage.

    Totals are divided by the number of traced repeats, so the figures
    do not depend on how many repeats fitted in the run.
    """
    n = len(traced)
    summary = tracer.summary()
    out: dict[str, float] = {}
    for name in layers:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0,
                                   "durations": []})
        out[f"{name}_s"] = entry["self_s"] / n
        out[f"{name}_calls"] = entry["calls"] / n
        if name in with_percentiles:
            out[f"{name}_p50_ms"] = percentile_ms(entry["durations"], 50)
            out[f"{name}_p99_ms"] = percentile_ms(entry["durations"], 99)
    root = summary.get(ROOT, {"total_s": 0.0, "self_s": 0.0})
    out["other_s"] = root["self_s"] / n
    out["wall_s"] = root["total_s"] / n
    traced_tp = throughput(traced)
    untraced_tp = throughput(untraced)
    out["trace.repeats"] = float(n)
    out["trace.throughput_traced_per_s"] = traced_tp
    out["trace.throughput_untraced_per_s"] = untraced_tp
    out["trace.overhead_ratio"] = traced_tp / untraced_tp
    caches = [r.cache for r in traced if r.cache]
    if caches:
        hits = sum(c["hits"] for c in caches) / n
        misses = sum(c["misses"] for c in caches) / n
        out["perf.cache.hits"] = hits
        out["perf.cache.misses"] = misses
        out["perf.cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def now() -> float:
    return time.perf_counter()


def seeds(seed: int, n: int) -> list[int]:
    """``n`` independent 32-bit seeds derived from the run seed."""
    children = np.random.SeedSequence(seed).generate_state(n)
    return [int(s) for s in children]
