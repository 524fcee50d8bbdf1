"""Typed telemetry events: the vocabulary of a traced run.

Every state transition the simulator performs — a VM placed, a migration
attempted, a PM crashed, a capacity constraint violated — is describable as
one frozen dataclass below.  Events carry only simulation-time facts (the
interval index and entity ids), never wall-clock timestamps, so the event
stream of a seeded run is fully deterministic: running the same scenario
twice with the same seed yields byte-identical streams.

Serialization is symmetric: ``event.to_dict()`` produces a flat JSON-safe
dict tagged with the event's ``kind``, and :func:`event_from_dict` inverts
it via the :data:`EVENT_TYPES` registry, which is what makes JSONL event
logs replayable (see :mod:`repro.telemetry.replay`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar

#: timestamp used for events emitted before the simulation clock starts
#: (e.g. the initial placement)
PRE_RUN = -1


@dataclass(frozen=True)
class TelemetryEvent:
    """Base class: every event is stamped with the interval index."""

    kind: ClassVar[str] = "event"

    time: int

    def to_dict(self) -> dict:
        """Flat JSON-safe representation, tagged with ``kind``."""
        return {"kind": self.kind, **asdict(self)}


#: ``kind`` string -> event class, populated by :func:`register`
EVENT_TYPES: dict[str, type[TelemetryEvent]] = {}


def register(cls: type[TelemetryEvent]) -> type[TelemetryEvent]:
    """Class decorator adding an event type to the serialization registry."""
    if cls.kind in EVENT_TYPES:
        raise ValueError(f"event kind {cls.kind!r} registered twice")
    EVENT_TYPES[cls.kind] = cls
    return cls


def event_from_dict(data: dict) -> TelemetryEvent:
    """Inverse of :meth:`TelemetryEvent.to_dict` (JSONL replay)."""
    payload = dict(data)
    try:
        kind = payload.pop("kind")
    except KeyError:
        raise ValueError(f"event dict has no 'kind' tag: {data!r}") from None
    try:
        cls = EVENT_TYPES[kind]
    except KeyError:
        raise ValueError(
            f"unknown event kind {kind!r}; known: {sorted(EVENT_TYPES)}"
        ) from None
    return cls(**payload)


# --------------------------------------------------------------------- #
# placement
# --------------------------------------------------------------------- #
@register
@dataclass(frozen=True)
class VMPlaced(TelemetryEvent):
    """A VM assigned to a PM by a placer (initial consolidation)."""

    kind: ClassVar[str] = "vm_placed"

    vm_id: int
    pm_id: int
    placer: str = ""


# --------------------------------------------------------------------- #
# decision provenance (see :mod:`repro.observability.provenance`)
# --------------------------------------------------------------------- #
@register
@dataclass(frozen=True)
class PlacementDecided(TelemetryEvent):
    """One placement decision with its full (truncated) candidate set.

    The explainable companion of :class:`VMPlaced`: besides the winning
    ``chosen_pm`` it records *why* — the model inputs the placer reasoned
    from (the VM's estimated ``(p_on, p_off)``, the MapCal table
    fingerprint and whether the table memo already held that table) and,
    for each candidate PM kept after top-K truncation, a score and a typed
    verdict (one of the stable reason strings in
    :data:`repro.placement.base.PLACEMENT_REASONS`).  ``chosen_pm`` is -1
    when no PM was feasible (the decision that precedes an
    ``InsufficientCapacityError``).  Truncation is never silent:
    ``dropped_candidates`` counts the PMs elided from the parallel tuples.
    """

    kind: ClassVar[str] = "placement_decided"

    decision_id: int
    vm_id: int
    placer: str = ""
    chosen_pm: int = -1
    context: str = "batch"
    p_on: float = 0.0
    p_off: float = 0.0
    table_fingerprint: str = ""
    cache_hit: bool = False
    score_kind: str = ""
    cand_pms: tuple[int, ...] = ()
    cand_scores: tuple[float, ...] = ()
    cand_verdicts: tuple[str, ...] = ()
    dropped_candidates: int = 0
    total_pms: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "cand_pms", tuple(self.cand_pms))
        object.__setattr__(self, "cand_scores", tuple(self.cand_scores))
        object.__setattr__(self, "cand_verdicts", tuple(self.cand_verdicts))


@register
@dataclass(frozen=True)
class MigrationDecided(TelemetryEvent):
    """One migration target choice with per-candidate verdicts.

    Emitted by the dynamic scheduler right before the migration attempt
    (or instead of one, with ``chosen_pm = -1``, when no target was
    feasible and the overload is tolerated).  Verdicts distinguish the
    veto layers: capacity, crashed host, blacklisted flapper, the source
    PM itself.  ``score`` is the candidate's free room after the move.
    """

    kind: ClassVar[str] = "migration_decided"

    decision_id: int
    vm_id: int
    source_pm: int
    chosen_pm: int = -1
    policy: str = ""
    cause: str = "overload"
    cand_pms: tuple[int, ...] = ()
    cand_scores: tuple[float, ...] = ()
    cand_verdicts: tuple[str, ...] = ()
    dropped_candidates: int = 0
    total_pms: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "cand_pms", tuple(self.cand_pms))
        object.__setattr__(self, "cand_scores", tuple(self.cand_scores))
        object.__setattr__(self, "cand_verdicts", tuple(self.cand_verdicts))


@register
@dataclass(frozen=True)
class ReconsolidationDecided(TelemetryEvent):
    """One global re-plan's move list (truncated) and its cause.

    ``cause`` is ``"periodic"`` for the scheduled cadence or
    ``"requested"`` for an on-demand replan (the autopilot's path).  The
    parallel move tuples keep the first ``executed`` moves up to top-K;
    ``dropped_moves`` counts the elided ones.
    """

    kind: ClassVar[str] = "reconsolidation_decided"

    decision_id: int
    cause: str = "periodic"
    placer: str = ""
    planned_moves: int = 0
    executed_moves: int = 0
    move_vms: tuple[int, ...] = ()
    move_sources: tuple[int, ...] = ()
    move_targets: tuple[int, ...] = ()
    dropped_moves: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "move_vms", tuple(self.move_vms))
        object.__setattr__(self, "move_sources", tuple(self.move_sources))
        object.__setattr__(self, "move_targets", tuple(self.move_targets))


@register
@dataclass(frozen=True)
class ReplanDecided(TelemetryEvent):
    """The evidence behind one autopilot replan decision.

    Links a :class:`ReplanStarted` (same ``time`` and ``fingerprint``) to
    what triggered it: the count of fresh drift detections and the PMs
    they flagged, or the sustained SLO-alert streak and the rules that
    were firing.  The eventual :class:`ReplanCommitted` /
    :class:`ReplanRolledBack` with the same fingerprint closes the chain.
    """

    kind: ClassVar[str] = "replan_decided"

    decision_id: int
    cause: str = ""
    fingerprint: str = ""
    drift_detections: int = 0
    drift_pms: tuple[int, ...] = ()
    alert_streak: int = 0
    active_alerts: tuple[str, ...] = ()
    baseline_cvr: float = 0.0
    budget: int = 0
    deadline: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "drift_pms", tuple(self.drift_pms))
        object.__setattr__(self, "active_alerts",
                           tuple(self.active_alerts))


# --------------------------------------------------------------------- #
# live migration
# --------------------------------------------------------------------- #
@register
@dataclass(frozen=True)
class MigrationStarted(TelemetryEvent):
    """A live-migration attempt began (outcome not yet known)."""

    kind: ClassVar[str] = "migration_started"

    vm_id: int
    source_pm: int
    target_pm: int


@register
@dataclass(frozen=True)
class MigrationCompleted(TelemetryEvent):
    """A live migration landed; the VM now runs on ``target_pm``."""

    kind: ClassVar[str] = "migration_completed"

    vm_id: int
    source_pm: int
    target_pm: int


@register
@dataclass(frozen=True)
class MigrationFailed(TelemetryEvent):
    """A migration aborted mid-flight; the VM stays on ``source_pm``."""

    kind: ClassVar[str] = "migration_failed"

    vm_id: int
    source_pm: int
    target_pm: int
    consecutive_failures: int = 1
    backoff_intervals: int = 0


@register
@dataclass(frozen=True)
class TargetBlacklisted(TelemetryEvent):
    """A flapping target PM was vetoed for future migrations."""

    kind: ClassVar[str] = "target_blacklisted"

    pm_id: int
    until_time: int


# --------------------------------------------------------------------- #
# failures and recovery
# --------------------------------------------------------------------- #
@register
@dataclass(frozen=True)
class PMCrashed(TelemetryEvent):
    """A PM failed; ``blast_radius`` VMs were resident when it died.

    ``domain`` is the fault-domain index for correlated outages, or -1 for
    an independent crash.
    """

    kind: ClassVar[str] = "pm_crashed"

    pm_id: int
    blast_radius: int = 0
    domain: int = -1


@register
@dataclass(frozen=True)
class PMRepaired(TelemetryEvent):
    """A failed PM came back after ``downtime_intervals`` intervals."""

    kind: ClassVar[str] = "pm_repaired"

    pm_id: int
    downtime_intervals: int = 0


@register
@dataclass(frozen=True)
class VMStranded(TelemetryEvent):
    """Evacuation failed everywhere: the VM sits unserved on dead hardware."""

    kind: ClassVar[str] = "vm_stranded"

    vm_id: int
    pm_id: int


@register
@dataclass(frozen=True)
class DegradationApplied(TelemetryEvent):
    """A VM was throttled to base demand ``R_b`` to fit on ``pm_id``."""

    kind: ClassVar[str] = "degradation_applied"

    vm_id: int
    pm_id: int


@register
@dataclass(frozen=True)
class ServiceRestored(TelemetryEvent):
    """A stranded or degraded VM returned to (full) service.

    ``reason`` is one of ``"headroom"`` (a throttled VM was promoted back
    to full demand), ``"evacuated"`` (a stranded VM found a healthy host)
    or ``"host_recovered"`` (the failed PM under a stranded VM repaired).
    """

    kind: ClassVar[str] = "service_restored"

    vm_id: int
    pm_id: int
    reason: str = "headroom"


# --------------------------------------------------------------------- #
# capacity and control plane
# --------------------------------------------------------------------- #
@register
@dataclass(frozen=True)
class CapacityViolation(TelemetryEvent):
    """A PM's aggregate demand exceeded its capacity this interval."""

    kind: ClassVar[str] = "capacity_violation"

    pm_id: int
    load: float
    capacity: float


@register
@dataclass(frozen=True)
class ReconsolidationTriggered(TelemetryEvent):
    """A periodic global re-plan ran and executed part of its move list."""

    kind: ClassVar[str] = "reconsolidation_triggered"

    planned_moves: int
    executed_moves: int


# --------------------------------------------------------------------- #
# observability plane (see :mod:`repro.observability`)
# --------------------------------------------------------------------- #
@register
@dataclass(frozen=True)
class IntervalSnapshot(TelemetryEvent):
    """Per-interval fleet state sample for the run observatory.

    One snapshot per recorded interval (opt-in via the monitor's
    ``snapshot_every``), carrying parallel per-powered-on-PM tuples so the
    time-series recorder, SLO engine and drift detector can be driven from
    the event stream alone — a recorded JSONL trace replays into the exact
    same observatory state with no simulator re-execution.

    ``expected_on`` / ``expected_var`` are the *assumed* (spec-time)
    stationary ON count and its per-interval variance rate per PM — the
    Geom/Geom/K model MapCal sized reservations against — including the
    Markov autocorrelation inflation ``(1 + r) / (1 - r)`` with
    ``r = 1 - p_on - p_off``, so drift tests compare the observed ON counts
    against a correctly-scaled null.
    """

    kind: ClassVar[str] = "interval_snapshot"

    pm_ids: tuple[int, ...] = ()
    loads: tuple[float, ...] = ()
    capacities: tuple[float, ...] = ()
    hosted: tuple[int, ...] = ()
    on_vms: tuple[int, ...] = ()
    expected_on: tuple[float, ...] = ()
    expected_var: tuple[float, ...] = ()
    migrations: int = 0
    overloaded: int = 0

    def __post_init__(self) -> None:
        # JSONL round-trips deliver lists; normalize so replayed events
        # compare equal to (and hash like) the originals.
        for name in ("pm_ids", "loads", "capacities", "hosted", "on_vms",
                     "expected_on", "expected_var"):
            object.__setattr__(self, name, tuple(getattr(self, name)))


@register
@dataclass(frozen=True)
class AlertFired(TelemetryEvent):
    """An SLO rule's multi-window burn rate crossed its thresholds."""

    kind: ClassVar[str] = "alert_fired"

    rule: str
    metric: str = ""
    severity: str = "page"
    burn_fast: float = 0.0
    burn_slow: float = 0.0
    budget: float = 0.0


@register
@dataclass(frozen=True)
class AlertResolved(TelemetryEvent):
    """A previously firing SLO alert dropped back below threshold."""

    kind: ClassVar[str] = "alert_resolved"

    rule: str
    active_intervals: int = 0


@register
@dataclass(frozen=True)
class DriftDetected(TelemetryEvent):
    """A PM's observed ON-fraction departed from the assumed Geom/Geom/K law.

    Fired by the sequential chi-square drift detector when the (p_on, p_off)
    model MapCal consolidated against no longer matches runtime behaviour —
    the early warning that the CVR bound's premises are eroding.
    """

    kind: ClassVar[str] = "drift_detected"

    pm_id: int
    statistic: float = 0.0
    threshold: float = 0.0
    observed_on_fraction: float = 0.0
    expected_on_fraction: float = 0.0
    windows: int = 1


# --------------------------------------------------------------------- #
# durable execution (simulation checkpoints)
# --------------------------------------------------------------------- #
@register
@dataclass(frozen=True)
class CheckpointWritten(TelemetryEvent):
    """A full simulation checkpoint was persisted to disk.

    ``time`` is the simulation interval the snapshot was taken at;
    ``sha256`` is the payload checksum embedded in the file (what
    :func:`repro.simulation.checkpoint.load_checkpoint` verifies).
    """

    kind: ClassVar[str] = "checkpoint_written"

    path: str = ""
    sha256: str = ""
    size_bytes: int = 0


# --------------------------------------------------------------------- #
# benchmark orchestration (the durable parallel experiment runner)
# --------------------------------------------------------------------- #
@register
@dataclass(frozen=True)
class BenchRunStarted(TelemetryEvent):
    """A bench run opened its journal (the run's durable configuration).

    This is the journal's header record: a resume reads it back to learn
    which jobs the run covers and how they were seeded.
    """

    kind: ClassVar[str] = "bench_run_started"

    pattern: str = "*"
    #: base seed, or -1 when every experiment runs with its published seed
    base_seed: int = -1
    jobs: tuple[str, ...] = ()
    parallel: int = 1
    chaos: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "jobs", tuple(self.jobs))


@register
@dataclass(frozen=True)
class BenchJobStarted(TelemetryEvent):
    """A figure/ablation job was handed to a benchmark worker.

    ``time`` carries the job's submission index (benchmark events live on
    the orchestration clock, not the simulation interval clock).
    """

    kind: ClassVar[str] = "bench_job_started"

    job: str
    seed: int = 0
    worker_count: int = 1
    attempt: int = 1


@register
@dataclass(frozen=True)
class BenchJobFinished(TelemetryEvent):
    """A benchmark job completed (or failed); ``time`` is completion order.

    ``seed`` mirrors the per-job seed (-1 when the experiment ran with its
    published seed) so a resumed run can rebuild the result from the
    journal alone.
    """

    kind: ClassVar[str] = "bench_job_finished"

    job: str
    seconds: float = 0.0
    ok: bool = True
    error: str = ""
    rows_sha256: str = ""
    seed: int = -1


@register
@dataclass(frozen=True)
class BenchJobRetried(TelemetryEvent):
    """A job's worker died, stalled or timed out; it will run again.

    ``attempt`` is the attempt that just failed; the retry is scheduled
    after ``backoff_seconds`` of capped exponential backoff.
    """

    kind: ClassVar[str] = "job_retried"

    job: str
    attempt: int = 1
    error: str = ""
    backoff_seconds: float = 0.0


@register
@dataclass(frozen=True)
class BenchJobQuarantined(TelemetryEvent):
    """A job failed ``attempts`` times in a row and was declared poison.

    Quarantined jobs stop consuming workers; a later ``bench --resume``
    re-executes them from scratch.
    """

    kind: ClassVar[str] = "job_quarantined"

    job: str
    attempts: int = 0
    error: str = ""


@register
@dataclass(frozen=True)
class BenchJobInterrupted(TelemetryEvent):
    """A job was in flight when the run was asked to stop (SIGINT/SIGTERM).

    The journal marks it so ``bench --resume`` knows to re-execute it.
    """

    kind: ClassVar[str] = "job_interrupted"

    job: str
    attempt: int = 1


@register
@dataclass(frozen=True)
class RunResumed(TelemetryEvent):
    """A bench run was resumed from its journal.

    ``completed`` jobs were recovered from the journal and will not re-run;
    ``remaining`` jobs (incomplete, interrupted or quarantined) will.
    """

    kind: ClassVar[str] = "run_resumed"

    run_dir: str = ""
    completed: int = 0
    remaining: int = 0
    skipped_journal_lines: int = 0


# --------------------------------------------------------------------- #
# autopilot control loop
# --------------------------------------------------------------------- #
@register
@dataclass(frozen=True)
class RefitCompleted(TelemetryEvent):
    """The autopilot re-estimated the fleet's ON/OFF chains.

    ``converged`` counts VMs whose Baum-Welch fit converged; the rest fell
    back to the threshold estimator (``fallback``).  ``fingerprint`` is a
    content hash of the rounded fitted parameters — the key under which a
    rolled-back refit is blacklisted.
    """

    kind: ClassVar[str] = "refit_completed"

    n_vms: int = 0
    converged: int = 0
    fallback: int = 0
    fingerprint: str = ""
    cause: str = ""


@register
@dataclass(frozen=True)
class RefitRejected(TelemetryEvent):
    """A refit was discarded before replanning (blacklist or guardrail)."""

    kind: ClassVar[str] = "refit_rejected"

    fingerprint: str = ""
    reason: str = ""


@register
@dataclass(frozen=True)
class ReplanStarted(TelemetryEvent):
    """A guarded replan began: checkpoint taken, migrations requested.

    ``baseline_cvr`` is the windowed CVR at replan time; the guard compares
    post-replan CVR against it at ``deadline``.
    """

    kind: ClassVar[str] = "replan_started"

    cause: str = ""
    fingerprint: str = ""
    checkpoint: str = ""
    baseline_cvr: float = 0.0
    deadline: int = 0
    budget: int = 0


@register
@dataclass(frozen=True)
class ReplanCommitted(TelemetryEvent):
    """The evaluation window passed without regression; replan kept."""

    kind: ClassVar[str] = "replan_committed"

    fingerprint: str = ""
    baseline_cvr: float = 0.0
    post_cvr: float = 0.0
    migrations: int = 0


@register
@dataclass(frozen=True)
class ReplanRolledBack(TelemetryEvent):
    """Post-replan CVR regressed past the guard; state restored.

    ``parity`` records whether the restored in-memory state matched the
    pre-replan checkpoint byte-for-byte (it always should).
    """

    kind: ClassVar[str] = "replan_rolled_back"

    fingerprint: str = ""
    baseline_cvr: float = 0.0
    post_cvr: float = 0.0
    restored_time: int = 0
    parity: bool = True


# --------------------------------------------------------------------- #
# request-level serving (see :mod:`repro.serving` and docs/SERVING.md)
# --------------------------------------------------------------------- #
@register
@dataclass(frozen=True)
class ServingSnapshot(TelemetryEvent):
    """One interval's fleet-wide request-serving sample.

    Emitted by :class:`repro.serving.ServingLayer` each interval, right
    before the :class:`IntervalSnapshot` for the same tick — the recorder
    buffers it and folds both into one finalized interval.  Counts are
    per-interval; the latency percentiles are cumulative over the run so
    far (exact order statistics from the serving layer's
    :class:`repro.serving.LatencyHistogram`).
    """

    kind: ClassVar[str] = "serving_snapshot"

    #: requests produced this interval (before any admission control)
    arrivals: int = 0
    #: requests completed (served) this interval
    completions: int = 0
    #: completions slower than the configured SLA threshold this interval
    slow: int = 0
    #: requests rejected by full VM queues this interval
    lost_queue: int = 0
    #: requests rejected by the full load-leveling buffer this interval
    lost_tier: int = 0
    #: requests dead-lettered by the tier this interval
    dlq: int = 0
    #: requests waiting in VM queues at interval end
    backlog: int = 0
    #: requests levelled in the tier buffer at interval end
    tier_backlog: int = 0
    #: cumulative end-to-end latency percentiles, in intervals (NaN-free:
    #: 0.0 until the first completion)
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0


# --------------------------------------------------------------------- #
# the online placement service (see :mod:`repro.service` and
# docs/ROBUSTNESS.md "The placement service failure model")
# --------------------------------------------------------------------- #
@register
@dataclass(frozen=True)
class AdmissionRejected(TelemetryEvent):
    """The placement service shed one admission request.

    ``time`` is the service's decision sequence number (the WAL ``seq``
    the shed was journaled under).  ``reason`` is a stable string from
    :data:`repro.placement.base.PLACEMENT_REASONS` (normally one of the
    ``SHED_REASONS``: inbox overflow, priority eviction, a full fleet, or
    a degraded solver).  The headroom fields snapshot what the fleet could
    still have taken, so the rejection is actionable from the trace alone.
    """

    kind: ClassVar[str] = "admission_rejected"

    request_key: str = ""
    vm_class: str = "standard"
    reason: str = ""
    inbox_depth: int = 0
    active_pms: int = 0
    free_slots: int = 0
    max_headroom: float = 0.0


@register
@dataclass(frozen=True)
class WALReplayed(TelemetryEvent):
    """The service recovered its state from checkpoint + WAL replay.

    ``time`` is the recovered decision sequence.  ``checkpoint_seq`` is
    the compaction point the replay started from (0 = cold start),
    ``records`` how many journal records were re-applied on top, and
    ``truncated_tail`` how many torn tail lines were dropped.
    ``fingerprint`` is the recovered consolidator state fingerprint — the
    value crash-parity drills compare against an uninterrupted run.
    """

    kind: ClassVar[str] = "wal_replayed"

    path: str = ""
    checkpoint_seq: int = 0
    records: int = 0
    truncated_tail: int = 0
    fingerprint: str = ""


@register
@dataclass(frozen=True)
class PoolScaled(TelemetryEvent):
    """The elastic PM pool changed one PM's lifecycle state.

    ``action`` is one of ``"up"`` (standby -> active), ``"down_prepare"``
    (active -> draining, phase one of the journaled two-phase retire),
    ``"down_commit"`` (draining -> retired; the PM is guaranteed empty) or
    ``"down_abort"`` (draining -> active rollback).  ``time`` is the WAL
    sequence of the journaled decision.
    """

    kind: ClassVar[str] = "pool_scaled"

    action: str = ""
    pm_id: int = -1
    active_pms: int = 0
    draining_pms: int = 0
    cause: str = ""


@register
@dataclass(frozen=True)
class SolverDegraded(TelemetryEvent):
    """The MapCal solve circuit breaker changed state.

    ``state`` is the breaker state after the transition (``"open"``,
    ``"half_open"``, ``"closed"``).  While open the service keeps serving
    the last-known-good mapping table; ``staleness`` counts the decisions
    taken against that stale table so far.
    """

    kind: ClassVar[str] = "solver_degraded"

    state: str = ""
    failures: int = 0
    staleness: int = 0
    error: str = ""


@register
@dataclass(frozen=True)
class ServiceSnapshot(TelemetryEvent):
    """Periodic placement-service health sample (the service's clock).

    The standalone service has no simulation interval clock; ``time`` is
    the WAL decision sequence at sampling time.  The recorder folds these
    into its rolling windows (shed rate, WAL lag, pool size) so the SLO
    engine's burn-rate rules and the SERVICE dashboard panel work on a
    live service exactly as they do on a simulated run.
    """

    kind: ClassVar[str] = "service_snapshot"

    #: admission requests processed since the previous snapshot
    requests: int = 0
    #: requests admitted since the previous snapshot
    admitted: int = 0
    #: requests shed (typed rejections) since the previous snapshot
    shed: int = 0
    #: departures applied since the previous snapshot
    departed: int = 0
    active_pms: int = 0
    draining_pms: int = 0
    retired_pms: int = 0
    hosted_vms: int = 0
    used_pms: int = 0
    #: journal records since the last checkpoint compaction
    wal_lag: int = 0
    #: decisions served against a stale (circuit-broken) mapping table
    staleness: int = 0


@register
@dataclass(frozen=True)
class PoisonQuarantined(TelemetryEvent):
    """A tracked message exhausted its delivery attempts and was DLQ'd."""

    kind: ClassVar[str] = "poison_quarantined"

    vm_id: int = -1
    key: str = ""
    attempts: int = 0
    poison: bool = False
