"""Rejection-reason provenance: every placer explains every loser.

Satellite contract of the decision-provenance PR: each ``Placer`` (and the
migration target selector) must attach a *typed* rejection verdict to every
candidate PM it passes over — drawn from the fixed ``PLACEMENT_REASONS``
vocabulary, which is a wire protocol (``repro explain`` renders these
strings and recorded traces must stay readable).
"""

import numpy as np
import pytest

from repro.core.online import OnlineConsolidator
from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import Placement, PMSpec, VMSpec
from repro.placement.base import (
    PLACEMENT_REASONS,
    REASON_BLACKLISTED,
    REASON_CAPACITY,
    REASON_CHOSEN,
    REASON_CRASHED,
    REASON_CVR_THRESHOLD,
    REASON_FEASIBLE,
    REASON_SOURCE,
    REASON_SPREAD,
    REASON_VM_CAP,
    VERDICTS,
    InsufficientCapacityError,
    truncate_candidates,
)
from repro.placement.ffd import (
    BestFitDecreasing,
    FirstFitDecreasing,
    NextFit,
    WorstFitDecreasing,
    ffd_by_base,
    ffd_by_peak,
    size_by_base,
    size_by_peak,
)
from repro.placement.grand import GreedyRandomPlacer
from repro.placement.rbex import RBExPlacer
from repro.placement.sbp import StochasticBinPacker
from repro.placement.spread import DomainSpreadConstraint
from repro.simulation.datacenter import Datacenter
from repro.simulation.migration import explain_targets
from repro.simulation.topology import Topology
from repro.telemetry import (
    MigrationDecided,
    PlacementDecided,
    RingBufferSink,
    Telemetry,
)

P_ON, P_OFF = 0.01, 0.09


def vm(base, extra=0.0, p_on=P_ON, p_off=P_OFF):
    return VMSpec(p_on, p_off, base, extra)


def pms(*caps):
    return [PMSpec(c) for c in caps]


def decisions_for(placer, vms, pm_list):
    """Run an instrumented pass; return its PlacementDecided events."""
    sink = RingBufferSink()
    tel = Telemetry(sink)
    placer.place_and_report(vms, pm_list, telemetry=tel)
    return [e for e in sink.events if isinstance(e, PlacementDecided)]


ALL_PLACERS = [
    pytest.param(lambda: FirstFitDecreasing(size_by_peak), id="FFD"),
    pytest.param(lambda: BestFitDecreasing(size_by_peak), id="BFD"),
    pytest.param(lambda: WorstFitDecreasing(size_by_peak), id="WFD"),
    pytest.param(lambda: NextFit(size_by_peak), id="NF"),
    pytest.param(lambda: ffd_by_peak(), id="RP"),
    pytest.param(lambda: ffd_by_base(), id="RB"),
    pytest.param(lambda: StochasticBinPacker(), id="SBP"),
    pytest.param(lambda: QueuingFFD(rho=0.01, d=16), id="QUEUE"),
    pytest.param(lambda: RBExPlacer(delta=0.3), id="RBEx"),
    pytest.param(lambda: GreedyRandomPlacer(rho=0.01, d=16, seed=3),
                 id="GRAND"),
]


class TestReasonVocabulary:
    def test_reason_strings_are_stable(self):
        # Wire protocol: recorded traces must stay explainable.  Changing
        # any of these strings breaks `repro explain` on old JSONL.
        assert PLACEMENT_REASONS == {
            "chosen", "feasible", "capacity", "cvr_threshold", "vm_cap",
            "spread_constraint", "crashed_pm", "blacklisted_pm", "source_pm",
            "draining_pm", "fleet_full", "shed_inbox_full", "shed_priority",
            "shed_solver_degraded",
        }

    @pytest.mark.parametrize("make_placer", ALL_PLACERS)
    def test_every_placer_emits_typed_verdicts(self, make_placer):
        vms = [vm(20, 10) for _ in range(6)]
        events = decisions_for(make_placer(), vms, pms(*[64.0] * 4))
        assert len(events) == len(vms)  # one decision per VM
        for e in events:
            assert set(e.cand_verdicts) <= PLACEMENT_REASONS
            assert len(e.cand_pms) == len(e.cand_scores)
            assert len(e.cand_pms) == len(e.cand_verdicts)
            assert e.total_pms == 4
            # exactly one winner per successful decision
            assert e.chosen_pm >= 0
            assert e.cand_verdicts.count(REASON_CHOSEN) == 1
            assert e.cand_verdicts[e.cand_pms.index(e.chosen_pm)] \
                == REASON_CHOSEN

    @pytest.mark.parametrize("make_placer", ALL_PLACERS)
    def test_no_decisions_without_telemetry(self, make_placer):
        # The zero-telemetry hot path must not pay for provenance.
        placer = make_placer()
        placer.place([vm(20, 10) for _ in range(4)], pms(*[64.0] * 4))
        assert placer.explainer is None


class TestGreedyRejections:
    def test_capacity_rejection(self):
        events = decisions_for(FirstFitDecreasing(size_by_peak),
                               [vm(20)], pms(10, 30))
        (e,) = events
        assert e.chosen_pm == 1
        assert e.cand_verdicts[e.cand_pms.index(0)] == REASON_CAPACITY

    def test_vm_cap_rejection(self):
        placer = FirstFitDecreasing(size_by_base, max_vms_per_pm=1)
        events = decisions_for(placer, [vm(5), vm(5)], pms(100, 100))
        second = events[1]
        assert second.chosen_pm == 1
        assert second.cand_verdicts[second.cand_pms.index(0)] == REASON_VM_CAP

    def test_spread_rejection(self):
        spread = DomainSpreadConstraint(Topology([0, 1]),
                                        max_vms_per_domain=1)
        placer = FirstFitDecreasing(size_by_base, spread=spread)
        events = decisions_for(placer, [vm(5), vm(5)], pms(100, 100))
        second = events[1]
        assert second.chosen_pm == 1
        assert second.cand_verdicts[second.cand_pms.index(0)] == REASON_SPREAD

    def test_infeasible_decision_recorded_before_raise(self):
        sink = RingBufferSink()
        tel = Telemetry(sink)
        with pytest.raises(InsufficientCapacityError):
            FirstFitDecreasing(size_by_peak).place_and_report(
                [vm(20)], pms(10, 5), telemetry=tel)
        events = [e for e in sink.events if isinstance(e, PlacementDecided)]
        (e,) = events
        assert e.chosen_pm == -1
        assert set(e.cand_verdicts) == {REASON_CAPACITY}


class TestSBPRejections:
    def test_overflow_probability_rejection(self):
        # Each VM alone fits (peak 9 <= 12), but two share too much
        # variance: the z-scored need exceeds the capacity, which is the
        # SBP analogue of the CVR threshold.
        bursty = vm(5, 4, p_on=0.5, p_off=0.5)
        events = decisions_for(StochasticBinPacker(epsilon=0.01),
                               [bursty, bursty], pms(12, 12))
        second = events[1]
        assert second.chosen_pm == 1
        assert second.cand_verdicts[second.cand_pms.index(0)] \
            == REASON_CVR_THRESHOLD
        assert second.score_kind == "overflow_probability"

    def test_peak_capacity_rejection(self):
        events = decisions_for(StochasticBinPacker(epsilon=0.01),
                               [vm(5, 10)], pms(10, 20))
        (e,) = events
        assert e.chosen_pm == 1
        assert e.cand_verdicts[e.cand_pms.index(0)] == REASON_CAPACITY


class TestQueuingFFDRejections:
    def test_vm_cap_rejection(self):
        placer = QueuingFFD(rho=0.01, d=1, cluster_method="none")
        events = decisions_for(placer, [vm(5, 5), vm(5, 5)], pms(100, 100))
        second = events[1]
        assert second.chosen_pm == 1
        assert second.cand_verdicts[second.cand_pms.index(0)] == REASON_VM_CAP

    def test_reservation_rejection(self):
        # One PM too small for the Eq. (17) reservation of two VMs but
        # fine for one: the second VM is turned away with cvr_threshold.
        placer = QueuingFFD(rho=0.01, d=16, cluster_method="none")
        big = vm(30, 30, p_on=0.2, p_off=0.2)
        events = decisions_for(placer, [big, big], pms(70, 200))
        second = events[1]
        assert second.chosen_pm == 1
        assert second.cand_verdicts[second.cand_pms.index(0)] \
            == REASON_CVR_THRESHOLD

    def test_spread_rejection(self):
        spread = DomainSpreadConstraint(Topology([0, 1]),
                                        max_vms_per_domain=1)
        placer = QueuingFFD(rho=0.01, d=16, cluster_method="none",
                            spread=spread)
        events = decisions_for(placer, [vm(5, 5), vm(5, 5)], pms(100, 100))
        second = events[1]
        assert second.chosen_pm == 1
        assert second.cand_verdicts[second.cand_pms.index(0)] == REASON_SPREAD

    def test_inputs_carry_model_provenance(self):
        placer = QueuingFFD(rho=0.01, d=16, cluster_method="none")
        events = decisions_for(placer, [vm(5, 5)], pms(100,))
        (e,) = events
        assert len(e.table_fingerprint) == 12
        assert e.score_kind == "reservation_headroom"
        assert e.p_on == pytest.approx(P_ON, abs=0.05)


class TestOnlineRejections:
    def test_admission_decision_recorded(self):
        sink = RingBufferSink()
        tel = Telemetry(sink)
        online = OnlineConsolidator([PMSpec(100.0)] * 3,
                                    QueuingFFD(rho=0.01, d=16),
                                    telemetry=tel)
        online.admit(vm(10, 10))
        events = [e for e in sink.events if isinstance(e, PlacementDecided)]
        (e,) = events
        assert e.context == "online"
        assert e.chosen_pm == 0
        assert e.cand_verdicts[e.cand_pms.index(0)] == REASON_CHOSEN
        assert set(e.cand_verdicts) <= PLACEMENT_REASONS

    def test_rejected_admission_recorded(self):
        sink = RingBufferSink()
        tel = Telemetry(sink)
        online = OnlineConsolidator([PMSpec(10.0)],
                                    QueuingFFD(rho=0.01, d=16),
                                    telemetry=tel)
        with pytest.raises(InsufficientCapacityError):
            online.admit(vm(50, 10))
        events = [e for e in sink.events if isinstance(e, PlacementDecided)]
        (e,) = events
        assert e.chosen_pm == -1
        assert e.cand_verdicts[0] == REASON_CVR_THRESHOLD


class TestMigrationRejections:
    def _dc(self):
        vms = [vm(10, 0), vm(10, 0), vm(10, 0)]
        pm_list = pms(100, 100, 100, 12)
        placement = Placement(len(vms), len(pm_list),
                              assignment=np.array([0, 0, 1]))
        return Datacenter(vms, pm_list, placement, seed=0)

    def test_source_crashed_blacklisted_capacity(self):
        dc = self._dc()
        crashed = np.array([False, True, False, False])
        blacklisted = np.array([False, False, True, False])
        codes, scores = explain_targets(dc, 0, 0, crashed=crashed,
                                        blacklisted=blacklisted)
        verdicts = [VERDICTS[c] for c in codes]
        assert verdicts[0] == REASON_SOURCE
        assert verdicts[1] == REASON_CRASHED
        assert verdicts[2] == REASON_BLACKLISTED
        assert verdicts[3] == REASON_FEASIBLE  # 12 >= 10 demand
        assert len(scores) == 4

    def test_capacity_veto(self):
        dc = self._dc()
        big = [vm(50, 0), vm(10, 0), vm(10, 0)]
        pm_list = pms(100, 100, 100, 12)
        placement = Placement(3, 4, assignment=np.array([0, 0, 1]))
        dc = Datacenter(big, pm_list, placement, seed=0)
        codes, scores = explain_targets(dc, 0, 0)
        assert VERDICTS[codes[3]] == REASON_CAPACITY  # 50 > 12
        assert scores[3] < 0


def explain_targets_reference(dc, vm_id, source_pm, *, crashed=None,
                              blacklisted=None):
    """The per-PM Python loop ``explain_targets`` replaced: verdict strings
    (source > crashed > blacklisted > capacity) and residual scores."""
    loads = dc.pm_loads()
    caps = np.array([p.capacity for p in dc.pm_specs])
    residual = caps - loads - dc.vm_demands()[vm_id]
    verdicts = []
    for j in range(caps.size):
        if j == source_pm:
            verdicts.append(REASON_SOURCE)
        elif crashed is not None and crashed[j]:
            verdicts.append(REASON_CRASHED)
        elif blacklisted is not None and blacklisted[j]:
            verdicts.append(REASON_BLACKLISTED)
        elif residual[j] < -1e-9:
            verdicts.append(REASON_CAPACITY)
        else:
            verdicts.append(REASON_FEASIBLE)
    return verdicts, residual.tolist()


def emit_decision_reference(self, decision_id, time, vm_id, source_pm,
                            target):
    """``DynamicScheduler._emit_decision`` as it was, on verdict strings."""
    tel = self.telemetry
    crashed = (np.asarray(self.excluded_pms_fn(), dtype=bool)
               if self.excluded_pms_fn is not None else None)
    verdicts, scores = explain_targets_reference(
        self.dc, vm_id, source_pm, crashed=crashed,
        blacklisted=self.executor.blacklisted_mask(time))
    chosen = -1 if target is None else int(target)
    if chosen >= 0:
        verdicts[chosen] = REASON_CHOSEN
    keep, dropped = truncate_candidates(verdicts, chosen)
    if dropped:
        tel.metrics.counter(
            "decisions_dropped_total",
            "candidate rows truncated from decision events").inc(dropped)
    tel.emit(MigrationDecided(
        time=time, decision_id=decision_id, vm_id=int(vm_id),
        source_pm=int(source_pm), chosen_pm=chosen,
        policy=getattr(self.policy, "name", type(self.policy).__name__),
        cand_pms=tuple(keep),
        cand_scores=tuple(round(float(scores[i]), 6) for i in keep),
        cand_verdicts=tuple(verdicts[i] for i in keep),
        dropped_candidates=int(dropped), total_pms=len(verdicts)))


class TestMigrationVerdictOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_codes_match_the_string_loop(self, seed):
        rng = np.random.default_rng(seed)
        n_vms, n_pms = 30, 12
        vms = [vm(float(rng.choice([2.0, 5.0, 10.0])),
                  float(rng.choice([0.0, 5.0]))) for _ in range(n_vms)]
        pm_list = pms(*rng.choice([20.0, 40.0, 60.0], n_pms))
        placement = Placement(n_vms, n_pms,
                              assignment=rng.integers(0, n_pms // 2, n_vms))
        dc = Datacenter(vms, pm_list, placement, seed=seed,
                        start_stationary=True)
        for vm_id in range(0, n_vms, 3):
            source = dc.placement.pm_of(vm_id)
            for crashed, blacklisted in (
                    (None, None),
                    (rng.random(n_pms) < 0.3, None),
                    (rng.random(n_pms) < 0.3, rng.random(n_pms) < 0.3)):
                codes, scores = explain_targets(
                    dc, vm_id, source, crashed=crashed,
                    blacklisted=blacklisted)
                verdicts, ref_scores = explain_targets_reference(
                    dc, vm_id, source, crashed=crashed,
                    blacklisted=blacklisted)
                assert [VERDICTS[c] for c in codes] == verdicts
                assert scores.tolist() == ref_scores

    def test_migration_decided_events_match_the_string_path(self,
                                                            monkeypatch):
        from repro.simulation.migration import RetryPolicy
        from repro.simulation.scenario import Scenario
        from repro.simulation.scheduler import DynamicScheduler
        from repro.workload.patterns import generate_pattern_instance

        # 13 PMs is QueuingFFD's own count for this instance: a full fleet,
        # so vetoed PMs survive the top-K truncation
        vms, pm_list = generate_pattern_instance("large", 80, seed=5)

        def decisions():
            sink = RingBufferSink()
            tel = Telemetry(sink)
            Scenario(vms, pm_list[:13], placer=QueuingFFD(rho=0.01, d=16),
                     failures={"failure_probability": 0.03},
                     migration_failure_probability=0.5,
                     retry_policy=RetryPolicy(blacklist_threshold=1),
                     start_stationary=True, telemetry=tel).run(100, seed=2)
            return [e.to_dict() for e in sink.events
                    if isinstance(e, MigrationDecided)]

        fast = decisions()
        monkeypatch.setattr(DynamicScheduler, "_emit_decision",
                            emit_decision_reference)
        assert fast == decisions()
        seen = {v for e in fast for v in e["cand_verdicts"]}
        assert seen == {REASON_CHOSEN, REASON_FEASIBLE, REASON_CAPACITY,
                        REASON_CRASHED, REASON_BLACKLISTED, REASON_SOURCE}
        assert any(e["chosen_pm"] == -1 for e in fast)


class TestCandidateTruncation:
    def test_winner_and_feasible_kept_first(self):
        verdicts = (["capacity"] * 5 + ["feasible"] * 5 + ["chosen"]
                    + ["capacity"] * 5)
        keep, dropped = truncate_candidates(verdicts, chosen=10, top_k=8)
        assert dropped == 8
        assert 10 in keep                      # the winner survives
        assert set(keep) >= set(range(5, 10))  # all feasible survive
        assert keep == sorted(keep)            # rendered in PM order

    def test_no_truncation_when_small(self):
        keep, dropped = truncate_candidates(["chosen", "feasible"], 0)
        assert keep == [0, 1]
        assert dropped == 0

    def test_truncation_is_counted_in_events(self):
        events = decisions_for(FirstFitDecreasing(size_by_base),
                               [vm(5)], pms(*[100] * 20))
        (e,) = events
        assert len(e.cand_pms) == 8
        assert e.dropped_candidates == 12
        assert e.total_pms == 20
