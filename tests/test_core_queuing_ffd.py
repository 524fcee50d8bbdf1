"""Tests for repro.core.queuing_ffd — Algorithm 2."""

import numpy as np
import pytest

from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.placement.base import InsufficientCapacityError
from repro.placement.ffd import ffd_by_peak
from repro.placement.validation import (
    check_capacity_at_base,
    check_placement_complete,
    max_vms_on_any_pm,
)
from repro.workload.patterns import generate_pattern_instance
from tests.eq17_oracle import place_reference

P_ON, P_OFF = 0.01, 0.09


def vm(base, extra):
    return VMSpec(P_ON, P_OFF, base, extra)


class TestOrdering:
    def test_clusters_sorted_by_spike_descending(self):
        placer = QueuingFFD(n_clusters=2)
        vms = [vm(1, 2), vm(9, 18), vm(2, 3), vm(8, 17)]
        order = placer.order_vms(vms)
        # big-spike cluster (indices 1, 3) must come first
        assert set(order[:2].tolist()) == {1, 3}

    def test_within_cluster_by_base_descending(self):
        placer = QueuingFFD(n_clusters=1)
        vms = [vm(5, 10), vm(20, 10), vm(10, 10)]
        order = placer.order_vms(vms)
        np.testing.assert_array_equal(order, [1, 2, 0])

    def test_no_clustering_is_pure_base_sort(self):
        placer = QueuingFFD(cluster_method="none")
        vms = [vm(5, 100), vm(20, 1), vm(10, 50)]
        np.testing.assert_array_equal(placer.order_vms(vms), [1, 2, 0])

    def test_deterministic(self):
        placer = QueuingFFD()
        vms, _ = generate_pattern_instance("equal", 50, seed=3)
        np.testing.assert_array_equal(placer.order_vms(vms), placer.order_vms(vms))

    def test_kmeans_variant_runs(self):
        placer = QueuingFFD(cluster_method="kmeans", n_clusters=3)
        vms, _ = generate_pattern_instance("equal", 30, seed=4)
        order = placer.order_vms(vms)
        assert sorted(order.tolist()) == list(range(30))


class TestPlacement:
    def test_places_every_vm(self, medium_instance):
        vms, pms = medium_instance
        placement = QueuingFFD(rho=0.01, d=16).place(vms, pms)
        check_placement_complete(placement)

    def test_base_demand_fits(self, medium_instance):
        vms, pms = medium_instance
        placement = QueuingFFD(rho=0.01, d=16).place(vms, pms)
        check_capacity_at_base(placement, vms, pms)

    def test_respects_d(self, medium_instance):
        vms, pms = medium_instance
        placement = QueuingFFD(rho=0.01, d=4).place(vms, pms)
        assert max_vms_on_any_pm(placement) <= 4

    def test_eq17_holds_on_every_pm(self, medium_instance):
        vms, pms = medium_instance
        placer = QueuingFFD(rho=0.01, d=16)
        placement, states = placer.place_with_states(vms, pms)
        for pm_idx, state in enumerate(states):
            if state.is_empty:
                continue
            assert state.committed <= pms[pm_idx].capacity + 1e-9
            hosted = placement.vms_on(pm_idx)
            assert len(hosted) == state.count

    def test_states_match_placement(self, medium_instance):
        vms, pms = medium_instance
        placement, states = QueuingFFD().place_with_states(vms, pms)
        for pm_idx, state in enumerate(states):
            assert set(state.vms.keys()) == set(placement.vms_on(pm_idx).tolist())

    def test_uses_fewer_pms_than_peak_provisioning(self):
        for pattern in ("equal", "small", "large"):
            vms, pms = generate_pattern_instance(pattern, 150, seed=11)
            queue = QueuingFFD(rho=0.01, d=16).place(vms, pms)
            rp = ffd_by_peak(max_vms_per_pm=16).place(vms, pms)
            assert queue.n_used_pms <= rp.n_used_pms

    def test_insufficient_capacity_raises(self):
        vms = [vm(50, 50) for _ in range(4)]
        pms = [PMSpec(60.0)]
        with pytest.raises(InsufficientCapacityError):
            QueuingFFD(rho=0.01, d=16).place(vms, pms)

    def test_empty_vm_list(self):
        placement = QueuingFFD().place([], [PMSpec(10.0)])
        assert placement.n_vms == 0
        assert placement.n_used_pms == 0

    def test_single_vm(self):
        placement = QueuingFFD().place([vm(10, 10)], [PMSpec(100.0)])
        assert placement.pm_of(0) == 0

    def test_rho_one_reserves_nothing(self):
        # With rho = 1 violations are always tolerated: packing by R_b only.
        vms = [vm(10, 1000) for _ in range(5)]
        pms = [PMSpec(51.0), PMSpec(51.0)]
        placement = QueuingFFD(rho=1.0, d=16).place(vms, pms)
        assert placement.n_used_pms == 1

    def test_tight_rho_packs_by_peakish(self):
        # rho = 0 forces K = k blocks of size max R_e: at least as many PMs
        # as packing by R_b + max R_e * k, i.e. close to peak provisioning.
        vms, pms = generate_pattern_instance("equal", 60, seed=5)
        strict = QueuingFFD(rho=0.0, d=16).place(vms, pms)
        loose = QueuingFFD(rho=0.5, d=16).place(vms, pms)
        assert strict.n_used_pms >= loose.n_used_pms


class TestVectorizedEqualsReference:
    @pytest.mark.parametrize("pattern", ["equal", "small", "large"])
    def test_assignments_identical(self, pattern):
        vms, pms = generate_pattern_instance(pattern, 120, seed=21)
        placer = QueuingFFD(rho=0.01, d=16)
        fast, fast_states = placer.place_with_states(vms, pms)
        ref, ref_states = place_reference(placer, vms, pms)
        np.testing.assert_array_equal(fast.assignment, ref.assignment)
        for a, b in zip(fast_states, ref_states):
            assert set(a.vms) == set(b.vms)
            assert a.base_sum == pytest.approx(b.base_sum)
            assert a.max_extra == b.max_extra

    def test_identical_under_tight_capacity(self):
        vms, pms = generate_pattern_instance(
            "equal", 60, capacity_range=(45.0, 55.0), seed=22
        )
        placer = QueuingFFD(rho=0.01, d=16)
        fast, _ = placer.place_with_states(vms, pms)
        ref, _ = place_reference(placer, vms, pms)
        np.testing.assert_array_equal(fast.assignment, ref.assignment)

    def test_identical_failure_behaviour(self):
        vms = [VMSpec(P_ON, P_OFF, 50.0, 50.0) for _ in range(4)]
        pms = [PMSpec(60.0)]
        placer = QueuingFFD(rho=0.01, d=16)
        with pytest.raises(InsufficientCapacityError) as fast_exc:
            placer.place_with_states(vms, pms)
        with pytest.raises(InsufficientCapacityError) as ref_exc:
            place_reference(placer, vms, pms)
        assert fast_exc.value.vm_index == ref_exc.value.vm_index


class TestMappingCache:
    def test_mapping_solves_cached_across_calls(self):
        from repro.perf.cache import fresh_cache

        placer = QueuingFFD()
        vms, _ = generate_pattern_instance("equal", 10, seed=0)
        with fresh_cache() as cache:
            m1 = placer.mapping_for(vms)
            solves = cache.misses
            m2 = placer.mapping_for(vms)
            assert cache.misses == solves  # rebuild is pure cache hits
        assert (m1.table == m2.table).all()

    def test_heterogeneous_probs_rounded(self):
        placer = QueuingFFD(rounding_rule="mean")
        vms = [
            VMSpec(0.01, 0.08, 1.0, 1.0),
            VMSpec(0.03, 0.10, 1.0, 1.0),
        ]
        mapping = placer.mapping_for(vms)
        assert mapping.p_on == pytest.approx(0.02)
        assert mapping.p_off == pytest.approx(0.09)

    def test_invalid_cluster_method(self):
        with pytest.raises(ValueError):
            QueuingFFD(cluster_method="bogus")
