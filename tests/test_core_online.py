"""Tests for repro.core.online — Section IV-E online consolidation."""

import pytest

from repro.core.online import OnlineConsolidator
from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.placement.base import InsufficientCapacityError

P_ON, P_OFF = 0.01, 0.09


def vm(base, extra, p_on=P_ON, p_off=P_OFF):
    return VMSpec(p_on, p_off, base, extra)


@pytest.fixture
def consolidator():
    return OnlineConsolidator([PMSpec(100.0) for _ in range(8)],
                              QueuingFFD(rho=0.01, d=16))


class TestAdmit:
    def test_first_fit_goes_to_first_pm(self, consolidator):
        vm_id, pm = consolidator.admit(vm(10, 10))
        assert (vm_id, pm) == (0, 0)
        assert consolidator.n_vms == 1
        assert consolidator.n_used_pms == 1

    def test_ids_are_unique_and_increasing(self, consolidator):
        ids = [consolidator.admit(vm(5, 5))[0] for _ in range(10)]
        assert ids == sorted(set(ids))

    def test_spills_to_next_pm_when_full(self, consolidator):
        # Each VM commits 30 base + reservation; a 100-unit PM takes 3 tops.
        placements = [consolidator.admit(vm(30, 10))[1] for _ in range(6)]
        assert placements[0] == 0
        assert max(placements) >= 1  # overflowed onto another PM
        assert consolidator.n_used_pms >= 2

    def test_eq17_respected_on_every_pm(self, consolidator):
        for _ in range(30):
            consolidator.admit(vm(12, 8))
        for j in range(consolidator.n_pms):
            state = consolidator.state_of(j)
            if not state.is_empty:
                assert state.committed <= state.spec.capacity + 1e-9

    def test_raises_when_fleet_exhausted(self):
        c = OnlineConsolidator([PMSpec(50.0)], QueuingFFD(rho=0.01, d=16))
        c.admit(vm(30, 10))
        with pytest.raises(InsufficientCapacityError):
            for _ in range(10):
                c.admit(vm(30, 10))


class TestDepart:
    def test_depart_frees_capacity(self, consolidator):
        vm_id, pm = consolidator.admit(vm(40, 20))
        before = consolidator.state_of(pm).committed
        consolidator.depart(vm_id)
        assert consolidator.state_of(pm).committed < before
        assert consolidator.n_vms == 0

    def test_depart_unknown_raises(self, consolidator):
        with pytest.raises(KeyError):
            consolidator.depart(99)

    def test_readmission_after_departures(self, consolidator):
        ids = [consolidator.admit(vm(30, 10))[0] for _ in range(6)]
        for i in ids:
            consolidator.depart(i)
        assert consolidator.n_used_pms == 0
        vm_id, pm = consolidator.admit(vm(30, 10))
        assert pm == 0  # first-fit restarts from the front

    def test_queue_shrinks_on_departure(self, consolidator):
        ids = [consolidator.admit(vm(10, 10))[0] for _ in range(6)]
        state = consolidator.state_of(0)
        blocks_before = state.n_blocks
        for i in ids[:4]:
            consolidator.depart(i)
        assert consolidator.state_of(0).n_blocks <= blocks_before


class TestBatch:
    def test_batch_uses_algorithm2_order(self, consolidator):
        batch = [vm(5, 2), vm(20, 18), vm(10, 17)]
        results = consolidator.admit_batch(batch)
        assert len(results) == 3
        assert consolidator.n_vms == 3
        # results align with input positions
        for vm_id, pm in results:
            assert consolidator.pm_of(vm_id) == pm

    def test_empty_batch(self, consolidator):
        assert consolidator.admit_batch([]) == []

    def test_batch_atomic_on_failure(self):
        c = OnlineConsolidator([PMSpec(100.0)], QueuingFFD(rho=0.01, d=16))
        batch = [vm(40, 10), vm(40, 10), vm(40, 10)]  # third cannot fit
        with pytest.raises(InsufficientCapacityError):
            c.admit_batch(batch)
        assert c.n_vms == 0
        assert c.n_used_pms == 0

    def test_batch_then_single_interleave(self, consolidator):
        consolidator.admit_batch([vm(10, 5) for _ in range(5)])
        vm_id, _ = consolidator.admit(vm(10, 5))
        assert consolidator.n_vms == 6
        assert vm_id == 5


class TestRecalibrate:
    def test_noop_when_uniform(self, consolidator):
        consolidator.admit(vm(10, 10))
        assert consolidator.recalibrate() is False

    def test_rebuilds_on_population_drift(self):
        c = OnlineConsolidator([PMSpec(200.0) for _ in range(4)],
                               QueuingFFD(rho=0.01, d=16))
        a, _ = c.admit(vm(10, 10, p_on=0.01, p_off=0.09))
        c.admit(vm(10, 10, p_on=0.05, p_off=0.05))
        # rounded mean changed after the second arrival
        assert c.recalibrate() is True
        # all states now reference the new mapping
        assert c.state_of(0).mapping.p_on == pytest.approx(0.03)

    def test_no_vms_is_noop(self, consolidator):
        assert consolidator.recalibrate() is False

    def test_refused_refit_leaves_every_pm_on_the_old_table(self):
        # PM 1 cannot hold its two VMs under the hot table; PM 0 can.  The
        # refusal must leave both PMs, and the fingerprint, on the old one.
        from repro.core.mapcal import table_fingerprint

        c = OnlineConsolidator([PMSpec(100.0), PMSpec(30.0)],
                               QueuingFFD(rho=0.01, d=16))
        for pm in (0, 0, 1, 1):
            c.admit(vm(10, 10), eligible=[pm])

        def snapshot():
            return [(table_fingerprint(c.state_of(j).mapping),
                     c.state_of(j).committed) for j in range(c.n_pms)]

        before, fingerprint = snapshot(), c.state_fingerprint()
        with pytest.raises(InsufficientCapacityError):
            c.apply_recalibrate(0.5, 0.05)
        assert snapshot() == before
        assert c.state_fingerprint() == fingerprint


class TestAccessors:
    def test_state_before_any_admit_raises(self, consolidator):
        with pytest.raises(RuntimeError, match="no VMs admitted"):
            consolidator.state_of(0)

    def test_hosted_vms_snapshot(self, consolidator):
        vm_id, _ = consolidator.admit(vm(10, 5))
        hosted = consolidator.hosted_vms()
        assert list(hosted.keys()) == [vm_id]
        assert hosted[vm_id].r_base == 10.0

    def test_requires_pms(self):
        with pytest.raises(ValueError):
            OnlineConsolidator([], QueuingFFD())
