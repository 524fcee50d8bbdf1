"""Tests for repro.simulation.datacenter."""

import numpy as np
import pytest

from repro.core.types import Placement, PMSpec, VMSpec
from repro.simulation.datacenter import Datacenter
from tests.sim_helpers import force_on

P_ON, P_OFF = 0.01, 0.09


def vm(base, extra, p_on=P_ON, p_off=P_OFF):
    return VMSpec(p_on, p_off, base, extra)


def build_dc(seed=0):
    vms = [vm(10, 5), vm(20, 10), vm(5, 5)]
    pms = [PMSpec(50.0), PMSpec(50.0), PMSpec(50.0)]
    placement = Placement(3, 3, assignment=np.array([0, 0, 1]))
    return Datacenter(vms, pms, placement, seed=seed), vms, pms


class TestConstruction:
    def test_vm_ids_registered_on_pms(self):
        dc, _, _ = build_dc()
        assert dc.placement.vms_on(0).tolist() == [0, 1]
        assert dc.placement.vms_on(1).tolist() == [2]
        assert dc.placement.vms_on(2).tolist() == []
        assert dc.pm_vm_counts().tolist() == [2, 1, 0]
        assert dc.pm_used_mask().tolist() == [True, True, False]

    def test_rejects_incomplete_placement(self):
        vms = [vm(1, 1)]
        pms = [PMSpec(10.0)]
        with pytest.raises(ValueError, match="place every VM"):
            Datacenter(vms, pms, Placement(1, 1))

    def test_rejects_dimension_mismatch(self):
        vms = [vm(1, 1)]
        pms = [PMSpec(10.0)]
        placement = Placement(2, 1, assignment=np.array([0, 0]))
        with pytest.raises(ValueError, match="instance has"):
            Datacenter(vms, pms, placement)

    def test_all_off_initially(self):
        dc, _, _ = build_dc()
        assert not dc.on_states().any()

    def test_stationary_start(self):
        vms = [vm(1, 1)] * 5000
        pms = [PMSpec(1e9)]
        placement = Placement(5000, 1, assignment=np.zeros(5000, dtype=int))
        dc = Datacenter(vms, pms, placement, seed=0, start_stationary=True)
        on_frac = np.mean(dc.on_states())
        assert on_frac == pytest.approx(0.1, abs=0.02)

    def test_placement_copied(self):
        dc, _, _ = build_dc()
        original = Placement(3, 3, assignment=np.array([0, 0, 1]))
        dc2 = Datacenter([vm(1, 1)] * 3, [PMSpec(50.0)] * 3, original, seed=0)
        dc2.migrate(0, 2)
        assert original.pm_of(0) == 0


class TestLoads:
    def test_pm_load_all_off(self):
        dc, _, _ = build_dc()
        assert dc.pm_load(0) == pytest.approx(30.0)
        assert dc.pm_load(1) == pytest.approx(5.0)
        assert dc.pm_load(2) == 0.0

    def test_pm_loads_vector_matches_scalar(self):
        dc, _, _ = build_dc()
        dc.step()
        loads = dc.pm_loads()
        for j in range(3):
            assert loads[j] == pytest.approx(dc.pm_load(j))

    def test_pm_load_is_bit_identical_to_pm_loads(self):
        # VMs 9, 2 and 3 share PM 0.  Their R_b sum to 0.6 in id order
        # (the order pm_loads accumulates in) but to 0.6000000000000001
        # in the iteration order of the set {9, 2, 3}.
        r_base = {2: 0.2, 3: 0.3, 9: 0.1}
        vms = [vm(r_base.get(i, 1.0), 0.0) for i in range(10)]
        assignment = np.array([0 if i in r_base else 1 for i in range(10)])
        pms = [PMSpec(0.6 - 1e-9), PMSpec(100.0)]
        dc = Datacenter(vms, pms, Placement(10, 2, assignment=assignment),
                        seed=0)
        assert dc.pm_load(0) == dc.pm_loads()[0] == 0.6
        # overloaded_pms() and the scheduler's eviction loop condition
        # must agree on whether PM 0 is overloaded
        cap = dc.pm_capacities()[0]
        assert (0 in dc.overloaded_pms()) == (dc.pm_load(0) > cap + 1e-9)

    def test_demand_reflects_state(self):
        dc, _, _ = build_dc()
        force_on(dc, 0)
        assert dc.pm_load(0) == pytest.approx(35.0)

    def test_base_loads_state_independent(self):
        dc, _, _ = build_dc()
        base_before = dc.pm_base_loads().copy()
        for _ in range(20):
            dc.step()
        np.testing.assert_allclose(dc.pm_base_loads(), base_before)

    def test_overloaded_pms(self):
        vms = [vm(30, 30), vm(30, 30)]
        pms = [PMSpec(70.0)]
        placement = Placement(2, 1, assignment=np.array([0, 0]))
        dc = Datacenter(vms, pms, placement, seed=0)
        assert dc.overloaded_pms().size == 0
        force_on(dc)
        np.testing.assert_array_equal(dc.overloaded_pms(), [0])

    def test_used_pm_count(self):
        dc, _, _ = build_dc()
        assert dc.used_pm_count() == 2


class TestDynamics:
    def test_step_updates_runtime_objects(self):
        dc, _, _ = build_dc(seed=42)
        for _ in range(200):
            dc.step()
        flags = dc.on_states()
        np.testing.assert_array_equal(flags, dc._on)
        flags[:] = ~flags  # a copy: the datacenter's mask is untouched
        assert not np.array_equal(flags, dc._on)

    def test_long_run_on_fraction(self):
        vms = [vm(1, 1)] * 50
        pms = [PMSpec(1e9)]
        placement = Placement(50, 1, assignment=np.zeros(50, dtype=int))
        dc = Datacenter(vms, pms, placement, seed=1)
        on_counts = []
        for _ in range(20_000):
            dc.step()
            on_counts.append(dc._on.sum())
        assert np.mean(on_counts) / 50 == pytest.approx(0.1, abs=0.01)

    def test_reproducible(self):
        a, _, _ = build_dc(seed=7)
        b, _, _ = build_dc(seed=7)
        for _ in range(100):
            a.step()
            b.step()
        np.testing.assert_array_equal(a._on, b._on)


class TestMigrate:
    def test_migrate_moves_vm(self):
        dc, _, _ = build_dc()
        src = dc.migrate(0, 2)
        assert src == 0
        assert dc.placement.pm_of(0) == 2
        assert dc.placement.vms_on(0).tolist() == [1]
        assert dc.placement.vms_on(2).tolist() == [0]
        assert dc.pm_vm_counts().tolist() == [1, 1, 1]
        assert dc.used_pm_count() == 3

    def test_migrate_preserves_load_total(self):
        dc, _, _ = build_dc()
        total_before = dc.pm_loads().sum()
        dc.migrate(1, 2)
        assert dc.pm_loads().sum() == pytest.approx(total_before)
