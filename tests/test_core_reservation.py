"""Tests for repro.core.reservation — Eq. (17) and the ledger's bookkeeping."""

import dataclasses

import pytest

from repro.core.mapcal import mapcal_table
from repro.core.reservation import ReservationLedger, reserved_size
from repro.core.types import PMSpec, VMSpec
from tests.eq17_oracle import PMReservationState as OracleState
from tests.eq17_oracle import fits_scalar

P_ON, P_OFF, RHO = 0.01, 0.09, 0.01


@pytest.fixture(scope="module")
def mapping():
    return mapcal_table(16, P_ON, P_OFF, RHO)


def vm(base, extra):
    return VMSpec(P_ON, P_OFF, base, extra)


def ledger_with(mapping, capacity, hosted=()):
    """A one-PM ledger of ``capacity`` already hosting ``hosted``."""
    ledger = ReservationLedger([PMSpec(capacity)], mapping)
    for vm_id, spec in enumerate(hosted):
        ledger.add(0, vm_id, spec)
    return ledger


def fits(ledger, spec):
    return bool(ledger.fit_mask(spec)[0])


class TestReservedSize:
    def test_empty_pm(self, mapping):
        assert reserved_size(10.0, 0, mapping) == 0.0

    def test_block_size_times_count(self, mapping):
        k = 5
        expected = 10.0 * mapping.blocks_for(k)
        assert reserved_size(10.0, k, mapping) == expected


class TestFitsWithReservation:
    """Eq. (17) boundary cases, on a one-PM ledger."""

    def test_empty_pm_accepts_when_room(self, mapping):
        assert fits(ledger_with(mapping, 100.0), vm(10, 10))

    def test_eq17_exact_boundary(self, mapping):
        # One VM: needs R_b + mapping(1) * R_e <= C.
        K1 = mapping.blocks_for(1)
        need = 10.0 + K1 * 10.0
        assert fits(ledger_with(mapping, need), vm(10, 10))
        assert not fits(ledger_with(mapping, need - 0.001), vm(10, 10))

    def test_block_size_takes_max_of_new_and_existing(self, mapping):
        # Existing max R_e is 20; adding a small-spike VM still reserves 20/block.
        hosted = [vm(15, 20), vm(15, 1)]  # |T_j| = 2, sum R_b = 30
        blocks = mapping.blocks_for(3)
        need = 20.0 * blocks + 30.0 + 5.0  # base sums
        assert fits(ledger_with(mapping, need, hosted), vm(5, 2))
        assert not fits(ledger_with(mapping, need - 0.01, hosted), vm(5, 2))

    def test_rejects_beyond_d(self, mapping):
        full = ledger_with(mapping, 1e9, [vm(0.001, 0.001)] * 16)
        assert not fits(full, vm(0.001, 0.001))
        assert full.first_fit(vm(0.001, 0.001)) == -1


class TestPMReservationState:
    """The ledger's per-PM bookkeeping, read through :meth:`state`."""

    def test_add_updates_aggregates(self, mapping):
        ledger = ledger_with(mapping, 100.0, [vm(10, 5), vm(20, 15)])
        state = ledger.state(0)
        assert state.count == 2 == ledger.count[0]
        assert state.base_sum == pytest.approx(30.0)
        assert state.max_extra == 15.0
        assert state.n_blocks == mapping.blocks_for(2)
        assert state.reserved == pytest.approx(15.0 * mapping.blocks_for(2))
        assert state.committed == pytest.approx(30.0 + state.reserved)
        assert state.committed == ledger.committed()[0]
        assert state.headroom == pytest.approx(100.0 - state.committed)

    def test_fits_matches_free_function(self, mapping):
        ledger = ledger_with(mapping, 60.0, [vm(20, 10)])
        oracle = OracleState(PMSpec(60.0), mapping)
        oracle.add(0, vm(20, 10))
        for candidate in (vm(25, 5), vm(1, 1), vm(30, 30)):
            assert fits(ledger, candidate) == fits_scalar(oracle, candidate)

    def test_duplicate_id_rejected(self, mapping):
        ledger = ledger_with(mapping, 100.0, [vm(1, 1)])
        with pytest.raises(ValueError, match="already"):
            ledger.add(0, 0, vm(1, 1))

    def test_add_beyond_d_rejected(self, mapping):
        ledger = ledger_with(mapping, 1e9, [vm(0.1, 0.1)] * 16)
        with pytest.raises(ValueError, match="d=16"):
            ledger.add(0, 99, vm(0.1, 0.1))

    def test_remove_recomputes_max_extra(self, mapping):
        ledger = ledger_with(mapping, 100.0, [vm(10, 20), vm(10, 5)])
        removed = ledger.remove(0, 0)
        assert removed.r_extra == 20.0
        assert ledger.max_extra[0] == 5.0
        assert ledger.count[0] == 1

    def test_remove_to_empty_resets(self, mapping):
        ledger = ledger_with(mapping, 100.0, [vm(10, 20)])
        ledger.remove(0, 0)
        state = ledger.state(0)
        assert state.is_empty
        assert state.base_sum == 0.0
        assert state.max_extra == 0.0
        assert state.n_blocks == 0
        assert state.reserved == 0.0

    def test_remove_unknown_raises(self, mapping):
        ledger = ledger_with(mapping, 100.0)
        with pytest.raises(KeyError):
            ledger.remove(0, 7)

    def test_remove_keeps_max_when_other_vm_holds_it(self, mapping):
        ledger = ledger_with(mapping, 100.0, [vm(10, 20), vm(10, 20)])
        ledger.remove(0, 0)
        assert ledger.max_extra[0] == 20.0

    def test_remove_reopens_a_pm_at_the_cap(self, mapping):
        ledger = ledger_with(mapping, 1e9, [vm(0.1, 0.1)] * 16)
        ledger.remove(0, 3)
        assert fits(ledger, vm(0.1, 0.1))

    def test_state_is_a_frozen_snapshot(self, mapping):
        ledger = ledger_with(mapping, 100.0, [vm(10, 5)])
        state = ledger.state(0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.base_sum = 1.0
        ledger.add(0, 1, vm(20, 15))
        ledger.remove(0, 0)
        assert list(state.vms) == [0]
        assert state.base_sum == 10.0 and state.max_extra == 5.0
        assert not hasattr(state, "add") and not hasattr(state, "fits")
