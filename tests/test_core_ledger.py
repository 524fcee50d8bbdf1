"""The reservation ledger against a per-PM scalar Eq. (17) oracle.

Every fast Eq. (17) path — QueuingFFD's and GRAND's batch loops, the online
consolidator's admission, verdict rows and headroom summary, and the
placement service's decision — runs on :class:`ReservationLedger`.  These
tests pin the ledger's ``need``, ``first_fit``, feasible list and verdict
codes to :mod:`tests.eq17_oracle` on random fleets that include PMs at the
``d`` cap and exact-capacity ties.
"""

import numpy as np
import pytest

from repro.core import reservation
from repro.core.mapcal import mapcal_table
from repro.core.online import OnlineConsolidator
from repro.core.reservation import (
    PMReservationState,
    ReservationLedger,
    fits_with_reservation,
)
from repro.core.types import PMSpec, VMSpec
from repro.placement.base import (
    REASON_CHOSEN,
    REASON_CVR_THRESHOLD,
    REASON_DRAINING,
    REASON_FEASIBLE,
    REASON_SPREAD,
    REASON_VM_CAP,
    VERDICTS,
    AdmissionRejectedError,
    InsufficientCapacityError,
    truncate_candidates,
)
from repro.placement.grand import GreedyRandomPlacer
from tests.eq17_oracle import fits_scalar, need_scalar, verdict_scalar

#: sizes on a coarse grid (exact sums, so ties are common) plus values
#: that are not representable in binary
SIZES = [0.5, 1.0, 2.0, 3.0, 0.1, 0.3, 2.7]


def random_fleet(rng):
    """(ledger, oracle states, candidate VMs) for one random fleet."""
    d = int(rng.choice([2, 4, 8]))
    mapping = mapcal_table(d, 0.1, float(rng.choice([0.3, 0.5, 0.9])), 0.01)
    m = int(rng.integers(1, 25))
    candidates = [VMSpec(0.1, 0.5, float(rng.choice(SIZES)),
                         float(rng.choice(SIZES))) for _ in range(4)]
    pms, hosted = [], []
    for j in range(m):
        count = int(d if rng.random() < 0.2 else rng.integers(0, d))
        vms = {100 * j + i: VMSpec(0.1, 0.5, float(rng.choice(SIZES)),
                                   float(rng.choice(SIZES)))
               for i in range(count)}
        probe = PMReservationState(PMSpec(1.0), mapping)
        for vm_id, spec in vms.items():
            probe.vms[vm_id] = spec
            probe.base_sum += spec.r_base
            probe.max_extra = max(probe.max_extra, spec.r_extra)
        # a third of the PMs sit exactly at one candidate's need, a few
        # one tolerance below it; the rest get a random capacity
        tie = need_scalar(probe, candidates[j % len(candidates)])
        roll = rng.random()
        capacity = (tie if roll < 0.33 else tie - 1e-9 if roll < 0.45
                    else float(rng.uniform(2.0, 40.0)))
        pms.append(PMSpec(capacity))
        hosted.append(vms)
    ledger = ReservationLedger(pms, mapping)
    states = []
    for j, vms in enumerate(hosted):
        state = PMReservationState(pms[j], mapping)
        for vm_id, spec in vms.items():
            ledger.add(j, vm_id, spec)
            state.add(vm_id, spec)
        states.append(state)
    return ledger, states, candidates


SEEDS = list(range(40))


def test_verdict_codes_index_the_wire_strings():
    assert VERDICTS[reservation.CHOSEN] == REASON_CHOSEN
    assert VERDICTS[reservation.FEASIBLE] == REASON_FEASIBLE
    assert VERDICTS[reservation.VM_CAP] == REASON_VM_CAP
    assert VERDICTS[reservation.CVR_THRESHOLD] == REASON_CVR_THRESHOLD
    assert VERDICTS[reservation.DRAINING] == REASON_DRAINING
    assert VERDICTS[reservation.SPREAD] == REASON_SPREAD


def test_fleets_cover_caps_and_ties():
    capped = ties = 0
    for seed in SEEDS:
        ledger, states, vms = random_fleet(np.random.default_rng(seed))
        capped += sum(s.count == s.mapping.d for s in states)
        ties += sum(need_scalar(s, vm) == s.spec.capacity
                    for s in states for vm in vms)
    assert capped >= 20 and ties >= 20


@pytest.mark.parametrize("seed", SEEDS)
def test_need_and_fit_match_the_scalar_oracle(seed):
    ledger, states, vms = random_fleet(np.random.default_rng(seed))
    for vm in vms:
        need = ledger.need(vm)
        assert need.tolist() == [need_scalar(s, vm) for s in states]
        want = [fits_scalar(s, vm) for s in states]
        assert ledger.fit_mask(vm).tolist() == want
        assert [s.fits(vm) for s in states] == want
        assert [fits_with_reservation(
            vm, s.spec.capacity, current_count=s.count,
            current_base_sum=s.base_sum, current_max_extra=s.max_extra,
            mapping=s.mapping) for s in states] == want


@pytest.mark.parametrize("seed", SEEDS)
def test_first_fit_feasible_and_verdicts_match(seed):
    rng = np.random.default_rng(seed)
    ledger, states, vms = random_fleet(rng)
    m = len(states)
    for vm in vms:
        for mask in (None, rng.random(m) < 0.6):
            allowed = [True] * m if mask is None else mask.tolist()
            feasible = [j for j, s in enumerate(states)
                        if allowed[j] and fits_scalar(s, vm)]
            assert ledger.feasible(vm, mask) == feasible
            assert ledger.first_fit(vm, mask) == (feasible[0] if feasible
                                                  else -1)
            chosen = feasible[-1] if feasible else -1
            spread_ok = rng.random(m) < 0.8
            codes, scores = ledger.verdicts(vm, chosen, eligible=mask,
                                            spread_ok=spread_ok)
            assert [VERDICTS[c] for c in codes] == [
                verdict_scalar(s, vm, chosen=j == chosen,
                               eligible=allowed[j],
                               spread_ok=bool(spread_ok[j]))
                for j, s in enumerate(states)]
            assert scores.tolist() == [s.spec.capacity - need_scalar(s, vm)
                                       for s in states]


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_truncation_agrees_on_codes_and_strings(seed):
    rng = np.random.default_rng(seed)
    ledger, states, vms = random_fleet(rng)
    codes, _ = ledger.verdicts(vms[0], ledger.first_fit(vms[0]))
    chosen = ledger.first_fit(vms[0])
    strings = [VERDICTS[c] for c in codes]
    for top_k in (1, 3, 8):
        assert truncate_candidates(codes, chosen, top_k) \
            == truncate_candidates(strings, chosen, top_k)


def test_removal_restores_the_oracle_aggregates():
    rng = np.random.default_rng(7)
    ledger, states, vms = random_fleet(rng)
    for j, state in enumerate(states):
        for vm_id in list(state.vms)[::2]:
            ledger.remove(j, vm_id)
            state.remove(vm_id)
    for vm in vms:
        assert ledger.need(vm).tolist() == [need_scalar(s, vm) for s in states]
        assert ledger.fit_mask(vm).tolist() == [fits_scalar(s, vm)
                                                for s in states]
    assert ledger.committed().tolist() == [s.committed for s in states]


class RecordingChooser:
    """Wrap a placer's ``choose_for`` and keep every feasible list it sees."""

    def __init__(self, placer):
        self.inner = placer.choose_for
        self.seen = []

    def __call__(self, seq):
        pick = self.inner(seq)

        def choose(feasible):
            self.seen.append(list(feasible))
            return pick(feasible)

        return choose


@pytest.mark.parametrize("seed", range(6))
def test_grand_batch_receives_the_oracle_feasible_lists(seed):
    rng = np.random.default_rng(seed)
    placer = GreedyRandomPlacer(rho=0.01, d=4, seed=seed)
    pms = [PMSpec(float(c)) for c in rng.choice([6.0, 9.0, 12.0], 10)]
    vms = [VMSpec(0.1, 0.5, float(rng.choice(SIZES)),
                  float(rng.choice(SIZES))) for _ in range(25)]
    recorder = RecordingChooser(placer)
    placer.choose_for = recorder
    try:
        placement, _ = placer.place_with_states(vms, pms)
    except InsufficientCapacityError:
        placement = None  # the lists up to the failure still count
    mapping = placer.mapping_for(vms)
    states = [PMReservationState(p, mapping) for p in pms]
    for vm_idx, seen in enumerate(recorder.seen):
        vm = vms[vm_idx]
        assert seen == [j for j, s in enumerate(states) if fits_scalar(s, vm)]
        pick = placer.choose_for.inner(vm_idx)(seen)
        states[pick].add(vm_idx, vm)
    if placement is not None:
        assert len(recorder.seen) == len(vms)


@pytest.mark.parametrize("seed", range(6))
def test_online_choose_and_headroom_match_the_oracle(seed):
    rng = np.random.default_rng(seed)
    placer = GreedyRandomPlacer(rho=0.01, d=4, seed=seed)
    pms = [PMSpec(float(c)) for c in rng.choice([6.0, 9.0, 12.0], 10)]
    c = OnlineConsolidator(pms, placer)
    recorder = RecordingChooser(placer)
    for step in range(40):
        vm = VMSpec(0.1, 0.5, float(rng.choice(SIZES)),
                    float(rng.choice(SIZES)))
        eligible = sorted(rng.choice(len(pms), 7, replace=False).tolist())
        want = None
        if c._mapping is not None:
            states = [c.state_of(j) for j in range(len(pms))]
            want = [j for j in eligible if fits_scalar(states[j], vm)]
            d = placer.d
            head = c.fleet_headroom(vm, eligible=eligible)
            assert head["vm_cap_blocked"] == sum(
                states[j].count + 1 > d for j in eligible)
            assert head["cvr_blocked"] == sum(
                states[j].count + 1 <= d
                and need_scalar(states[j], vm) > pms[j].capacity + 1e-9
                for j in eligible)
            assert head["free_slots"] == sum(d - states[j].count
                                             for j in eligible)
            assert head["max_headroom"] == round(max(
                pms[j].capacity - states[j].committed for j in eligible), 6)
        try:
            c.admit(vm, eligible=eligible, choose=recorder(step))
        except AdmissionRejectedError:
            assert want == []
            continue
        if want is not None:
            assert recorder.seen[-1] == want


def test_empty_fleet_has_no_first_fit():
    ledger = ReservationLedger([], mapcal_table(4, 0.1, 0.5, 0.01))
    vm = VMSpec(0.1, 0.5, 1.0, 1.0)
    assert ledger.first_fit(vm) == -1
    assert ledger.feasible(vm) == []
