"""The reservation ledger against a per-PM scalar Eq. (17) oracle.

Every Eq. (17) path — QueuingFFD's and GRAND's batch loops, the online
consolidator's admission, verdict rows and headroom summary, the placement
service's decision and the arrivals simulator — runs on
:class:`ReservationLedger`.  These tests pin the ledger's bookkeeping to a
replay of the per-PM :class:`tests.eq17_oracle.PMReservationState`, and
its ``need``, ``first_fit``, feasible list and verdict codes to the scalar
oracle, on random fleets that include PMs at the ``d`` cap and
exact-capacity ties.
"""

import numpy as np
import pytest

from repro.core import reservation
from repro.core.mapcal import mapcal_table
from repro.core.online import OnlineConsolidator
from repro.core.reservation import ReservationLedger
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
from tests.eq17_oracle import (
    PMReservationState,
    fits_scalar,
    need_scalar,
    verdict_scalar,
)

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


def assert_ledger_equals_oracle(ledger, states):
    """Arrays and snapshots equal the oracle replay bit for bit."""
    assert ledger.count.tolist() == [s.count for s in states]
    assert ledger.base_sum.tolist() == [s.base_sum for s in states]
    assert ledger.max_extra.tolist() == [s.max_extra for s in states]
    for j, oracle in enumerate(states):
        snap = ledger.state(j)
        assert list(snap.vms.items()) == list(oracle.vms.items())
        assert (snap.base_sum, snap.max_extra) == (oracle.base_sum,
                                                   oracle.max_extra)
        assert snap.committed == oracle.committed == ledger.committed()[j]


@pytest.mark.parametrize("seed", range(30))
def test_add_remove_replay_matches_the_oracle(seed):
    """Random admissions and departures, with every PM emptied now and
    then and the VM holding a PM's ``max_extra`` often the one leaving."""
    rng = np.random.default_rng(seed)
    d = int(rng.choice([2, 4, 8]))
    mapping = mapcal_table(d, 0.1, 0.5, 0.01)
    pms = [PMSpec(float(rng.uniform(5.0, 60.0)))
           for _ in range(int(rng.integers(1, 6)))]
    ledger = ReservationLedger(pms, mapping)
    states = [PMReservationState(p, mapping) for p in pms]
    seen = {"emptied": 0, "max_left": 0}
    for vm_id in range(200):
        j = int(rng.integers(len(pms)))
        state = states[j]
        if state.vms and (state.count == d or rng.random() < 0.45):
            drain = rng.random() < 0.15
            while state.vms:
                if rng.random() < 0.5:  # the VM holding the max
                    gone = max(state.vms, key=lambda v: state.vms[v].r_extra)
                else:
                    gone = list(state.vms)[int(rng.integers(state.count))]
                seen["max_left"] += state.vms[gone].r_extra == state.max_extra
                assert ledger.remove(j, gone) == state.remove(gone)
                seen["emptied"] += state.is_empty
                if not drain:
                    break
                assert_ledger_equals_oracle(ledger, states)
        else:
            spec = VMSpec(0.1, 0.5, float(rng.choice(SIZES)),
                          float(rng.choice(SIZES)))
            ledger.add(j, vm_id, spec)
            state.add(vm_id, spec)
        assert_ledger_equals_oracle(ledger, states)
    assert seen["emptied"] >= 3 and seen["max_left"] >= 10, seen


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


def churned_fleet(rng):
    """(ledger, candidate VMs) after random admissions and departures.

    Admissions go to a random feasible PM, so occupancy is scattered and
    departures leave empty holes below the high-water mark.  Capacities
    are heterogeneous: some PMs are too small for any candidate, and a
    third sit exactly at one candidate's empty-PM need (an exact tie).
    """
    d = int(rng.choice([2, 4, 8]))
    mapping = mapcal_table(d, 0.1, float(rng.choice([0.3, 0.5, 0.9])), 0.01)
    candidates = [VMSpec(0.1, 0.5, float(rng.choice(SIZES)),
                         float(rng.choice(SIZES))) for _ in range(4)]
    empty_needs = [float(reservation.eq17_need(vm, mapping.table[1], 0.0, 0.0))
                   for vm in candidates]
    caps = []
    for j in range(int(rng.integers(1, 40))):
        roll = rng.random()
        caps.append(empty_needs[j % 4] if roll < 0.33
                    else float(rng.uniform(0.2, 1.0)) if roll < 0.55
                    else float(rng.uniform(2.0, 40.0)))
    ledger = ReservationLedger([PMSpec(c) for c in caps], mapping)
    hosted: list[tuple[int, int]] = []
    for vm_id in range(int(rng.integers(0, 4 * len(caps)))):
        if hosted and rng.random() < 0.35:
            j, gone = hosted.pop(int(rng.integers(len(hosted))))
            ledger.remove(j, gone)
            continue
        vm = VMSpec(0.1, 0.5, float(rng.choice(SIZES)),
                    float(rng.choice(SIZES)))
        feasible = ledger.feasible(vm)
        if feasible:
            j = int(rng.choice(feasible))
            ledger.add(j, vm_id, vm)
            hosted.append((j, vm_id))
    return ledger, candidates


def full_width_first_fit(ledger, vm, mask):
    fit = ledger.fit_mask(vm, mask)
    return int(fit.argmax()) if fit.any() else -1


def test_high_water_first_fit_matches_the_full_width_scan():
    """``first_fit`` scans Eq. (17) only below the high-water mark and
    answers the all-empty suffix with one scalar need; the pick must equal
    the full-width ``fit_mask(...).argmax()`` on every fleet."""
    seen = {"suffix": 0, "suffix_skips_small": 0, "hole": 0, "capped": 0,
            "tie": 0, "none": 0}
    for seed in range(150):
        rng = np.random.default_rng(seed)
        ledger, vms = churned_fleet(rng)
        m = ledger.count.size
        used = np.flatnonzero(ledger.count)
        hw = int(used[-1]) + 1 if used.size else 0
        seen["capped"] += int(np.any(ledger.count == ledger.mapping.d))
        for vm in vms:
            for mask in (None, rng.random(m) < 0.6):
                want = full_width_first_fit(ledger, vm, mask)
                assert ledger.first_fit(vm, mask) == want
                if want < 0:
                    seen["none"] += 1
                    continue
                need = float(ledger.need(vm)[want])
                seen["tie"] += need == ledger.capacity[want]
                seen["hole"] += bool(want < hw and ledger.count[want] == 0)
                if want >= hw:
                    seen["suffix"] += 1
                    seen["suffix_skips_small"] += bool(
                        want > hw and np.any(ledger.need(vm)[hw:want]
                                             > ledger.capacity[hw:want]))
    assert min(seen.values()) >= 5, seen


def test_high_water_mark_survives_departures():
    """A PM emptied by departures stays below the mark and is still found
    by the array scan, not skipped as part of the empty suffix."""
    mapping = mapcal_table(4, 0.1, 0.5, 0.01)
    ledger = ReservationLedger([PMSpec(10.0)] * 3 + [PMSpec(1.0)] * 3,
                               mapping)
    big, small = VMSpec(0.1, 0.5, 6.0, 1.0), VMSpec(0.1, 0.5, 0.5, 0.2)
    ledger.add(0, 0, big)
    ledger.add(2, 1, big)
    ledger.remove(2, 1)
    assert ledger.first_fit(big) == 1
    ledger.add(1, 2, big)
    assert ledger.first_fit(big) == 2           # emptied hole below the mark
    ledger.add(2, 3, big)
    assert ledger.first_fit(big) == -1          # suffix PMs are too small
    assert ledger.first_fit(small) == 0
    assert ledger.first_fit(small, np.arange(6) >= 3) == 3
