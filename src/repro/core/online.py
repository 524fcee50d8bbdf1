"""Online consolidation: arrivals, departures, batches (paper Section IV-E).

The paper's online rules:

- **single arrival** — place the VM on the first PM satisfying Eq. (17) and
  recompute that PM's queue (block count/size);
- **departure** — remove the VM and recompute the PM's queue;
- **batch arrival** — run the Algorithm 2 ordering over the batch.

The reservation ledger makes all recomputation implicit: block count follows
the hosted count through the precomputed mapping table and block size follows
the running ``max R_e``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.mapcal import BlockMapping, mapcal_table, table_fingerprint
from repro.core.queuing_ffd import QueuingFFD
from repro.core.reservation import (
    CVR_THRESHOLD,
    EPS,
    VM_CAP,
    PMReservationState,
    ReservationLedger,
)
from repro.core.types import PMSpec, VMSpec
from repro.placement.base import (
    REASON_FLEET_FULL,
    AdmissionRejectedError,
    InsufficientCapacityError,
    PlacementExplainer,
)
from repro.telemetry import PRE_RUN, Telemetry, resolve


class OnlineConsolidator:
    """Incremental VM admission/eviction over a fixed PM fleet.

    Parameters
    ----------
    pms:
        The PM fleet.
    placer:
        A configured :class:`QueuingFFD`; supplies rho, d, clustering and the
        mapping table.  The consolidator locks the mapping to the switch
        probabilities of the *first* VMs it sees and, per the paper's note,
        can be refreshed with :meth:`recalibrate` when the population's
        rounded ``(p_on, p_off)`` has drifted.

    Per-PM state lives in a :class:`ReservationLedger` built on the first
    arrival.
    """

    def __init__(self, pms: Sequence[PMSpec], placer: QueuingFFD | None = None,
                 *, telemetry: Telemetry | None = None):
        if not pms:
            raise ValueError("need at least one PM")
        self.placer = placer if placer is not None else QueuingFFD()
        self.telemetry = telemetry
        self._pms = list(pms)
        self._ledger: ReservationLedger | None = None
        self._locations: dict[int, int] = {}  # vm_id -> pm index
        self._next_id = 0
        #: recalibrate() calls that found the mapping unchanged (or had no
        #: population to refit against) and deliberately did nothing
        self.recalibrate_noops = 0

    # ------------------------------------------------------------------ #
    # state accessors
    # ------------------------------------------------------------------ #
    @property
    def _mapping(self) -> BlockMapping | None:
        """The block table in force (None before the first arrival)."""
        return None if self._ledger is None else self._ledger.mapping

    @property
    def n_pms(self) -> int:
        """Fleet size."""
        return len(self._pms)

    @property
    def n_vms(self) -> int:
        """Currently hosted VM count."""
        return len(self._locations)

    @property
    def n_used_pms(self) -> int:
        """PMs currently hosting at least one VM."""
        return 0 if self._ledger is None else int(np.count_nonzero(self._ledger.count))

    def pm_of(self, vm_id: int) -> int:
        """PM index hosting ``vm_id``."""
        try:
            return self._locations[vm_id]
        except KeyError:
            raise KeyError(f"unknown VM id {vm_id}") from None

    def state_of(self, pm_index: int) -> PMReservationState:
        """A snapshot of PM ``pm_index``'s reservation state."""
        if self._ledger is None:
            raise RuntimeError(
                "no VMs admitted yet; the mapping table is created on the "
                "first arrival"
            )
        return self._ledger.state(pm_index)

    def hosted_vms(self) -> dict[int, VMSpec]:
        """Snapshot mapping vm_id -> spec of all hosted VMs.

        PM by PM, each PM's VMs in admission order (:meth:`recalibrate`
        refits the mapping over the values in this order).
        """
        out: dict[int, VMSpec] = {}
        for hosted in (self._ledger.hosted if self._ledger is not None else ()):
            out.update(hosted)
        return out

    def _eligible_mask(self, eligible: Iterable[int] | None) -> np.ndarray | None:
        if eligible is None:
            return None
        mask = np.zeros(len(self._pms), dtype=bool)
        mask[[int(i) for i in eligible]] = True
        return mask

    # ------------------------------------------------------------------ #
    # online operations
    # ------------------------------------------------------------------ #
    def _init_mapping(self, vms: Sequence[VMSpec]) -> None:
        self._ledger = ReservationLedger(self._pms, self.placer.mapping_for(vms))

    def _explainer(self, tel: Telemetry, context: str) -> PlacementExplainer:
        explainer = PlacementExplainer(tel, self.placer.name, context=context)
        explainer.set_inputs(
            p_on=self._mapping.p_on, p_off=self._mapping.p_off,
            table_fingerprint=table_fingerprint(self._mapping),
            score_kind="reservation_headroom")
        return explainer

    def fleet_headroom(self, vm: VMSpec | None = None, *,
                       eligible: Iterable[int] | None = None) -> dict:
        """Actionable fleet summary stamped on admission rejections.

        Counts eligible PMs, remaining VM slots under the per-PM cap ``d``,
        and the largest single-PM capacity headroom; with a candidate ``vm``
        it additionally splits the blocked PMs by veto layer (``d`` cap vs.
        the Eq. (17) reservation test), so a rejection message says what it
        would take to admit the VM, not just that it failed.
        """
        mask = self._eligible_mask(eligible)
        out: dict[str, object] = {
            "pms": len(self._pms),
            "hosted_vms": len(self._locations),
            "eligible_pms": len(self._pms) if mask is None else int(mask.sum()),
        }
        ledger = self._ledger
        if ledger is None:
            return out
        rows = slice(None) if mask is None else mask
        count = ledger.count[rows]
        headroom = (ledger.capacity - ledger.committed())[rows]
        out["free_slots"] = int(np.maximum(0, ledger.mapping.d - count).sum())
        out["max_headroom"] = (round(float(headroom.max()), 6)
                               if count.size else 0.0)
        if vm is not None:
            codes = ledger.verdicts(vm, -1)[0][rows]
            out["vm_cap_blocked"] = int(np.count_nonzero(codes == VM_CAP))
            out["cvr_blocked"] = int(np.count_nonzero(codes == CVR_THRESHOLD))
        return out

    def decide(self, vm: VMSpec, *, eligible: Iterable[int] | None = None,
               choose: Callable[[Sequence[int]], int] | None = None) -> int:
        """The PM the single-arrival rule picks for ``vm``, or -1 if none.

        Pure: reads the ledger (built by the first arrival) and mutates
        nothing, so a caller can journal the outcome before :meth:`commit`
        applies it.  ``eligible`` and ``choose`` are as in :meth:`admit`.
        """
        mask = self._eligible_mask(eligible)
        if choose is None:
            return self._ledger.first_fit(vm, mask)
        feasible = self._ledger.feasible(vm, mask)
        if not feasible:
            return -1
        chosen = int(choose(feasible))
        if chosen not in feasible:
            raise ValueError(
                f"choose() returned PM {chosen}, not one of the "
                f"feasible candidates {feasible}")
        return chosen

    def commit(self, vm: VMSpec, pm_index: int, *, time: int = PRE_RUN,
               eligible: Iterable[int] | None = None) -> tuple[int, int]:
        """Apply a :meth:`decide` outcome; returns ``(vm_id, pm_index)``.

        Records the ``PlacementDecided`` provenance against the state the
        decision saw, then hosts the VM under the next id.  ``pm_index``
        -1 records the rejection and raises
        :class:`AdmissionRejectedError` (``reason="fleet_full"``, with a
        :meth:`fleet_headroom` summary attached).
        """
        vm_id = self._next_id if pm_index >= 0 else -1
        tel = resolve(self.telemetry)
        if tel is not None and tel.events.enabled:
            codes, scores = self._ledger.verdicts(
                vm, pm_index, eligible=self._eligible_mask(eligible))
            self._explainer(tel, "online").record(vm_id, pm_index, codes,
                                                  scores, time=time)
        if pm_index < 0:
            raise AdmissionRejectedError(
                -1, REASON_FLEET_FULL,
                headroom=self.fleet_headroom(vm, eligible=eligible))
        self._host(vm, pm_index, vm_id)
        return vm_id, pm_index

    def _host(self, vm: VMSpec, pm_index: int, vm_id: int) -> None:
        self._ledger.add(pm_index, vm_id, vm)
        self._locations[vm_id] = pm_index
        self._next_id = vm_id + 1

    def admit(self, vm: VMSpec, *, time: int = PRE_RUN,
              eligible: Iterable[int] | None = None,
              choose: Callable[[Sequence[int]], int] | None = None,
              ) -> tuple[int, int]:
        """Admit one VM; returns ``(vm_id, pm_index)``.

        First-fit over PMs with the Eq. (17) test, exactly the paper's
        single-arrival rule: :meth:`decide` then :meth:`commit`.  When an
        event-enabled telemetry context is resolved, the attempt
        (successful or not) is recorded as a ``PlacementDecided`` with
        ``context="online"``, stamped ``time``.

        Parameters
        ----------
        eligible:
            Optional PM-index whitelist; PMs outside it are skipped (and
            recorded with the ``draining_pm`` verdict under tracing).  The
            placement service passes its non-draining pool here.
        choose:
            Optional selection rule: called with the sorted list of *all*
            feasible eligible PM indices and must return one of them.  The
            default (``None``) keeps the paper's first-fit.

        Raises
        ------
        AdmissionRejectedError
            If no eligible PM can take the VM (``reason="fleet_full"``,
            with a :meth:`fleet_headroom` summary attached).
        """
        if self._ledger is None:
            self._init_mapping([vm])
        chosen = self.decide(vm, eligible=eligible, choose=choose)
        return self.commit(vm, chosen, time=time, eligible=eligible)

    def apply_admit(self, vm: VMSpec, pm_index: int, vm_id: int) -> None:
        """Apply a *recorded* admission outcome (WAL replay path).

        Replay must reproduce decisions, not re-make them — selection policy,
        pool eligibility, and circuit-breaker state at decision time are all
        already baked into the journaled ``(vm_id, pm_index)``.  This applies
        that outcome verbatim: no Eq. (17) re-test, no events, strict id
        sequencing (``vm_id`` must equal the next id, so a divergent or
        reordered log fails loudly instead of silently corrupting state).
        """
        if self._ledger is None:
            self._init_mapping([vm])
        if int(vm_id) != self._next_id:
            raise ValueError(
                f"replayed vm_id {vm_id} != expected next id {self._next_id}; "
                "WAL is divergent from the restored checkpoint")
        pm_index = int(pm_index)
        if not 0 <= pm_index < len(self._pms):
            raise ValueError(f"replayed pm_index {pm_index} out of range")
        self._host(vm, pm_index, int(vm_id))

    def admit_batch(self, vms: Sequence[VMSpec],
                    *, time: int = PRE_RUN) -> list[tuple[int, int]]:
        """Admit a batch using Algorithm 2's ordering over the batch.

        Returns ``(vm_id, pm_index)`` per input VM, in input order.  The
        operation is atomic: if any VM fails to fit, no VM from the batch is
        admitted.  Under tracing each admission becomes a
        ``PlacementDecided`` with ``context="online_batch"`` (the candidate
        verdicts reflect earlier batch members, matching the actual test).
        """
        if not vms:
            return []
        if self._ledger is None:
            self._init_mapping(vms)
        ledger = self._ledger
        tel = resolve(self.telemetry)
        explainer = (self._explainer(tel, "online_batch")
                     if tel is not None and tel.events.enabled else None)
        placed: list[tuple[int, int, int]] = []  # (input position, pm, vm id)
        rows = []  # parallel to placed: (codes, scores) under tracing
        for pos in self.placer.order_vms(vms):
            pos = int(pos)
            vm = vms[pos]
            pm_idx = ledger.first_fit(vm)
            if explainer is not None:
                rows.append(ledger.verdicts(vm, pm_idx))
            if pm_idx < 0:
                if explainer is not None:
                    explainer.record(-1, -1, *rows[-1], time=time)
                for _, pm, vm_id in placed:  # rollback
                    ledger.remove(pm, vm_id)
                raise InsufficientCapacityError(pos, f"batch VM {pos} does not fit")
            vm_id = self._next_id + len(placed)
            ledger.add(pm_idx, vm_id, vm)
            placed.append((pos, pm_idx, vm_id))
        results: list[tuple[int, int]] = [(-1, -1)] * len(vms)
        for i, (pos, pm_idx, vm_id) in enumerate(placed):
            self._locations[vm_id] = pm_idx
            results[pos] = (vm_id, pm_idx)
            if explainer is not None:
                explainer.record(vm_id, pm_idx, *rows[i], time=time)
        self._next_id += len(placed)
        return results

    def depart(self, vm_id: int) -> int:
        """Remove VM ``vm_id``; returns the PM it left.

        The PM's queue shrinks automatically (block count via the mapping
        table, block size via the recomputed ``max R_e``).
        """
        pm_idx = self.pm_of(vm_id)
        self._ledger.remove(pm_idx, vm_id)
        del self._locations[vm_id]
        return pm_idx

    def validate_mapping(self, new_mapping: BlockMapping) -> None:
        """Raise unless every hosted set still fits under ``new_mapping``."""
        ledger = self._ledger
        if np.any(ledger.committed(new_mapping) > ledger.capacity + EPS):
            raise InsufficientCapacityError(
                -1,
                "recalibrated reservations exceed capacity; "
                "re-consolidate the fleet",
            )

    def _apply_mapping(self, new_mapping: BlockMapping) -> None:
        """Swap the block table, or raise leaving every PM on the old one."""
        self.validate_mapping(new_mapping)
        self._ledger.set_mapping(new_mapping)

    def recalibrate(self) -> bool:
        """Recompute the mapping from the current population (Section IV-E).

        Returns True if the refit block table actually differs in its
        ``k -> K`` entries — the only thing the Eq. (17) test consults —
        and was swapped in; otherwise the call is a counted no-op
        (:attr:`recalibrate_noops`), so periodic recalibration is free to
        run on a timer without churning journals or provenance.  (Entries,
        not :func:`table_fingerprint`: re-rounding a drifting population
        perturbs ``p_on``/``p_off`` in the last float bits without moving a
        single block count, and that is not a recalibration.)  Raises if
        the rebuilt reservations no longer fit — the caller should then
        re-consolidate from scratch; the old table stays in force.
        """
        hosted = self.hosted_vms()
        if not hosted or self._mapping is None:
            self.recalibrate_noops += 1
            return False
        new_mapping = self.placer.mapping_for(list(hosted.values()))
        if list(new_mapping.table) == list(self._mapping.table):
            self.recalibrate_noops += 1
            return False
        self._apply_mapping(new_mapping)
        return True

    def apply_recalibrate(self, p_on: float, p_off: float) -> None:
        """Apply a *recorded* recalibration outcome (WAL replay path).

        Rebuilds the block table from the journaled rounded probabilities
        (``d``, ``rho`` and the stationary method come from the configured
        placer, which is part of service configuration, not state) instead
        of refitting against the population — replay applies outcomes, it
        does not re-decide.
        """
        if self._mapping is None:
            raise RuntimeError("cannot replay recalibrate before any mapping "
                               "exists")
        self._apply_mapping(mapcal_table(
            self.placer.d, float(p_on), float(p_off), self.placer.rho,
            method=self.placer.stationary_method))

    # ------------------------------------------------------------------ #
    # durable state capture / restore
    # ------------------------------------------------------------------ #
    def capture_state(self) -> dict:
        """Full consolidator state as a canonical, JSON-safe dict.

        Everything needed to reconstruct the consolidator exactly —
        reservation states, VM locations, the mapping parameters (the table
        itself is recomputed deterministically from them on restore), and
        the id counter.  Keys are sorted and floats kept verbatim, so two
        consolidators in the same state serialize byte-identically; the
        service checkpoint and the crash-recovery parity tests both hinge
        on that.
        """
        mapping = None
        if self._mapping is not None:
            mapping = {
                "p_on": self._mapping.p_on,
                "p_off": self._mapping.p_off,
                "rho": self._mapping.rho,
                "d": self._mapping.d,
                "fingerprint": table_fingerprint(self._mapping),
            }
        vms = {}
        for vm_id, pm_idx in self._locations.items():
            spec = self._ledger.hosted[pm_idx][vm_id]
            vms[str(vm_id)] = {
                "pm": pm_idx,
                "p_on": spec.p_on, "p_off": spec.p_off,
                "r_base": spec.r_base, "r_extra": spec.r_extra,
            }
        return {
            "format": "online-consolidator",
            "version": 1,
            "next_id": self._next_id,
            "recalibrate_noops": self.recalibrate_noops,
            "pm_capacities": [p.capacity for p in self._pms],
            "mapping": mapping,
            "vms": vms,
        }

    def restore_state(self, state: dict) -> None:
        """Reset this consolidator to a :meth:`capture_state` snapshot.

        The fleet must match the snapshot (capacities are verified) and the
        rebuilt mapping table must hash to the recorded fingerprint — a
        checkpoint taken under different MapCal parameters fails here
        instead of replaying a WAL against the wrong Eq. (17) table.
        """
        if state.get("format") != "online-consolidator":
            raise ValueError(f"not a consolidator snapshot: {state.get('format')!r}")
        caps = [p.capacity for p in self._pms]
        if list(state["pm_capacities"]) != caps:
            raise ValueError(
                "snapshot PM capacities do not match this fleet: "
                f"{state['pm_capacities']} != {caps}")
        self._ledger = None
        self._locations = {}
        if state["mapping"] is not None:
            m = state["mapping"]
            mapping = mapcal_table(int(m["d"]), float(m["p_on"]),
                                   float(m["p_off"]), float(m["rho"]),
                                   method=self.placer.stationary_method)
            got = table_fingerprint(mapping)
            if got != m["fingerprint"]:
                raise ValueError(
                    f"rebuilt mapping fingerprint {got} != recorded "
                    f"{m['fingerprint']}; MapCal configuration drifted")
            self._ledger = ReservationLedger(self._pms, mapping)
        for vm_id_str in sorted(state["vms"], key=int):
            rec = state["vms"][vm_id_str]
            vm_id = int(vm_id_str)
            spec = VMSpec(p_on=rec["p_on"], p_off=rec["p_off"],
                          r_base=rec["r_base"], r_extra=rec["r_extra"])
            self._ledger.add(int(rec["pm"]), vm_id, spec)
            self._locations[vm_id] = int(rec["pm"])
        self._next_id = int(state["next_id"])
        self.recalibrate_noops = int(state.get("recalibrate_noops", 0))

    def state_fingerprint(self) -> str:
        """sha256 over the canonical state snapshot (first 16 hex chars).

        Two consolidators share a fingerprint iff :meth:`capture_state`
        agrees on every field — locations, reservation contents, mapping
        fingerprint, and ``next_id`` — which is exactly the crash-recovery
        parity criterion.
        """
        payload = json.dumps(self.capture_state(), sort_keys=True,
                             separators=(",", ":")).encode()
        return hashlib.sha256(payload).hexdigest()[:16]
