"""Per-PM reservation bookkeeping and the Eq. (17) admission constraint.

A PM hosting the VM index set ``T_j`` reserves ``mapping(|T_j|)`` blocks, each
sized to the largest ``R_e`` among hosted VMs.  A candidate VM ``i`` may be
admitted iff (paper Eq. 17)

    max(R_e^i, max R_e of T_j) * mapping(|T_j| + 1)
      + sum of R_b over T_j + R_b^i              <=  C_j

:func:`eq17_need` is the one implementation of the left-hand side.  Every
homogeneous caller reaches it through :class:`ReservationLedger` (one
NumPy pass over a fleet: QueuingFFD, GRAND, the online consolidator, the
placement service) or its scalar form :func:`fits_with_reservation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.mapcal import BlockMapping
from repro.core.types import PMSpec, VMSpec

#: slack on every capacity comparison
EPS = 1e-9

#: integer verdict codes of :meth:`ReservationLedger.verdicts`; they index
#: :data:`repro.placement.base.VERDICTS`, which maps them to wire strings
CHOSEN, FEASIBLE, VM_CAP, CVR_THRESHOLD, DRAINING, SPREAD = range(6)


def reserved_size(max_r_extra: float, n_vms: int, mapping: BlockMapping) -> float:
    """Total reserved resource: block size times block count."""
    if n_vms == 0:
        return 0.0
    return max_r_extra * mapping.blocks_for(n_vms)


def eq17_need(vm: VMSpec, blocks, base_sum, max_extra):
    """Left side of Eq. (17): a PM's committed load once ``vm`` joins it.

    ``blocks`` is ``mapping(|T_j| + 1)``; ``base_sum`` and ``max_extra``
    describe the hosted set (0 for an empty PM).  Scalars or equal-length
    arrays; evaluated left to right, so every caller rounds alike.
    """
    return np.maximum(max_extra, vm.r_extra) * blocks + base_sum + vm.r_base


def fits_with_reservation(vm: VMSpec, pm_capacity: float, *,
                          current_count: int, current_base_sum: float,
                          current_max_extra: float,
                          mapping: BlockMapping) -> bool:
    """Evaluate the paper's Eq. (17) admission constraint for one PM.

    The scalar form of :meth:`ReservationLedger.need`.

    Parameters
    ----------
    vm:
        Candidate VM.
    pm_capacity:
        The PM's capacity ``C_j``.
    current_count, current_base_sum, current_max_extra:
        Aggregates of the VMs already on the PM (``|T_j|``, ``sum R_b``,
        ``max R_e``; use 0 for an empty PM).
    mapping:
        Precomputed ``k -> K`` block table.

    Returns
    -------
    bool
        True iff placing ``vm`` keeps reserved-plus-base usage within
        capacity.  If the PM would exceed the table's ``d`` (the per-PM VM
        limit), the VM does not fit by definition.
    """
    if current_count + 1 > mapping.d:
        return False
    need = eq17_need(vm, mapping.table[current_count + 1], current_base_sum,
                     current_max_extra)
    return bool(need <= pm_capacity + EPS)


@dataclass
class PMReservationState:
    """Mutable aggregate state of one PM during consolidation.

    Tracks exactly the quantities Eq. (17) needs.  ``max_extra`` removal is
    handled by recomputing from the hosted set (rare path, only used by the
    online consolidator on VM exit).
    """

    spec: PMSpec
    mapping: BlockMapping
    vms: dict[int, VMSpec] = field(default_factory=dict)
    base_sum: float = 0.0
    max_extra: float = 0.0

    @property
    def count(self) -> int:
        """Number of hosted VMs."""
        return len(self.vms)

    @property
    def is_empty(self) -> bool:
        """Whether the PM hosts no VM."""
        return not self.vms

    @property
    def n_blocks(self) -> int:
        """Reserved block count for the current population."""
        return self.mapping.blocks_for(self.count) if self.count else 0

    @property
    def reserved(self) -> float:
        """Total reserved resource (block size x block count)."""
        return self.max_extra * self.n_blocks

    @property
    def committed(self) -> float:
        """Base demand plus reservation currently committed on this PM."""
        return self.base_sum + self.reserved

    @property
    def headroom(self) -> float:
        """Capacity remaining beyond the committed amount."""
        return self.spec.capacity - self.committed

    def fits(self, vm: VMSpec) -> bool:
        """Whether ``vm`` can be admitted under Eq. (17)."""
        return fits_with_reservation(
            vm,
            self.spec.capacity,
            current_count=self.count,
            current_base_sum=self.base_sum,
            current_max_extra=self.max_extra,
            mapping=self.mapping,
        )

    def add(self, vm_id: int, vm: VMSpec) -> None:
        """Admit ``vm`` (caller must have checked :meth:`fits`)."""
        if vm_id in self.vms:
            raise ValueError(f"VM {vm_id} is already on this PM")
        if self.count + 1 > self.mapping.d:
            raise ValueError(
                f"PM already hosts d={self.mapping.d} VMs; cannot admit more"
            )
        self.vms[vm_id] = vm
        self.base_sum += vm.r_base
        self.max_extra = max(self.max_extra, vm.r_extra)

    def remove(self, vm_id: int) -> VMSpec:
        """Evict VM ``vm_id``, recomputing aggregates."""
        try:
            vm = self.vms.pop(vm_id)
        except KeyError:
            raise KeyError(f"VM {vm_id} is not hosted on this PM") from None
        self.base_sum -= vm.r_base
        if self.is_empty:
            self.base_sum = 0.0  # absorb float dust
            self.max_extra = 0.0
        elif vm.r_extra >= self.max_extra:
            self.max_extra = max(v.r_extra for v in self.vms.values())
        return vm


class ReservationLedger:
    """Eq. (17) state of a whole fleet, one NumPy array per aggregate.

    Mirrors ``states`` (one :class:`PMReservationState` per PM, which does
    the bookkeeping and keeps the hosted specs) into per-PM ``count``,
    ``base_sum`` and ``max_extra`` arrays next to ``capacity``, so an
    admission test over ``m`` PMs is one vectorized :meth:`need`.  First
    fit runs it only below the high-water mark (one past the highest PM
    ever used), so a batch of ``n`` VMs costs O(n * hw) NumPy work instead
    of O(n * m).
    """

    def __init__(self, pms: Sequence[PMSpec], mapping: BlockMapping):
        self.states = [PMReservationState(spec=p, mapping=mapping) for p in pms]
        m = len(self.states)
        self.capacity = np.array([p.capacity for p in pms], dtype=float)
        self.count = np.zeros(m, dtype=np.int64)
        self.base_sum = np.zeros(m, dtype=float)
        self.max_extra = np.zeros(m, dtype=float)
        #: one past the highest PM that ever hosted a VM: only :meth:`add`
        #: moves it (upward), so every PM from here on is empty
        self._hw = 0
        self.set_mapping(mapping)

    def set_mapping(self, mapping: BlockMapping) -> None:
        """Run every PM's Eq. (17) test against ``mapping`` from now on."""
        d = mapping.d
        self.mapping = mapping
        for state in self.states:
            state.mapping = mapping
        #: next_blocks[k] = mapping(min(k + 1, d)): the block count a PM
        #: hosting k VMs reserves once one more joins
        self._next_blocks = mapping.table[
            np.minimum(np.arange(d + 1) + 1, d)].astype(float)
        #: capacity + EPS, or -inf once the PM hosts d VMs (the VM-cap veto)
        self._limit = np.where(self.count < d, self.capacity + EPS, -np.inf)

    # ------------------------------------------------------------------ #
    # the Eq. (17) test
    # ------------------------------------------------------------------ #
    def need(self, vm: VMSpec) -> np.ndarray:
        """Per-PM committed load if ``vm`` joined (Eq. 17's left side)."""
        return eq17_need(vm, self._next_blocks[self.count], self.base_sum,
                         self.max_extra)

    def fit_mask(self, vm: VMSpec, mask: np.ndarray | None = None) -> np.ndarray:
        """PMs that pass Eq. (17) and the ``d`` cap (and ``mask``, if given)."""
        fit = self.need(vm) <= self._limit
        if mask is not None:
            fit &= mask
        return fit

    def first_fit(self, vm: VMSpec, mask: np.ndarray | None = None) -> int:
        """Lowest-indexed PM admitting ``vm`` among ``mask``, or -1.

        Runs Eq. (17) on the arrays only below the high-water mark; every
        PM from ``_hw`` on is empty, so one scalar need covers that suffix
        (it rounds exactly like the array form with zero aggregates).
        """
        hw = self._hw
        fit = eq17_need(vm, self._next_blocks[self.count[:hw]],
                        self.base_sum[:hw], self.max_extra[:hw]
                        ) <= self._limit[:hw]
        if mask is not None:
            fit &= mask[:hw]
        if fit.any():
            return int(fit.argmax())
        fit = eq17_need(vm, self._next_blocks[0], 0.0, 0.0) <= self._limit[hw:]
        if mask is not None:
            fit &= mask[hw:]
        return hw + int(fit.argmax()) if fit.any() else -1

    def feasible(self, vm: VMSpec, mask: np.ndarray | None = None) -> list[int]:
        """Every PM index admitting ``vm`` among ``mask``, ascending."""
        return np.flatnonzero(self.fit_mask(vm, mask)).tolist()

    def verdicts(self, vm: VMSpec, chosen: int, *,
                 eligible: np.ndarray | None = None,
                 spread_ok: np.ndarray | None = None,
                 ) -> tuple[np.ndarray, np.ndarray]:
        """Per-PM verdict codes and post-admission headroom for one decision.

        Precedence: the ``chosen`` PM, then PMs outside ``eligible``
        (:data:`DRAINING`), the ``d`` cap, the reservation test, and PMs
        the spread constraint vetoes; every other PM is :data:`FEASIBLE`.
        """
        need = self.need(vm)
        never = np.zeros(self.count.size, dtype=bool)
        codes = np.select(
            [np.arange(self.count.size) == chosen,
             never if eligible is None else ~eligible,
             self.count >= self.mapping.d,
             need > self.capacity + EPS,
             never if spread_ok is None else ~spread_ok],
            [CHOSEN, DRAINING, VM_CAP, CVR_THRESHOLD, SPREAD], FEASIBLE)
        return codes, self.capacity - need

    def committed(self, mapping: BlockMapping | None = None) -> np.ndarray:
        """Per-PM base demand plus reservation, under ``mapping`` if given."""
        table = (self.mapping if mapping is None else mapping).table
        return self.base_sum + self.max_extra * table[self.count]

    def empty_mask(self) -> np.ndarray:
        """PMs hosting no VM."""
        return self.count == 0

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, j: int, vm_id: int, vm: VMSpec) -> None:
        """Host ``vm`` on PM ``j`` (the caller has run the Eq. (17) test)."""
        self.states[j].add(vm_id, vm)
        self._sync(j)
        self._hw = max(self._hw, j + 1)

    def remove(self, j: int, vm_id: int) -> VMSpec:
        """Evict VM ``vm_id`` from PM ``j``."""
        vm = self.states[j].remove(vm_id)
        self._sync(j)
        return vm

    def _sync(self, j: int) -> None:
        state = self.states[j]
        self.count[j] = state.count
        self.base_sum[j] = state.base_sum
        self.max_extra[j] = state.max_extra
        self._limit[j] = (self.capacity[j] + EPS
                          if state.count < self.mapping.d else -np.inf)
