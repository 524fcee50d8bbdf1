"""Per-PM reservation bookkeeping and the Eq. (17) admission constraint.

A PM hosting the VM index set ``T_j`` reserves ``mapping(|T_j|)`` blocks, each
sized to the largest ``R_e`` among hosted VMs.  A candidate VM ``i`` may be
admitted iff (paper Eq. 17)

    max(R_e^i, max R_e of T_j) * mapping(|T_j| + 1)
      + sum of R_b over T_j + R_b^i              <=  C_j

:func:`eq17_need` is the one implementation of the left-hand side.  Every
homogeneous caller reaches it through :class:`ReservationLedger`, the one
owner of per-PM reservation state (one NumPy pass over a fleet:
QueuingFFD, GRAND, the online consolidator, the placement service and the
arrivals simulator).
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class PMReservationState:
    """Read-only snapshot of one PM's Eq. (17) state (see
    :meth:`ReservationLedger.state`).

    ``vms`` maps each hosted VM id to its spec in admission order;
    ``base_sum`` and ``max_extra`` are the ledger's aggregates at the time
    of the snapshot.
    """

    spec: PMSpec
    mapping: BlockMapping
    vms: dict[int, VMSpec]
    base_sum: float
    max_extra: float

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


class ReservationLedger:
    """Eq. (17) state of a whole fleet, one NumPy array per aggregate.

    The only owner of per-PM reservation state: per-PM ``count``,
    ``base_sum`` and ``max_extra`` arrays next to ``capacity``, and the
    hosted ``{vm_id: spec}`` dict of every PM in ``hosted``, so an
    admission test over ``m`` PMs is one vectorized :meth:`need`.  First
    fit runs it only below the high-water mark (one past the highest PM
    ever used), so a batch of ``n`` VMs costs O(n * hw) NumPy work instead
    of O(n * m).  :meth:`state` snapshots one PM.
    """

    def __init__(self, pms: Sequence[PMSpec], mapping: BlockMapping):
        self.pms = list(pms)
        m = len(self.pms)
        self.capacity = np.array([p.capacity for p in self.pms], dtype=float)
        self.count = np.zeros(m, dtype=np.int64)
        self.base_sum = np.zeros(m, dtype=float)
        self.max_extra = np.zeros(m, dtype=float)
        #: per PM, the hosted VM specs by id in admission order
        self.hosted: list[dict[int, VMSpec]] = [{} for _ in range(m)]
        #: one past the highest PM that ever hosted a VM: only :meth:`add`
        #: moves it (upward), so every PM from here on is empty
        self._hw = 0
        self.set_mapping(mapping)

    def set_mapping(self, mapping: BlockMapping) -> None:
        """Run every PM's Eq. (17) test against ``mapping`` from now on."""
        d = mapping.d
        self.mapping = mapping
        #: next_blocks[k] = mapping(min(k + 1, d)): the block count a PM
        #: hosting k VMs reserves once one more joins
        self._next_blocks = mapping.table[
            np.minimum(np.arange(d + 1) + 1, d)].astype(float)
        #: capacity + EPS, or -inf once the PM hosts d VMs (the VM-cap veto)
        self._limit = np.where(self.count < d, self.capacity + EPS, -np.inf)

    def state(self, j: int) -> PMReservationState:
        """A snapshot of PM ``j``'s reservation state."""
        return PMReservationState(
            spec=self.pms[j], mapping=self.mapping, vms=dict(self.hosted[j]),
            base_sum=float(self.base_sum[j]),
            max_extra=float(self.max_extra[j]))

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
        hosted = self.hosted[j]
        if vm_id in hosted:
            raise ValueError(f"VM {vm_id} is already on PM {j}")
        d = self.mapping.d
        if len(hosted) + 1 > d:
            raise ValueError(f"PM {j} already hosts d={d} VMs; cannot admit more")
        hosted[vm_id] = vm
        self.count[j] = len(hosted)
        self.base_sum[j] += vm.r_base
        self.max_extra[j] = max(self.max_extra[j], vm.r_extra)
        if len(hosted) == d:
            self._limit[j] = -np.inf
        self._hw = max(self._hw, j + 1)

    def remove(self, j: int, vm_id: int) -> VMSpec:
        """Evict VM ``vm_id`` from PM ``j``, recomputing its aggregates.

        An emptied PM is reset to exact zeros (no float dust); otherwise
        ``max_extra`` is recomputed from the remaining VMs only when the
        leaving VM held it.
        """
        hosted = self.hosted[j]
        try:
            vm = hosted.pop(vm_id)
        except KeyError:
            raise KeyError(f"VM {vm_id} is not hosted on PM {j}") from None
        self.count[j] = len(hosted)
        if not hosted:
            self.base_sum[j] = 0.0
            self.max_extra[j] = 0.0
        else:
            self.base_sum[j] -= vm.r_base
            if vm.r_extra >= self.max_extra[j]:
                self.max_extra[j] = max(v.r_extra for v in hosted.values())
        self._limit[j] = self.capacity[j] + EPS
        return vm
