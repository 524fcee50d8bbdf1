"""Reference implementations the fast Eq. (17) paths are tested against.

:class:`PMReservationState` is the mutable per-PM bookkeeping that
:class:`~repro.core.reservation.ReservationLedger` replaced: one Python
dict and two running floats per PM, updated VM by VM.  The ledger's arrays
and its :meth:`~repro.core.reservation.ReservationLedger.state` snapshots
must equal its replay bit for bit.  :func:`place_reference` is the literal
Algorithm 2 loop (one such state per PM, scanned in Python), once shipped
as ``QueuingFFD._place_reference``.  :func:`need_scalar` and
:func:`verdict_scalar` restate Eq. (17) and the verdict precedence per PM
in plain Python, independent of :mod:`repro.core.reservation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.mapcal import BlockMapping
from repro.core.types import Placement, PMSpec, VMSpec
from repro.placement.base import (
    REASON_CHOSEN,
    REASON_CVR_THRESHOLD,
    REASON_DRAINING,
    REASON_FEASIBLE,
    REASON_SPREAD,
    REASON_VM_CAP,
    InsufficientCapacityError,
)


@dataclass
class PMReservationState:
    """Mutable aggregate state of one PM, as Eq. (17) needs it.

    ``max_extra`` is recomputed from the hosted set when the VM holding it
    leaves; an emptied PM resets both sums to exact zeros.
    """

    spec: PMSpec
    mapping: BlockMapping
    vms: dict[int, VMSpec] = field(default_factory=dict)
    base_sum: float = 0.0
    max_extra: float = 0.0

    @property
    def count(self) -> int:
        return len(self.vms)

    @property
    def is_empty(self) -> bool:
        return not self.vms

    @property
    def committed(self) -> float:
        """Base demand plus reservation (block size x block count)."""
        blocks = self.mapping.blocks_for(self.count) if self.count else 0
        return self.base_sum + self.max_extra * blocks

    def fits(self, vm: VMSpec) -> bool:
        return fits_scalar(self, vm)

    def add(self, vm_id: int, vm: VMSpec) -> None:
        if vm_id in self.vms:
            raise ValueError(f"VM {vm_id} is already on this PM")
        if self.count + 1 > self.mapping.d:
            raise ValueError(
                f"PM already hosts d={self.mapping.d} VMs; cannot admit more")
        self.vms[vm_id] = vm
        self.base_sum += vm.r_base
        self.max_extra = max(self.max_extra, vm.r_extra)

    def remove(self, vm_id: int) -> VMSpec:
        vm = self.vms.pop(vm_id)
        self.base_sum -= vm.r_base
        if self.is_empty:
            self.base_sum = 0.0  # absorb float dust
            self.max_extra = 0.0
        elif vm.r_extra >= self.max_extra:
            self.max_extra = max(v.r_extra for v in self.vms.values())
        return vm


def place_reference(
    placer, vms: Sequence[VMSpec], pms: Sequence[PMSpec]
) -> tuple[Placement, list[PMReservationState]]:
    """Literal Algorithm 2 (per-PM Python scan) for a ``QueuingFFD``."""
    placement = Placement(len(vms), len(pms))
    if not vms:
        return placement, []
    mapping = placer.mapping_for(vms)
    states = [PMReservationState(spec=p, mapping=mapping) for p in pms]
    domain_counts = None
    if placer.spread is not None:
        placer.spread.check_n_pms(len(pms))
        domain_counts = placer.spread.new_counts()
    for vm_idx in placer.order_vms(vms):
        vm_idx = int(vm_idx)
        vm = vms[vm_idx]
        for pm_idx, state in enumerate(states):
            if placer.spread is not None and not bool(
                    placer.spread.allowed_pms(domain_counts)[pm_idx]):
                continue
            if state.fits(vm):
                state.add(vm_idx, vm)
                placement.place(vm_idx, pm_idx)
                if placer.spread is not None:
                    placer.spread.admit(pm_idx, domain_counts)
                break
        else:
            raise InsufficientCapacityError(vm_idx)
    return placement, states


def need_scalar(state: PMReservationState, vm: VMSpec) -> float:
    """Eq. (17)'s left side for one PM, left to right in Python floats."""
    d = state.mapping.d
    blocks = int(state.mapping.table[min(state.count + 1, d)])
    return max(state.max_extra, vm.r_extra) * blocks + state.base_sum + vm.r_base


def fits_scalar(state: PMReservationState, vm: VMSpec) -> bool:
    """Eq. (17) plus the ``d`` cap for one PM."""
    return (state.count + 1 <= state.mapping.d
            and need_scalar(state, vm) <= state.spec.capacity + 1e-9)


def verdict_scalar(state: PMReservationState, vm: VMSpec, *, chosen: bool,
                   eligible: bool = True, spread_ok: bool = True) -> str:
    """One PM's verdict string, in the documented precedence order."""
    if chosen:
        return REASON_CHOSEN
    if not eligible:
        return REASON_DRAINING
    if state.count + 1 > state.mapping.d:
        return REASON_VM_CAP
    if need_scalar(state, vm) > state.spec.capacity + 1e-9:
        return REASON_CVR_THRESHOLD
    if not spread_ok:
        return REASON_SPREAD
    return REASON_FEASIBLE
