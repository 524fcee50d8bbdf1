"""Test-side writes to a simulated datacenter's state arrays.

:class:`~repro.simulation.datacenter.Datacenter` keeps every VM's ON flag
in one mask and has no public setter for it (the ON-OFF chain owns it);
tests that need a VM spiking, or calm, write the mask through here.
"""

from __future__ import annotations


def force_on(dc, vm_ids=slice(None), on: bool = True) -> None:
    """Set the ON flag of ``vm_ids`` (an id, ids, or every VM) to ``on``."""
    if not isinstance(vm_ids, (int, slice)):
        vm_ids = list(vm_ids)
    dc._on[vm_ids] = on
