"""Reference evacuation loop the vectorized failure phase is tested against.

:func:`evacuate_reference` replays :meth:`FailureInjector._evacuate` as a
scan over the PMs in *stable* load order (least loaded first, lowest index
on ties), taking the first healthy PM other than the source whose load plus
the demand fits its capacity; when the full demand fits nowhere and
degradation is on, the VM's base demand ``R_b`` is tried the same way.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-9


def scan_target(loads: np.ndarray, caps: np.ndarray, failed: np.ndarray,
                source: int, demand: float) -> int:
    """First fitting healthy non-source PM in stable load order, or -1."""
    for cand in np.argsort(loads, kind="stable"):
        cand = int(cand)
        if cand == source or failed[cand]:
            continue
        if loads[cand] + demand <= caps[cand] + EPS:
            return cand
    return -1


def evacuate_reference(dc, failed: np.ndarray, pm_id: int, *,
                       degrade_stranded: bool = True
                       ) -> dict[int, tuple[int, bool]]:
    """``{vm_id: (target PM or -1 if stranded, degraded)}`` for ``pm_id``.

    Reads the datacenter's current demands and loads; mutates nothing.
    """
    demands = dc.vm_demands()
    caps = np.array([p.capacity for p in dc.pm_specs], dtype=float)
    loads = dc.pm_loads()
    out: dict[int, tuple[int, bool]] = {}
    for vm_id in np.flatnonzero(dc.placement.assignment == pm_id).tolist():
        full = float(demands[vm_id])
        base = dc.vm_specs[vm_id].r_base
        tries = [(full, False)]
        if degrade_stranded and base < full - EPS:
            tries.append((base, True))
        out[vm_id] = (-1, False)
        for demand, degraded in tries:
            cand = scan_target(loads, caps, failed, pm_id, demand)
            if cand >= 0:
                loads[cand] += demand
                loads[pm_id] -= demand
                out[vm_id] = (cand, degraded)
                break
    return out
