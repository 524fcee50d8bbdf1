"""Multi-dimensional extension (paper Section IV-E).

For uncorrelated resource dimensions (CPU, memory, bandwidth, ...) the paper
prescribes: run the queueing reservation *per dimension* and place with a
simpler First Fit heuristic, requiring the performance constraint on every
dimension.  For perfectly correlated dimensions one maps them to a single
dimension and reuses the one-dimensional algorithm — that path is just
:class:`repro.core.queuing_ffd.QueuingFFD` on the mapped scalars, so this
module implements the uncorrelated case.

Each VM carries per-dimension ``(R_b, R_e)`` vectors but a single
``(p_on, p_off)`` pair: a spike raises demand in all dimensions at once
(the ON-OFF state is a property of the workload, not of one resource).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.mapcal import BlockMapping, MapCalMethod, mapcal_table
from repro.core.rounding import RoundingRule, round_switch_probabilities
from repro.core.types import Placement, VMSpec
from repro.placement.base import InsufficientCapacityError
from repro.utils.validation import check_integer, check_probability


@dataclass(frozen=True)
class MultiDimVMSpec:
    """A VM with vector-valued base and spike demands.

    Attributes
    ----------
    p_on, p_off:
        Switch probabilities of the (shared) ON-OFF state.
    r_base, r_extra:
        Per-dimension demand vectors (same length).
    """

    p_on: float
    p_off: float
    r_base: tuple[float, ...]
    r_extra: tuple[float, ...]

    def __post_init__(self) -> None:
        check_probability(self.p_on, "p_on", allow_zero=False)
        check_probability(self.p_off, "p_off", allow_zero=False)
        if len(self.r_base) != len(self.r_extra):
            raise ValueError(
                f"r_base has {len(self.r_base)} dims but r_extra has "
                f"{len(self.r_extra)}"
            )
        if len(self.r_base) == 0:
            raise ValueError("need at least one resource dimension")
        if any(x < 0 for x in self.r_base) or any(x < 0 for x in self.r_extra):
            raise ValueError("demands must be non-negative")

    @property
    def n_dims(self) -> int:
        """Number of resource dimensions."""
        return len(self.r_base)

    def projected(self, dim: int) -> VMSpec:
        """One-dimensional view of this VM along dimension ``dim``."""
        return VMSpec(self.p_on, self.p_off,
                      self.r_base[dim], self.r_extra[dim])


@dataclass(frozen=True)
class MultiDimPMSpec:
    """A PM with per-dimension capacities."""

    capacity: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.capacity) == 0:
            raise ValueError("need at least one resource dimension")
        if any(c <= 0 for c in self.capacity):
            raise ValueError("capacities must be positive")

    @property
    def n_dims(self) -> int:
        """Number of resource dimensions."""
        return len(self.capacity)


def map_correlated_to_scalar(
    vms: Sequence[MultiDimVMSpec],
    pms: Sequence[MultiDimPMSpec],
    *,
    weights: Sequence[float] | None = None,
) -> tuple[list[VMSpec], list[float]]:
    """Collapse correlated dimensions to one scalar (the paper's first path).

    Section IV-E: "if each dimension of resources is correlated we can map
    them to one dimension and apply the original algorithms."  Each VM's
    vector demands are combined as a weighted sum (default: weights that
    normalize each dimension by the mean PM capacity, so dimensions are
    commensurable); PM capacities collapse with the same weights.

    Returns ``(scalar_vms, scalar_capacities)`` ready for
    :class:`~repro.core.queuing_ffd.QueuingFFD`.  Note the mapping is exact
    only under perfect correlation; for independent dimensions use
    :class:`MultiDimFirstFit` instead.
    """
    if not vms or not pms:
        raise ValueError("need at least one VM and one PM")
    n_dims = vms[0].n_dims
    if any(v.n_dims != n_dims for v in vms) or any(p.n_dims != n_dims
                                                   for p in pms):
        raise ValueError("all VMs and PMs must share the same dimensionality")
    if weights is None:
        mean_caps = np.mean([p.capacity for p in pms], axis=0)
        w = 1.0 / mean_caps
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n_dims,) or np.any(w < 0) or not np.any(w > 0):
            raise ValueError(
                f"weights must be {n_dims} non-negative values, not all zero"
            )
    scalar_vms = [
        VMSpec(
            v.p_on, v.p_off,
            float(np.asarray(v.r_base) @ w),
            float(np.asarray(v.r_extra) @ w),
        )
        for v in vms
    ]
    scalar_caps = [float(np.asarray(p.capacity) @ w) for p in pms]
    return scalar_vms, scalar_caps


class MultiDimFirstFit:
    """First Fit with per-dimension queueing reservations.

    A VM fits on a PM iff Eq. (17) holds **in every dimension** with the
    shared block-count table (the block count depends only on
    ``(k, p_on, p_off, rho)``; block *sizes* differ per dimension via the
    dimension's ``max R_e``).

    Parameters
    ----------
    rho:
        CVR threshold, enforced independently per dimension.
    d:
        Max VMs per PM.
    rounding_rule, stationary_method:
        As in :class:`~repro.core.queuing_ffd.QueuingFFD`.
    """

    name = "QUEUE-MD"

    def __init__(self, rho: float = 0.01, d: int = 16, *,
                 rounding_rule: RoundingRule = "mean",
                 stationary_method: MapCalMethod = "binomial"):
        self.rho = check_probability(rho, "rho")
        self.d = check_integer(d, "d", minimum=1)
        self.rounding_rule: RoundingRule = rounding_rule
        self.stationary_method: MapCalMethod = stationary_method

    def _mapping(self, vms: Sequence[MultiDimVMSpec]) -> BlockMapping:
        proxies = [v.projected(0) for v in vms]
        p_on, p_off = round_switch_probabilities(proxies, self.rounding_rule)
        return mapcal_table(self.d, p_on, p_off, self.rho,
                            method=self.stationary_method)

    def place(self, vms: Sequence[MultiDimVMSpec],
              pms: Sequence[MultiDimPMSpec]) -> Placement:
        """First-fit placement over all dimensions; VMs in input order."""
        placement = Placement(len(vms), len(pms))
        if not vms:
            return placement
        n_dims = vms[0].n_dims
        if any(v.n_dims != n_dims for v in vms):
            raise ValueError("all VMs must share the same dimensionality")
        if any(p.n_dims != n_dims for p in pms):
            raise ValueError("PM dimensionality must match the VMs")
        mapping = self._mapping(vms)

        caps = np.array([p.capacity for p in pms], dtype=float)        # (m, D)
        base_sum = np.zeros_like(caps)
        max_extra = np.zeros_like(caps)
        counts = np.zeros(len(pms), dtype=np.int64)

        for vm_idx, vm in enumerate(vms):
            vb = np.asarray(vm.r_base)
            ve = np.asarray(vm.r_extra)
            placed = False
            for pm_idx in range(len(pms)):
                k_new = counts[pm_idx] + 1
                if k_new > mapping.d:
                    continue
                blocks = mapping.blocks_for(int(k_new))
                new_max = np.maximum(max_extra[pm_idx], ve)
                need = new_max * blocks + base_sum[pm_idx] + vb
                if np.all(need <= caps[pm_idx] + 1e-9):
                    base_sum[pm_idx] += vb
                    max_extra[pm_idx] = new_max
                    counts[pm_idx] = k_new
                    placement.place(vm_idx, pm_idx)
                    placed = True
                    break
            if not placed:
                raise InsufficientCapacityError(vm_idx)
        return placement
