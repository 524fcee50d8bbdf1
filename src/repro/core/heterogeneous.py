"""Exact reservation for heterogeneous VMs (extension of Section IV-E).

The paper handles VMs with differing ``(p_on, p_off)`` by rounding them to
uniform values and paying either accuracy (mean rounding can break the CVR
bound) or capacity (conservative rounding over-reserves) — see the rounding
ablation.  This module removes that trade-off for the *stationary* analysis:

Because the VMs evolve independently, the stationary number of ON VMs among
a heterogeneous set is **Poisson-binomial** with per-VM ON probabilities
``q_i = p_on_i / (p_on_i + p_off_i)``.  The CVR with ``K`` blocks is exactly
the Poisson-binomial tail beyond ``K`` — the same quantity the paper's
Markov-chain construction yields in the uniform case (where the
Poisson-binomial degenerates to the binomial the paper's chain has as its
marginal).  So the minimal block count is computable exactly in ``O(k^2)``
per PM, with no rounding at all.

The catch, and why the paper's uniform machinery is still needed: the
*transient* behaviour (episode lengths, time-to-violation) depends on the
full switch dynamics, not just the ``q_i``.  The stationary CVR — the
paper's actual performance constraint (Eq. 5) — does not.

:class:`HeterogeneousQueuingFFD` is a drop-in placer using the exact
per-candidate-set tail: instead of a precomputed ``mapping[k]`` it
recomputes the Poisson-binomial tail as each VM is tentatively added
(incremental O(k) update per test).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cluster.binning import equal_width_bins
from repro.core.types import Placement, PMSpec, VMSpec
from repro.placement.base import InsufficientCapacityError, Placer
from repro.queueing.geom_geom_k import overflow_quantile
from repro.utils.validation import check_integer, check_probability

_EPS = 1e-9


def poisson_binomial_pmf(q: np.ndarray) -> np.ndarray:
    """PMF of the number of successes among independent Bernoulli(q_i).

    Dynamic program over items: ``O(k^2)`` time, numerically stable for the
    k <= a-few-hundred sizes relevant here.  ``q`` empty gives the point
    mass at 0.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim != 1:
        raise ValueError(f"q must be 1-D, got shape {q.shape}")
    if q.size and (np.any(q < 0.0) or np.any(q > 1.0)):
        raise ValueError("success probabilities must lie in [0, 1]")
    pmf = np.zeros(q.size + 1)
    pmf[0] = 1.0
    for i, qi in enumerate(q):
        # new_pmf[j] = pmf[j] * (1 - qi) + pmf[j-1] * qi
        pmf[1 : i + 2] = pmf[1 : i + 2] * (1.0 - qi) + pmf[: i + 1] * qi
        pmf[0] *= 1.0 - qi
    return pmf


def stationary_on_probabilities(vms: Sequence[VMSpec]) -> np.ndarray:
    """Per-VM stationary ON probabilities ``q_i = p_on / (p_on + p_off)``."""
    return np.array([v.p_on / (v.p_on + v.p_off) for v in vms])


def heterogeneous_blocks(vms: Sequence[VMSpec], rho: float) -> int:
    """Minimal ``K`` with ``P[#ON > K] <= rho`` for a heterogeneous set.

    Exact (Poisson-binomial) generalization of MapCal's Eq. 15.  Returns a
    value in ``[0, len(vms)]``; an empty set needs 0 blocks.

    A homogeneous fleet (every VM sharing one ``(p_on, p_off)``) is exactly
    the paper's uniform case, so it is delegated to
    :func:`repro.core.mapcal.mapcal` — the reduction property holds by
    construction rather than by numerical coincidence (the convolution and
    binomial-table routes can disagree by one block when ``1 - rho`` lands
    inside their ~1e-16 error band).  Both routes apply the tie rule of
    :func:`~repro.queueing.geom_geom_k.overflow_quantile`.
    """
    check_probability(rho, "rho")
    if not vms:
        return 0
    first = (vms[0].p_on, vms[0].p_off)
    if all((vm.p_on, vm.p_off) == first for vm in vms):
        from repro.core.mapcal import mapcal

        return mapcal(len(vms), first[0], first[1], rho)
    return overflow_quantile(
        poisson_binomial_pmf(stationary_on_probabilities(vms)), rho)


def heterogeneous_cvr(vms: Sequence[VMSpec], n_blocks: int) -> float:
    """Exact stationary CVR of a heterogeneous set given ``n_blocks``."""
    n_blocks = check_integer(n_blocks, "n_blocks", minimum=0)
    if not vms or n_blocks >= len(vms):
        return 0.0
    pmf = poisson_binomial_pmf(stationary_on_probabilities(vms))
    return float(pmf[n_blocks + 1 :].sum())


class _HeteroPMState:
    """Incremental Poisson-binomial state of one PM.

    Keeps the PMF of the hosted set's ON-count; adding a VM is an O(k)
    convolution step, so one admission test is O(k) after the tentative
    update (we recompute the tentative PMF without committing).
    """

    def __init__(self, spec: PMSpec, rho: float, d: int):
        self.spec = spec
        self.rho = rho
        self.d = d
        self.pmf = np.array([1.0])
        self.base_sum = 0.0
        self.max_extra = 0.0
        self.vm_ids: list[int] = []

    @property
    def count(self) -> int:
        return len(self.vm_ids)

    def _extended(self, q: float) -> np.ndarray:
        new = np.zeros(self.pmf.size + 1)
        new[: self.pmf.size] = self.pmf * (1.0 - q)
        new[1:] += self.pmf * q
        return new

    def fits(self, vm: VMSpec) -> bool:
        """Exact Eq. (17)-style test with the Poisson-binomial block count."""
        if self.count + 1 > self.d:
            return False
        q = vm.p_on / (vm.p_on + vm.p_off)
        pmf = self._extended(q)
        blocks = overflow_quantile(pmf, self.rho)
        new_max = max(self.max_extra, vm.r_extra)
        need = new_max * blocks + self.base_sum + vm.r_base
        return need <= self.spec.capacity + _EPS

    def add(self, vm_id: int, vm: VMSpec) -> None:
        q = vm.p_on / (vm.p_on + vm.p_off)
        self.pmf = self._extended(q)
        self.base_sum += vm.r_base
        self.max_extra = max(self.max_extra, vm.r_extra)
        self.vm_ids.append(vm_id)

    @property
    def n_blocks(self) -> int:
        """Current exact block requirement of the hosted set."""
        return overflow_quantile(self.pmf, self.rho)

    @property
    def committed(self) -> float:
        """Base demand plus exact reservation."""
        return self.base_sum + self.max_extra * self.n_blocks


class HeterogeneousQueuingFFD(Placer):
    """QueuingFFD with exact per-PM Poisson-binomial reservations.

    Drop-in alternative to rounding for fleets with heterogeneous switch
    probabilities: the stationary CVR bound holds exactly for every PM, and
    no capacity is wasted on conservative rounding.

    Parameters
    ----------
    rho:
        Stationary CVR bound per PM.
    d:
        Max VMs per PM.
    n_clusters:
        R_e clusters for the ordering step (same heuristic as Algorithm 2).
    """

    name = "QUEUE-HET"

    def __init__(self, rho: float = 0.01, d: int = 16, *, n_clusters: int = 10):
        self.rho = check_probability(rho, "rho")
        self.d = check_integer(d, "d", minimum=1)
        self.n_clusters = check_integer(n_clusters, "n_clusters", minimum=1)

    def order_vms(self, vms: Sequence[VMSpec]) -> np.ndarray:
        """Algorithm 2's ordering: R_e clusters desc, then R_b desc."""
        r_extra = np.array([v.r_extra for v in vms])
        r_base = np.array([v.r_base for v in vms])
        labels = (equal_width_bins(r_extra, self.n_clusters)
                  if len(vms) > 1 else np.zeros(len(vms), dtype=np.int64))
        return np.lexsort((-r_extra, -r_base, -labels))

    def place(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]) -> Placement:
        placement, _ = self.place_with_states(vms, pms)
        return placement

    def place_with_states(
        self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]
    ) -> tuple[Placement, list[_HeteroPMState]]:
        """Place and return the exact per-PM states (for inspection)."""
        placement = Placement(len(vms), len(pms))
        states = [_HeteroPMState(p, self.rho, self.d) for p in pms]
        if not vms:
            return placement, states
        for vm_idx in self.order_vms(vms):
            vm_idx = int(vm_idx)
            vm = vms[vm_idx]
            for pm_idx, state in enumerate(states):
                if state.fits(vm):
                    state.add(vm_idx, vm)
                    placement.place(vm_idx, pm_idx)
                    break
            else:
                raise InsufficientCapacityError(vm_idx)
        return placement, states
