"""Algorithm 2 (QueuingFFD): the complete burstiness-aware consolidation.

Pipeline (paper Section IV-C):

1. precompute ``mapping[k] = MapCal(k, p_on, p_off, rho)`` for ``k = 1..d``;
2. cluster VMs so those with similar ``R_e`` share a cluster (keeps the
   conservative per-PM block size — ``max R_e`` of the hosted set — tight);
3. order clusters by ``R_e`` descending, VMs within a cluster by ``R_b``
   descending;
4. first-fit each VM onto the lowest-indexed PM where the Eq. (17)
   reservation constraint holds.

Total cost ``O(d^4 + n log n + m n)`` as the paper states.
"""

from __future__ import annotations

from typing import Iterable, Literal, Sequence

import numpy as np

from repro.cluster.binning import equal_width_bins
from repro.cluster.kmeans import kmeans_1d
from repro.core.mapcal import (
    BlockMapping,
    MapCalMethod,
    mapcal_table,
    table_fingerprint,
)
from repro.core.reservation import PMReservationState, ReservationLedger
from repro.core.rounding import RoundingRule, round_switch_probabilities
from repro.core.types import Placement, PMSpec, VMSpec
from repro.placement.base import InsufficientCapacityError, Placer
from repro.placement.spread import DomainSpreadConstraint
from repro.telemetry import timed
from repro.utils.validation import check_integer, check_probability

ClusterMethod = Literal["binning", "kmeans", "none"]


class QueuingFFD(Placer):
    """Burstiness-aware consolidation with queueing-derived reservations.

    Parameters
    ----------
    rho:
        CVR threshold; every PM's long-run violation fraction is bounded by
        this value (paper Eq. 5).
    d:
        Maximum VMs per PM (bounds the MapCal precomputation).
    n_clusters:
        Number of ``R_e`` clusters (paper line 7).  Defaults to 10.
    cluster_method:
        ``"binning"`` (the paper's O(n) scheme), ``"kmeans"``, or ``"none"``
        to disable clustering (ablation).
    rounding_rule:
        How heterogeneous ``(p_on, p_off)`` values are collapsed
        (Section IV-E); ignored when they are already uniform.
    stationary_method:
        MapCal route: ``"binomial"`` (closed form, the default) or
        ``"chain"`` (Alg. 1's Gaussian elimination, as Fig. 7 times it).
    spread:
        Optional :class:`~repro.placement.spread.DomainSpreadConstraint`
        capping VMs per fault domain on top of the Eq. (17) feasibility
        test (blast-radius control).
    """

    name = "QUEUE"

    def __init__(self, rho: float = 0.01, d: int = 16, *, n_clusters: int = 10,
                 cluster_method: ClusterMethod = "binning",
                 rounding_rule: RoundingRule = "mean",
                 stationary_method: MapCalMethod = "binomial",
                 spread: DomainSpreadConstraint | None = None):
        self.rho = check_probability(rho, "rho")
        self.d = check_integer(d, "d", minimum=1)
        self.n_clusters = check_integer(n_clusters, "n_clusters", minimum=1)
        if cluster_method not in ("binning", "kmeans", "none"):
            raise ValueError(f"unknown cluster_method {cluster_method!r}")
        self.cluster_method = cluster_method
        self.rounding_rule: RoundingRule = rounding_rule
        self.stationary_method: MapCalMethod = stationary_method
        self.spread = spread

    # ------------------------------------------------------------------ #
    # pipeline pieces (exposed for tests and the online consolidator)
    # ------------------------------------------------------------------ #
    def mapping_for(self, vms: Sequence[VMSpec]) -> BlockMapping:
        """The ``k -> K`` block table for this VM population.

        Uses the common ``(p_on, p_off)`` if uniform, otherwise the
        configured rounding rule.  :func:`mapcal_table` memoizes the table.
        """
        p_on, p_off = round_switch_probabilities(vms, self.rounding_rule)
        return mapcal_table(
            self.d, p_on, p_off, self.rho, method=self.stationary_method
        )

    def order_vms(self, vms: Sequence[VMSpec]) -> np.ndarray:
        """Placement order: clusters by ``R_e`` desc, then ``R_b`` desc.

        Returns VM indices in the order Algorithm 2 lines 7-9 prescribe.
        Implemented as one lexicographic sort, so the cost stays
        ``O(n log n)``.
        """
        r_extra = np.array([v.r_extra for v in vms])
        r_base = np.array([v.r_base for v in vms])
        if self.cluster_method == "none" or len(vms) <= 1:
            labels = np.zeros(len(vms), dtype=np.int64)
        elif self.cluster_method == "binning":
            labels = equal_width_bins(r_extra, self.n_clusters)
        else:
            labels = kmeans_1d(r_extra, self.n_clusters, seed=0)
        # np.lexsort sorts ascending by last key first; negate for descending.
        # Tie-break deliberately on r_extra desc inside a cluster-and-base tie
        # so ordering is fully deterministic.
        return np.lexsort((-r_extra, -r_base, -labels))

    # ------------------------------------------------------------------ #
    # Placer interface
    # ------------------------------------------------------------------ #
    def place(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]) -> Placement:
        placement, _ = self.place_with_states(vms, pms)
        return placement

    def place_with_states(
        self, vms: Sequence[VMSpec], pms: Sequence[PMSpec]
    ) -> tuple[Placement, list[PMReservationState]]:
        """Place VMs and also return the per-PM reservation states.

        The simulator and the online consolidator consume the states to know
        each PM's committed (base + reserved) load without recomputation.

        The first-fit scan runs on a :class:`ReservationLedger`: each VM's
        Eq. (17) test evaluates against *all* PMs in one NumPy pass, so
        placement costs O(m) NumPy work per VM rather than an O(m) Python
        loop.
        """
        with timed("queuing_ffd.place"):
            return self._pack(vms, pms, self.order_vms(vms))

    def _pack(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec],
              order: Iterable[int]) -> tuple[Placement, list[PMReservationState]]:
        """Place ``vms`` in ``order`` on a fresh ledger over ``pms``.

        First-fit, unless the placer has a ``choose_for`` hook (GRAND):
        then ``choose_for(vm_index)`` picks among all feasible PMs.
        Records one decision per VM when an explainer is attached.
        """
        placement = Placement(len(vms), len(pms))
        if not vms:
            return placement, []
        explainer = self.explainer
        if explainer is None:
            mapping = self.mapping_for(vms)
        else:
            # Stamp the model inputs on every decision: the (rounded)
            # switching probabilities, a fingerprint of the MapCal table the
            # Eq. (17) test ran against, and whether the table memo had it.
            from repro.perf.cache import MemoTraffic
            traffic = MemoTraffic()
            mapping = self.mapping_for(vms)
            explainer.set_inputs(
                p_on=mapping.p_on, p_off=mapping.p_off,
                table_fingerprint=table_fingerprint(mapping),
                cache_hit=traffic.misses == 0,
                score_kind="reservation_headroom")
        ledger = ReservationLedger(pms, mapping)
        choose_for = getattr(self, "choose_for", None)
        spread = self.spread
        spread_ok = None
        if spread is not None:
            spread.check_n_pms(len(pms))
            domain_counts = spread.new_counts()
        for vm_idx in order:
            vm_idx = int(vm_idx)
            vm = vms[vm_idx]
            if spread is not None:
                spread_ok = spread.allowed_pms(domain_counts)
            if choose_for is None:
                pm_idx = ledger.first_fit(vm, spread_ok)
            else:
                feasible = ledger.feasible(vm, spread_ok)
                pm_idx = int(choose_for(vm_idx)(feasible)) if feasible else -1
            if explainer is not None:
                codes, scores = ledger.verdicts(vm, pm_idx, spread_ok=spread_ok)
                explainer.record(vm_idx, pm_idx, codes, scores)
            if pm_idx < 0:
                raise InsufficientCapacityError(vm_idx)
            ledger.add(pm_idx, vm_idx, vm)
            if spread is not None:
                spread.admit(pm_idx, domain_counts)
            placement.place(vm_idx, pm_idx)
        return placement, ledger.states
