"""Discrete-time finite-source Geom/Geom/K/K queue.

``k`` sources (VMs) independently toggle between *thinking* (OFF) and
*in service* (ON).  ON sojourns are geometric with parameter ``p_off``
(service), OFF sojourns geometric with parameter ``p_on`` (think time).
``K <= k`` serving windows (reservation blocks) are available.

Two occupancy processes matter:

- the **unrestricted demand process** ``theta(t)`` — how many sources *want*
  service, regardless of K.  Its stationary tail beyond K is exactly the
  paper's capacity violation ratio (Eq. 16); the marginal is Binomial(k, q)
  with ``q = p_on / (p_on + p_off)`` because sources are independent.
- the **clipped loss process** — a genuine loss system where a source that
  finds all K windows busy is turned away and resumes thinking.  This is the
  classical discrete Engset analogue, provided for completeness and used to
  cross-check against :mod:`repro.queueing.engset` in tests.
"""

from __future__ import annotations

import numpy as np

from repro.markov.binomial import binomial_pmf_table, busy_block_kernel
from repro.markov.chain import DiscreteMarkovChain, StationaryMethod
from repro.utils.validation import check_integer, check_probability

#: Slack on Eq. (15)'s ``1 - rho`` target: a cumulative that misses it by
#: rounding noise alone still meets it.
TIE_SLACK = 1e-15


def overflow_quantile(pmf: np.ndarray, rho: float) -> int:
    """Least ``K`` with ``sum_{m <= K} pmf[m] >= 1 - rho`` (paper Eq. 15).

    ``pmf`` is the stationary law of the ON count among ``k = len(pmf) - 1``
    sources, so ``K`` lies in ``[0, k]``.  This is the one tie rule every
    block count in the package uses (MapCal's binomial and chain routes,
    the heterogeneous Poisson-binomial placer).  The target carries a
    :data:`TIE_SLACK` so two routes whose cumulatives differ in the last
    bits agree.  ``rho = 0`` asks for zero overflow, which only ``K = k``
    guarantees: inside the slack a smaller ``K`` would pass on noise.
    """
    k = pmf.size - 1
    if rho == 0.0:
        return k
    meets = np.flatnonzero(np.cumsum(pmf) >= 1.0 - rho - TIE_SLACK)
    return int(meets[0]) if meets.size else k


class FiniteSourceGeomGeomK:
    """Analytic model of ``k`` ON-OFF sources sharing ``K`` serving windows.

    Parameters
    ----------
    k:
        Number of sources (hosted VMs); must be >= 1.
    p_on:
        OFF -> ON switch probability per interval.
    p_off:
        ON -> OFF switch probability per interval.

    Notes
    -----
    The number of windows ``K`` is a *query* parameter, not a constructor
    parameter: MapCal evaluates many candidate ``K`` against one demand
    process, so the expensive stationary solve is cached on the instance.
    """

    def __init__(self, k: int, p_on: float, p_off: float):
        self.k = check_integer(k, "k", minimum=1)
        self.p_on = check_probability(p_on, "p_on", allow_zero=False)
        self.p_off = check_probability(p_off, "p_off", allow_zero=False)
        self._stationary_cache: dict[StationaryMethod, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # unrestricted demand process
    # ------------------------------------------------------------------ #
    def demand_chain(self) -> DiscreteMarkovChain:
        """The ``(k+1)``-state chain of the unrestricted demand ``theta(t)``."""
        return DiscreteMarkovChain(
            busy_block_kernel(self.k, self.p_on, self.p_off), validate=True
        )

    def stationary_distribution(
        self, method: StationaryMethod = "linear"
    ) -> np.ndarray:
        """Stationary law of ``theta(t)`` (cached per solver method)."""
        if method not in self._stationary_cache:
            self._stationary_cache[method] = self.demand_chain().stationary_distribution(
                method
            )
        return self._stationary_cache[method]

    def stationary_distribution_closed_form(self) -> np.ndarray:
        """Closed-form stationary law: ``Binomial(k, p_on / (p_on + p_off))``.

        Because the k sources evolve independently and each source's
        stationary ON-probability is ``q = p_on/(p_on+p_off)``, the number of
        ON sources at stationarity is binomial.  MapCal's default route
        reads its block counts off this law; the O(k^3) matrix solve stays
        as the paper-faithful oracle.
        """
        q = self.p_on / (self.p_on + self.p_off)
        return binomial_pmf_table(self.k, q)[self.k]

    def overflow_probability(self, n_windows: int,
                             method: StationaryMethod = "linear") -> float:
        """Long-run fraction of time demand exceeds ``n_windows`` (paper Eq. 16).

        This is exactly the CVR a PM experiences if it reserves ``n_windows``
        blocks: ``sum_{m > K} pi_m``.
        """
        K = check_integer(n_windows, "n_windows", minimum=0)
        pi = self.stationary_distribution(method)
        if K >= self.k:
            return 0.0
        return float(pi[K + 1:].sum())

    def min_windows_for_overflow(self, rho: float,
                                 method: StationaryMethod = "linear") -> int:
        """Smallest ``K`` with overflow probability <= ``rho`` (paper Eq. 15).

        Scans the cumulative stationary distribution with
        :func:`overflow_quantile`; always returns a value in ``[0, k]``
        (K = k gives zero overflow by construction).
        """
        rho = check_probability(rho, "rho")
        return overflow_quantile(self.stationary_distribution(method), rho)

    def expected_demand(self) -> float:
        """Stationary mean of ``theta(t)``: ``k * p_on / (p_on + p_off)``."""
        return self.k * self.p_on / (self.p_on + self.p_off)

    # ------------------------------------------------------------------ #
    # clipped loss process (true loss system)
    # ------------------------------------------------------------------ #
    def loss_system_kernel(self, n_windows: int) -> np.ndarray:
        """Transition matrix of the clipped process with ``K`` windows.

        State = number of busy windows in ``0..K``.  A source that switches
        ON when no window is free is *blocked*: it immediately resumes
        thinking (geometric OFF sojourn restarts).  Transitions therefore
        follow the unrestricted kernel restricted to ``j <= K`` with all
        excess mass collapsed onto ``j = K``.
        """
        K = check_integer(n_windows, "n_windows", minimum=1, maximum=self.k)
        full = busy_block_kernel(self.k, self.p_on, self.p_off)
        clipped = full[: K + 1, : K + 1].copy()
        clipped[:, K] += full[: K + 1, K + 1:].sum(axis=1)
        return clipped

    def loss_system_distribution(self, n_windows: int) -> np.ndarray:
        """Stationary occupancy law of the clipped loss system."""
        return DiscreteMarkovChain(self.loss_system_kernel(n_windows)).stationary_distribution()

    def time_blocking_probability(self, n_windows: int) -> float:
        """Fraction of time all ``K`` windows of the loss system are busy."""
        return float(self.loss_system_distribution(n_windows)[-1])
