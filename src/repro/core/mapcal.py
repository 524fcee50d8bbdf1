"""Algorithm 1 (MapCal): minimal reservation-block count.

Given ``k`` collocated VMs sharing common switch probabilities
``(p_on, p_off)`` and a CVR bound ``rho``, MapCal returns the least number of
reservation blocks ``K`` such that the long-run fraction of time more than
``K`` VMs are simultaneously ON is at most ``rho``.  The paper computes it in
three steps:

1. build the ``(k+1)``-state busy-block transition matrix (paper Eq. 12);
2. solve the stationary distribution ``Pi`` by Gaussian elimination
   (paper Eq. 14);
3. return the least ``K`` with ``sum_{m<=K} pi_m >= 1 - rho`` (paper Eq. 15).

The ``k`` VMs switch independently, so ``Pi`` is exactly
``Binomial(k, q)`` with ``q = p_on / (p_on + p_off)``.  The default
``method="binomial"`` therefore reads ``K`` off one binomial PMF table:
``O(d^2)`` for a whole ``k -> K`` table, where steps 1-2 cost ``O(k^3)`` per
``k`` and ``O(d^4)`` per table.  ``method="chain"`` runs steps 1-3 as the
paper writes them; it is the oracle in the tests and what Fig. 7 times.
Both routes share one tie rule at ``1 - rho``
(:func:`repro.queueing.geom_geom_k.overflow_quantile`), which returns
``K = k`` at ``rho = 0``.

The paper additionally requires ``K < k`` in Eq. 15; since ``K = k`` always
satisfies the bound (overflow is impossible), the scan returns ``K <= k``
and equals the paper's value whenever one with ``K < k`` exists.

:func:`mapcal_table` precomputes ``mapping[k]`` for every ``k`` up to the
per-PM VM limit ``d``, which QueuingFFD (Algorithm 2, lines 1-6) consumes.
Tables are memoized in a bounded LRU of :data:`TABLE_MEMO_SIZE` entries;
:func:`repro.perf.cache.fresh_cache` empties it and counts its traffic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from repro.markov.binomial import binomial_pmf_table
from repro.queueing.geom_geom_k import FiniteSourceGeomGeomK, overflow_quantile
from repro.telemetry import timed
from repro.utils.validation import check_integer, check_probability

MapCalMethod = Literal["binomial", "chain"]

#: block tables kept by the memo (a d=200 table is ~2 KiB)
TABLE_MEMO_SIZE = 256


@dataclass(frozen=True)
class BlockMapping:
    """Precomputed ``k -> K`` table for a fixed ``(p_on, p_off, rho)``.

    Attributes
    ----------
    p_on, p_off, rho:
        Parameters the table was computed for.
    table:
        Read-only integer array with ``table[k]`` = blocks for ``k`` VMs,
        ``k`` from 0 to ``d`` inclusive (``table[0] = 0``, Alg. 2 line 1).
    """

    p_on: float
    p_off: float
    rho: float
    table: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=np.int64)
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def d(self) -> int:
        """Maximum supported VM count per PM."""
        return self.table.size - 1

    def blocks_for(self, k: int) -> int:
        """Blocks required when ``k`` VMs share the PM."""
        k = check_integer(k, "k", minimum=0, maximum=self.d)
        return int(self.table[k])

    def __getitem__(self, k: int) -> int:
        return self.blocks_for(k)


def table_fingerprint(mapping: BlockMapping) -> str:
    """Short content hash identifying a block table in provenance events.

    Covers the parameters *and* the computed ``k -> K`` entries, so two
    decisions carry the same fingerprint exactly when the Eq. (17) test
    they ran evaluated against identical tables.
    """
    payload = (f"{mapping.p_on!r}|{mapping.p_off!r}|{mapping.rho!r}|"
               + ",".join(str(int(k)) for k in mapping.table))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _checked(p_on: float, p_off: float, rho: float,
             method: str) -> tuple[float, float, float]:
    if method not in ("binomial", "chain"):
        raise ValueError(
            f"method must be 'binomial' or 'chain', got {method!r}")
    return (check_probability(p_on, "p_on", allow_zero=False),
            check_probability(p_off, "p_off", allow_zero=False),
            check_probability(rho, "rho"))


@lru_cache(maxsize=TABLE_MEMO_SIZE)
def _build_table(d: int, p_on: float, p_off: float, rho: float,
                 method: MapCalMethod) -> BlockMapping:
    """The ``k -> K`` table for ``k`` in ``[0, d]``; arguments pre-validated."""
    if method == "binomial":
        pmf = binomial_pmf_table(d, p_on / (p_on + p_off))
        blocks = [overflow_quantile(pmf[k, : k + 1], rho)
                  for k in range(d + 1)]
    else:
        blocks = [0] + [
            FiniteSourceGeomGeomK(k, p_on, p_off).min_windows_for_overflow(rho)
            for k in range(1, d + 1)]
    return BlockMapping(p_on=p_on, p_off=p_off, rho=rho, table=blocks)


def mapcal(k: int, p_on: float, p_off: float, rho: float,
           *, method: MapCalMethod = "binomial") -> int:
    """Minimum number of blocks for ``k`` VMs under CVR bound ``rho``.

    Parameters
    ----------
    k:
        Number of VMs hosted on the PM (``k >= 0``; ``k = 0`` returns 0).
    p_on, p_off:
        Common ON-OFF switch probabilities, both in (0, 1].
    rho:
        CVR threshold in [0, 1].
    method:
        ``"binomial"`` (closed form) or ``"chain"`` (Alg. 1's chain solve).

    Returns
    -------
    int
        The block count ``K`` in ``[0, k]``; entry ``k`` of
        :func:`mapcal_table`.
    """
    k = check_integer(k, "k", minimum=0)
    p_on, p_off, rho = _checked(p_on, p_off, rho, method)
    return int(_build_table(k, p_on, p_off, rho, method).table[k])


def mapcal_table(d: int, p_on: float, p_off: float, rho: float,
                 *, method: MapCalMethod = "binomial") -> BlockMapping:
    """Precompute ``mapping[k]`` for all ``k`` in ``[0, d]`` (Alg. 2 lines 1-6).

    ``O(d^2)`` on the default binomial route; ``method="chain"`` costs the
    paper's ``O(d^4)``.  The result is memoized, immutable and safely
    shareable across placers.
    """
    d = check_integer(d, "d", minimum=1)
    p_on, p_off, rho = _checked(p_on, p_off, rho, method)
    with timed("mapcal.table"):
        return _build_table(d, p_on, p_off, rho, method)
