"""Independent oracles the correctness checks compare the program against.

They recompute from first principles rather than calling the code path
that produced the output: MapCal tables against the ``Binomial(k, q)``
quantile (the exact stationary law of ``k`` homogeneous ON/OFF VMs),
Eq. (17) from the canonical service state, and the heterogeneous CVR from
a plain convolution of Bernoulli laws.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import binom

from common import require

from repro.core.reservation import reserved_size

#: slack on capacity comparisons, as in repro.core.reservation
EPS = 1e-9
#: width of the band around ``1 - rho`` inside which the chain solve and
#: the closed form may pick adjacent block counts (floating-point ties)
TIE_BAND = 1e-9


def binomial_table(d: int, p_on: float, p_off: float, rho: float) -> np.ndarray:
    """``K[k]`` = least ``K`` with ``P[Binomial(k, q) <= K] >= 1 - rho``."""
    q = p_on / (p_on + p_off)
    out = np.zeros(d + 1, dtype=np.int64)
    for k in range(1, d + 1):
        cdf = binom.cdf(np.arange(k + 1), k, q)
        out[k] = int(np.flatnonzero(cdf >= 1.0 - rho)[0])
    return out


def check_mapcal_table(table, d: int, p_on: float, p_off: float,
                       rho: float) -> None:
    """A MapCal table must equal the binomial quantile, up to the tie band.

    Where they differ, the two candidates may be one block apart only if
    the binomial CDF at the lower one sits within :data:`TIE_BAND` of
    ``1 - rho``.
    """
    table = np.asarray(table, dtype=np.int64)
    require(table.size == d + 1, f"MapCal table has {table.size} entries, "
                                 f"expected {d + 1}")
    oracle = binomial_table(d, p_on, p_off, rho)
    q = p_on / (p_on + p_off)
    for k in np.flatnonzero(table != oracle):
        lo = int(min(table[k], oracle[k]))
        tie = abs(binom.cdf(lo, int(k), q) - (1.0 - rho)) <= TIE_BAND
        require(abs(int(table[k]) - int(oracle[k])) == 1 and tie,
                f"MapCal table[{k}] = {table[k]} but the Binomial({k}, "
                f"{q:.6g}) quantile at 1 - rho is {oracle[k]}")


def check_eq17_state(state: dict, *, placer) -> None:
    """Every PM of a canonical consolidator snapshot satisfies Eq. (17).

    ``state`` is :meth:`OnlineConsolidator.capture_state`; the hosted sets,
    sums and maxima are rebuilt from its VM records, and the block table
    from its mapping parameters (checked against the binomial oracle).
    """
    from repro.core.mapcal import mapcal_table

    mapping = state["mapping"]
    require(mapping is not None, "service state has no mapping table")
    table = mapcal_table(int(mapping["d"]), mapping["p_on"], mapping["p_off"],
                         mapping["rho"], method=placer.stationary_method)
    check_mapcal_table(table.table, int(mapping["d"]), mapping["p_on"],
                       mapping["p_off"], mapping["rho"])
    caps = state["pm_capacities"]
    hosted: dict[int, list[dict]] = {}
    for rec in state["vms"].values():
        hosted.setdefault(int(rec["pm"]), []).append(rec)
    for pm, recs in hosted.items():
        k = len(recs)
        require(k <= table.d, f"PM {pm} hosts {k} VMs > d = {table.d}")
        need = (reserved_size(max(r["r_extra"] for r in recs), k, table)
                + sum(r["r_base"] for r in recs))
        require(need <= caps[pm] + EPS,
                f"PM {pm} violates Eq. (17): base + reservation {need:.6g} "
                f"> capacity {caps[pm]:.6g}")


def on_count_tail(q) -> list[float]:
    """``tail[b] = P[#ON > b]`` for independent Bernoulli(``q_i``) VMs."""
    pmf = np.array([1.0])
    for qi in q:
        pmf = np.convolve(pmf, [1.0 - qi, qi])
    return pmf[::-1].cumsum()[::-1][1:].tolist() + [0.0]


def check_exact_placement(placement, vms, pms, rho: float) -> None:
    """Each PM of an exact heterogeneous placement keeps CVR <= rho.

    The least block count meeting rho is found from the oracle's own
    law; the PM must fit base demand plus that many blocks of its largest
    ``R_e``, and ``heterogeneous_cvr`` must agree that the CVR holds.
    """
    from repro.core.heterogeneous import heterogeneous_cvr

    by_pm: dict[int, list[int]] = {}
    for vm_idx, pm_idx in placement:
        by_pm.setdefault(int(pm_idx), []).append(int(vm_idx))
    for pm, idxs in by_pm.items():
        hosted = [vms[i] for i in idxs]
        q = [v.p_on / (v.p_on + v.p_off) for v in hosted]
        tail = on_count_tail(q)
        blocks = next(b for b, p in enumerate(tail) if p <= rho + TIE_BAND)
        need = (max(v.r_extra for v in hosted) * blocks
                + sum(v.r_base for v in hosted))
        require(need <= pms[pm].capacity + EPS,
                f"PM {pm} exceeds capacity under its exact reservation: "
                f"{need:.6g} > {pms[pm].capacity:.6g}")
        cvr = heterogeneous_cvr(hosted, blocks)
        require(cvr <= rho + TIE_BAND,
                f"PM {pm} has stationary CVR {cvr:.3g} > rho = {rho}")
