"""Figure 7: computation cost of Algorithm 2.

Wall-clock time to produce the placement matrix, swept over the per-PM VM
cap ``d`` (which drives the ``O(d^4)`` MapCal precomputation) and the VM
count ``n`` (which drives the ``O(n log n + m n)`` packing).  The paper
observes millisecond-scale costs with the n-dependence barely visible.
The placer runs MapCal as the paper does (``stationary_method="chain"``),
so the figure times the algorithm, not the closed-form shortcut.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.analysis.report import ExperimentResult
from repro.core.queuing_ffd import QueuingFFD
from repro.experiments.config import DEFAULT_SETTINGS, ExperimentSettings
from repro.perf.cache import fresh_cache
from repro.utils.rng import SeedLike, spawn_children
from repro.workload.patterns import generate_pattern_instance


def run_fig7(
    *,
    d_values: Sequence[int] = (8, 16, 24, 32),
    n_values: Sequence[int] = (100, 200, 400, 800),
    settings: ExperimentSettings = DEFAULT_SETTINGS,
    seed: SeedLike = 2013,
) -> ExperimentResult:
    """Regenerate Fig. 7: Algorithm 2 runtime for each (d, n) pair.

    The mapping-table construction is timed separately from the packing pass
    so the two complexity terms are visible (``mapcal_ms`` vs ``pack_ms``).
    """
    result = ExperimentResult(
        experiment_id="fig7",
        description="Computation cost of Algorithm 2 (placement matrix only)",
        params={"rho": settings.rho, "p_on": settings.p_on, "p_off": settings.p_off},
        headers=["d", "n_vms", "mapcal_ms", "pack_ms", "total_ms"],
    )
    rngs = iter(spawn_children(seed, len(d_values) * len(n_values)))
    for d in d_values:
        for n in n_values:
            rng = next(rngs)
            vms, pms = generate_pattern_instance(
                "equal", n, p_on=settings.p_on, p_off=settings.p_off, seed=rng
            )
            placer = QueuingFFD(rho=settings.rho, d=d,
                                stationary_method="chain")
            with fresh_cache():  # cold table: measure the algorithm, not the memo
                t0 = time.perf_counter()
                placer.mapping_for(vms)  # fills the memo: the O(d^4) term
                t1 = time.perf_counter()
                placer.place(vms, pms)   # mapping memoized: the packing term
                t2 = time.perf_counter()
            result.add_row(
                d, n,
                (t1 - t0) * 1e3,
                (t2 - t1) * 1e3,
                (t2 - t0) * 1e3,
            )
    result.notes.append(
        "expected shape: mapcal_ms grows ~d^3..d^4 and is n-independent; "
        "pack_ms grows with n (O(mn) vectorized first-fit) and is "
        "d-independent. Both terms sit at the paper's ms scale for the "
        "paper's n and d."
    )
    return result
