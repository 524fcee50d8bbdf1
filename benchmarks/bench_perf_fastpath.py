"""Speedup check: vectorized tick vs the scalar reference at fleet scale.

The vectorized :class:`~repro.simulation.datacenter.Datacenter` tick must
be (a) bit-identical to :class:`~repro.perf.reference.ScalarReferenceDatacenter`
and (b) substantially faster at the paper's Fig. 9 scale (200 VMs with
failures, flaky migrations and energy accounting).  The identity is
asserted exactly; the speedup floor is set below the typically measured
3-4x so CI noise does not flake the build while a real regression (losing
the vectorization) still fails loudly.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.queuing_ffd import QueuingFFD
from repro.simulation.costmodel import MigrationCostModel
from repro.simulation.energy import EnergyModel
from repro.simulation.scenario import Scenario
from repro.workload.patterns import generate_pattern_instance

N_VMS = 200
N_INTERVALS = 300
SEED = 2013


def _scenario(tick_mode: str) -> Scenario:
    vms, pms = generate_pattern_instance("large", N_VMS, seed=SEED)
    return Scenario(
        vms, pms,
        placer=QueuingFFD(rho=0.01, d=16),
        failures=True,
        migration_failure_probability=0.05,
        cost_model=MigrationCostModel(),
        energy_model=EnergyModel(),
        start_stationary=True,
        tick_mode=tick_mode,
    )


def _best_of(n_runs: int, tick_mode: str):
    """Minimum wall-clock over ``n_runs`` (noise-robust) plus one report."""
    best, report = float("inf"), None
    for _ in range(n_runs):
        scenario = _scenario(tick_mode)
        t0 = time.perf_counter()
        report = scenario.run(N_INTERVALS, seed=SEED)
        best = min(best, time.perf_counter() - t0)
    return best, report


def test_fastpath_identical_and_faster(benchmark, save_result):
    # Warm the MapCal table memo so both paths time the tick, not the table.
    _scenario("vectorized").run(2, seed=SEED)

    t_fast, fast = _best_of(3, "vectorized")
    t_slow, slow = _best_of(2, "scalar")

    # -- identity: the entire report must match bit for bit ------------- #
    np.testing.assert_array_equal(fast.record.pms_used_series,
                                  slow.record.pms_used_series)
    np.testing.assert_array_equal(fast.record.violation_counts,
                                  slow.record.violation_counts)
    np.testing.assert_array_equal(fast.record.migrations_per_interval,
                                  slow.record.migrations_per_interval)
    assert fast.record.migrations == slow.record.migrations
    assert fast.mean_cvr == slow.mean_cvr
    assert fast.max_cvr == slow.max_cvr
    assert fast.fairness == slow.fairness
    assert fast.energy_joules == slow.energy_joules
    assert fast.failures == slow.failures

    # -- speedup: regression floor below the typical 3-4x --------------- #
    speedup = t_slow / max(t_fast, 1e-9)
    assert speedup >= 2.0, (
        f"vectorized tick only {speedup:.2f}x over the scalar reference "
        f"({t_fast * 1e3:.0f} ms vs {t_slow * 1e3:.0f} ms) — vectorization "
        "regressed"
    )

    benchmark.pedantic(
        lambda: _scenario("vectorized").run(N_INTERVALS, seed=SEED),
        rounds=2, iterations=1,
    )

    save_result(
        "\n".join([
            "fastpath speedup (fig9-shape scenario, "
            f"{N_VMS} VMs x {N_INTERVALS} intervals, seed {SEED})",
            f"scalar reference : {t_slow * 1e3:8.1f} ms",
            f"vectorized tick  : {t_fast * 1e3:8.1f} ms",
            f"speedup          : {speedup:8.2f}x",
            "report parity    : bit-identical",
        ]),
        name="perf_fastpath",
    )
