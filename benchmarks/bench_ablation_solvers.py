"""Ablation: stationary-distribution solver choice behind MapCal.

DESIGN.md calls out the solver as a design choice: the paper prescribes
Gaussian elimination (``linear``); the limit definition (Eq. 13) is power
iteration; ``eig`` is the dense eigensolve.  Each runs through
:class:`~repro.queueing.geom_geom_k.FiniteSourceGeomGeomK` and must give
the block table MapCal reads off the closed-form ``Binomial(k, q)`` law —
the benchmark quantifies their cost difference.
"""

import numpy as np
import pytest

from repro.analysis.report import ExperimentResult
from repro.core.mapcal import mapcal_table
from repro.queueing.geom_geom_k import FiniteSourceGeomGeomK

D, P_ON, P_OFF, RHO = 24, 0.01, 0.09, 0.01
SOLVERS = ("linear", "power", "eig")


def chain_table(method: str) -> np.ndarray:
    return np.array([0] + [
        FiniteSourceGeomGeomK(k, P_ON, P_OFF).min_windows_for_overflow(
            RHO, method)
        for k in range(1, D + 1)])


@pytest.mark.parametrize("method", SOLVERS)
def test_solver_cost(benchmark, method):
    table = benchmark(lambda: chain_table(method))
    closed = mapcal_table(D, P_ON, P_OFF, RHO)
    np.testing.assert_array_equal(table, closed.table)


def test_solver_agreement_table(benchmark, save_result):
    result = ExperimentResult(
        experiment_id="ablation_solvers",
        description="MapCal block tables are solver-invariant",
        params={"d": D, "p_on": P_ON, "p_off": P_OFF, "rho": RHO},
        headers=["k", "K_binomial", "K_linear", "K_power", "K_eig"],
    )
    tables = benchmark.pedantic(
        lambda: {m: chain_table(m) for m in SOLVERS},
        rounds=1, iterations=1,
    )
    closed = mapcal_table(D, P_ON, P_OFF, RHO)
    for k in range(1, D + 1):
        result.add_row(k, closed[k], *(tables[m][k] for m in SOLVERS))
    assert all(r[1] == r[2] == r[3] == r[4] for r in result.rows)
    save_result(result)
