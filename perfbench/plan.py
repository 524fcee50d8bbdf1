"""``plan-dense``: offline capacity planning from demand traces.

A capacity planner runs this once per fresh process: fit every VM's
ON/OFF demand trace with ``fit_hmm_onoff``, then place the fitted specs
with ``QueuingFFD(d=128)`` (one rounded MapCal table, solved cold) and
``HeterogeneousQueuingFFD(d=128)`` (exact per-PM Poisson-binomial
reservations).  VM sizes follow the paper's "large"-spike pattern, each VM
has its own ``(p_on, p_off)`` and its own history length, and PM capacity
is ten times the paper's 80-100 range, so about 60 VMs share a PM.

History lengths vary per VM, as VM ages do in a fleet.  That also makes
one fit's cost (length times EM iterations) a continuous quantity: with a
single length, the cost takes a few discrete values and the fit-time
percentiles jump between them from seed to seed.
"""

from __future__ import annotations

import gc
import hashlib

import numpy as np

from common import CheckFailed, Repeat, now, require, same_stats, seeds
from oracles import check_exact_placement, check_mapcal_table
from tracer import root_span

from repro.core.heterogeneous import HeterogeneousQueuingFFD
from repro.core.queuing_ffd import QueuingFFD
from repro.core.types import PMSpec, VMSpec
from repro.markov.hmm import fit_hmm_onoff
from repro.perf.cache import fresh_cache
from repro.placement.validation import (
    check_capacity_at_base,
    check_placement_complete,
)
from repro.workload.onoff_generator import demand_trace, ensemble_states

SIZES = {
    "full": {"n_vms": 1000, "steps": (64, 192), "n_pms": 60, "d": 128},
    "tiny": {"n_vms": 40, "steps": (24, 40), "n_pms": 8, "d": 16},
}
RHO = 0.01
NOISE = 0.5  # measurement noise (std) on every demand sample


class PlanWorkload:
    """Seed-determined traces, fitted and placed by two placers."""

    def __init__(self, seed: int, scale: str = "full"):
        cfg = SIZES[scale]
        self.n_vms, self.d = cfg["n_vms"], cfg["d"]
        self.min_repeats = 4
        self.traced_reference = False
        spec_seed, state_seed, noise_seed, pm_seed, length_seed = seeds(seed, 5)
        rng = np.random.default_rng(spec_seed)
        n = self.n_vms
        truth = [VMSpec(p_on=float(a), p_off=float(b), r_base=float(c),
                        r_extra=float(e))
                 for a, b, c, e in zip(rng.uniform(0.1, 0.3, n),
                                       rng.uniform(0.3, 0.6, n),
                                       rng.uniform(2.0, 10.0, n),
                                       rng.uniform(12.0, 20.0, n))]
        shortest, longest = cfg["steps"]
        states = ensemble_states(truth, longest, start_stationary=True,
                                 seed=state_seed)
        noise = np.random.default_rng(noise_seed).normal(
            0.0, NOISE, states.shape)
        lengths = np.random.default_rng(length_seed).integers(
            shortest, longest + 1, n)
        self.traces = [row[:length] for row, length in
                       zip(demand_trace(truth, states) + noise, lengths)]
        self.pms = [PMSpec(capacity=float(c)) for c in np.random.default_rng(
            pm_seed).uniform(800.0, 1000.0, cfg["n_pms"])]
        # Lazy imports and first-call set-up of the fitting and solving
        # code belong to set-up, not to the first timed plan.
        with fresh_cache():
            fit_hmm_onoff(self.traces[0])
            QueuingFFD(rho=RHO, d=2).place(truth[:2], self.pms)

    def repeat(self, tracer) -> Repeat:
        fit = fit_hmm_onoff if tracer is None else tracer.wrap(
            fit_hmm_onoff, "markov.hmm.fit")
        gc.collect()  # garbage of earlier repeats is not this one's cost
        with fresh_cache() as cache:
            t0 = now()
            with root_span(tracer):
                fit_s, fits, iterations = [], [], 0
                for trace in self.traces:
                    start = now()
                    f, diag = fit(trace, return_diagnostics=True)
                    fit_s.append(now() - start)
                    fits.append(f)
                    iterations += diag.n_iterations
                specs = [f.to_vmspec() for f in fits]
                t_fit = now()
                queue, queue_states = QueuingFFD(
                    rho=RHO, d=self.d).place_with_states(specs, self.pms)
                t_queue = now()
                exact = HeterogeneousQueuingFFD(
                    rho=RHO, d=self.d).place(specs, self.pms)
            t1 = now()
            cache_stats = {"hits": cache.hits, "misses": cache.misses}
        mapping = queue_states[0].mapping
        stats = {
            "pms_used": float(queue.n_used_pms),
            "exact_pms_used": exact.n_used_pms,
            "em_iterations": iterations,
            "specs": hashlib.sha256(repr(specs).encode()).hexdigest(),
            "queue": hashlib.sha256(queue.assignment.tobytes()).hexdigest(),
            "exact": hashlib.sha256(exact.assignment.tobytes()).hexdigest(),
            "table": mapping.table.tolist(),
        }
        return Repeat(build_s=0.0, wall_s=t1 - t0, work=float(self.n_vms),
                      attempted=self.n_vms, failed=0, op_s=fit_s,
                      segments=fit_s + [t_queue - t_fit, t1 - t_queue],
                      stats=stats, outputs=(specs, queue, mapping, exact),
                      cache=cache_stats)

    def check(self, repeats: list[Repeat]) -> None:
        same_stats(repeats)
        specs, queue, mapping, exact = repeats[-1].outputs
        check_plan(specs, self.pms, queue, mapping, exact, d=self.d)

    def pms_used(self, repeats: list[Repeat]) -> float:
        return repeats[0].stats["pms_used"]

    def quality(self, repeats: list[Repeat],
                traced: list[Repeat]) -> dict[str, float]:
        return {
            "markov.hmm.em_iterations": float(repeats[0].stats["em_iterations"]),
            "plan.plan_s": float(np.median(
                [r.wall_s for r in repeats[len(traced):]])),
        }


def check_plan(specs, pms, queue, mapping, exact, *, d: int) -> None:
    """Both placements are complete and feasible; QueuingFFD's cold table
    was built for the fitted fleet's mean ``(p_on, p_off)`` and is the
    binomial quantile; the exact placement keeps CVR <= rho."""
    require(np.isclose(mapping.p_on, np.mean([s.p_on for s in specs]))
            and np.isclose(mapping.p_off, np.mean([s.p_off for s in specs])),
            f"QueuingFFD table built for ({mapping.p_on}, {mapping.p_off}), "
            "not the fitted fleet's mean switch probabilities")
    require(mapping.table.size == d + 1, "QueuingFFD table has the wrong d")
    check_mapcal_table(mapping.table, d, mapping.p_on, mapping.p_off, RHO)
    for placement in (queue, exact):
        try:
            check_placement_complete(placement)
            check_capacity_at_base(placement, specs, pms)
        except AssertionError as exc:
            raise CheckFailed(str(exc)) from exc
    check_exact_placement(exact, specs, pms, RHO)
