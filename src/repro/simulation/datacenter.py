"""Runtime state of the simulated datacenter.

The fleet's state lives in arrays indexed by VM or PM id: each VM's spec
parameters, ON/OFF and throttle flags, and its host in
``placement.assignment``, the one hosting record.  *Local resizing* is
modelled as instantaneous (the paper: "local resizing adaptively adjusts VM
configuration ... with neglectable time and resource overheads"), so a VM's
allocation always equals its demand and a PM's load is the sum of hosted
demands.  Capacity overflow (load > capacity) is what triggers the dynamic
scheduler.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.types import Placement, PMSpec, VMSpec
from repro.telemetry import timed
from repro.utils.rng import (
    SeedLike,
    as_generator,
    capture_rng_state,
    restore_rng_state,
)

_EPS = 1e-9


class Datacenter:
    """The fleet: VM and PM specs, hosting, and the evolving demands.

    Parameters
    ----------
    vms, pms:
        Problem instance.
    placement:
        Initial complete placement (from any placer).
    seed:
        RNG for the ON-OFF evolution.
    start_stationary:
        Draw initial ON/OFF states from each VM's stationary law; the paper
        starts all VMs at OFF, which is the default here too.
    """

    def __init__(self, vms: Sequence[VMSpec], pms: Sequence[PMSpec],
                 placement: Placement, *, seed: SeedLike = None,
                 start_stationary: bool = False):
        if placement.n_vms != len(vms) or placement.n_pms != len(pms):
            raise ValueError(
                f"placement is for {placement.n_vms} VMs x {placement.n_pms} PMs "
                f"but instance has {len(vms)} x {len(pms)}"
            )
        if not placement.all_placed:
            raise ValueError("initial placement must place every VM")
        self._rng = as_generator(seed)
        #: the specs the fleet was built from (frozen)
        self.vm_specs: tuple[VMSpec, ...] = tuple(vms)
        self.pm_specs: tuple[PMSpec, ...] = tuple(pms)
        self.placement = placement.copy()
        self._count_hosted()
        # Per-VM/per-PM parameter arrays for the vectorized tick.
        self._p_on = np.array([v.p_on for v in vms])
        self._p_off = np.array([v.p_off for v in vms])
        self._r_base = np.array([v.r_base for v in vms])
        self._r_extra = np.array([v.r_extra for v in vms])
        self._caps = np.array([p.capacity for p in pms], dtype=float)
        self._caps.setflags(write=False)
        # The *assumed* law, frozen from the specs at construction: the
        # stationary ON probability MapCal consolidated against, and the
        # asymptotic per-interval variance rate of the ON-state occupation
        # time including the Markov autocorrelation inflation
        # (1 + r) / (1 - r), r = 1 - p_on - p_off.  These stay fixed even
        # when set_switch_probabilities() drifts the actual dynamics —
        # that gap is exactly what the drift detector measures.
        self._assumed_p_on = self._p_on.copy()
        self._assumed_p_off = self._p_off.copy()
        self._recompute_assumed()
        q = self._q_assumed
        self._on = np.zeros(len(vms), dtype=bool)
        self._throttled = np.zeros(len(vms), dtype=bool)
        if start_stationary and len(vms):
            self._on = self._rng.random(len(vms)) < q

    def _recompute_assumed(self) -> None:
        """Refresh ``_q_assumed``/``_var_rate_assumed`` from the assumed
        switch probabilities (see the inflation note in ``__init__``)."""
        p_on, p_off = self._assumed_p_on, self._assumed_p_off
        q = p_on / (p_on + p_off)
        r = np.clip(1.0 - p_on - p_off, 0.0, 1.0 - 1e-12)
        self._q_assumed = q
        self._var_rate_assumed = q * (1.0 - q) * (1.0 + r) / (1.0 - r)

    # ------------------------------------------------------------------ #
    # dynamics
    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """Advance every VM's ON-OFF chain by one interval (vectorized).

        One RNG draw vector per interval; the fleet-wide transition is a
        single masked update of the ON mask.
        """
        with timed("datacenter.step"):
            u = self._rng.random(self.n_vms)
            self._on = np.where(self._on, u >= self._p_off, u < self._p_on)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def n_vms(self) -> int:
        """Number of VMs."""
        return len(self.vm_specs)

    @property
    def n_pms(self) -> int:
        """Number of PMs in the fleet (used or idle)."""
        return len(self.pm_specs)

    def vm_demands(self) -> np.ndarray:
        """Current *served* demand of every VM (vectorized).

        A throttled VM is served at ``R_b`` regardless of its ON/OFF state
        (graceful degradation); see :meth:`set_throttle`.
        """
        return self._r_base + self._r_extra * (self._on & ~self._throttled)

    def vm_full_demands(self) -> np.ndarray:
        """Demand every VM *wants* right now, ignoring throttling."""
        return self._r_base + self._r_extra * self._on

    def pm_load(self, pm_id: int) -> float:
        """Aggregate demand on PM ``pm_id``: ``pm_loads()[pm_id]``.

        Summed one VM at a time in ascending id order, the order
        :meth:`pm_loads` accumulates in, so the two agree bit for bit.
        """
        total = 0.0
        for demand in self.vm_demands()[self.placement.vms_on(pm_id)].tolist():
            total += demand
        return total

    def pm_loads(self) -> np.ndarray:
        """Aggregate demand of every PM (vectorized scatter-add)."""
        loads = np.zeros(self.n_pms)
        np.add.at(loads, self.placement.assignment, self.vm_demands())
        return loads

    def vm_base_demands(self) -> np.ndarray:
        """Per-VM base demand ``R_b`` (read-only view)."""
        base = self._r_base.view()
        base.flags.writeable = False
        return base

    def pm_capacities(self) -> np.ndarray:
        """Per-PM capacity vector (cached, read-only — specs are frozen)."""
        return self._caps

    def pm_vm_counts(self) -> np.ndarray:
        """Hosted VM count of every PM (read-only view)."""
        counts = self._hosted.view()
        counts.flags.writeable = False
        return counts

    def pm_used_mask(self) -> np.ndarray:
        """Boolean mask of powered-on (non-empty) PMs, vectorized."""
        return self._hosted > 0

    def overloaded_pms(self) -> np.ndarray:
        """PM indices whose load currently exceeds capacity."""
        loads = self.pm_loads()
        return np.flatnonzero(loads > self._caps + _EPS)

    def used_pm_count(self) -> int:
        """Number of powered-on (non-empty) PMs."""
        return int(np.count_nonzero(self._hosted))

    def pm_base_loads(self) -> np.ndarray:
        """Aggregate *base* (OFF-state) demand per PM — spike-independent."""
        loads = np.zeros(self.n_pms)
        np.add.at(loads, self.placement.assignment, self._r_base)
        return loads

    @property
    def throttled(self) -> np.ndarray:
        """Copy of the per-VM degradation mask."""
        return self._throttled.copy()

    def on_states(self) -> np.ndarray:
        """Copy of the per-VM ON mask (raw burst state, throttling ignored)."""
        return self._on.copy()

    def assumed_on_probability(self) -> np.ndarray:
        """Per-VM stationary ON probability of the *spec-time* model.

        Frozen at construction: :meth:`set_switch_probabilities` shifts the
        simulated dynamics but never this array, so observers comparing
        observed ON-fractions against it see exactly the model mismatch.
        """
        return self._q_assumed.copy()

    def assumed_on_variance_rate(self) -> np.ndarray:
        """Per-VM, per-interval variance rate of the assumed ON occupation.

        ``q (1 - q) (1 + r) / (1 - r)`` with ``r = 1 - p_on - p_off`` — the
        asymptotic variance of the two-state chain's occupation time, i.e.
        the binomial variance inflated for serial correlation.  Summing it
        over a window yields the null variance a chi-square drift statistic
        must normalize by.
        """
        return self._var_rate_assumed.copy()

    # ------------------------------------------------------------------ #
    # mutation (used by the scheduler)
    # ------------------------------------------------------------------ #
    def set_switch_probabilities(self, vm_ids: Sequence[int], *,
                                 p_on: float | None = None,
                                 p_off: float | None = None) -> None:
        """Shift the *actual* ON-OFF dynamics of some VMs mid-run.

        Models workload drift: the VMs keep the specs their placement was
        computed from (so reservations, expected demands, and the assumed
        law reported by :meth:`assumed_on_probability` are unchanged) but
        their simulated chains switch with the new probabilities from the
        next :meth:`step` on.  This is the injection knob the drift
        detector is validated against.
        """
        for vm_id in vm_ids:
            if not 0 <= vm_id < self.n_vms:
                raise ValueError(
                    f"vm_id must be in [0, {self.n_vms}), got {vm_id}")
        ids = np.asarray(list(vm_ids), dtype=np.int64)
        if p_on is not None:
            if not 0.0 < p_on <= 1.0:
                raise ValueError(f"p_on must be in (0, 1], got {p_on}")
            self._p_on[ids] = p_on
        if p_off is not None:
            if not 0.0 < p_off <= 1.0:
                raise ValueError(f"p_off must be in (0, 1], got {p_off}")
            self._p_off[ids] = p_off

    def set_assumed_law(self, p_on: Sequence[float],
                        p_off: Sequence[float]) -> None:
        """Replace the fleet's *assumed* ON-OFF law (autopilot refit commit).

        The dual of :meth:`set_switch_probabilities`: the actual simulated
        dynamics are untouched, but the null hypothesis the drift detector
        tests against — and the expectations reported through
        :meth:`assumed_on_probability` / :meth:`assumed_on_variance_rate` —
        are recomputed from the refitted per-VM ``(p_on, p_off)``.
        """
        on = np.asarray(list(p_on), dtype=float)
        off = np.asarray(list(p_off), dtype=float)
        if on.shape != (self.n_vms,) or off.shape != (self.n_vms,):
            raise ValueError(
                f"assumed law needs {self.n_vms} (p_on, p_off) pairs, got "
                f"shapes {on.shape} and {off.shape}"
            )
        for name, arr in (("p_on", on), ("p_off", off)):
            if not np.all((arr > 0.0) & (arr <= 1.0)):
                raise ValueError(f"assumed {name} must be in (0, 1]")
        self._assumed_p_on = on
        self._assumed_p_off = off
        self._recompute_assumed()

    def set_throttle(self, vm_id: int, throttled: bool) -> None:
        """Mark VM ``vm_id`` as degraded (served at ``R_b``) or restored."""
        if not 0 <= vm_id < self.n_vms:
            raise ValueError(f"vm_id must be in [0, {self.n_vms}), got {vm_id}")
        self._throttled[vm_id] = bool(throttled)

    def migrate(self, vm_id: int, target_pm: int) -> int:
        """Move VM ``vm_id`` to ``target_pm``; returns the source PM."""
        src = self.placement.migrate(vm_id, target_pm)
        self._hosted[src] -= 1
        self._hosted[target_pm] += 1
        return src

    def _count_hosted(self) -> None:
        """Rebuild the per-PM hosted counts from the assignment."""
        assignment = self.placement.assignment
        self._hosted = np.bincount(assignment[assignment >= 0],
                                   minlength=self.n_pms)

    # ------------------------------------------------------------------ #
    # checkpoint support
    # ------------------------------------------------------------------ #
    def capture_state(self) -> dict:
        """JSON-safe snapshot of every mutable field (for checkpointing).

        Covers the RNG stream, the ON/OFF and throttle masks, the *actual*
        switch probabilities (which :meth:`set_switch_probabilities` may
        have drifted away from the specs), the *assumed* law (which
        :meth:`set_assumed_law` may have refitted), and the placement.  The
        remaining spec-derived arrays (caps, base/extra demands) are
        reconstructed from the specs and need no snapshot.
        """
        return {
            "rng": capture_rng_state(self._rng),
            "on": self._on.tolist(),
            "throttled": self._throttled.tolist(),
            "p_on": self._p_on.tolist(),
            "p_off": self._p_off.tolist(),
            "assumed_p_on": self._assumed_p_on.tolist(),
            "assumed_p_off": self._assumed_p_off.tolist(),
            "assignment": self.placement.assignment.tolist(),
        }

    def restore_state(self, state: dict) -> None:
        """Overwrite mutable state from a :meth:`capture_state` snapshot."""
        for key in ("on", "throttled", "p_on", "p_off", "assignment"):
            if len(state[key]) != self.n_vms:
                raise ValueError(
                    f"checkpoint field {key!r} has {len(state[key])} entries "
                    f"but datacenter has {self.n_vms} VMs"
                )
        self._rng = restore_rng_state(state["rng"])
        self._on = np.array(state["on"], dtype=bool)
        self._throttled = np.array(state["throttled"], dtype=bool)
        self._p_on = np.array(state["p_on"], dtype=float)
        self._p_off = np.array(state["p_off"], dtype=float)
        # Older checkpoints predate the refittable assumed law: fall back to
        # the construction-time default (the specs).
        self._assumed_p_on = np.array(
            state.get("assumed_p_on", [v.p_on for v in self.vm_specs]),
            dtype=float)
        self._assumed_p_off = np.array(
            state.get("assumed_p_off", [v.p_off for v in self.vm_specs]),
            dtype=float)
        self._recompute_assumed()
        self.placement = Placement(
            self.n_vms, self.n_pms,
            np.array(state["assignment"], dtype=np.int64),
        )
        self._count_hosted()
