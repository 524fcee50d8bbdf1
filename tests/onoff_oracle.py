"""Reference ON/OFF simulator the block-drawing fast path is tested against.

:func:`ensemble_states_reference` is the loop once shipped as
``repro.workload.onoff_generator.ensemble_states``: one ``rng.random(n)``
draw per step.  The shipped function draws its uniforms in ``(m, n)``
blocks, which must consume the same generator stream and give the same
states.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.types import VMSpec, vm_arrays
from repro.utils.rng import SeedLike, as_generator


def ensemble_states_reference(vms: Sequence[VMSpec], n_steps: int, *,
                              start_stationary: bool = False,
                              seed: SeedLike = None) -> np.ndarray:
    """ON/OFF states of every VM, one uniform draw per step."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    arrays = vm_arrays(vms)
    p_on, p_off = arrays["p_on"], arrays["p_off"]
    n = len(vms)
    rng = as_generator(seed)
    states = np.empty((n, n_steps + 1), dtype=bool)
    if start_stationary and n:
        q = p_on / (p_on + p_off)
        states[:, 0] = rng.random(n) < q
    else:
        states[:, 0] = False
    current = states[:, 0].copy()
    for t in range(n_steps):
        u = rng.random(n)
        current = np.where(current, u >= p_off, u < p_on)
        states[:, t + 1] = current
    return states
