"""Tests for repro.workload.onoff_generator."""

import numpy as np
import pytest

from repro.core.types import Placement, VMSpec
from repro.workload import onoff_generator
from repro.workload.onoff_generator import demand_trace, ensemble_states, pm_load_trace
from tests.onoff_oracle import ensemble_states_reference

P_ON, P_OFF = 0.01, 0.09


def vm(base, extra, p_on=P_ON, p_off=P_OFF):
    return VMSpec(p_on, p_off, base, extra)


class TestEnsembleStates:
    def test_shape_and_dtype(self):
        states = ensemble_states([vm(1, 1)] * 5, 100, seed=0)
        assert states.shape == (5, 101)
        assert states.dtype == bool

    def test_all_off_start(self):
        states = ensemble_states([vm(1, 1)] * 5, 10, seed=0)
        assert not states[:, 0].any()

    def test_stationary_start(self):
        states = ensemble_states([vm(1, 1)] * 20_000, 0,
                                 start_stationary=True, seed=1)
        assert states[:, 0].mean() == pytest.approx(0.1, abs=0.01)

    def test_heterogeneous_probabilities_honoured(self):
        vms = [vm(1, 1, p_on=0.5, p_off=0.5), vm(1, 1, p_on=0.001, p_off=0.9)]
        states = ensemble_states(vms, 50_000, start_stationary=True, seed=2)
        assert states[0].mean() == pytest.approx(0.5, abs=0.02)
        assert states[1].mean() == pytest.approx(0.001 / 0.901, abs=0.005)

    def test_reproducible(self):
        vms = [vm(1, 1)] * 3
        np.testing.assert_array_equal(
            ensemble_states(vms, 100, seed=5), ensemble_states(vms, 100, seed=5)
        )

    def test_empty_fleet(self):
        states = ensemble_states([], 10, seed=0)
        assert states.shape == (0, 11)

    def test_negative_steps(self):
        with pytest.raises(ValueError):
            ensemble_states([vm(1, 1)], -1)


def mixed_fleet(n):
    rng = np.random.default_rng(n)
    return [vm(1, 1, p_on=float(a), p_off=float(b))
            for a, b in zip(rng.uniform(0.01, 0.5, n), rng.uniform(0.05, 0.9, n))]


def step_counts(n):
    """0, a few steps, and one length that is not a whole number of blocks."""
    block = max(1, onoff_generator._UNIFORMS_PER_BLOCK // n)
    return (0, 5, 2 * block + 3)


class TestEnsembleStatesBlockDraws:
    """Block draws give the per-step reference's states and RNG stream."""

    @pytest.mark.parametrize("n", [1, 7, 1000])
    @pytest.mark.parametrize("start_stationary", [False, True])
    def test_matches_reference(self, n, start_stationary):
        vms = mixed_fleet(n)
        for n_steps in step_counts(n):
            fast_rng = np.random.default_rng(n_steps + n)
            ref_rng = np.random.default_rng(n_steps + n)
            fast = ensemble_states(vms, n_steps, seed=fast_rng,
                                   start_stationary=start_stationary)
            ref = ensemble_states_reference(vms, n_steps, seed=ref_rng,
                                            start_stationary=start_stationary)
            assert fast.shape == ref.shape == (n, n_steps + 1)
            assert fast.flags.c_contiguous
            assert fast.tobytes() == ref.tobytes()
            # the caller's generator is left at the same stream position
            assert fast_rng.random() == ref_rng.random()

    def test_empty_fleet(self):
        rng = np.random.default_rng(0)
        assert ensemble_states([], 10, seed=rng).shape == (0, 11)
        assert rng.random() == np.random.default_rng(0).random()


class TestDemandTrace:
    def test_levels(self):
        vms = [vm(10, 5), vm(20, 2)]
        states = np.array([[False, True], [True, False]])
        demands = demand_trace(vms, states)
        np.testing.assert_allclose(demands, [[10, 15], [22, 20]])

    def test_row_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            demand_trace([vm(1, 1)], np.zeros((2, 3), dtype=bool))


class TestPmLoadTrace:
    def test_aggregation(self):
        vms = [vm(10, 5), vm(20, 2), vm(1, 1)]
        placement = Placement(3, 2, assignment=np.array([0, 0, 1]))
        states = np.array([[False, True],
                           [False, False],
                           [True, True]])
        loads = pm_load_trace(placement, demand_trace(vms, states))
        np.testing.assert_allclose(loads, [[30, 35], [2, 2]])

    def test_unused_pm_rows_zero(self):
        vms = [vm(5, 1)]
        placement = Placement(1, 3, assignment=np.array([1]))
        loads = pm_load_trace(placement, demand_trace(vms, np.zeros((1, 4), bool)))
        assert loads[0].sum() == 0 and loads[2].sum() == 0
        np.testing.assert_allclose(loads[1], 5.0)

    def test_requires_complete_placement(self):
        placement = Placement(1, 1)
        with pytest.raises(ValueError, match="placed"):
            pm_load_trace(placement, np.zeros((1, 3)))

    def test_shape_mismatch(self):
        placement = Placement(2, 1, assignment=np.array([0, 0]))
        with pytest.raises(ValueError, match="rows"):
            pm_load_trace(placement, np.zeros((3, 3)))
