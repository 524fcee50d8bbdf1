"""Tests for repro.queueing.geom_geom_k — the finite-source queue model."""

import numpy as np
import pytest

from repro.markov.onoff import OnOffChain
from repro.queueing.geom_geom_k import FiniteSourceGeomGeomK, overflow_quantile


@pytest.fixture
def model():
    return FiniteSourceGeomGeomK(k=10, p_on=0.01, p_off=0.09)


class TestConstruction:
    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            FiniteSourceGeomGeomK(0, 0.1, 0.1)

    def test_requires_nonzero_probs(self):
        with pytest.raises(ValueError):
            FiniteSourceGeomGeomK(5, 0.0, 0.1)
        with pytest.raises(ValueError):
            FiniteSourceGeomGeomK(5, 0.1, 0.0)


class TestStationary:
    def test_matches_closed_form_binomial(self, model):
        np.testing.assert_allclose(
            model.stationary_distribution(),
            model.stationary_distribution_closed_form(),
            atol=1e-10,
        )

    @pytest.mark.parametrize("k,p_on,p_off", [
        (3, 0.5, 0.5), (7, 0.2, 0.6), (20, 0.01, 0.09), (16, 0.9, 0.05),
    ])
    def test_closed_form_across_parameters(self, k, p_on, p_off):
        m = FiniteSourceGeomGeomK(k, p_on, p_off)
        np.testing.assert_allclose(
            m.stationary_distribution(),
            m.stationary_distribution_closed_form(),
            atol=1e-9,
        )

    def test_cached_per_method(self, model):
        a = model.stationary_distribution("linear")
        b = model.stationary_distribution("linear")
        assert a is b  # cache returns the same array object

    def test_matches_ensemble_simulation(self):
        m = FiniteSourceGeomGeomK(6, 0.05, 0.2)
        chain = OnOffChain(0.05, 0.2)
        states = chain.simulate_ensemble(6, 100_000, start_stationary=True, seed=0)
        busy = states.sum(axis=0)
        empirical = np.bincount(busy, minlength=7) / busy.size
        np.testing.assert_allclose(empirical, m.stationary_distribution(), atol=0.01)

    def test_expected_demand(self, model):
        pi = model.stationary_distribution()
        mean_from_pi = float(np.arange(11) @ pi)
        assert model.expected_demand() == pytest.approx(mean_from_pi, abs=1e-10)
        assert model.expected_demand() == pytest.approx(10 * 0.1)


class TestOverflow:
    def test_overflow_zero_at_k(self, model):
        assert model.overflow_probability(10) == 0.0
        assert model.overflow_probability(15) == 0.0

    def test_overflow_decreasing_in_windows(self, model):
        values = [model.overflow_probability(K) for K in range(11)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_overflow_at_zero_is_on_probability_complement(self, model):
        # P[demand > 0] = 1 - pi_0
        pi = model.stationary_distribution()
        assert model.overflow_probability(0) == pytest.approx(1 - pi[0])

    def test_min_windows_satisfies_bound(self, model):
        for rho in (0.3, 0.1, 0.01, 0.001):
            K = model.min_windows_for_overflow(rho)
            assert model.overflow_probability(K) <= rho + 1e-12
            if K > 0:
                assert model.overflow_probability(K - 1) > rho

    def test_min_windows_monotone_in_rho(self, model):
        ks = [model.min_windows_for_overflow(r) for r in (0.5, 0.1, 0.01, 1e-4)]
        assert ks == sorted(ks)

    def test_rho_one_needs_zero_windows(self, model):
        assert model.min_windows_for_overflow(1.0) == 0

    def test_rho_zero_needs_k_windows(self, model):
        assert model.min_windows_for_overflow(0.0) == 10

    def test_negative_windows_rejected(self, model):
        with pytest.raises(ValueError):
            model.overflow_probability(-1)


class TestLossSystem:
    def test_kernel_rows_stochastic(self, model):
        P = model.loss_system_kernel(4)
        assert P.shape == (5, 5)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(P >= 0)

    def test_full_windows_equals_unrestricted(self, model):
        # With K = k clipping does nothing.
        full = model.demand_chain().transition_matrix
        np.testing.assert_allclose(model.loss_system_kernel(10), full, atol=1e-15)

    def test_distribution_sums_to_one(self, model):
        pi = model.loss_system_distribution(3)
        assert pi.shape == (4,)
        assert pi.sum() == pytest.approx(1.0)

    def test_time_blocking_decreasing_in_windows(self, model):
        blocks = [model.time_blocking_probability(K) for K in range(1, 11)]
        assert all(a >= b - 1e-12 for a, b in zip(blocks, blocks[1:]))

    def test_blocking_below_overflow_of_one_fewer(self, model):
        # Loss-system full-probability is related to, but not above, the
        # unrestricted tail at K-1 (clipping removes mass above K).
        for K in (2, 4, 6):
            assert model.time_blocking_probability(K) <= (
                model.overflow_probability(K - 1) + 1e-12
            )

    def test_invalid_window_counts(self, model):
        with pytest.raises(ValueError):
            model.loss_system_kernel(0)
        with pytest.raises(ValueError):
            model.loss_system_kernel(11)


class TestOverflowQuantile:
    def test_rho_zero_returns_k(self):
        # cumulative reaches 1 - 1e-15 at K = 1: inside the tie slack
        pmf = np.array([0.9, 0.1 - 1e-15, 1e-15])
        assert overflow_quantile(pmf, 0.0) == 2

    def test_unchanged_for_positive_rho(self):
        """The shared helper is the tie rule the scans used before it."""
        rng = np.random.default_rng(15)
        for _ in range(500):
            pmf = rng.dirichlet(np.full(int(rng.integers(1, 40)), 0.3))
            rho = float(rng.choice([1.0, 0.5, 0.01, 1e-6, rng.uniform()]))
            meets = np.flatnonzero(np.cumsum(pmf) >= 1.0 - rho - 1e-15)
            expected = int(meets[0]) if meets.size else pmf.size - 1
            assert overflow_quantile(pmf, rho) == expected

    def test_falls_back_to_k_when_cumulative_falls_short(self):
        assert overflow_quantile(np.array([0.5, 0.4]), 1e-3) == 1
