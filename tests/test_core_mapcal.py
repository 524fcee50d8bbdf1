"""Tests for repro.core.mapcal — Algorithm 1."""

import numpy as np
import pytest

from repro.core.mapcal import BlockMapping, mapcal, mapcal_table
from repro.markov.onoff import OnOffChain
from repro.queueing.geom_geom_k import FiniteSourceGeomGeomK

P_ON, P_OFF, RHO = 0.01, 0.09, 0.01


class TestMapcal:
    def test_k_zero(self):
        assert mapcal(0, P_ON, P_OFF, RHO) == 0

    def test_k_one_low_on_probability(self):
        # One VM is ON 10% of the time > rho=1%, so it needs its own block.
        assert mapcal(1, P_ON, P_OFF, RHO) == 1

    def test_k_one_loose_rho(self):
        # If rho exceeds the ON fraction, no block is needed.
        assert mapcal(1, P_ON, P_OFF, 0.2) == 0

    def test_returned_k_satisfies_bound(self):
        for k in (2, 5, 9, 16):
            K = mapcal(k, P_ON, P_OFF, RHO)
            model = FiniteSourceGeomGeomK(k, P_ON, P_OFF)
            assert model.overflow_probability(K) <= RHO + 1e-12

    def test_returned_k_is_minimal(self):
        for k in (2, 5, 9, 16):
            K = mapcal(k, P_ON, P_OFF, RHO)
            if K > 0:
                model = FiniteSourceGeomGeomK(k, P_ON, P_OFF)
                assert model.overflow_probability(K - 1) > RHO - 1e-12

    def test_monotone_in_k(self):
        Ks = [mapcal(k, P_ON, P_OFF, RHO) for k in range(1, 25)]
        assert all(a <= b for a, b in zip(Ks, Ks[1:]))

    def test_sublinear_growth(self):
        # Statistical multiplexing: K(16) is far below 16.
        assert mapcal(16, P_ON, P_OFF, RHO) <= 6

    def test_monotone_in_rho(self):
        Ks = [mapcal(12, P_ON, P_OFF, rho) for rho in (0.5, 0.1, 0.01, 0.001)]
        assert Ks == sorted(Ks)

    def test_never_exceeds_k(self):
        for k in range(1, 20):
            assert 0 <= mapcal(k, P_ON, P_OFF, 1e-12) <= k

    def test_higher_on_fraction_needs_more_blocks(self):
        low = mapcal(16, 0.01, 0.09, RHO)   # 10% ON
        high = mapcal(16, 0.05, 0.05, RHO)  # 50% ON
        assert high > low

    @pytest.mark.parametrize("method", ["linear", "power", "eig"])
    def test_solver_methods_agree(self, method):
        """The closed form equals the chain route under every chain solver."""
        chain = FiniteSourceGeomGeomK(10, P_ON, P_OFF)
        assert (mapcal(10, P_ON, P_OFF, RHO, method="binomial")
                == mapcal(10, P_ON, P_OFF, RHO, method="chain")
                == chain.min_windows_for_overflow(RHO, method))

    def test_agrees_with_simulation(self):
        """The reserved K truly bounds the simulated violation fraction."""
        k = 8
        K = mapcal(k, P_ON, P_OFF, RHO)
        chain = OnOffChain(P_ON, P_OFF)
        states = chain.simulate_ensemble(k, 300_000, start_stationary=True, seed=3)
        busy = states.sum(axis=0)
        violation_fraction = float((busy > K).mean())
        # Statistical tolerance: a couple of standard errors above rho.
        assert violation_fraction <= RHO * 1.5

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            mapcal(-1, P_ON, P_OFF, RHO)
        with pytest.raises(ValueError):
            mapcal(3, P_ON, P_OFF, 1.5)

    @pytest.mark.parametrize("p_on, p_off", [
        (0.0, P_OFF), (P_ON, 0.0), (1.5, P_OFF), (P_ON, 1.5),
        (float("nan"), P_OFF), (P_ON, float("nan")),
    ])
    @pytest.mark.parametrize("k", [0, 1, 8])
    def test_invalid_switch_probabilities(self, k, p_on, p_off):
        with pytest.raises(ValueError):
            mapcal(k, p_on, p_off, RHO)
        with pytest.raises(ValueError):
            mapcal_table(max(k, 1), p_on, p_off, RHO)

    @pytest.mark.parametrize("method", ["linear", "power", "eig", "closed"])
    def test_unknown_method(self, method):
        with pytest.raises(ValueError, match="binomial"):
            mapcal(4, P_ON, P_OFF, RHO, method=method)
        with pytest.raises(ValueError, match="binomial"):
            mapcal_table(4, P_ON, P_OFF, RHO, method=method)


class TestMapcalTable:
    def test_table_matches_pointwise(self):
        mapping = mapcal_table(10, P_ON, P_OFF, RHO)
        for k in range(11):
            assert mapping.blocks_for(k) == mapcal(k, P_ON, P_OFF, RHO)

    def test_zero_entry(self):
        assert mapcal_table(4, P_ON, P_OFF, RHO).blocks_for(0) == 0

    def test_getitem(self):
        mapping = mapcal_table(6, P_ON, P_OFF, RHO)
        assert mapping[4] == mapping.blocks_for(4)

    def test_d_property(self):
        assert mapcal_table(7, P_ON, P_OFF, RHO).d == 7

    def test_out_of_range_k(self):
        mapping = mapcal_table(5, P_ON, P_OFF, RHO)
        with pytest.raises(ValueError):
            mapping.blocks_for(6)
        with pytest.raises(ValueError):
            mapping.blocks_for(-1)

    def test_table_immutable(self):
        mapping = mapcal_table(4, P_ON, P_OFF, RHO)
        with pytest.raises(ValueError):
            mapping.table[2] = 99

    def test_blockmapping_from_array(self):
        m = BlockMapping(p_on=0.1, p_off=0.2, rho=0.05,
                         table=np.array([0, 1, 1, 2]))
        assert m.d == 3 and m[3] == 2

    def test_invalid_d(self):
        with pytest.raises(ValueError):
            mapcal_table(0, P_ON, P_OFF, RHO)


RHO_CHOICES = (1.0, 0.5, 0.1, 0.01, 1e-3, 1e-6, None)  # None: uniform draw


def _random_case(rng, max_d):
    rho = RHO_CHOICES[rng.integers(len(RHO_CHOICES))]
    return (int(rng.integers(1, max_d + 1)), float(rng.uniform(1e-3, 1.0)),
            float(rng.uniform(1e-3, 1.0)),
            float(rng.uniform(0.0, 1.0)) if rho is None else rho)


class TestClosedFormParity:
    """The binomial quantile against Alg. 1's chain solve (the oracle)."""

    def test_tables_identical_on_random_cases(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            d, p_on, p_off, rho = _random_case(rng, 48)
            closed = mapcal_table(d, p_on, p_off, rho)
            chain = mapcal_table(d, p_on, p_off, rho, method="chain")
            np.testing.assert_array_equal(
                closed.table, chain.table, err_msg=f"{(d, p_on, p_off, rho)}")

    def test_entries_identical_at_large_d(self):
        """d up to 160: every chain table would take seconds, so each case
        checks the last entry and four random ones."""
        rng = np.random.default_rng(160)
        for _ in range(40):
            d, p_on, p_off, rho = _random_case(rng, 160)
            d = max(d, 96)
            closed = mapcal_table(d, p_on, p_off, rho)
            for k in {d, *rng.integers(1, d + 1, 4).tolist()}:
                chain = FiniteSourceGeomGeomK(k, p_on, p_off)
                assert closed[k] == chain.min_windows_for_overflow(rho), (
                    d, k, p_on, p_off, rho)

    def test_paper_setting_table(self):
        np.testing.assert_array_equal(
            mapcal_table(64, P_ON, P_OFF, RHO).table,
            mapcal_table(64, P_ON, P_OFF, RHO, method="chain").table)


class TestRhoZero:
    """rho = 0 allows no overflow at all, so every route needs K = k."""

    @pytest.mark.parametrize("method", ["binomial", "chain"])
    def test_mapcal_returns_k(self, method):
        assert mapcal(13, 0.01931259792359692, 0.6833661471090031, 0.0,
                      method=method) == 13

    @pytest.mark.parametrize("method", ["binomial", "chain"])
    def test_table_is_identity(self, method):
        table = mapcal_table(16, P_ON, P_OFF, 0.0, method=method).table
        np.testing.assert_array_equal(table, np.arange(17))

    def test_chain_model_returns_k(self):
        model = FiniteSourceGeomGeomK(16, P_ON, P_OFF)
        assert model.min_windows_for_overflow(0.0) == 16
