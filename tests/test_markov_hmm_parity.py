"""The Baum-Welch E-step on Python floats is byte-identical to the
NumPy-indexed reference loop in :mod:`tests.hmm_oracle`, agrees with a
log-space ``logsumexp`` forward-backward, and leaves every fit unchanged."""

import numpy as np
import pytest
from scipy.special import logsumexp

import repro.markov.hmm as hmm
from repro.core.types import VMSpec
from repro.markov.hmm import _forward_backward, fit_hmm_onoff
from repro.workload.onoff_generator import demand_trace, ensemble_states
from tests.hmm_oracle import forward_backward_reference


def random_case(seed: int):
    """A seeded ``(log_emit, A, pi0)``; some cases hit the edges on purpose.

    Every fourth case starts from a ``pi0`` with an exact zero (the supported
    state carries the t = 0 emission maximum, so the reference's unguarded
    first step stays finite); the emission scale reaches hundreds of nats,
    so many steps put the two states more than 700 nats apart and one
    emission underflows to exactly 0.
    """
    rng = np.random.default_rng(seed)
    T = 2 if seed % 10 == 0 else int(rng.integers(2, 300))
    scale = float(rng.choice([0.5, 5.0, 60.0, 500.0]))
    log_emit = rng.normal(0.0, 1.0, (T, 2)) * scale + rng.normal(0.0, 20.0)
    a, b = rng.uniform(0.01, 0.99, 2)
    A = np.array([[1.0 - a, a], [b, 1.0 - b]])
    p = rng.uniform()
    pi0 = np.array([p, 1.0 - p])
    if seed % 4 == 1:
        s = int(rng.integers(2))
        pi0 = np.eye(2)[s]
        log_emit[0, s] = log_emit[0, 1 - s] + rng.uniform(0.0, 5.0)
    return log_emit, A, pi0


CASES = [random_case(seed) for seed in range(240)]


def test_cases_cover_the_edges():
    assert any(le.shape[0] == 2 for le, _, _ in CASES)
    assert sum(bool((pi0 == 0.0).any()) for _, _, pi0 in CASES) >= 50
    far = [le for le, _, _ in CASES if np.abs(le[:, 0] - le[:, 1]).max() > 700]
    assert len(far) >= 30
    assert any((np.exp(le - le.max(axis=1, keepdims=True)) == 0.0).any()
               for le in far)


@pytest.mark.parametrize("case", range(len(CASES)))
def test_byte_identical_to_reference(case):
    log_emit, A, pi0 = CASES[case]
    gamma, xi_sum, ll = _forward_backward(log_emit, A, pi0)
    ref_gamma, ref_xi, ref_ll = forward_backward_reference(log_emit, A, pi0)
    assert gamma.tobytes() == ref_gamma.tobytes()
    assert gamma.shape == ref_gamma.shape
    assert gamma.flags.c_contiguous and ref_gamma.flags.c_contiguous
    assert xi_sum.tobytes() == ref_xi.tobytes()
    assert type(ll) is float and ll.hex() == ref_ll.hex()


def log_space_forward_backward(log_emit, A, pi0):
    """Textbook forward-backward on log-probabilities."""
    T = log_emit.shape[0]
    with np.errstate(divide="ignore"):
        log_A, log_pi0 = np.log(A), np.log(pi0)
    log_alpha = np.empty((T, 2))
    log_beta = np.zeros((T, 2))
    log_alpha[0] = log_pi0 + log_emit[0]
    for t in range(1, T):
        log_alpha[t] = (logsumexp(log_alpha[t - 1][:, None] + log_A, 0)
                        + log_emit[t])
    for t in range(T - 2, -1, -1):
        log_beta[t] = logsumexp(log_A + log_emit[t + 1] + log_beta[t + 1], 1)
    ll = float(logsumexp(log_alpha[-1], 0))
    gamma = np.exp(log_alpha + log_beta - ll)
    xi = np.exp(log_alpha[:-1, :, None] + log_A[None]
                + (log_emit[1:] + log_beta[1:])[:, None, :] - ll)
    return gamma, xi.sum(axis=0), ll


@pytest.mark.parametrize("case", range(0, len(CASES), 3))
def test_agrees_with_log_space_reference(case):
    log_emit, A, pi0 = CASES[case]
    gamma, xi_sum, ll = _forward_backward(log_emit, A, pi0)
    ref_gamma, ref_xi, ref_ll = log_space_forward_backward(log_emit, A, pi0)
    assert ll == pytest.approx(ref_ll, rel=1e-9)
    np.testing.assert_allclose(gamma, ref_gamma, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(xi_sum, ref_xi, rtol=1e-9, atol=1e-9)


def test_first_step_is_guarded_like_the_rest():
    # pi0 puts all mass on a state whose t = 0 emission underflows to 0:
    # the first scale factor is floored instead of dividing by zero.
    log_emit = np.array([[0.0, -800.0], [0.0, -1.0], [-2.0, 0.0]])
    A = np.array([[0.9, 0.1], [0.2, 0.8]])
    with np.errstate(invalid="ignore"):
        _, _, ll = _forward_backward(log_emit, A, np.array([0.0, 1.0]))
    assert np.isfinite(ll)


def planning_traces(n=50, seed=2024):
    """Noisy ON/OFF traces like an offline planner fits (sigma = 0.5)."""
    rng = np.random.default_rng(seed)
    vms = [VMSpec(p_on=float(rng.uniform(0.1, 0.3)),
                  p_off=float(rng.uniform(0.3, 0.6)),
                  r_base=float(rng.uniform(2.0, 10.0)),
                  r_extra=float(rng.uniform(12.0, 20.0))) for _ in range(n)]
    states = ensemble_states(vms, 192, start_stationary=True, seed=seed + 1)
    traces = demand_trace(vms, states) + rng.normal(0.0, 0.5, states.shape)
    lengths = rng.integers(64, 193, n)
    return [row[:length] for row, length in zip(traces, lengths)]


def test_fits_unchanged_with_reference_e_step(monkeypatch):
    traces = planning_traces()
    fast = [repr(fit_hmm_onoff(x, return_diagnostics=True)) for x in traces]
    calls = []

    def reference(*args):
        calls.append(1)
        return forward_backward_reference(*args)

    monkeypatch.setattr(hmm, "_forward_backward", reference)
    slow = [repr(fit_hmm_onoff(x, return_diagnostics=True)) for x in traces]
    assert len(calls) >= len(traces)
    assert fast == slow
