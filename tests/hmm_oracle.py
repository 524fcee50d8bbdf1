"""Reference E-step the Baum-Welch fast path is tested against.

:func:`forward_backward_reference` is the scaled forward-backward pass once
shipped as ``repro.markov.hmm._forward_backward``: the same arithmetic in
the same order, but every step indexes NumPy arrays element by element.
The shipped pass runs on Python floats and must stay byte-identical to it.
"""

from __future__ import annotations

import numpy as np

_LOG_EPS = 1e-300


def forward_backward_reference(log_emit: np.ndarray, A: np.ndarray,
                               pi0: np.ndarray):
    """Scaled forward-backward for a 2-state chain (NumPy-indexed loop).

    Returns ``(gamma, xi_sum, log_likelihood)``.
    """
    T = log_emit.shape[0]
    shift = log_emit.max(axis=1)
    emit = np.exp(log_emit - shift[:, None])
    e0 = emit[:, 0]
    e1 = emit[:, 1]
    a00, a01 = float(A[0, 0]), float(A[0, 1])
    a10, a11 = float(A[1, 0]), float(A[1, 1])

    alpha = np.empty((T, 2))
    log_scale = 0.0
    f0 = pi0[0] * e0[0]
    f1 = pi0[1] * e1[0]
    c = f0 + f1
    log_scale += np.log(max(c, _LOG_EPS))
    alpha[0, 0], alpha[0, 1] = f0 / c, f1 / c
    scales = np.empty(T)
    scales[0] = c
    for t in range(1, T):
        p0, p1 = alpha[t - 1, 0], alpha[t - 1, 1]
        f0 = (p0 * a00 + p1 * a10) * e0[t]
        f1 = (p0 * a01 + p1 * a11) * e1[t]
        c = f0 + f1
        if c < _LOG_EPS:  # pragma: no cover - scaling prevents underflow
            c = _LOG_EPS
        scales[t] = c
        alpha[t, 0], alpha[t, 1] = f0 / c, f1 / c
    ll = float(np.log(scales).sum() + shift.sum())

    beta = np.empty((T, 2))
    beta[-1, 0] = beta[-1, 1] = 1.0
    xi00 = xi01 = xi10 = xi11 = 0.0
    for t in range(T - 2, -1, -1):
        b0n = beta[t + 1, 0] * e0[t + 1]
        b1n = beta[t + 1, 1] * e1[t + 1]
        # xi contributions (unnormalized within the scaled scheme): the
        # per-t normalizer is scales[t + 1], making each xi matrix sum to 1.
        a0 = alpha[t, 0]
        a1 = alpha[t, 1]
        inv_c = 1.0 / scales[t + 1]
        xi00 += a0 * a00 * b0n * inv_c
        xi01 += a0 * a01 * b1n * inv_c
        xi10 += a1 * a10 * b0n * inv_c
        xi11 += a1 * a11 * b1n * inv_c
        beta[t, 0] = (a00 * b0n + a01 * b1n) * inv_c
        beta[t, 1] = (a10 * b0n + a11 * b1n) * inv_c

    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    xi_sum = np.array([[xi00, xi01], [xi10, xi11]])
    return gamma, xi_sum, ll
