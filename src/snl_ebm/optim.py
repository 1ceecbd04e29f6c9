"""Adam and SGD ascent steps on flat parameter vectors.

Both follow the gradient of an objective being maximized, and both update
the parameter buffer in place (Adam its moments too); a non-finite gradient
raises before anything is changed. SGD adds ``lr * grad``. Adam follows the
standard update with bias correction:

    m_t = beta1 m_{t-1} + (1 - beta1) g
    v_t = beta2 v_{t-1} + (1 - beta2) g^2
    step = lr * (m_t / (1 - beta1^t)) / (sqrt(v_t / (1 - beta2^t)) + eps)

so the very first step has magnitude ~= lr in every coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def check_finite_gradient(grad: np.ndarray) -> None:
    bad = ~np.isfinite(grad)
    if bad.any():
        idx = int(np.argmax(bad))
        raise ValueError(f"gradient has non-finite entry {grad[idx]!r} at coordinate {idx}")


@dataclass
class AdamState:
    """First and second moments, step count, and two scratch rows that each
    step reuses for its temporaries."""

    m: np.ndarray
    v: np.ndarray
    t: int

    def __post_init__(self):
        self.scratch = np.empty((2,) + self.m.shape)

    @classmethod
    def fresh(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0)


def adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """One Adam ascent step, in place on ``params`` and on ``state``.

    The operations are those of the update above in the same order, so the
    result is bit-identical to evaluating it with fresh arrays.
    """
    check_finite_gradient(grad)
    t = state.t + 1
    tmp, denom = state.scratch
    state.m *= ADAM_BETA1
    state.m += np.multiply(grad, 1.0 - ADAM_BETA1, out=tmp)
    state.v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=tmp)
    state.v += np.multiply(tmp, grad, out=tmp)
    np.divide(state.v, 1.0 - ADAM_BETA2**t, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(state.m, 1.0 - ADAM_BETA1**t, out=tmp)
    tmp *= lr
    tmp /= denom
    params += tmp
    state.t = t


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """One SGD ascent step, in place on ``params``."""
    check_finite_gradient(grad)
    params += lr * grad
