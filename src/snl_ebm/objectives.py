"""Self-normalised likelihood objectives and their Monte Carlo estimators.

Notation: an energy model defines an unnormalised density exp(-E_theta(x)),
optionally tilted by a base density d(x), with normalizer

    Z_theta = integral exp(-E_theta(x)) d(x) dx.

The log-likelihood ell(theta) = mean_i log-density(x_i) - log Z_theta is
intractable, but log z = min_lambda (z e^{-lambda} + lambda - 1) turns it into
a joint objective over (theta, b) that touches ell from below:

    ell_SNL(theta, b) = mean_i u_theta(x_i) - b - e^{-b} Z_theta + 1,

with u the unnormalised log-density, maximized over b exactly at b = log Z.
Z is replaced by an unbiased importance estimate, mean of

    w_m = exp(-E(x_m)) d(x_m) / q(x_m),  x_m ~ q,

which keeps both the objective and its gradients unbiased. The companion
upper bound substitutes the estimate inside the log:

    ell_IS = mean_i u_theta(x_i) - log mean_m w_m  >=  ell_SNL   (same samples).

``step_terms`` is the one place that computes ell_SNL: it is the SNL/NCE
step of both training loops and the value of both validations.
``bound_pair`` is the reduction of both evaluations. All log-weight arithmetic
happens in log space; the mean weight is only exponentiated after
subtracting the running maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit
from scipy.special import logsumexp as scipy_logsumexp

from .errors import DegenerateProposalError, EnergyEvaluationError

SNL_SHIFT_CAP = 600.0  # log w - b beyond which e^{log w - b} is too close to overflow for the l_snl error


@dataclass(frozen=True)
class ImportanceBatch:
    """Proposal samples with their log-densities, scored once and reused.

    ``base_log_densities`` carries log d(x_m) of the model's base, which
    every consumer reads when the model has one; None for a model without.
    """

    samples: np.ndarray
    proposal_log_densities: np.ndarray
    base_log_densities: np.ndarray | None = None

    def __post_init__(self):
        if self.samples.ndim != 2:
            raise ValueError("samples must have shape (M, dim)")
        if self.proposal_log_densities.shape != (self.samples.shape[0],):
            raise ValueError("proposal log-densities must be one per sample")
        if self.base_log_densities is not None and self.base_log_densities.shape != (
            self.samples.shape[0],
        ):
            raise ValueError("base log-densities must be one per sample")

    @property
    def m(self) -> int:
        return self.samples.shape[0]


def logsumexp(a, axis=None, keepdims: bool = False):
    """log sum exp(a) over ``axis``, bit-identical to scipy's ``logsumexp``
    (version 1.17) on float64 input.

    It repeats scipy's formula: with M the maximum and c the count of
    entries equal to it, the sum s of exp(a - M) over the other entries gives
    log1p(s / c) + log(c) + M, with the same array shapes and reductions.
    Where that is not finite (an infinite or NaN entry, an all -inf slice)
    the input goes to scipy's own function, so the edge cases keep its bits.
    At the shapes the package uses, scipy's array-API dispatch and second
    exp pass made it 2-5x slower (0.12-0.3 ms per call on a 2-CPU host), the
    largest Python cost of a regression step.
    """
    a = np.asarray(a, dtype=np.float64)
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.maximum.reduce(a, axis=axes, keepdims=True)
        at_top = a == top
        count = np.add.reduce(at_top, axis=axes, keepdims=True, dtype=np.float64)
        shifted = np.subtract(a, top)
        np.exp(shifted, out=shifted)
        shifted[at_top] = 0.0
        s = np.add.reduce(shifted, axis=axes, keepdims=True)
        out = np.log1p(s / count) + np.log(count) + top
    if not np.isfinite(out).all():
        return scipy_logsumexp(a, axis=axis, keepdims=keepdims)
    if not keepdims:
        out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out


def check_finite_energies(energies: np.ndarray, where: str = "sample", offset: int = 0) -> None:
    """Raise EnergyEvaluationError at the first non-finite energy; its index
    is the flat index into ``energies`` plus ``offset``."""
    bad = ~np.isfinite(energies)
    if bad.any():
        idx = int(np.argmax(bad))
        raise EnergyEvaluationError(offset + idx, float(energies.flat[idx]), where)


def log_weights(model, batch: ImportanceBatch) -> np.ndarray:
    """log w_m = -E(x_m) + log d(x_m) - log q(x_m), base term only if the model has one."""
    energies = model.energy(batch.samples)
    check_finite_energies(energies)
    logw = -energies - batch.proposal_log_densities
    if model.base is not None:
        logw = logw + batch.base_log_densities
    return logw


def estimate_z(model, batch: ImportanceBatch) -> float:
    """log Z_hat, the log of the unbiased importance estimate of Z (the mean
    weight) for the model's reference measure, formed in log space."""
    if batch.m == 0:
        raise ValueError("empty importance batch")
    logw = log_weights(model, batch)
    if np.all(np.isneginf(logw)):
        raise DegenerateProposalError("all importance weights underflowed to zero")
    return float(logsumexp(logw) - np.log(batch.m))


def bound_pair(blocks, b, m: int):
    """(log Z_hat, l_is_se, l_snl_se) of k groups on one set of m draws.

    ``blocks`` yields (lo, hi, logw[lo:hi]), (hi - lo, m) log weights that
    the reducer overwrites, and ``b`` has shape (k,): one group for density
    evaluation, one per point for conditional evaluation. Each cell takes one
    exp, s = e^{log w - rowmax}, so log Z_hat_j = rowmax_j + log sum_m s_jm
    - log m. The errors treat the m shared draws as the only randomness
    (delta method): the spread over draws of the mean over groups of
    w_jm / Z_hat_j gives the error of l_is = data - log Z_hat, and that of
    w_jm e^{-b_j} the error of l_snl = data - b - e^{-b} Z_hat + 1, each
    std(ddof=1) / sqrt(m), and 0 for one draw. Once some log w - b passes
    SNL_SHIFT_CAP the l_snl error is nan. A group whose weights are all zero
    raises ``DegenerateProposalError``.
    """
    b = np.asarray(b, dtype=np.float64)
    log_z = np.empty(b.shape[0])
    sums = np.zeros((2, m))  # per-draw sums over groups of w_jm / Z_hat_j and of w_jm e^{-b_j}
    top_shift = -np.inf  # running max over cells of log w - b
    for lo, hi, logw in blocks:
        rowmax = logw.max(axis=1)
        if np.isneginf(rowmax).any():
            raise DegenerateProposalError(f"all importance weights of group {lo + int(np.argmin(rowmax))} are zero")
        logw -= rowmax[:, None]
        s = np.exp(logw, out=logw)
        total = s.sum(axis=1)
        log_z[lo:hi] = rowmax + np.log(total) - np.log(m)
        sums[0] += (m / total) @ s
        shift = rowmax - b[lo:hi]
        top_shift = max(top_shift, float(shift.max()))
        if top_shift < SNL_SHIFT_CAP:
            sums[1] += np.exp(shift) @ s
    l_is_se = l_snl_se = 0.0
    if m > 1:
        l_is_se, l_snl_se = (float(np.std(v, ddof=1) / np.sqrt(m)) for v in sums / b.shape[0])
    if top_shift >= SNL_SHIFT_CAP:
        l_snl_se = float("nan")
    return log_z, l_is_se, l_snl_se


def step_terms(data, logw, b, objective="snl", nu=None, log_q_data=None):
    """(value, d_data, d_samples, d_b) of one SNL or NCE ascent step.

    The step is written once for k groups, each with its own normalizer b_j:
    ``data`` (k, r) holds per-row data log-numerators (d/dE = -1), ``logw``
    (k, m) the sample log-weights -E + log d - log q and ``b`` has shape (k,).
    Density training is one group (k = 1, r = n, shared draws), regression
    one group per point (k = n, r = 1, per-point draws and b_phi(x_i)).

    SNL: value = mean_j [ mean_r data_jr - b_j - e^{-b_j} mean_m w_jm + 1 ].
    NCE: value = mean log sigma(G_data - log nu) + (nu / (k m)) sum log
    sigma(log nu - G_noise), minus the noise-contrastive loss, with logits
    G = data - b - log q(x) at the data (``log_q_data``, shaped like
    ``data``) and G = logw - b at the samples, and nu noise draws per data
    row (default m / r).

    The cotangents are d value / dE at the data and sample rows, and d_b is
    d value / db, so the caller's backward pass yields the ascent direction.
    """
    k, r = data.shape
    m = logw.shape[1]
    if objective == "snl":
        log_z = logsumexp(logw, axis=1) - np.log(m)
        value = float(np.mean(data.mean(axis=1) - b - np.exp(log_z - b) + 1.0))
        d_data = np.full((k, r), -1.0 / (k * r))
        d_samples = np.exp(logw - b[:, None]) / (k * m)
        d_b = (-1.0 + np.exp(log_z - b)) / k
        return value, d_data, d_samples, d_b
    if objective == "nce":
        if nu is None:
            nu = m / r
        if not nu > 0:
            raise ValueError(f"noise ratio nu must be positive, got {nu!r}")
        log_nu = np.log(nu)
        g_data = data - b[:, None] - log_q_data
        g_noise = logw - b[:, None]
        value = float(np.mean(log_expit(g_data - log_nu)))
        value += nu / (k * m) * float(np.sum(log_expit(log_nu - g_noise)))
        s = expit(log_nu - g_data)  # 1 - sigma(G - log nu) at data
        t = expit(g_noise - log_nu)  # sigma(G - log nu) at noise
        d_data = -s / (k * r)
        d_samples = nu / (k * m) * t
        d_b = -(s.sum(axis=1) / (k * r) - nu / (k * m) * t.sum(axis=1))
        return value, d_data, d_samples, d_b
    raise ValueError(f"unknown objective {objective!r}")


def divergence_diagnostics(sample_energies: np.ndarray, logw: np.ndarray) -> tuple[float, float]:
    """(max sample energy, min importance weight), as reported when a run diverges."""
    return float(np.max(sample_energies, initial=-np.inf)), float(np.exp(np.min(logw, initial=np.inf)))
