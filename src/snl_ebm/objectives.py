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

All log-weight arithmetic happens in log space; the mean weight is only
exponentiated after subtracting the running maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import expit, log_expit
from scipy.special import logsumexp as scipy_logsumexp

from .errors import (
    DegenerateProposalError,
    EnergyEvaluationError,
    NonFiniteObjectiveError,
)


@dataclass(frozen=True)
class ImportanceBatch:
    """Proposal samples with their log-densities, scored once and reused.

    ``base_log_densities`` carries log d(x_m) for tilted models and may be
    None, in which case consumers evaluate the model's own base if it has one.
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


@dataclass(frozen=True)
class ZEstimate:
    """Importance-sampling estimate of Z.

    ``mean_weight`` is exp(log_mean_weight) and may overflow for badly scaled
    problems; stable consumers work with ``log_mean_weight`` directly.
    ``standard_error`` is the sample standard error of the weight mean.
    """

    mean_weight: float
    log_mean_weight: float
    standard_error: float
    log_weights: np.ndarray
    count: int


@dataclass(frozen=True)
class SnlValue:
    value: float
    data_term: float
    normalizer_term: float


@dataclass(frozen=True)
class GradientEstimate:
    grad_theta: np.ndarray
    grad_b: float


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


def variational_log_bound(z: float, lam: float) -> float:
    """z e^{-lambda} + lambda - 1, an upper bound on log z, tight at lambda = log z."""
    if not z > 0:
        raise ValueError(f"z must be positive, got {z!r}")
    return z * np.exp(-lam) + lam - 1.0


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
    if getattr(model, "base", None) is not None:
        if batch.base_log_densities is not None:
            logw = logw + batch.base_log_densities
        else:
            logw = logw + model.base.log_density(batch.samples)
    return logw


def estimate_z(model, batch: ImportanceBatch) -> ZEstimate:
    """Unbiased importance estimate of Z for the model's reference measure."""
    if batch.m == 0:
        raise ValueError("empty importance batch")
    logw = log_weights(model, batch)
    if np.all(np.isneginf(logw)):
        raise DegenerateProposalError("all importance weights underflowed to zero")
    m = batch.m
    log_mean = float(logsumexp(logw) - np.log(m))
    top = float(np.max(logw))
    scaled = np.exp(logw - top)
    scaled_mean = float(scaled.mean())
    if m > 1:
        sd = float(np.sqrt(np.sum((scaled - scaled_mean) ** 2) / (m - 1)))
    else:
        sd = 0.0
    return ZEstimate(
        mean_weight=float(np.exp(log_mean)),
        log_mean_weight=log_mean,
        standard_error=float(np.exp(top) * sd / np.sqrt(m)),
        log_weights=logw,
        count=m,
    )


def snl_objective(model, b: float, data: np.ndarray, log_z: float) -> SnlValue:
    """ell_SNL at (theta, b) given log Z (exact or a log mean weight).

    The normalizer term -b - e^{log_z - b} + 1 is evaluated in this shifted
    form so a well-matched b keeps the exponential moderate.
    """
    data_term = float(np.mean(model.unnorm_log_density(data)))
    if not np.isfinite(data_term):
        raise NonFiniteObjectiveError("data", data_term)
    with np.errstate(over="ignore"):  # overflow -> inf -> explicit error below
        normalizer_term = float(-b - np.exp(log_z - b) + 1.0)
    if not np.isfinite(normalizer_term):
        raise NonFiniteObjectiveError("normalizer", normalizer_term)
    return SnlValue(value=data_term + normalizer_term, data_term=data_term, normalizer_term=normalizer_term)


def snl_gradients(model, b: float, data: np.ndarray, batch: ImportanceBatch) -> GradientEstimate:
    """Unbiased gradient of ell_SNL with respect to (theta, b).

    grad_theta = -mean_i grad E(x_i) + e^{-b} mean_m w_m grad E(x_m)
    grad_b     = -1 + e^{-b} mean_m w_m

    The sample-side cotangents e^{-b} w_m / M are formed as exp(log w_m - b),
    which stays bounded whenever b tracks the running log Z.
    """
    logw = log_weights(model, batch)
    n = data.shape[0]
    data_grad = model.energy_vjp(data, np.full(n, -1.0 / n))
    sample_cot = np.exp(logw - b) / batch.m
    sample_grad = model.energy_vjp(batch.samples, sample_cot)
    grad_b = -1.0 + float(np.exp(logsumexp(logw) - np.log(batch.m) - b))
    return GradientEstimate(grad_theta=data_grad + sample_grad, grad_b=grad_b)


def exact_snl_gradients(model, b: float, data: np.ndarray) -> GradientEstimate:
    """Closed-form gradient of ell_SNL for models with an exact normalizer."""
    n = data.shape[0]
    data_grad = model.energy_vjp(data, np.full(n, -1.0 / n))
    log_z = model.exact_log_z()
    grad_theta = data_grad - np.exp(log_z - b) * model.exact_log_z_grad()
    grad_b = -1.0 + float(np.exp(log_z - b))
    return GradientEstimate(grad_theta=grad_theta, grad_b=grad_b)


def gradient_relation_check(model, b: float, data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two routes to grad_theta ell_SNL for closed-form models.

    Left: the direct formula. Right: grad ell + grad log Z (1 - e^{log Z - b}),
    which exposes how the SNL gradient degenerates to the likelihood gradient
    as b approaches log Z. The two must agree identically.
    """
    lhs = exact_snl_gradients(model, b, data).grad_theta
    n = data.shape[0]
    grad_ll = model.energy_vjp(data, np.full(n, -1.0 / n)) - model.exact_log_z_grad()
    log_z = model.exact_log_z()
    rhs = grad_ll + model.exact_log_z_grad() * (1.0 - np.exp(log_z - b))
    return lhs, rhs


def l_is_objective(model, data: np.ndarray, z_estimate: ZEstimate) -> float:
    """ell_IS = mean_i u(x_i) - log mean_m w_m, a stochastic upper bound on ell."""
    if np.isneginf(z_estimate.log_mean_weight):
        raise DegenerateProposalError("log of zero mean weight")
    data_term = float(np.mean(model.unnorm_log_density(data)))
    return data_term - z_estimate.log_mean_weight


def maximize_over_b(data_term: float, log_z: float) -> tuple[float, float]:
    """Numerically maximize D - b - e^{log_z - b} + 1 over b.

    Returns (argmax b, max value). Used to confirm that the 1-D maximum
    recovers the exact likelihood at b = log Z.
    """

    def neg(bv: float) -> float:
        return -(data_term - bv - np.exp(log_z - bv) + 1.0)

    res = minimize_scalar(neg, bracket=(log_z - 2.0, log_z + 1.0), method="brent", options={"xtol": 1e-12})
    return float(res.x), float(-res.fun)


def nce_scores(model, b: float, x: np.ndarray, proposal) -> np.ndarray:
    """Classifier logit G(x) = [-E(x) + log d(x) - b] - log q(x)."""
    g = model.weight_log_numerator(x) - b - proposal.log_density(x)
    return g


def nce_objective(model, b: float, data: np.ndarray, proposal, batch: ImportanceBatch, nu: float | None = None) -> float:
    """Noise-contrastive loss (to be minimized) with noise ratio nu.

    J = -mean_i log sigma(G(x_i) - log nu) - (nu/M) sum_m log sigma(-G(x_m) + log nu),
    nu defaulting to M / n.
    """
    n = data.shape[0]
    if nu is None:
        nu = batch.m / n
    if not nu > 0:
        raise ValueError(f"noise ratio nu must be positive, got {nu!r}")
    log_nu = np.log(nu)
    g_data = nce_scores(model, b, data, proposal)
    g_noise = nce_scores(model, b, batch.samples, proposal)
    loss = -float(np.mean(log_expit(g_data - log_nu)))
    loss -= nu / batch.m * float(np.sum(log_expit(log_nu - g_noise)))
    return loss


def nce_gradients(model, b: float, data: np.ndarray, proposal, batch: ImportanceBatch, nu: float | None = None) -> GradientEstimate:
    """Gradient of the NCE loss with respect to (theta, b)."""
    n = data.shape[0]
    if nu is None:
        nu = batch.m / n
    if not nu > 0:
        raise ValueError(f"noise ratio nu must be positive, got {nu!r}")
    log_nu = np.log(nu)
    g_data = nce_scores(model, b, data, proposal)
    g_noise = nce_scores(model, b, batch.samples, proposal)
    s = expit(log_nu - g_data)  # 1 - sigma(G - log nu) at data
    t = expit(g_noise - log_nu)  # sigma(G - log nu) at noise
    # dJ/dG = -s/n at data, +(nu/M) t at noise; dG/dtheta = -grad E, dG/db = -1.
    grad_theta = model.energy_vjp(data, s / n) + model.energy_vjp(batch.samples, -(nu / batch.m) * t)
    grad_b = float(np.sum(s) / n - (nu / batch.m) * np.sum(t))
    return GradientEstimate(grad_theta=grad_theta, grad_b=grad_b)


def step_terms(data, logw, b, objective="snl", nu=None, log_q_data=None):
    """(value, d_data, d_samples, d_b) of one SNL or NCE ascent step.

    The step is written once for k groups, each with its own normalizer b_j:
    ``data`` (k, r) holds per-row data log-numerators (d/dE = -1), ``logw``
    (k, m) the sample log-weights -E + log d - log q and ``b`` has shape (k,).
    Density training is one group (k = 1, r = n, shared draws), regression
    one group per point (k = n, r = 1, per-point draws and b_phi(x_i)).

    SNL: value = mean_j [ mean_r data_jr - b_j - e^{-b_j} mean_m w_jm + 1 ].
    NCE: value = minus the noise-contrastive loss of ``nce_objective``, with
    logits G = data - b - log q(x) at the data (``log_q_data``, shaped like
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


# -- generalized KL on quadrature grids -------------------------------------


@dataclass(frozen=True)
class Quadrature:
    """Nodes and weights; integral f ~= sum_j weights_j f(points_j)."""

    points: np.ndarray
    weights: np.ndarray


def trapezoid_1d(lo: float, hi: float, n: int) -> Quadrature:
    xs = np.linspace(lo, hi, n)
    h = (hi - lo) / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return Quadrature(points=xs.reshape(-1, 1), weights=w)


def trapezoid_2d(lo: float, hi: float, n: int) -> Quadrature:
    base = trapezoid_1d(lo, hi, n)
    x1, x2 = np.meshgrid(base.points[:, 0], base.points[:, 0], indexing="ij")
    pts = np.column_stack([x1.ravel(), x2.ravel()])
    w = np.outer(base.weights, base.weights).ravel()
    return Quadrature(points=pts, weights=w)


def discrete_points(points: np.ndarray) -> Quadrature:
    """Counting-measure quadrature over an enumerated support."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    return Quadrature(points=pts, weights=np.ones(pts.shape[0]))


def generalized_kl(f1, f2, quadrature: Quadrature) -> float:
    """KL between unnormalised densities:

        KL(f1 || f2) = integral log(f1/f2) f1 + (integral f2 - integral f1).

    Reduces to ordinary KL for normalized inputs; returns +inf when f2
    vanishes somewhere f1 does not. f1, f2 map (m, d) points to (m,) values.
    """
    v1 = np.asarray(f1(quadrature.points), dtype=np.float64)
    v2 = np.asarray(f2(quadrature.points), dtype=np.float64)
    if (v1 < 0).any() or (v2 < 0).any():
        raise ValueError("densities must be nonnegative")
    if not (np.isfinite(v1).all() and np.isfinite(v2).all()):
        raise ValueError("densities must be finite on the quadrature grid")
    w = quadrature.weights
    mass1 = float(np.sum(w * v1))
    mass2 = float(np.sum(w * v2))
    support = v1 > 0
    if np.any(v2[support] == 0):
        return float("inf")
    log_ratio = np.zeros_like(v1)
    log_ratio[support] = np.log(v1[support]) - np.log(v2[support])
    return float(np.sum(w[support] * v1[support] * log_ratio[support]) + mass2 - mass1)
