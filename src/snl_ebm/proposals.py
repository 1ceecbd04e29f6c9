"""Proposal and base distributions, and proposal fitting.

Unconditional distributions expose log_density/sample and serialize to plain
descriptors. The mixture-density proposal is conditional: its parameter heads
map a fixed feature vector per data point to mixture weights, means, and
scales, and it is fitted by maximum likelihood on observed pairs.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import cholesky, solve_triangular

from . import serialize
from .errors import DegenerateProposalError
from .nets import Mlp, bind
from .objectives import ImportanceBatch, logsumexp
from .optim import AdamState, adam_step
from .rng import PortableRng

_LOG_2PI = np.log(2.0 * np.pi)


class StandardGaussian:
    kind = "standard_gaussian"

    def __init__(self, dim: int):
        self.dim = int(dim)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return -0.5 * self.dim * _LOG_2PI - 0.5 * np.sum(x * x, axis=1)

    def sample(self, rng: PortableRng, n: int) -> np.ndarray:
        return rng.normal((n, self.dim))

    def descriptor(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}


class FittedGaussian:
    kind = "fitted_gaussian"

    def __init__(self, mean: np.ndarray, cov: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float64).ravel()
        self.cov = np.asarray(cov, dtype=np.float64)
        self.dim = self.mean.shape[0]
        if self.cov.shape != (self.dim, self.dim):
            raise ValueError("covariance shape does not match mean")
        self._chol = cholesky(self.cov, lower=True)
        # scipy's LAPACK is a second OpenBLAS with its own thread pool; a
        # per-call triangular solve left it spinning against numpy's BLAS
        # threads (a 2-CPU regression run ran ~3x slower), so it is used once here
        self._chol_inv = solve_triangular(self._chol, np.eye(self.dim), lower=True)
        self._log_det = 2.0 * float(np.sum(np.log(np.diag(self._chol))))

    def log_density(self, x: np.ndarray) -> np.ndarray:
        diff = np.asarray(x, dtype=np.float64) - self.mean
        y = self._chol_inv @ diff.T
        quad = np.sum(y * y, axis=0)
        return -0.5 * (self.dim * _LOG_2PI + self._log_det + quad)

    def sample(self, rng: PortableRng, n: int) -> np.ndarray:
        z = rng.normal((n, self.dim))
        return self.mean + z @ self._chol.T

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "mean": serialize.fmt_vector(self.mean),
            "cov": serialize.fmt_matrix(self.cov),
        }


def fit_gaussian(data: np.ndarray) -> FittedGaussian:
    """Moment-matched Gaussian with a relative ridge on the covariance.

    Uses the unbiased sample covariance (denominator n-1); the jitter
    epsilon = 1e-6 * trace(cov)/dim keeps the fit positive definite for
    mildly degenerate (e.g. collinear) data. Fully degenerate data, where
    even the ridge vanishes, is rejected.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("need points of shape (n, dim)")
    n, dim = data.shape
    if n < dim + 1:
        raise ValueError(f"need at least dim + 1 = {dim + 1} points, have {n}")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / (n - 1)
    eps = 1e-6 * float(np.trace(cov)) / dim
    cov = cov + eps * np.eye(dim)
    try:
        return FittedGaussian(mean, cov)
    except np.linalg.LinAlgError as exc:
        raise DegenerateProposalError(f"covariance is singular even after the ridge: {exc}")


class UniformBox:
    kind = "uniform_box"

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = np.asarray(lo, dtype=np.float64).ravel()
        self.hi = np.asarray(hi, dtype=np.float64).ravel()
        if self.lo.shape != self.hi.shape or np.any(self.hi <= self.lo):
            raise ValueError("box must have hi > lo per coordinate")
        self.dim = self.lo.shape[0]
        self._log_density_inside = -float(np.sum(np.log(self.hi - self.lo)))

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        inside = np.all((x >= self.lo) & (x <= self.hi), axis=1)
        out = np.full(x.shape[0], -np.inf)
        out[inside] = self._log_density_inside
        return out

    def sample(self, rng: PortableRng, n: int) -> np.ndarray:
        u = rng.uniform((n, self.dim))
        return self.lo + u * (self.hi - self.lo)

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "lo": serialize.fmt_vector(self.lo),
            "hi": serialize.fmt_vector(self.hi),
        }


class TwoPointUniform:
    """Uniform on the two-point support {0, 1} (probability 1/2 each)."""

    kind = "two_point_uniform"
    dim = 1

    def log_density(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).ravel()
        out = np.full(x.shape[0], -np.inf)
        out[(x == 0.0) | (x == 1.0)] = -np.log(2.0)
        return out

    def sample(self, rng: PortableRng, n: int) -> np.ndarray:
        return rng.integers(n, 2).astype(np.float64).reshape(-1, 1)

    def descriptor(self) -> dict:
        return {"kind": self.kind}


class TwoPointExhaustive(TwoPointUniform):
    """Enumerates {0, 1} instead of sampling.

    With q = 1/2 on both points the weight mean (1/2) sum_x 2 e^{-E(x)} equals
    Z exactly, so the normalizer estimate is deterministic.
    """

    kind = "two_point_exhaustive"

    def enumeration(self) -> np.ndarray:
        return np.array([[0.0], [1.0]])

    def descriptor(self) -> dict:
        return {"kind": self.kind}


def sample_and_score(proposal, rng: PortableRng, m: int, base=None) -> ImportanceBatch:
    """Draw M points from the proposal and score q (and d, when given) once.

    An exhaustive proposal contributes its full support instead of M draws.
    """
    if isinstance(proposal, TwoPointExhaustive):
        samples = proposal.enumeration()
    else:
        samples = proposal.sample(rng, m)
    log_q = proposal.log_density(samples)
    base_ld = base.log_density(samples) if base is not None else None
    return ImportanceBatch(samples=samples, proposal_log_densities=log_q, base_log_densities=base_ld)


# -- mixture density proposal ------------------------------------------------


class MdnHeads(NamedTuple):
    """Mixture parameters at one batch of features, shape (n, K) each, with
    the heads' backward caches and the scale head's raw output."""

    log_pi: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    caches: tuple
    s_raw: np.ndarray


class MdnProposal:
    """Conditional Gaussian mixture with one two-layer head per parameter.

    Heads map a feature vector to K logits (softmax weights), K means, and K
    log-scales; scales go through sigma = 1e-3 + exp(s) so they stay above
    the floor. K = 1 collapses to a plain conditional Gaussian.
    """

    kind = "mdn"
    SCALE_FLOOR = 1e-3
    _SCALE_LOG_CAP = 30.0  # keeps exp(s) finite if training spikes

    def __init__(self, input_dim: int, components: int, rng: PortableRng | None = None):
        self.input_dim = int(input_dim)
        self.components = int(components)
        widths = [self.input_dim, 10, self.components]
        self.pi_net = Mlp(widths, rng.split("pi") if rng else None)
        self.mu_net = Mlp(widths, rng.split("mu") if rng else None)
        self.scale_net = Mlp(widths, rng.split("scale") if rng else None)
        self.nets = (self.pi_net, self.mu_net, self.scale_net)

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([net.params for net in self.nets])

    @theta.setter
    def theta(self, flat: np.ndarray) -> None:
        sizes = [net.n_params for net in self.nets]
        if flat.shape != (sum(sizes),):
            raise ValueError("parameter vector has the wrong length")
        a, b = sizes[0], sizes[0] + sizes[1]
        self.pi_net.theta = flat[:a]
        self.mu_net.theta = flat[a:b]
        self.scale_net.theta = flat[b:]

    def heads(self, features: np.ndarray) -> MdnHeads:
        """Run the three heads once; sampling, scoring and the likelihood
        gradient at the same features can all take the result."""
        features = np.asarray(features, dtype=np.float64)
        logits, cache_pi = self.pi_net.forward(features)
        mu, cache_mu = self.mu_net.forward(features)
        s_raw, cache_s = self.scale_net.forward(features)
        log_pi = logits - logsumexp(logits, axis=1, keepdims=True)
        s = np.minimum(s_raw, self._SCALE_LOG_CAP)
        sigma = self.SCALE_FLOOR + np.exp(s)
        return MdnHeads(log_pi, mu, sigma, (cache_pi, cache_mu, cache_s), s_raw)

    @staticmethod
    def _joint(heads: MdnHeads, y: np.ndarray) -> np.ndarray:
        """log pi_k + log N(y | mu_k, sigma_k) for y of shape (n, m); shape (n, m, K)."""
        sigma = heads.sigma[:, None, :]
        comp = -0.5 * _LOG_2PI - np.log(sigma) - 0.5 * ((y[:, :, None] - heads.mu[:, None, :]) / sigma) ** 2
        return heads.log_pi[:, None, :] + comp

    def log_density(self, features: np.ndarray, y: np.ndarray, heads: MdnHeads | None = None) -> np.ndarray:
        """Per-point conditional log q(y | features); y is (n,) or (n, m)."""
        if heads is None:
            heads = self.heads(features)
        y = np.asarray(y, dtype=np.float64)
        out = logsumexp(self._joint(heads, y.reshape(y.shape[0], -1)), axis=2)
        return out[:, 0] if y.ndim == 1 else out

    def sample(self, rng: PortableRng, features: np.ndarray, m: int, heads: MdnHeads | None = None) -> np.ndarray:
        """m draws per feature row, shape (n, m)."""
        if heads is None:
            heads = self.heads(features)
        n = heads.mu.shape[0]
        u = rng.uniform((n, m))
        cum = np.cumsum(np.exp(heads.log_pi), axis=1)
        cum[:, -1] = 1.0  # guard rounding so every u lands in a component
        k = np.sum(u[:, :, None] > cum[:, None, :], axis=2)
        rows = np.arange(n)[:, None]
        z = rng.normal((n, m))
        return heads.mu[rows, k] + heads.sigma[rows, k] * z

    def log_likelihood(self, features: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.log_density(features, np.asarray(y).ravel())))

    def loglik_gradient(self, features: np.ndarray, y: np.ndarray, heads: MdnHeads | None = None):
        """(mean log-likelihood, flat ascent gradient) treating features as constant."""
        if heads is None:
            heads = self.heads(features)
        y = np.asarray(y, dtype=np.float64).ravel()
        log_pi, mu, sigma, (cache_pi, cache_mu, cache_s), s_raw = heads
        n = mu.shape[0]
        joint = self._joint(heads, y[:, None])[:, 0, :]
        total = logsumexp(joint, axis=1)
        resp = np.exp(joint - total[:, None])
        pi = np.exp(log_pi)
        d_logits = (resp - pi) / n
        d_mu = resp * (y[:, None] - mu) / sigma**2 / n
        d_sigma = resp * (((y[:, None] - mu) ** 2) / sigma**3 - 1.0 / sigma) / n
        d_s = d_sigma * np.exp(np.minimum(s_raw, self._SCALE_LOG_CAP)) * (s_raw <= self._SCALE_LOG_CAP)
        grad = np.concatenate(
            [
                self.pi_net.backward(cache_pi, d_logits),
                self.mu_net.backward(cache_mu, d_mu),
                self.scale_net.backward(cache_s, d_s),
            ]
        )
        return float(np.mean(total)), grad

    def descriptor(self) -> dict:
        return {
            "kind": self.kind,
            "input_dim": self.input_dim,
            "components": self.components,
            "pi": serialize.fmt_vector(self.pi_net.theta),
            "mu": serialize.fmt_vector(self.mu_net.theta),
            "scale": serialize.fmt_vector(self.scale_net.theta),
        }


def mdn_log_likelihood_and_fit(
    mdn: MdnProposal,
    features: np.ndarray,
    targets: np.ndarray,
    epochs: int = 200,
    learning_rate: float = 1e-2,
    batch_size: int | None = None,
    rng: PortableRng | None = None,
) -> list[float]:
    """Fit the MDN by maximum likelihood; returns per-epoch mean log-likelihood.

    Full-batch Adam unless a batch size is given (then minibatches are drawn
    by seeded permutation each epoch). A non-finite loss or gradient stops
    the fit, keeping the last finite parameters.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).ravel()
    n = features.shape[0]
    params = bind(mdn.nets)
    state = AdamState.fresh(params.size)
    history = []
    before_last_step = params.copy()
    shuffler = rng.split("mdn-shuffle") if rng is not None else None
    for _ in range(epochs):
        if batch_size is None or batch_size >= n:
            batches = [np.arange(n)]
        else:
            order = shuffler.permutation(n) if shuffler is not None else np.arange(n)
            batches = [order[i : i + batch_size] for i in range(0, n - batch_size + 1, batch_size)]
        epoch_ll = []
        for idx in batches:
            value, grad = mdn.loglik_gradient(features[idx], targets[idx])
            if not (np.isfinite(value) and np.all(np.isfinite(grad))):
                params[...] = before_last_step  # drop the step that went non-finite
                if epoch_ll:
                    history.append(float(np.mean(epoch_ll)))
                return history
            before_last_step[...] = params
            adam_step(params, grad, state, learning_rate)
            epoch_ll.append(value)
        history.append(float(np.mean(epoch_ll)))
    return history


def from_descriptor(desc: dict):
    """Rebuild a distribution from its serialized descriptor."""
    kind = desc.get("kind")
    if kind == "standard_gaussian":
        return StandardGaussian(int(desc["dim"]))
    if kind == "fitted_gaussian":
        return FittedGaussian(serialize.parse_vector(desc["mean"]), serialize.parse_matrix(desc["cov"]))
    if kind == "uniform_box":
        return UniformBox(serialize.parse_vector(desc["lo"]), serialize.parse_vector(desc["hi"]))
    if kind == "two_point_uniform":
        return TwoPointUniform()
    if kind == "two_point_exhaustive":
        return TwoPointExhaustive()
    if kind == "mdn":
        mdn = MdnProposal(int(desc["input_dim"]), int(desc["components"]))
        mdn.pi_net.theta = serialize.parse_vector(desc["pi"])
        mdn.mu_net.theta = serialize.parse_vector(desc["mu"])
        mdn.scale_net.theta = serialize.parse_vector(desc["scale"])
        return mdn
    raise ValueError(f"unknown distribution kind {kind!r}")
