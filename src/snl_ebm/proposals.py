"""Proposal and base distributions, and proposal fitting.

Unconditional distributions expose log_density/sample and serialize to plain
descriptors; ``ExhaustiveCube.sample`` returns all of {0, 1}^d, not draws.
The mixture-density proposal is conditional: its parameter heads map a fixed
feature vector per data point to mixture weights, means, and scales, and
regression training refits it by one maximum-likelihood step
(``loglik_gradient``) per energy step.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import serialize
from .errors import DegenerateProposalError
from .nets import Mlp, NetGroup
from .objectives import ImportanceBatch, logsumexp, measure_term
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
        # imported here, so that ``import snl_ebm`` does not load scipy.linalg:
        # 44-59 ms of a ~0.6 s package import (2-CPU host) that runs without it
        from scipy.linalg import cholesky, solve_triangular

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


def cube_states(dim: int) -> np.ndarray:
    """The 2^dim points of {0, 1}^dim, one per row, in binary counting order."""
    return ((np.arange(2**dim)[:, None] >> np.arange(dim - 1, -1, -1)) & 1).astype(np.float64)


class UniformCube:
    """Uniform on the 2^dim points of {0, 1}^dim (probability 2^-dim each)."""

    kind = "uniform_cube"

    def __init__(self, dim: int):
        self.dim = int(dim)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        on_cube = np.all(np.isin(x, (0.0, 1.0)), axis=1)
        return np.where(on_cube, -self.dim * np.log(2.0), -np.inf)

    def sample(self, rng: PortableRng, n: int) -> np.ndarray:
        return rng.integers(n * self.dim, 2).astype(np.float64).reshape(n, self.dim)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}


class ExhaustiveCube(UniformCube):
    """Enumerates {0, 1}^dim instead of sampling: ``sample`` returns each state
    once and reads no stream, so the weight mean sum_x e^{-E(x)} is Z exactly."""

    kind = "exhaustive_cube"

    def sample(self, rng: PortableRng, n: int) -> np.ndarray:
        return cube_states(self.dim)


def sample_and_score(proposal, rng: PortableRng, m: int, base=None) -> ImportanceBatch:
    """Draw M points (an enumerating proposal: its support) and score them
    once: each draw's ``measure_term`` against ``base`` (None: no base)."""
    samples = proposal.sample(rng, m)
    return ImportanceBatch(samples, measure_term(base, samples, proposal.log_density(samples)))


# -- mixture density proposal ------------------------------------------------


class MdnHeads(NamedTuple):
    """Mixture parameters at one batch of features, shape (n, K) each, with
    the heads' backward caches and the scale head's raw output."""

    log_pi: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray
    caches: tuple
    s_raw: np.ndarray


class MdnProposal(NetGroup):
    """Conditional Gaussian mixture with one two-layer head per parameter.

    Heads map a feature vector to K logits (softmax weights), K means, and K
    log-scales; scales go through sigma = 1e-3 + exp(s) so they stay above
    the floor. K = 1 collapses to a plain conditional Gaussian.
    """

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

    def heads(self, features: np.ndarray) -> MdnHeads:
        """Run the three heads once; sampling, scoring and the likelihood
        gradient at these features all take the result."""
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

    def log_density(self, heads: MdnHeads, y: np.ndarray) -> np.ndarray:
        """Per-point conditional log q(y | features) at the features of ``heads``; y is (n,) or (n, m)."""
        y = np.asarray(y, dtype=np.float64)
        out = logsumexp(self._joint(heads, y.reshape(y.shape[0], -1)), axis=2)
        return out[:, 0] if y.ndim == 1 else out

    def sample(self, rng: PortableRng, heads: MdnHeads, m: int) -> np.ndarray:
        """m draws per feature row of ``heads``, shape (n, m)."""
        n = heads.mu.shape[0]
        u = rng.uniform((n, m))
        cum = np.cumsum(np.exp(heads.log_pi), axis=1)
        cum[:, -1] = 1.0  # guard rounding so every u lands in a component
        k = np.sum(u[:, :, None] > cum[:, None, :], axis=2)
        rows = np.arange(n)[:, None]
        z = rng.normal((n, m))
        return heads.mu[rows, k] + heads.sigma[rows, k] * z

    def loglik_gradient(self, heads: MdnHeads, y: np.ndarray):
        """(mean log-likelihood, flat ascent gradient) at the features of
        ``heads``, which it treats as constant."""
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


def from_descriptor(desc: dict, dim: int | None = None):
    """Rebuild an unconditional distribution from its serialized descriptor;
    with ``dim`` given, one of another dimension is a ValueError."""
    kind = desc.get("kind")
    if kind == "standard_gaussian":
        out = StandardGaussian(int(desc["dim"]))
    elif kind == "fitted_gaussian":
        out = FittedGaussian(serialize.parse(desc, "mean"), serialize.parse(desc, "cov", (None, None)))
    elif kind == "uniform_box":
        out = UniformBox(serialize.parse(desc, "lo"), serialize.parse(desc, "hi"))
    elif kind in ("uniform_cube", "two_point_uniform"):  # two_point_*: the d = 1 cube's earlier kinds
        out = UniformCube(int(desc.get("dim", 1)))
    elif kind in ("exhaustive_cube", "two_point_exhaustive"):
        out = ExhaustiveCube(int(desc.get("dim", 1)))
    else:
        raise ValueError(f"unknown distribution kind {kind!r}")
    if dim is not None and out.dim != dim:
        raise ValueError(f"has dimension {out.dim}; the model needs {dim}")
    return out
