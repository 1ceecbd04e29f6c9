"""Reference math the tests check the package against.

These are the textbook forms of the SNL value and of the SNL and NCE
gradients, the closed-form gradients of models with an exact normalizer, a
1-D maximization over b, quadrature with the generalized KL divergence,
single-point energy gradients and weight numerators, the importance-weight
mean with its standard error, dense layers as x @ W + b, the MDN proposal's
mixture reduced over a trailing component axis and its maximum-likelihood
fit, a trainable closed-form conditional oracle, and the binary-cube oracle: a
fully visible Boltzmann machine with its uniform and enumerating proposals.
The package trains and validates through ``objectives.step_terms`` and
evaluates through ``objectives.bound_pair``; nothing in it imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import expit, log_expit

from snl_ebm.errors import NonFiniteObjectiveError
from snl_ebm.models import LinearOracle
from snl_ebm.nets import bind
from snl_ebm.objectives import ImportanceBatch, estimate_z, log_weights, logsumexp
from snl_ebm.optim import AdamState, adam_step
from snl_ebm.regression import BilinearConditionalModel
from snl_ebm.rng import PortableRng


@dataclass(frozen=True)
class SnlValue:
    value: float
    data_term: float
    normalizer_term: float


@dataclass(frozen=True)
class GradientEstimate:
    grad_theta: np.ndarray
    grad_b: float


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


def energy_vjp(model, x: np.ndarray, cotangent: np.ndarray) -> np.ndarray:
    """sum_i cotangent_i * dE(x_i)/dtheta, through the model's prepared vjp."""
    return model.energy_vjp_prepared(x)[1](cotangent)


def param_gradient(model, x: np.ndarray) -> np.ndarray:
    """Gradient of E at a single point, through the model's vjp."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return energy_vjp(model, x, np.ones(1))


def weight_log_numerator(model, x: np.ndarray) -> np.ndarray:
    """-E(x) + log d(x), or -E(x) without a base: what an importance weight
    compares against the proposal density, whether the base is a carrier or
    a tilt."""
    u = -model.energy(x)
    if model.base is not None:
        u = u + model.base.log_density(x)
    return u


@dataclass(frozen=True)
class ZEstimate:
    """Importance-sampling estimate of Z.

    ``mean_weight`` is exp(log_mean_weight) and may overflow for badly scaled
    problems. ``standard_error`` is the sample standard error of the weight
    mean.
    """

    mean_weight: float
    log_mean_weight: float
    standard_error: float
    count: int


def z_estimate(model, batch: ImportanceBatch) -> ZEstimate:
    """``objectives.estimate_z`` with the weight mean, its standard error and
    the draw count; the spread is taken on weights scaled by the largest one."""
    log_mean = estimate_z(model, batch)
    logw = log_weights(model, batch)
    m = batch.m
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
        count=m,
    )


def variational_log_bound(z: float, lam: float) -> float:
    """z e^{-lambda} + lambda - 1, an upper bound on log z, tight at lambda = log z."""
    if not z > 0:
        raise ValueError(f"z must be positive, got {z!r}")
    return z * np.exp(-lam) + lam - 1.0


def snl_gradients(model, b: float, data: np.ndarray, batch: ImportanceBatch) -> GradientEstimate:
    """Unbiased gradient of ell_SNL with respect to (theta, b).

    grad_theta = -mean_i grad E(x_i) + e^{-b} mean_m w_m grad E(x_m)
    grad_b     = -1 + e^{-b} mean_m w_m

    The sample-side cotangents e^{-b} w_m / M are formed as exp(log w_m - b),
    which stays bounded whenever b tracks the running log Z.
    """
    logw = log_weights(model, batch)
    n = data.shape[0]
    data_grad = energy_vjp(model, data, np.full(n, -1.0 / n))
    sample_cot = np.exp(logw - b) / batch.m
    sample_grad = energy_vjp(model, batch.samples, sample_cot)
    grad_b = -1.0 + float(np.exp(logsumexp(logw) - np.log(batch.m) - b))
    return GradientEstimate(grad_theta=data_grad + sample_grad, grad_b=grad_b)


def exact_snl_gradients(model, b: float, data: np.ndarray) -> GradientEstimate:
    """Closed-form gradient of ell_SNL for models with an exact normalizer."""
    n = data.shape[0]
    data_grad = energy_vjp(model, data, np.full(n, -1.0 / n))
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
    grad_ll = energy_vjp(model, data, np.full(n, -1.0 / n)) - model.exact_log_z_grad()
    log_z = model.exact_log_z()
    rhs = grad_ll + model.exact_log_z_grad() * (1.0 - np.exp(log_z - b))
    return lhs, rhs


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
    g = weight_log_numerator(model, x) - b - proposal.log_density(x)
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
    grad_theta = energy_vjp(model, data, s / n) + energy_vjp(model, batch.samples, -(nu / batch.m) * t)
    grad_b = float(np.sum(s) / n - (nu / batch.m) * np.sum(t))
    return GradientEstimate(grad_theta=grad_theta, grad_b=grad_b)


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


# -- dense layers -------------------------------------------------------------


def dense_passes(net, x: np.ndarray, cotangent: np.ndarray):
    """(output, flat parameter gradient, input gradient) of an ``Mlp`` by
    plain numpy in the dtype of x: each layer is x @ W + b, and the bias
    gradient is g.sum over the rows, laid out as ``Mlp.params`` is."""
    dtype = x.dtype
    last = len(net.weights) - 1
    acts, h = [x], x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.astype(dtype) + b.astype(dtype)
        if i < last or net.relu_output:
            h = np.maximum(h, 0.0)
        acts.append(h)
    g, parts = cotangent.astype(dtype), []
    for i in range(last, -1, -1):
        if i < last or net.relu_output:
            g = g * (acts[i + 1] > 0.0)
        parts[:0] = [(acts[i].T @ g).ravel(), g.sum(axis=0)]
        g = g @ net.weights[i].T.astype(dtype)
    return h, np.concatenate(parts), g


# -- mixture density proposal ------------------------------------------------


def _mdn_joint(heads, y: np.ndarray) -> np.ndarray:
    sigma = heads.sigma[:, None, :]
    comp = -0.5 * np.log(2.0 * np.pi) - np.log(sigma) - 0.5 * ((y[:, :, None] - heads.mu[:, None, :]) / sigma) ** 2
    return heads.log_pi[:, None, :] + comp


def mdn_log_density(heads, y: np.ndarray) -> np.ndarray:
    """``MdnProposal.log_density`` with the mixture on a trailing component
    axis: the joint (n, m, K) reduced over its last axis."""
    y = np.asarray(y, dtype=np.float64)
    return logsumexp(_mdn_joint(heads, y.reshape(y.shape[0], -1)), axis=2).reshape(y.shape)


def mdn_sample(rng: PortableRng, heads, m: int) -> np.ndarray:
    """``MdnProposal.sample``, the component of a draw counted over an
    (n, m, K) comparison of u with every cumulative weight."""
    n = heads.mu.shape[0]
    u = rng.uniform((n, m))
    cum = np.cumsum(np.exp(heads.log_pi), axis=1)
    cum[:, -1] = 1.0
    k = np.sum(u[:, :, None] > cum[:, None, :], axis=2)
    rows = np.arange(n)[:, None]
    z = rng.normal((n, m))
    return heads.mu[rows, k] + heads.sigma[rows, k] * z


def mdn_loglik_gradient(mdn, heads, y: np.ndarray):
    """``MdnProposal.loglik_gradient`` with the responsibilities reduced over
    a trailing component axis."""
    y = np.asarray(y, dtype=np.float64).ravel()
    log_pi, mu, sigma, (cache_pi, cache_mu, cache_s), s_raw = heads
    n = mu.shape[0]
    joint = _mdn_joint(heads, y[:, None])[:, 0, :]
    total = logsumexp(joint, axis=1)
    resp = np.exp(joint - total[:, None])
    d_logits = (resp - np.exp(log_pi)) / n
    d_mu = resp * (y[:, None] - mu) / sigma**2 / n
    d_sigma = resp * (((y[:, None] - mu) ** 2) / sigma**3 - 1.0 / sigma) / n
    d_s = d_sigma * np.exp(np.minimum(s_raw, mdn._SCALE_LOG_CAP)) * (s_raw <= mdn._SCALE_LOG_CAP)
    grad = np.concatenate([mdn.pi_net.backward(cache_pi, d_logits), mdn.mu_net.backward(cache_mu, d_mu),
                           mdn.scale_net.backward(cache_s, d_s)])
    return float(np.mean(total)), grad


def mdn_log_likelihood(mdn, features: np.ndarray, y: np.ndarray) -> float:
    """Mean conditional log q(y | features) of an ``MdnProposal``."""
    return float(np.mean(mdn.log_density(mdn.heads(features), np.asarray(y).ravel())))


def mdn_log_likelihood_and_fit(
    mdn,
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
            value, grad = mdn.loglik_gradient(mdn.heads(features[idx]), targets[idx])
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


# -- trainable conditional oracle --------------------------------------------


class FlatParameters:
    """``theta``, ``n_params`` and ``bind`` over one flat vector ``_flat``, as
    ``nets.NetGroup`` gives them to a model made of nets."""

    _flat: np.ndarray

    @property
    def theta(self) -> np.ndarray:
        return self._flat.copy()

    @theta.setter
    def theta(self, value) -> None:
        self._flat[...] = value

    @property
    def n_params(self) -> int:
        return self._flat.size

    def bind(self, buffer: np.ndarray) -> None:
        buffer[...] = self._flat
        self._flat = buffer


class TrainableBilinearModel(FlatParameters, BilinearConditionalModel):
    """E(x, y) = -theta x y under the conditional model contract of
    ``regression.ConditionalEnergyModel``, so ``train_regression`` trains it.

    Its features h = (x, x^2) have no parameters. Against a Gaussian carrier
    N(mu, sigma^2), which ``train_regression`` sets, log Z(x) = theta mu x +
    theta^2 sigma^2 x^2 / 2 is linear in h, so ``LinearNormalizer`` holds it
    exactly, and p(y|x) = N(mu + theta sigma^2 x, sigma^2).
    """

    def __init__(self, theta: float = 0.0):
        self._flat = np.array([float(theta)])
        self.carrier = None

    def features(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return np.column_stack([x, x * x])

    def features_vjp_prepared(self, x: np.ndarray, workspace=None):
        return self.features(x), lambda d_h: np.empty(0)

    def energy_pairs(self, x, y, h=None):
        return super().energy_pairs(x, y)

    def energy_grid_shared(self, x, ys, h=None):
        return super().energy_grid_shared(x, ys)

    def energy_vjp_prepared(self, h: np.ndarray, y: np.ndarray, ys: np.ndarray, workspace=None):
        """dE/dtheta = -x y and dE/dh = (-theta y, 0), by hand."""
        x, theta = h[:, 0], float(self._flat[0])

        def vjp(d_data, d_samples):
            d_data = d_data.ravel()
            grad = -(d_data @ (x * y) + np.sum(d_samples * x[:, None] * ys))
            d_h = np.zeros_like(h)
            d_h[:, 0] = -theta * (d_data * y + np.sum(d_samples * ys, axis=1))
            return np.array([grad]), d_h

        return self.energy_pairs(x, y), self.energy_grid_shared(x, ys), vjp

    def carrier_moments(self) -> tuple[float, float]:
        return float(self.carrier.mean[0]), float(self.carrier.cov[0, 0])

    def exact_log_z(self, x: np.ndarray) -> np.ndarray:
        mu, var = self.carrier_moments()
        theta, x = float(self._flat[0]), np.asarray(x, dtype=np.float64)
        return theta * mu * x + 0.5 * theta**2 * var * x * x

    def conditional_mle(self, x: np.ndarray, y: np.ndarray) -> float:
        """argmax_theta mean_i log p(y_i | x_i) = sum x (y - mu) / (sigma^2 sum x^2)."""
        mu, var = self.carrier_moments()
        return float(np.sum(x * (y - mu)) / (var * np.sum(x * x)))


class LinearNormalizer(FlatParameters):
    """b(x) = w . h_x + c on the oracle's features, phi = (w, c), under the
    normalizer contract of ``regression.NormalizerNet``."""

    def __init__(self, phi=(0.0, 0.0, 0.0)):
        self._flat = np.array(phi, dtype=np.float64)

    def values(self, h: np.ndarray) -> np.ndarray:
        return h @ self._flat[:-1] + self._flat[-1]

    def values_vjp_prepared(self, h: np.ndarray, workspace=None):
        w = self._flat[:-1].copy()
        return self.values(h), lambda d_b: (np.append(d_b @ h, d_b.sum()), np.outer(d_b, w))


# -- binary-cube oracle -------------------------------------------------------


def cube_states(dim: int) -> np.ndarray:
    """The 2^dim points of {0, 1}^dim, one per row, in binary counting order."""
    return ((np.arange(2**dim)[:, None] >> np.arange(dim - 1, -1, -1)) & 1).astype(np.float64)


class UniformCube:
    """Uniform on the 2^dim points of {0, 1}^dim (probability 2^-dim each)."""

    def __init__(self, dim: int):
        self.dim = int(dim)

    def log_density(self, x: np.ndarray) -> np.ndarray:
        on_cube = np.all(np.isin(x, (0.0, 1.0)), axis=1)
        return np.where(on_cube, -self.dim * np.log(2.0), -np.inf)

    def sample(self, rng: PortableRng, n: int) -> np.ndarray:
        return rng.integers(n * self.dim, 2).astype(np.float64).reshape(n, self.dim)


class ExhaustiveCube(UniformCube):
    """Enumerates {0, 1}^dim instead of sampling: ``sample`` returns each state
    once and reads no stream, so the weight mean sum_x e^{-E(x)} is Z exactly."""

    def sample(self, rng: PortableRng, n: int) -> np.ndarray:
        return cube_states(self.dim)


class BinaryCubeModel(LinearOracle):
    """Fully visible Boltzmann machine on {0, 1}^dim under counting measure:
    T(x) = (x_i for each i; x_i x_j for i < j, row-major), dim(dim+1)/2
    parameters (``theta`` may be one value for all), Z summed over the 2^dim
    states. dim = 1 is the Bernoulli family, Z = 1 + e^theta."""

    def __init__(self, dim: int, theta=0.0):
        self.dim = int(dim)
        super().__init__(np.broadcast_to(np.asarray(theta, dtype=np.float64), (self.dim * (self.dim + 1) // 2,)))

    def statistic(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        i, j = np.triu_indices(self.dim, 1)
        return np.concatenate([x, x[:, i] * x[:, j]], axis=1)

    def exact_log_z(self) -> float:
        return float(np.logaddexp.reduce(self.statistic(cube_states(self.dim)) @ self._theta))

    def exact_log_z_grad(self) -> np.ndarray:
        t = self.statistic(cube_states(self.dim))
        u = t @ self._theta
        return np.exp(u - np.logaddexp.reduce(u)) @ t
