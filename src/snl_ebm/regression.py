"""Conditional energy models p(y|x) and their SNL training/evaluation.

The conditional density is p(y|x) = e^{-E(x,y)} / Z_theta(x) relative to a
carrier c(y), Z_theta(x) = integral e^{-E(x,y)} c(y) dy. A normalizer network
b_phi(x) plays the role of b pointwise:

    mean_i [ -E(x_i, y_i) - b_phi(x_i) - e^{-b_phi(x_i)} Z_hat(x_i) + 1 ],

with Z_hat(x_i) the per-point importance estimate from M proposal draws.
Training takes joint gradient steps on (theta, phi); when the proposal is a
mixture density network it is refitted by one interleaved maximum-likelihood
step per energy step, reading the feature vector h_x as a constant. The loop
is ``training.run_epochs``; this module supplies the conditional step, the
Adam step and MDN refit of a taken step, the per-epoch shuffle stream
(``split_index(epoch)``) and the validation with fresh draws per epoch. The
step and the loop reach a model and a normalizer only through their
``*_vjp_prepared`` methods and ``bind``, so a closed-form model can train
through them too (``tests/reference.py`` holds a bilinear one).

Architecture: feature extractor 1 -> 10 -> 10 -> 10 (ReLU throughout)
producing h_x; y branch 1 -> 16 -> 32 -> 64 -> 128; joint energy head on
concat(h_x, y-features), 138 -> 10 -> 1; normalizer net 10 -> 10 -> 1 on h_x.

Conditional models follow the carrier convention of ``models``: values are
relative to the model's carrier c(y), data terms are -E alone, and every
log-weight is -E plus ``objectives.measure_term`` of the carrier,
log c(y) - log q(y) (-log q(y) with no carrier: Lebesgue measure), the one
rule that density batches follow too. The bilinear oracle's carrier is N(0, 1); ``train_regression``
sets the Gaussian fitted to the training responses.

Evaluation reports the importance-sampled conditional log-likelihood

    mean_i [ -E(x_i,y_i) - b_i - log (1/M) sum_m e^{-E(x_i,y_m) + log c(y_m) - log q(y_m) - b_i} ]

on one shared set of M draws from a 1-D unconditional proposal q; with q the
carrier the measure term is exactly 0. b_i cancels in the limit and exactly
in the display above; it is kept so the companion linear bound
mean_i [ -E_i - b_i - e^{-b_i} Z_hat_i + 1 ] (same samples, hence never above
the log form pointwise) and the normalization check can be reported.

The n x M grid of E(x_i, y_m) is never held whole: the model yields it in
blocks of points (``energy_grid_blocks``), and ``objectives.bound_pair``
reduces each block as it arrives, one group per point, so the evaluation's
working memory is set by the draws and not by n. ``bound_pair``'s docstring
states the estimator of log Z_hat(x_i) and of both standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize
from .nets import Mlp, NetGroup, Workspace, bind, row_tiles
from .objectives import bound_pair, check_finite_energies, divergence_diagnostics, measure_term, step_terms
from .optim import AdamState, adam_step
from .proposals import MdnProposal, StandardGaussian, fit_gaussian
from .rng import PortableRng
from .training import config_problems, raise_problems, run_epochs

FEATURE_WIDTHS = [1, 10, 10, 10]
Y_WIDTHS = [1, 16, 32, 64, 128]
HEAD_WIDTHS = [FEATURE_WIDTHS[-1] + Y_WIDTHS[-1], 10, 1]
NORMALIZER_WIDTHS = [FEATURE_WIDTHS[-1], 10, 1]

# (point, draw) cells per block of an energy grid. A block is
# max(1, GRID_CELLS // m) points against all m draws; it holds its (points, m)
# energies and fills them through a (points, 10, tile) head hidden layer of
# one draw tile (``nets.row_tiles(m, DRAW_TILE)``): at most 10 * GRID_CELLS
# doubles (5 MB), and 1 MB at m = 20k (3 points x 10 x 4000 draws). The
# evaluation reduces each block before the next is made. At m = 20k, blocks of
# 2 to 4 points ran fastest (2-CPU Xeon, OpenBLAS); larger ones leave the cache.
GRID_CELLS = 1 << 16
# Draws per tile of a block's head hidden layer. This is not the network tile
# ``nets.TILE_ROWS``: a 24-point grid at 20k draws ran in 35 ms with 4096-draw
# tiles and in 41-42 ms with 2048 or 1024 (2-CPU host, OpenBLAS 0.3.31), and
# one (3, 10, 4000) tile is only 1 MB.
DRAW_TILE = 4096
UNNORMALIZED_GAP = 50.0  # |log Z_hat(x) - b(x)| in nats beyond which the eval flags the model


def _block_points(m: int) -> int:
    return max(1, GRID_CELLS // max(m, 1))


def _collect(blocks, n: int, m: int) -> np.ndarray:
    out = np.empty((n, m))
    for lo, hi, e in blocks:
        out[lo:hi] = e
    return out


class ConditionalEnergyModel(NetGroup):
    """E(x, y) = head(concat(feature(x), ybranch(y)))."""

    kind = "regression"  # the checkpoint kind of ``descriptor``
    NET_KEYS = ("feature_theta", "y_theta", "head_theta")  # the checkpoint key of each of ``nets``
    carrier = None  # Lebesgue measure until ``train_regression`` sets one

    def __init__(self, rng: PortableRng | None = None):
        self.feature_net = Mlp(FEATURE_WIDTHS, rng.split("feature") if rng else None, relu_output=True)
        self.y_net = Mlp(Y_WIDTHS, rng.split("y") if rng else None, relu_output=True)
        self.head = Mlp(HEAD_WIDTHS, rng.split("head") if rng else None)
        self.nets = (self.feature_net, self.y_net, self.head)

    def features(self, x: np.ndarray) -> np.ndarray:
        h, _ = self.feature_net.forward(np.asarray(x, dtype=np.float64).reshape(-1, 1), keep_cache=False)
        return h

    def features_vjp_prepared(self, x: np.ndarray, workspace=None):
        """(h, vjp): the features h_x and vjp(d_h), the flat gradient of theta's feature part."""
        h, cache = self.feature_net.forward(np.asarray(x, dtype=np.float64).reshape(-1, 1), workspace=workspace)
        return h, lambda d_h: self.feature_net.backward(cache, d_h, workspace=workspace)

    def energy_vjp_prepared(self, h: np.ndarray, y: np.ndarray, ys: np.ndarray, workspace=None):
        """(E(x_i, y_i) (n,), E(x_i, y_ij) (n, m), vjp) at the features h of
        the x_i; vjp(d_data, d_samples) is (the flat gradient of the rest of
        theta, d_h). Data and draw rows share one y-branch and one head pass,
        data rows first, made in ``workspace`` when one is given."""
        n, m = ys.shape
        k = h.shape[1]
        y_all = np.concatenate([y, ys.ravel()]).reshape(-1, 1)
        g_all, cache_y = self.y_net.forward(y_all, workspace=workspace)
        # head input rows [h_i, g(y_i)] then [h_i, g(y_ij)], copied into one array
        shape = (n * (m + 1), k + g_all.shape[1])
        head_in = np.empty(shape) if workspace is None else workspace.array("head-input", shape)
        head_in[:n, :k] = h
        head_in[n:].reshape(n, m, shape[1])[:, :, :k] = h[:, None, :]
        head_in[:, k:] = g_all
        e_all, cache_h = self.head.forward(head_in, workspace=workspace)

        def vjp(d_data, d_samples):
            cot = np.concatenate([d_data.ravel(), d_samples.ravel()]).reshape(-1, 1)
            g_head, d_input = self.head.backward(cache_h, cot, need_input_grad=True, workspace=workspace)
            d_h_rows, d_g = d_input[:, :k], d_input[:, k:]
            g_y = self.y_net.backward(cache_y, d_g, workspace=workspace)
            return np.concatenate([g_y, g_head]), d_h_rows[:n] + d_h_rows[n:].reshape(n, m, k).sum(axis=1)

        return e_all[:n, 0], e_all[n:, 0].reshape(n, m), vjp

    def energy_pairs(self, x: np.ndarray, y: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
        """E(x_i, y_i); ``h`` is ``features(x)`` when the caller already has it."""
        if h is None:
            h = self.features(x)
        g, _ = self.y_net.forward(np.asarray(y, dtype=np.float64).reshape(-1, 1), keep_cache=False)
        e, _ = self.head.forward(np.column_stack([h, g]), keep_cache=False)
        return e[:, 0]

    def energy_grid_blocks(self, x: np.ndarray, ys: np.ndarray, h: np.ndarray | None = None):
        """Yield (lo, hi, E[lo:hi]) for the grid E(x_i, y_ij) against one
        shared set of draws ``ys`` of shape (m,) or per-point draws (n, m),
        max(1, GRID_CELLS // m) points per block; the caller owns each block.

        The head's first layer splits over the concat, so the y-branch runs
        once per call, in row tiles of at most ``nets.TILE_ROWS``, and keeps
        only its (m, 10) contribution to the head's hidden layer. A block's
        hidden layer is laid out draw-major, (points, 10, tile), so the
        innermost loops run over the draws, and ``w2 @ z`` contracts the
        hidden axis; a block takes its draws in tiles of at most ``DRAW_TILE``.
        """
        ys = np.asarray(ys, dtype=np.float64)
        if h is None:
            h = self.features(x)
        w1, w2 = self.head.weights
        b1, b2 = self.head.biases
        k, width = h.shape[1], w1.shape[1]
        n, m = h.shape[0], ys.shape[-1]
        h_part = h @ w1[:k] + b1  # (n, 10)
        # the y-branch and its head contribution g @ W1_g, one row tile at a time
        y_rows = ys.reshape(-1, 1)
        g_rows = np.empty((y_rows.shape[0], width))
        workspace = Workspace()
        for lo, hi in row_tiles(y_rows.shape[0]):
            g, _ = self.y_net.forward(y_rows[lo:hi], keep_cache=False, workspace=workspace)
            np.matmul(g, w1[k:], out=g_rows[lo:hi])
        del workspace, g  # freed before the copy below, and not held while the caller reads blocks
        g_part = np.ascontiguousarray(g_rows.reshape(-1, m, width).transpose(0, 2, 1))  # (1 or n, 10, m)
        del g_rows
        step, tiles = _block_points(m), row_tiles(m, DRAW_TILE)
        z = np.empty(min(step, n) * width * (tiles[0][1] - tiles[0][0]))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            g_block = g_part if g_part.shape[0] == 1 else g_part[lo:hi]
            e = np.empty((hi - lo, m))
            for a, c in tiles:  # draw tiles, through one contiguous (points, 10, tile) buffer
                zb = z[: (hi - lo) * width * (c - a)].reshape(hi - lo, width, c - a)
                np.add(h_part[lo:hi, :, None], g_block[:, :, a:c], out=zb)
                np.maximum(zb, 0.0, out=zb)
                np.matmul(w2[:, 0], zb, out=e[:, a:c])
            e += b2[0]
            yield lo, hi, e

    def energy_grid_shared(self, x: np.ndarray, ys: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
        """E(x_i, y_ij), shape (n, m), collected from ``energy_grid_blocks``."""
        return _collect(self.energy_grid_blocks(x, ys, h), np.size(x), np.shape(ys)[-1])

    def descriptor(self, normalizer) -> dict:
        """The checkpoint fields of the model, its carrier (``eval_proposal``) and
        its ``NormalizerNet`` or None, which ``models.from_descriptor`` reads back."""
        nets = {key: serialize.fmt_vector(net.theta) for key, net in zip(self.NET_KEYS, self.nets)}
        return {"kind": self.kind, **nets,
                "normalizer_phi": serialize.fmt_vector(normalizer.theta) if normalizer is not None else None,
                "eval_proposal": self.carrier.descriptor()}


class NormalizerNet(NetGroup):
    """b_phi on the feature vector h_x; its ``theta`` is phi."""

    def __init__(self, rng: PortableRng | None = None):
        self.net = Mlp(NORMALIZER_WIDTHS, rng)
        self.nets = (self.net,)

    def values(self, h: np.ndarray) -> np.ndarray:
        out, _ = self.net.forward(h, keep_cache=False)
        return out[:, 0]

    def values_vjp_prepared(self, h: np.ndarray, workspace=None):
        """(b_phi(h) (n,), vjp): vjp(d_b) is (the flat gradient of phi, d_h)."""
        out, cache = self.net.forward(h, workspace=workspace)
        return out[:, 0], lambda d_b: self.net.backward(cache, d_b.reshape(-1, 1), need_input_grad=True,
                                                       workspace=workspace)


class BilinearConditionalModel:
    """Closed-form conditional oracle E(x, y) = -theta x y with a standard
    Gaussian carrier over y: Z(x) = E_phi[e^{theta x y}] = e^{(theta x)^2 / 2}."""

    def __init__(self, theta: float = 1.0):
        self.theta = float(theta)
        self.carrier = StandardGaussian(1)

    def energy_pairs(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return -self.theta * np.asarray(x, dtype=np.float64) * np.asarray(y, dtype=np.float64)

    def energy_grid_blocks(self, x: np.ndarray, ys: np.ndarray):
        """Yield (lo, hi, E[lo:hi]) as ``ConditionalEnergyModel.energy_grid_blocks`` does."""
        x = np.asarray(x, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        step = _block_points(ys.shape[-1])
        for lo in range(0, x.shape[0], step):
            hi = min(lo + step, x.shape[0])
            yield lo, hi, -self.theta * (x[lo:hi, None] * (ys if ys.ndim == 1 else ys[lo:hi]))

    def energy_grid_shared(self, x: np.ndarray, ys: np.ndarray) -> np.ndarray:
        return _collect(self.energy_grid_blocks(x, ys), np.size(x), np.shape(ys)[-1])

    def exact_log_z(self, x: np.ndarray) -> np.ndarray:
        return 0.5 * (self.theta * np.asarray(x, dtype=np.float64)) ** 2

    def exact_conditional_log_likelihood(self, x: np.ndarray, y: np.ndarray) -> float:
        """mean_i [theta x_i y_i - (theta x_i)^2 / 2], relative to the carrier."""
        return float(np.mean(-self.energy_pairs(x, y) - self.exact_log_z(x)))


@dataclass
class RegressionTrainConfig:
    objective: str = "snl"  # "snl" | "nce"
    epochs: int = 40
    learning_rate: float = 1e-3
    batch_size: int = 64
    samples_per_point: int = 16
    seed: int = 0
    nce_nu: float | None = None  # None -> samples_per_point
    mdn_learning_rate: float = 1e-3

    def problems(self) -> list[tuple[str, str]]:
        return config_problems(self, ("learning_rate", "batch_size", "samples_per_point", "mdn_learning_rate"))

    def validate(self) -> None:
        raise_problems(self.problems())


@dataclass(frozen=True)
class RegressionEpochRecord:
    epoch: int
    train_objective: float
    val_snl: float
    seconds: float


@dataclass
class RegressionTrainResult:
    history: list[RegressionEpochRecord]
    best_epoch: int
    best_theta: np.ndarray
    best_phi: np.ndarray | None


def _propose(proposal, rng: PortableRng, h: np.ndarray, n: int, m: int):
    """Per-point samples (n, m) with their conditional/unconditional log q,
    and the MDN's heads at h (None for an unconditional proposal), which
    sampling and scoring share."""
    if isinstance(proposal, MdnProposal):
        heads = proposal.heads(h)
        ys = proposal.sample(rng, heads, m)
        return ys, proposal.log_density(heads, ys), heads
    ys = proposal.sample(rng, n * m).reshape(n, m)
    return ys, proposal.log_density(ys.reshape(-1, 1)).reshape(n, m), None


def _regression_step(model, normalizer, h, features_vjp, y, ys, log_q, log_q_data, objective, nu, workspace=None):
    """Objective value, ascent gradient over [theta; phi], and diagnostics.

    h/features_vjp are ``model.features_vjp_prepared`` at the batch inputs,
    shared with the proposal; ys/log_q are the per-point draws (n, m), and
    log_q_data is q at the observed pairs (read by NCE only). The passes are
    made in ``workspace`` (a ``nets.Workspace``) when the loop gives one, and
    ``objectives.step_terms`` does the step math with one group per point.
    """
    e_data, e_samp, energy_vjp = model.energy_vjp_prepared(h, y, ys, workspace)
    b_vals, normalizer_vjp = (normalizer.values_vjp_prepared(h, workspace) if normalizer is not None
                              else (np.zeros(ys.shape[0]), lambda d_b: (np.empty(0), 0.0)))  # b = 0, no phi

    logw = measure_term(model.carrier, ys, log_q) - e_samp
    if log_q_data is not None:  # the NCE data logit -E - b + log c - log q
        log_q_data = -measure_term(model.carrier, y, log_q_data)[:, None]
    value, d_e_data, d_e_samp, d_b = step_terms(-e_data[:, None], logw, b_vals, objective, nu, log_q_data)

    g_energy, d_h = energy_vjp(d_e_data, d_e_samp)
    g_norm, d_h_norm = normalizer_vjp(d_b)
    return value, np.concatenate([features_vjp(d_h + d_h_norm), g_energy, g_norm]), divergence_diagnostics(e_samp, logw)


def validation_snl(model, normalizer, proposal, x, y, m, rng):
    """Per-point SNL on held-out pairs with fresh proposal draws; the
    feature net runs once, for the proposal and both energy passes."""
    h = model.features(x)
    ys, log_q, _ = _propose(proposal, rng, h, x.shape[0], m)
    e_data = model.energy_pairs(x, y, h)
    e_samp = model.energy_grid_shared(x, ys, h)
    b_vals = normalizer.values(h) if normalizer is not None else np.zeros(x.shape[0])
    return step_terms(-e_data[:, None], measure_term(model.carrier, ys, log_q) - e_samp, b_vals)[0]


def train_regression(model, normalizer, proposal, train_pairs, val_pairs, config):
    """Minibatch ascent on the conditional objective.

    train_pairs/val_pairs are (x, y) tuples of 1-d arrays. The proposal is
    either an MdnProposal on the feature vector (refit by one likelihood step
    after every energy step, against the current features) or any fixed
    unconditional distribution with sample/log_density. The model's carrier
    becomes the Gaussian fitted to the training responses. Any model and
    normalizer that meet the contract of ``_regression_step`` train here.
    """
    config.validate()
    x_tr, y_tr = (np.asarray(a, dtype=np.float64) for a in train_pairs)
    x_val, y_val = (np.asarray(a, dtype=np.float64) for a in val_pairs)
    model.carrier = fit_gaussian(y_tr.reshape(-1, 1))
    root = PortableRng(config.seed)
    shuffle_rng, proposal_rng, val_rng = (root.split(k) for k in ("shuffle", "proposal", "validation"))
    mdn = proposal if isinstance(proposal, MdnProposal) else None

    # one flat buffer for [theta; phi] and one for the MDN, each stepped in place
    n_theta = model.n_params
    params = np.empty(n_theta + (normalizer.n_params if normalizer is not None else 0))
    model.bind(params[:n_theta])
    if normalizer is not None:
        normalizer.bind(params[n_theta:])
    opt = AdamState.fresh(params.size)
    if mdn is not None:
        mdn_params = bind(mdn.nets)
        mdn_opt = AdamState.fresh(mdn_params.size)
    workspace = Workspace()
    batch = None  # (MDN heads, targets) of the last step, which the MDN refit reads

    def step(rows):
        nonlocal batch
        y_b = y_tr[rows]
        h_b, features_vjp = model.features_vjp_prepared(x_tr[rows], workspace)
        ys, log_q, heads = _propose(proposal, proposal_rng, h_b, rows.size, config.samples_per_point)
        log_q_data = None
        if config.objective == "nce":
            log_q_data = (mdn.log_density(heads, y_b[:, None])[:, 0] if mdn is not None
                          else proposal.log_density(y_b.reshape(-1, 1)))
        batch = (heads, y_b)
        return _regression_step(model, normalizer, h_b, features_vjp, y_b, ys, log_q,
                                log_q_data, config.objective, config.nce_nu, workspace)

    def take(grad):
        adam_step(params, grad, opt, config.learning_rate)
        if mdn is not None:
            _, mdn_grad = mdn.loglik_gradient(*batch)
            adam_step(mdn_params, mdn_grad, mdn_opt, config.mdn_learning_rate)

    def validate(epoch):
        return validation_snl(model, normalizer, proposal, x_val, y_val,
                              config.samples_per_point, val_rng.split_index(epoch - 1))

    history, best_epoch, best = run_epochs(
        config, params, lambda epoch: shuffle_rng.split_index(epoch - 1).permutation(x_tr.shape[0]),
        step, take, validate, RegressionEpochRecord,
    )
    return RegressionTrainResult(history=history, best_epoch=best_epoch, best_theta=best[:n_theta],
                                 best_phi=best[n_theta:] if normalizer is not None else None)


@dataclass(frozen=True)
class RegressionEvalReport:
    l_is: float
    l_is_se: float
    l_snl: float
    l_snl_se: float
    unnormalized: bool
    n_points: int
    n_samples: int

    def lines(self) -> list[str]:
        out = [
            f"l_is {self.l_is:.6f}",
            f"l_is_se {self.l_is_se:.6f}",
            f"l_snl {self.l_snl:.6f}",
            f"l_snl_se {self.l_snl_se:.6f}",
            f"n_points {self.n_points}",
            f"n_samples {self.n_samples}",
        ]
        if self.unnormalized:
            out.append("UNNORMALIZED model normalizer is far from the sampled estimate; "
                       "the log form is not trustworthy as a likelihood")
        return out


def eval_regression_l_is(model, pairs, proposal, rng, n_samples=20000, normalizer_fn=None):
    """Importance-sampled conditional log-likelihood on shared proposal draws.

    One set of n_samples y draws from ``rng`` is scored against every
    evaluation point; the per-point estimates therefore share randomness and
    the standard errors are computed over draws. ``objectives.bound_pair``
    reduces the grid block by block as the model yields it, so no (n, m)
    array is held.
    Non-finite energies raise ``EnergyEvaluationError``; draws not of shape
    (n_samples, 1) or ``normalizer_fn`` values not of shape (n,), ValueError.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    x, y = (np.asarray(a, dtype=np.float64) for a in pairs)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"x and y must have the same length, got {x.shape[0]} and {y.shape[0]}")
    n = x.shape[0]
    if n == 0:
        raise ValueError("pairs are empty: the evaluation needs at least one (x, y) pair")
    draws = np.asarray(proposal.sample(rng, n_samples), dtype=np.float64)
    if draws.shape != (n_samples, 1):
        raise ValueError(f"the proposal drew shape {draws.shape}; the evaluation needs ({n_samples}, 1)")
    ys, m = draws[:, 0], n_samples
    term = measure_term(model.carrier, ys, proposal.log_density(draws))

    e_data = model.energy_pairs(x, y)
    check_finite_energies(e_data, "data point")
    b_vals = np.asarray(normalizer_fn(x), dtype=np.float64) if normalizer_fn is not None else np.zeros(n)
    if b_vals.shape != (n,):
        raise ValueError(f"normalizer_fn must return shape ({n},), one b per point, got {b_vals.shape}")

    def log_weight_blocks():
        for lo, hi, e in model.energy_grid_blocks(x, ys):
            check_finite_energies(e, "grid cell", offset=lo * m)
            yield lo, hi, np.subtract(term, e, out=e)

    log_z, l_is_se, l_snl_se = bound_pair(log_weight_blocks(), b_vals, m)
    gap = log_z - b_vals
    with np.errstate(over="ignore"):  # overflow gives l_snl = -inf, reported as such
        a_snl = -e_data - b_vals - np.exp(gap) + 1.0
    return RegressionEvalReport(
        l_is=float(np.mean(-e_data - b_vals - gap)),  # b cancels: -E - log Z_hat
        l_is_se=l_is_se, l_snl=float(np.mean(a_snl)), l_snl_se=l_snl_se,
        unnormalized=bool(np.any(np.abs(gap) > UNNORMALIZED_GAP)), n_points=n, n_samples=m,
    )
