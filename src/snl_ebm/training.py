"""Stochastic ascent on (theta, b) for density models.

Each step draws a fresh proposal batch, forms the unbiased SNL gradient (or
the NCE loss gradient) and takes a joint Adam/SGD step on the concatenated
parameter vector [theta; b] with a shared learning rate. b is initialized to
the log mean importance weight at the initial parameters, which keeps the
exp(log w - b) cotangents moderate from the first step.

The per-step objective and gradients are computed in one fused pass (one
forward per array) around ``objectives.step_terms``, the step math shared
with regression training; the tests check it against plain reference
gradients. The loop binds the model's parameters and b into one flat
buffer, which each optimizer step updates in place.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SnlError, TrainingDivergedError
from .nets import Workspace
from .objectives import (
    GradientEstimate,
    ImportanceBatch,
    divergence_diagnostics,
    estimate_z,
    snl_objective,
    step_terms,
)
from .optim import AdamState, adam_step, sgd_step
from .proposals import sample_and_score
from .rng import PortableRng


def validate_common(config) -> None:
    """Checks shared by the density and regression training configs."""
    if config.divergence_patience < 1:
        raise ValueError("divergence_patience must be at least 1")
    if config.nce_nu is not None and not config.nce_nu > 0:
        raise ValueError(f"nce_nu must be positive, got {config.nce_nu!r}")


@dataclass
class TrainConfig:
    objective: str = "snl"  # "snl" | "nce"
    epochs: int = 25
    learning_rate: float = 1e-3
    batch_size: int = 128
    proposal_samples: int = 1024  # fresh proposal draws per step
    optimizer: str = "adam"  # "adam" | "sgd"
    seed: int = 0
    nce_nu: float | None = None  # None -> proposal_samples / batch_size
    divergence_patience: int = 5

    def validate(self) -> None:
        if self.objective not in ("snl", "nce"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.epochs < 0:  # zero epochs legal: returns the initial state
            raise ValueError("epochs must be nonnegative")
        for name in ("batch_size", "proposal_samples"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        validate_common(self)


@dataclass
class SnlState:
    model: object
    b: float


@dataclass(frozen=True)
class EpochRecord:
    """Per-epoch metrics.

    ``train_snl`` is the mean step value of the objective being optimised:
    the SNL value under ``objective="snl"`` and the negated NCE loss under
    ``objective="nce"`` (the column name is kept for existing readers).
    ``val_snl`` is always the SNL value on the validation split.
    """

    epoch: int
    train_snl: float
    val_snl: float
    b: float
    seconds: float


@dataclass
class TrainResult:
    state: SnlState
    history: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_theta: np.ndarray | None = None
    best_b: float = 0.0


def init_b(model, batch: ImportanceBatch) -> float:
    """Log mean importance weight at the current parameters (the running log Z)."""
    return estimate_z(model, batch).log_mean_weight


def optimizer_step(
    params: np.ndarray,
    grad: np.ndarray,
    lr: float,
    kind: str = "adam",
    opt_state: AdamState | None = None,
) -> AdamState | None:
    """One ascent step, in place on a flat parameter vector; returns the
    optimizer state (None for SGD) and raises on non-finite gradients."""
    if kind == "adam":
        if opt_state is None:
            opt_state = AdamState.fresh(params.shape[0])
        adam_step(params, grad, opt_state, lr)
        return opt_state
    if kind == "sgd":
        params += sgd_step(grad, lr)
        return opt_state
    raise ValueError(f"unknown optimizer {kind!r}")


def fused_step(model, b: float, data: np.ndarray, batch: ImportanceBatch, objective: str, proposal=None, nu: float | None = None,
               workspaces: tuple | None = None):
    """(objective value, ascent gradient, diagnostics) for one minibatch.

    One forward pass per array; ``objectives.step_terms`` turns the energies
    into the value and cotangents (for NCE the value is the negated loss),
    and one backward pass per array turns those into the gradient.
    ``workspaces`` is a pair of ``nets.Workspace`` (data, samples) that the
    training loop reuses from step to step.
    """
    space_data, space_samp = workspaces if workspaces is not None else (None, None)
    e_data, vjp_data = model.energy_vjp_prepared(data, space_data)
    e_samp, vjp_samp = model.energy_vjp_prepared(batch.samples, space_samp)
    log_d_data = log_d_samp = 0.0
    if model.base is not None:
        log_d_data = model.base.log_density(data)
        log_d_samp = batch.base_log_densities
        if log_d_samp is None:
            log_d_samp = model.base.log_density(batch.samples)
    logw = -e_samp + log_d_samp - batch.proposal_log_densities
    if objective == "nce":
        num_data, log_q_data = -e_data + log_d_data, proposal.log_density(data)[None]
    else:  # a carrier base weights the samples but is not part of the data term
        num_data, log_q_data = -e_data + (0.0 if model.base_is_carrier else log_d_data), None
    value, d_data, d_samp, d_b = step_terms(num_data[None], logw[None], np.array([b]), objective, nu, log_q_data)
    grad_theta = vjp_data(d_data[0]) + vjp_samp(d_samp[0])
    return value, GradientEstimate(grad_theta, float(d_b[0])), divergence_diagnostics(e_samp, logw)


def train_density(
    model,
    proposal,
    train_data: np.ndarray,
    val_data: np.ndarray,
    config: TrainConfig,
    b: float | None = None,
) -> TrainResult:
    """Run the ascent loop; returns the final state and per-epoch metrics.

    ``b=None`` initializes b from a seeded proposal batch; passing a value
    resumes from an earlier run (optimizer moments start fresh). Validation
    uses one fixed, seeded proposal batch for the whole run. If the step
    objective is non-finite for ``divergence_patience`` consecutive steps the
    run aborts with diagnostics.
    """
    config.validate()
    train_data = np.asarray(train_data, dtype=np.float64)
    val_data = np.asarray(val_data, dtype=np.float64)
    root = PortableRng(config.seed)
    shuffle_rng = root.split("shuffle")
    proposal_rng = root.split("proposal")
    m = config.proposal_samples

    if b is None:
        init_batch = sample_and_score(proposal, root.split("init-b"), m, base=model.base)
        b = init_b(model, init_batch)
    b = float(b)

    val_batch = sample_and_score(proposal, root.split("validation"), m, base=model.base)

    opt_state: AdamState | None = None
    workspaces = (Workspace(), Workspace())
    params = np.empty(model.n_params + 1)  # [theta; b], the model views its part
    model.bind(params[:-1])
    params[-1] = b
    grad_vec = np.empty_like(params)
    n = train_data.shape[0]
    result = TrainResult(state=SnlState(model, b))
    best_val = -np.inf
    bad_streak = 0
    last_diag = (np.nan, np.nan)
    step_count = 0

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = shuffle_rng.permutation(n)
        step_values = []
        for lo in range(0, n, config.batch_size):
            step_count += 1
            batch_x = train_data[order[lo : lo + config.batch_size]]
            prop = sample_and_score(proposal, proposal_rng, m, base=model.base)
            try:
                value, grads, diag = fused_step(
                    model, b, batch_x, prop, config.objective, proposal=proposal, nu=config.nce_nu,
                    workspaces=workspaces,
                )
            except SnlError:
                value, grads, diag = np.nan, None, last_diag
            last_diag = diag
            if grads is not None:
                grad_vec[:-1] = grads.grad_theta
                grad_vec[-1] = grads.grad_b
            if not np.isfinite(value) or grads is None or not np.all(np.isfinite(grad_vec)):
                bad_streak += 1
                if bad_streak >= config.divergence_patience:
                    raise TrainingDivergedError(
                        step=step_count, max_energy=last_diag[0], min_weight=last_diag[1]
                    )
                continue
            bad_streak = 0
            opt_state = optimizer_step(params, grad_vec, config.learning_rate, config.optimizer, opt_state)
            b = float(params[-1])
            step_values.append(value)

        val_snl = np.nan
        try:
            est = estimate_z(model, val_batch)
            val_snl = snl_objective(model, b, val_data, est.log_mean_weight).value
        except SnlError:
            pass
        record = EpochRecord(
            epoch=epoch,
            train_snl=float(np.mean(step_values)) if step_values else np.nan,
            val_snl=float(val_snl),
            b=b,
            seconds=time.perf_counter() - started,
        )
        result.history.append(record)
        if np.isfinite(val_snl) and val_snl > best_val:
            best_val = val_snl
            result.best_epoch = epoch
            result.best_theta = model.theta.copy()
            result.best_b = b

    result.state = SnlState(model, b)
    if result.best_theta is None:
        result.best_theta = model.theta.copy()
        result.best_b = b
    return result
