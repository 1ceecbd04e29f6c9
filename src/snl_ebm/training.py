"""Stochastic ascent on (theta, b): the training loop of both model families
and the density family's part of it.

``run_epochs`` is the one loop: epochs and batches, the divergence guard, the
per-epoch timer, validation, the best-epoch snapshot and the history. Each
family supplies its row order, batch step, the application of a taken step
and its validation (``train_density`` here, ``regression.train_regression``).

For density models each step draws a fresh proposal batch, forms the
unbiased SNL gradient (or the NCE loss gradient) and takes a joint Adam/SGD
step on the concatenated parameter vector [theta; b] with a shared learning
rate. b is initialized to the log mean importance weight at the initial
parameters, which keeps the exp(log w - b) cotangents moderate from the
first step. The rows are shuffled from one stream across epochs, and
validation scores the SNL value on one fixed proposal batch.

Both the step and the validation value go through ``objectives.step_terms``,
the SNL/NCE math shared with regression training. The step is one fused
pass (one forward and one backward per array) that returns the flat
[theta; b] ascent vector; the tests check it against plain reference
gradients. The model's parameters and b live in one flat buffer, which each
optimizer step updates in place.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import SnlError, TrainingDivergedError
from .nets import Workspace
from .objectives import ImportanceBatch, divergence_diagnostics, estimate_z, log_weights, step_terms
from .optim import AdamState, adam_step, sgd_step
from .proposals import sample_and_score
from .rng import PortableRng

DIVERGENCE_PATIENCE = 5  # skipped (non-finite) steps in a row after which a run raises

# Precision of the forward and backward passes of a training step, density and
# conditional (``nets.Workspace``); b, the optimizer, ``step_terms``, the MDN
# proposal and its refit, validation and evaluation stay float64. Float32
# rounding moves the step gradient by far less than its Monte Carlo std over
# draw batches: about 4e-6 of it on the 2-200-100-50-50-1 density net at 1024
# draws, and at most 1.3e-5 on the conditional nets at 64 points x 16 draws
# (``tests/test_training.py`` bounds both). The density step took 36 % less
# time, and a regression training step with its MDN refit 23 % less (2-CPU
# host, OpenBLAS 0.3.31).
STEP_DTYPE = np.float32


def config_problems(config, positive: tuple[str, ...]) -> list[tuple[str, str]]:
    """(field, message) for every bad field of a density or regression
    training config; the fields named in ``positive``, and ``nce_nu`` when
    set, must be above 0 and finite."""
    out = []
    if config.objective not in ("snl", "nce"):
        out.append(("objective", f"unknown objective {config.objective!r}"))
    if config.epochs < 0:  # zero epochs legal: returns the initial state
        out.append(("epochs", f"epochs must be nonnegative, got {config.epochs}"))
    for name in positive + (("nce_nu",) if config.nce_nu is not None else ()):
        value = getattr(config, name)
        if not value > 0:
            out.append((name, f"{name} must be positive, got {value!r}"))
        elif isinstance(value, float) and not math.isfinite(value):
            out.append((name, f"{name} must be finite, got {value!r}"))
    return out


def raise_problems(problems: list[tuple[str, str]]) -> None:
    """One ValueError that lists every message of ``config_problems``."""
    if problems:
        raise ValueError("; ".join(message for _, message in problems))


@dataclass
class TrainConfig:
    objective: str = "snl"  # "snl" | "nce"
    epochs: int = 25
    learning_rate: float = 1e-3
    batch_size: int = 128
    proposal_samples: int = 1024  # fresh proposal draws per step
    optimizer: str = "adam"  # "adam" | "sgd"
    seed: int = 0
    nce_nu: float | None = None  # None -> proposal_samples / (data rows in the batch), larger on a short last batch

    def problems(self) -> list[tuple[str, str]]:
        out = config_problems(self, ("learning_rate", "batch_size", "proposal_samples"))
        if self.optimizer not in ("adam", "sgd"):
            out.append(("optimizer", f"unknown optimizer {self.optimizer!r}"))
        return out

    def validate(self) -> None:
        raise_problems(self.problems())


@dataclass
class SnlState:
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
    history: list[EpochRecord]
    best_epoch: int
    best_theta: np.ndarray
    best_b: float


def init_b(model, batch: ImportanceBatch) -> float:
    """Log mean importance weight at the current parameters (the running log Z)."""
    return estimate_z(model, batch)


def optimizer_step(params: np.ndarray, grad: np.ndarray, lr: float, kind: str, adam: AdamState) -> None:
    """One ascent step of optimizer ``kind``, in place on a flat parameter
    vector (and on ``adam``, which SGD leaves alone); raises on non-finite
    gradients."""
    if kind == "adam":
        adam_step(params, grad, adam, lr)
    elif kind == "sgd":
        sgd_step(params, grad, lr)
    else:
        raise ValueError(f"unknown optimizer {kind!r}")


def fused_step(model, b: float, data: np.ndarray, batch: ImportanceBatch, objective: str, proposal=None, nu: float | None = None,
               workspaces: tuple | None = None):
    """(objective value, ascent gradient, diagnostics) for one minibatch.

    One forward pass per array; ``objectives.step_terms`` turns the energies
    into the value and cotangents (for NCE the value is the negated loss),
    with the sample log-weights ``batch.log_measure - E`` as in ``log_weights``,
    and one backward pass per array turns those into the gradient, returned
    as one flat [theta; b] vector.
    ``workspaces`` is a pair of ``nets.Workspace`` (data, samples) that the
    training loop reuses from step to step; the passes run in their precision
    (``STEP_DTYPE`` in ``train_density``), and everything after them in float64.
    """
    space_data, space_samp = workspaces if workspaces is not None else (None, None)
    e_data, vjp_data = model.energy_vjp_prepared(data, space_data)
    e_samp, vjp_samp = model.energy_vjp_prepared(batch.samples, space_samp)
    logw = batch.log_measure - e_samp
    log_d_data = model.base.log_density(data) if model.base is not None else 0.0
    if objective == "nce":
        num_data, log_q_data = -e_data + log_d_data, proposal.log_density(data)[None]
    else:  # a carrier base weights the samples but is not part of the data term
        num_data, log_q_data = -e_data + (0.0 if model.base_is_carrier else log_d_data), None
    value, d_data, d_samp, d_b = step_terms(num_data[None], logw[None], np.array([b]), objective, nu, log_q_data)
    grad = np.empty(model.n_params + 1)
    np.add(vjp_data(d_data[0]), vjp_samp(d_samp[0]), out=grad[:-1])
    grad[-1] = d_b[0]
    return value, grad, divergence_diagnostics(e_samp, logw)


def run_epochs(config, params: np.ndarray, order, step, take, validate, record):
    """The epoch loop of density and regression training.

    Epochs count from 1. Each one visits the rows ``order(epoch)`` in
    batches of ``config.batch_size``: ``step(rows)`` returns (objective
    value, ascent gradient, diagnostics), and ``take(grad)`` applies a step
    whose value and gradient are finite. A step that is not, or that raises
    ``SnlError``, is skipped; ``DIVERGENCE_PATIENCE`` skipped steps in a row
    raise ``TrainingDivergedError`` with the diagnostics of the last step
    that returned. ``validate(epoch)`` then scores the model, recorded
    as nan when it raises ``SnlError`` or is not finite, and
    ``record(epoch, mean value of the taken steps, validation value, seconds
    of the steps and validation)`` makes the epoch's history entry. Returns
    the history, the best epoch (0 when no validation value was finite) and
    a copy of the flat parameter buffer ``params`` at the end of that epoch
    (or of this run).
    """
    history, best_epoch, best, best_val = [], 0, None, -np.inf
    bad_streak = step_count = 0
    diag = (np.nan, np.nan)
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        rows = order(epoch)
        values = []
        for lo in range(0, rows.size, config.batch_size):
            step_count += 1
            try:
                value, grad, diag = step(rows[lo : lo + config.batch_size])
            except SnlError:
                value, grad = np.nan, None
            if not (np.isfinite(value) and np.all(np.isfinite(grad))):
                bad_streak += 1
                if bad_streak >= DIVERGENCE_PATIENCE:
                    raise TrainingDivergedError(step=step_count, max_energy=diag[0], min_weight=diag[1])
                continue
            bad_streak = 0
            take(grad)
            values.append(value)
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is recorded as nan
                val = float(validate(epoch))
        except SnlError:
            val = np.nan
        val = val if np.isfinite(val) else np.nan
        history.append(record(epoch, float(np.mean(values)) if values else np.nan, val,
                              time.perf_counter() - started))
        if val > best_val:
            best_epoch, best, best_val = epoch, params.copy(), val
    return history, best_epoch, params.copy() if best is None else best


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
    objective is non-finite for ``DIVERGENCE_PATIENCE`` consecutive steps the
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
        b = init_b(model, sample_and_score(proposal, root.split("init-b"), m, base=model.base))
    val_batch = sample_and_score(proposal, root.split("validation"), m, base=model.base)

    workspaces = (Workspace(STEP_DTYPE), Workspace(STEP_DTYPE))
    params = np.empty(model.n_params + 1)  # [theta; b], the model views its part
    model.bind(params[:-1])
    params[-1] = float(b)
    adam = AdamState.fresh(params.size)

    def step(rows):
        batch = sample_and_score(proposal, proposal_rng, m, base=model.base)
        return fused_step(model, float(params[-1]), train_data[rows], batch, config.objective,
                          proposal=proposal, nu=config.nce_nu, workspaces=workspaces)

    def take(grad):
        optimizer_step(params, grad, config.learning_rate, config.optimizer, adam)

    def validate(epoch):
        return step_terms(model.unnorm_log_density(val_data)[None], log_weights(model, val_batch)[None],
                          params[-1:])[0]

    history, best_epoch, best = run_epochs(
        config, params, lambda epoch: shuffle_rng.permutation(train_data.shape[0]), step, take, validate,
        lambda epoch, train, val, seconds: EpochRecord(epoch, train, val, float(params[-1]), seconds),
    )
    return TrainResult(state=SnlState(float(params[-1])), history=history, best_epoch=best_epoch,
                       best_theta=best[:-1], best_b=float(best[-1]))
