"""Correctness checks on the library's outputs.

Every check compares against a value computed here with numpy/scipy from
the definition of the inputs (the data generator, a closed-form oracle, a
quadrature), or against a property the method must have (the bound order
l_snl <= l_is, a tight bound at b = log Z). None compares against a stored
copy of earlier output. Each returns a ``Check``; ``selftest.py`` feeds
every one a planted wrong input and requires it to fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

LOG_2PI = float(np.log(2.0 * np.pi))
TIGHT_TOL = 0.02  # nats; l_is - l_snl = e^u - 1 - u with u = log Z_hat - b
LEVEL_TOL = 0.05  # nats; finite test split and Monte Carlo bias of l_is
ORACLE_SE = 5.0  # standard errors; a 3-se gate fails by chance once in 370 draws


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str
    # non-empty: a known program fault that makes this check fail today
    known_fault: str = ""


def bound_order(name: str, l_snl: float, l_is: float) -> Check:
    """On shared draws l_is - l_snl = h(Z_hat e^{-b}) >= 0 with h(t) = t - 1 - log t."""
    return Check(name, l_snl <= l_is + 1e-12, f"l_snl {l_snl:.6f} <= l_is {l_is:.6f}")


def bound_tight(name: str, l_snl: float, l_is: float, known_fault: str = "") -> Check:
    """At the SNL optimum b = log Z the two forms agree."""
    gap = l_is - l_snl
    return Check(name, gap <= TIGHT_TOL, f"l_is - l_snl = {gap:.6f} <= {TIGHT_TOL}", known_fault)


def quadrature_log_z(energy, half_width: float = 8.0, step: float = 0.04, chunk: int = 20000) -> float:
    """log of the integral of e^{-E(x)} phi(x) over [-w, w]^2 by the 2-D trapezoid rule."""
    axis = np.arange(-half_width, half_width + step / 2, step)
    weights_1d = np.full(axis.size, step)
    weights_1d[[0, -1]] = step / 2
    x1, x2 = np.meshgrid(axis, axis, indexing="ij")
    points = np.column_stack([x1.ravel(), x2.ravel()])
    log_w = np.log(np.outer(weights_1d, weights_1d).ravel())
    log_f = np.concatenate([-energy(points[lo : lo + chunk]) for lo in range(0, len(points), chunk)])
    log_f += -LOG_2PI - 0.5 * np.sum(points * points, axis=1)
    terms = log_f + log_w
    top = terms.max()
    return float(top + np.log(np.sum(np.exp(terms - top))))


def log_z_matches_quadrature(log_z_estimate: float, se: float, log_z_quad: float) -> Check:
    tol = ORACLE_SE * se + 0.005
    gap = abs(log_z_estimate - log_z_quad)
    return Check("density.log_z_vs_quadrature", gap <= tol,
                 f"|log Z_hat - log Z_quad| = {gap:.6f} <= {tol:.6f}")


def above_proposal(l_is: float, test: np.ndarray) -> Check:
    """The trained model must beat its own standard-Gaussian proposal."""
    proposal_ll = float(np.mean(-LOG_2PI - 0.5 * np.sum(test * test, axis=1)))
    return Check("density.above_proposal", l_is > proposal_ll,
                 f"l_is {l_is:.6f} > proposal test log-lik {proposal_ll:.6f}")


def checkerboard_log_density(raw_train: np.ndarray) -> float:
    """Standardised checkerboard log-density: uniform on 32 unit squares, so
    -log 32 plus the log Jacobian of dividing by the population std."""
    return float(-np.log(32.0) + np.sum(np.log(raw_train.std(axis=0))))


def below_generator(l_is: float, generator_ll: float) -> Check:
    return Check("density.below_generator", l_is <= generator_ll + LEVEL_TOL,
                 f"l_is {l_is:.6f} <= generator {generator_ll:.6f} + {LEVEL_TOL}")


def no_skipped_steps(skipped: int) -> Check:
    return Check("training.skipped_steps", skipped == 0, f"{skipped} non-finite steps skipped")


def regression1_exact(x: np.ndarray, y: np.ndarray, y_train: np.ndarray) -> float:
    """Mean log p(y|x) of the regression1 generator relative to a Gaussian
    fitted to the training responses (the evaluation proposal)."""
    mixture = np.log(0.2 * stats.norm.pdf(y, -2.0, 0.5) + 0.8 * stats.norm.pdf(y, 1.0, 0.5))
    lognormal = stats.lognorm.logpdf(np.where(x >= 0.0, y, 1.0), 0.25)
    log_p = np.where(x < 0.0, mixture, lognormal)
    var = float(np.var(y_train, ddof=1))
    log_q = stats.norm.logpdf(y, float(np.mean(y_train)), np.sqrt(var * (1.0 + 1e-6)))
    return float(np.mean(log_p - log_q))


def regression_level(l_is: float, exact: float) -> Check:
    ok = 0.0 < l_is <= exact + LEVEL_TOL
    return Check("regression.level", ok, f"0 < l_is {l_is:.6f} <= exact {exact:.6f} + {LEVEL_TOL}")


def grid_matches_pairs(grid: np.ndarray, pairs: np.ndarray) -> Check:
    """The split-head grid and the concatenating pair path agree to rounding."""
    diff = float(np.max(np.abs(grid - pairs)))
    tol = 1e-9 * (1.0 + float(np.max(np.abs(pairs))))
    return Check("models.grid_vs_pairs", diff <= tol, f"max |grid - pairs| = {diff:.3e} <= {tol:.3e}")


def bilinear_oracle(l_is: float, se: float, theta: float, x: np.ndarray, y: np.ndarray) -> Check:
    """E = -theta x y on a standard-Gaussian carrier: log Z(x) = (theta x)^2 / 2."""
    exact = float(np.mean(theta * x * y - 0.5 * (theta * x) ** 2))
    gap = abs(l_is - exact)
    return Check("oracle.bilinear", gap <= ORACLE_SE * se,
                 f"|l_is - exact| = {gap:.6f} <= {ORACLE_SE:g} se = {ORACLE_SE * se:.6f}")


def gaussian_oracle(log_z_estimate: float, se: float, theta: float) -> Check:
    """E = -theta x on a standard-Gaussian carrier: log Z = theta^2 / 2."""
    gap = abs(log_z_estimate - 0.5 * theta * theta)
    return Check("oracle.gaussian", gap <= ORACLE_SE * se,
                 f"|log Z_hat - theta^2/2| = {gap:.6f} <= {ORACLE_SE:g} se = {ORACLE_SE * se:.6f}")
