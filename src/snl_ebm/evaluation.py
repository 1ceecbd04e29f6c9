"""Held-out reporting for unconditional energy models.

Both likelihood forms are computed from one shared set of proposal draws so
that the linear form can never exceed the log form:

    l_is  = data_term - log Z_hat
    l_snl = data_term - b - e^{-b} Z_hat + 1

their difference is h(Z_hat e^{-b}) with h(t) = t - 1 - log t >= 0, so
l_snl <= l_is holds pointwise for every draw, with equality at b = log Z_hat.
The true log-likelihood sits in between on average: the log form is an upper
bound in expectation (Jensen), the linear form a lower bound for any b.

Z_hat and the standard errors of both forms come from
``objectives.bound_pair`` with one group, the reduction conditional
evaluation shares; its docstring states the estimator. The errors cover the
Monte Carlo draws only; the per-split data term gets its own error column so
the two sources stay legible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteObjectiveError
from .objectives import bound_pair, log_weights
from .proposals import sample_and_score
from .rng import PortableRng


@dataclass(frozen=True)
class SplitReport:
    name: str
    n: int
    data_term: float
    data_term_se: float
    l_snl: float
    l_is: float
    l_snl_se: float
    l_is_se: float


@dataclass(frozen=True)
class EvalReport:
    b: float
    log_z_estimate: float
    n_samples: int
    splits: tuple[SplitReport, ...]
    dataset: str = ""
    seed: int = 0

    def sandwich_violated(self) -> bool:
        """True when some split has l_snl above l_is by more than ten combined
        standard errors; impossible on shared samples, so it flags a bug or a
        mismatched sample set."""
        return any(s.l_snl > s.l_is + 10.0 * (s.l_snl_se + s.l_is_se) for s in self.splits)

    def lines(self) -> list[str]:
        out = []
        if self.dataset:
            out.append(f"dataset {self.dataset}")
        out += [
            f"seed {self.seed}",
            f"b {self.b:.12g}",
            f"log_z_estimate {self.log_z_estimate:.12g}",
            f"n_samples {self.n_samples}",
        ]
        for s in self.splits:
            out.append(f"{s.name}.n {s.n}")
            for key in ("data_term", "data_term_se", "l_snl", "l_is", "l_snl_se", "l_is_se"):
                out.append(f"{s.name}.{key} {getattr(s, key):.12g}")
        if self.sandwich_violated():
            out.append("SANDWICH_VIOLATION l_snl exceeds l_is beyond combined error")
        return out


def evaluate(model, b, splits, proposal, n_samples: int = 20000,
             seed: int = 0, dataset: str = "", rng: PortableRng | None = None) -> EvalReport:
    """Report both forms for every split against one shared sample set.

    splits maps names to data arrays; all splits reuse the same Z_hat, so
    differences between splits reflect the data term alone. ``rng``
    overrides the seed-derived stream when given.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    splits = {name: np.asarray(data, dtype=np.float64) for name, data in splits.items()}
    empty = [name for name, data in splits.items() if data.shape[0] == 0]
    if empty:
        raise ValueError(f"split {empty[0]!r} is empty: each split needs at least one point")
    if rng is None:
        rng = PortableRng(seed).split("evaluate")
    batch = sample_and_score(proposal, rng, n_samples, base=model.base)
    log_z, l_is_se, l_snl_se = bound_pair([(0, 1, log_weights(model, batch)[None, :])], [b], batch.m)
    log_z = float(log_z[0])
    with np.errstate(over="ignore"):  # overflow gives l_snl = -inf, reported as such
        normalizer_term = float(-b - np.exp(log_z - b) + 1.0)

    reports = []
    for name, data in splits.items():
        values = model.unnorm_log_density(data)
        data_term = float(np.mean(values))
        if not np.isfinite(data_term):
            raise NonFiniteObjectiveError("data", data_term)
        n = data.shape[0]
        reports.append(SplitReport(
            name=name,
            n=n,
            data_term=data_term,
            data_term_se=float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0,
            l_snl=data_term + normalizer_term,
            l_is=data_term - log_z,
            l_snl_se=l_snl_se,
            l_is_se=l_is_se,
        ))
    return EvalReport(
        b=float(b),
        log_z_estimate=log_z,
        n_samples=batch.m,
        splits=tuple(reports),
        dataset=dataset,
        seed=seed,
    )


def grid_points(bounds: np.ndarray, resolution: int) -> np.ndarray:
    """Row-major lattice over an axis-aligned box, shape (resolution^d, d)."""
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.ndim != 2 or bounds.shape[1] != 2:
        raise ValueError("bounds must be (d, 2) rows of (low, high)")
    if np.any(bounds[:, 1] <= bounds[:, 0]):
        raise ValueError("each bound must have low < high")
    axes = [np.linspace(lo, hi, resolution) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


@dataclass(frozen=True)
class DensityGrid:
    """Lattice evaluation of a model: raw energy, the un-normalized
    log-density (energy plus base term when the model carries one), and the
    log-density self-normalized through b."""

    points: np.ndarray
    energy: np.ndarray
    unnorm_log_density: np.ndarray
    log_density: np.ndarray


def density_grid(model, b: float, bounds: np.ndarray, resolution: int = 200) -> DensityGrid:
    bounds = np.asarray(bounds, dtype=np.float64)
    if bounds.ndim != 2 or bounds.shape[0] not in (1, 2):
        raise ValueError("grid export supports 1- and 2-dimensional models only")
    points = grid_points(bounds, resolution)
    energy = model.energy(points)
    unnorm = -energy  # -E + log d, the weights' numerator, from the one pass over the lattice
    if model.base is not None:
        unnorm = unnorm + model.base.log_density(points)
    return DensityGrid(
        points=points,
        energy=energy,
        unnorm_log_density=unnorm,
        log_density=unnorm - float(b),
    )


def data_bounds(data: np.ndarray, margin: float = 0.1) -> np.ndarray:
    """Bounding box of the data stretched by a relative margin per side."""
    data = np.asarray(data, dtype=np.float64)
    lo = data.min(axis=0)
    hi = data.max(axis=0)
    pad = margin * np.maximum(hi - lo, 1e-12)
    return np.column_stack([lo - pad, hi + pad])
