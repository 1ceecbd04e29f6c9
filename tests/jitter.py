"""How far rounding-size perturbations move the regression benchmark cells.

Reruns cells of ``test_regression_benchmark_levels_and_snl_nce_ordering``
(five seeds each, the test's spec, data and evaluation) under K jitter
streams. In every run each training step's gradient is multiplied by
1 + eps * N(0, 1), coordinate by coordinate, with eps = 1e-7 by default. The
normals come from a numpy generator seeded by (stream, cell, seed), apart
from ``PortableRng``, so the data, the initial weights and the proposal
draws keep their streams. The script wraps ``regression._regression_step``
from outside the package; ``src/`` is not changed.

    PYTHONPATH=src python tests/jitter.py --streams 4
    PYTHONPATH=src python tests/jitter.py --cells regression2-snl,regression2-nce --streams 6

It prints each run's test ``l_is``, then, over the streams: each seed's
min, max and std, each cell's mean (min, max and std of the five-seed mean),
and the fraction of streams in which each of the test's checks passes (a
check is left out when one of its cells was not run). A change that moves a
result quotes its per-seed moves next to these numbers: a move inside a
seed's min..max is one that rounding alone can make. Each stream costs
about 6 s per cell and seed on a 2-CPU host. pytest does not collect this
file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from snl_ebm import regression  # noqa: E402
from test_acceptance import _regression_benchmark_run  # noqa: E402

CELLS = {  # the benchmark test's cells: name -> (dataset, objective, proposal kind)
    "regression1-snl": ("regression1", "snl", "mdn"),
    "regression1-nce": ("regression1", "nce", "mdn"),
    "regression2-snl": ("regression2", "snl", "fitted"),
    "regression2-nce": ("regression2", "nce", "fitted"),
}
SEEDS = range(5)
CHECKS = {  # the benchmark test's checks on the five-seed means
    "regression1 snl mean in [0.15, 0.35]": (("regression1-snl",), lambda m: 0.15 <= m[0] <= 0.35),
    "regression1 snl beats nce": (("regression1-snl", "regression1-nce"), lambda m: m[0] > m[1]),
    "regression2 snl beats nce": (("regression2-snl", "regression2-nce"), lambda m: m[0] > m[1]),
}


def jittered(step, normals: np.random.Generator, eps: float):
    """``step`` with its ascent gradient multiplied by 1 + eps * N(0, 1)."""
    def wrapped(*args, **kwargs):
        value, grad, diag = step(*args, **kwargs)
        return value, grad * (1.0 + eps * normals.standard_normal(grad.shape)), diag
    return wrapped


def run_cell(cell: str, seed: int, stream: int, eps: float) -> float:
    """Test ``l_is`` of one benchmark run under jitter stream ``stream``."""
    step = regression._regression_step
    normals = np.random.default_rng([stream, list(CELLS).index(cell), seed])
    regression._regression_step = jittered(step, normals, eps)
    try:
        return _regression_benchmark_run(*CELLS[cell], seed).l_is
    finally:
        regression._regression_step = step


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", default=",".join(CELLS), help="comma-separated cells (default: all four)")
    parser.add_argument("--streams", type=int, default=4, help="jitter streams K")
    parser.add_argument("--eps", type=float, default=1e-7, help="relative size of the jitter")
    args = parser.parse_args(argv)
    cells = args.cells.split(",")
    unknown = [c for c in cells if c not in CELLS]
    if unknown or args.streams < 1:
        parser.error(f"unknown cells {unknown}" if unknown else "--streams must be at least 1")

    values = {}  # cell -> (streams, seeds)
    for cell in cells:
        values[cell] = np.empty((args.streams, len(SEEDS)))
        for stream in range(args.streams):
            for seed in SEEDS:
                values[cell][stream, seed] = run_cell(cell, seed, stream, args.eps)
            print(f"{cell} stream {stream}: per-seed {np.round(values[cell][stream], 4).tolist()} "
                  f"mean {values[cell][stream].mean():.4f}", flush=True)

    print(f"\neps {args.eps:g}, {args.streams} streams")
    for cell in cells:
        v = values[cell]
        for seed in SEEDS:
            print(f"{cell} seed {seed}: min {v[:, seed].min():.4f} max {v[:, seed].max():.4f} "
                  f"std {v[:, seed].std(ddof=1) if args.streams > 1 else 0.0:.4f}")
        means = v.mean(axis=1)
        print(f"{cell} mean: min {means.min():.4f} max {means.max():.4f} "
              f"std {means.std(ddof=1) if args.streams > 1 else 0.0:.4f}")
    for check, (needs, passes) in CHECKS.items():
        if all(c in values for c in needs):
            passed = sum(passes([values[c][s].mean() for c in needs]) for s in range(args.streams))
            print(f"check {check}: passes in {passed}/{args.streams} streams")


if __name__ == "__main__":
    main()
