"""Independent benchmark runs, side by side in worker processes.

The two slow benchmark tests make twenty independent (dataset, objective,
seed) runs each. ``run_side_by_side`` runs them in ``min(2, os.cpu_count())``
worker processes. Each worker is a fresh interpreter (the ``spawn`` start
method) started with ``OPENBLAS_NUM_THREADS=1`` in its environment, so numpy
loads there with one BLAS thread, and two CPU-bound workers do not share
each other's CPUs with BLAS threads. The results come back in the order of
the calls. pytest does not collect this file.
"""

from __future__ import annotations

import multiprocessing
import os
import time


def _timed(call):
    fn, args = call
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started


def run_side_by_side(fn, calls: list[tuple]) -> list[tuple]:
    """[(fn(*args), seconds of that run) for args in calls], computed in
    worker processes; ``fn`` must be a module-level function."""
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:  # the workers start here and copy the environment as it is now
        pool = multiprocessing.get_context("spawn").Pool(min(2, os.cpu_count() or 1))
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved
    with pool:
        return pool.map(_timed, [(fn, args) for args in calls], chunksize=1)
