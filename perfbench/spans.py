"""In-memory span tracing of the snl_ebm library, applied from outside.

``Tracer.install()`` wraps the public functions and methods of each library
module (and the regression step, which has no public entry point) so that
every call records one span: name, parent span, start, end and an optional
work count (rows, draws, grid cells). Nothing under ``src/`` is edited; the
wrappers replace module attributes at every import site and class
attributes on the defining class, and ``uninstall()`` puts the originals
back. Spans stay in memory until ``dump`` writes them out.

Self time of a span is its duration minus the durations of its direct
children; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

import numpy as np


def _rows(args, kwargs, result):
    return np.shape(args[1])[0]


def _words(args, kwargs, result):
    return int(args[1])


def _cells(args, kwargs, result):
    return int(np.size(result))


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        # each span: [name, parent index, start, end, count]
        self.spans: list[list] = []
        self.peaks_mb: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, count=None, peak=False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            spans.append(span)
            stack.append(index)
            # tracemalloc slows every allocation, so only the first call is measured
            measure = peak and name not in tracer.peaks_mb
            if measure:
                tracemalloc.start()
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                if measure:
                    tracer.peaks_mb[name] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def patch_function(self, original, name, count=None, peak=False):
        """Replace ``original`` wherever a library module holds it."""
        wrapped = self.wrap(name, original, count, peak)
        found = False
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "snl_ebm" and not mod_name.startswith("snl_ebm."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped)
                    found = True
        if not found:
            raise LookupError(f"{name}: no library module imports {original!r}")

    def patch_method(self, cls, attr, name, count=None, peak=False):
        original = vars(cls)[attr]
        self._restore.append((cls, attr, original))
        if isinstance(original, property):
            wrapped = property(self.wrap(name, original.fget), self.wrap(name, original.fset))
        else:
            wrapped = self.wrap(name, original, count, peak)
        setattr(cls, attr, wrapped)

    def install(self):
        from scipy.special import logsumexp

        from snl_ebm import evaluation, nets, objectives, optim, proposals, regression, rng, training

        self.patch_method(nets.Mlp, "forward", "nets.forward", count=_rows)
        self.patch_method(nets.Mlp, "backward", "nets.backward")
        self.patch_method(nets.Mlp, "theta", "nets.theta")
        self.patch_method(rng.PortableRng, "uint64", "rng.uint64", count=_words)
        for attr in ("uniform", "normal", "integers", "permutation"):
            self.patch_method(rng.PortableRng, attr, f"rng.{attr}")
        self.patch_function(proposals.sample_and_score, "proposals.sample")
        for cls in (proposals.StandardGaussian, proposals.FittedGaussian, proposals.MdnProposal):
            self.patch_method(cls, "sample", "proposals.sample")
            self.patch_method(cls, "log_density", "proposals.sample")
        self.patch_method(proposals.MdnProposal, "loglik_gradient", "proposals.mdn_fit")
        self.patch_function(logsumexp, "objectives.logsumexp")
        self.patch_function(objectives.estimate_z, "objectives.estimate_z")
        self.patch_function(optim.adam_step, "optim.adam")
        self.patch_function(training.fused_step, "training.step")
        self.patch_function(training.train_density, "training.loop")
        self.patch_function(regression._regression_step, "regression.step")
        self.patch_function(regression.train_regression, "regression.loop")
        self.patch_function(regression.eval_regression_l_is, "regression.eval", peak=True)
        for cls in (regression.ConditionalEnergyModel, regression.BilinearConditionalModel):
            self.patch_method(cls, "energy_grid_shared", "models.grid", count=_cells)
        self.patch_function(evaluation.evaluate, "evaluation.evaluate", peak=True)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds and summed work count."""
        if not self.spans:
            return {}
        parent = np.array([s[1] for s in self.spans])
        duration = np.array([s[3] - s[2] for s in self.spans])
        child = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, duration - child):
            row = out.setdefault(span[0], {"calls": 0, "self_s": 0.0, "count": 0})
            row["calls"] += 1
            row["self_s"] += float(own)
            row["count"] += span[4]
        return out

    def dump(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,start_s,end_s,count\n")
            for i, (name, parent, start, end, count) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{start - t0:.9f},{end - t0:.9f},{count}\n")
