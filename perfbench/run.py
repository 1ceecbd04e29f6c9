"""Benchmark of SNL density training, conditional training and 20k-draw evaluation.

    python3 perfbench/run.py --workload density-snl --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

With ``--workload`` it runs one workload in this process and prints, as the
last line of standard output, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from a traced run with ``--trace 1``.
Without ``--workload`` it runs every workload untraced and then traced, each
in its own process (so peak memory is per workload), and prints all metrics
and the tracing overhead. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5


# BLAS gets one thread per CPU this process may run on, and no more; the
# setting has to be in place before numpy loads the library.
CPUS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(CPUS)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload to run in this process; all when omitted")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (inputs are made from it)")
    parser.add_argument("--seconds", type=float, default=20.0, help="target length of the measured run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    return parser.parse_args(argv)


IMPORT_TIMER = """
import sys, time
sys.path.insert(0, sys.argv[1])
started = time.perf_counter()
import numpy, snl_ebm
from snl_ebm import cli, evaluation, regression, training
print(time.perf_counter() - started)
"""


def import_library() -> None:
    """Import the library from this checkout's src/."""
    if not (SRC / "snl_ebm" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'snl_ebm'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import snl_ebm

    if Path(snl_ebm.__file__).resolve().parent != SRC / "snl_ebm":
        sys.exit(f"error: imported snl_ebm from {snl_ebm.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Median seconds to import the library, each time in a fresh interpreter
    (a module is imported only once per process). The first import is a
    warm-up and is not counted: it ran up to 50 % slower than the rest."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        child = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                               stdout=subprocess.PIPE, text=True, check=True, timeout=120)
        times.append(float(child.stdout))
    return statistics.median(times[1:])


def machine_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpus": CPUS,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": CPUS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    if name not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {name!r}; choose from {', '.join(workloads.WORKLOADS)}")
    setup, run = workloads.WORKLOADS[name]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        state = setup(seed)
        setup_times.append(time.perf_counter() - started)
    import_s = 0.0 if trace else import_seconds()  # setup_s is an untraced metric

    outcome = workloads.Outcome()
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    started = time.perf_counter()
    try:
        run(state, seconds, outcome)
    finally:
        run_s = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()

    for line in outcome.lines:
        print(line)
    for key, values in outcome.figures.items():
        print(f"figure {key}: " + ", ".join(f"{v:.6g}" for v in values))

    if trace:
        metrics = layer_metrics(tracer, outcome, run_s, workloads.dense_layer_ms())
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{name}-seed{seed}.csv")
    else:
        metrics = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "iter_ms": (1e3 * statistics.median(outcome.iter_s), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(tracer, outcome, run_s: float, dense: dict) -> dict:
    spans = tracer.summary()

    def get(name, key="self_s"):
        return spans.get(name, {}).get(key, 0)

    metrics = {
        "nets.forward_s": (get("nets.forward"), "s"),
        "nets.backward_s": (get("nets.backward"), "s"),
        "nets.forward_calls": (get("nets.forward", "calls"), "count"),
        "nets.backward_calls": (get("nets.backward", "calls"), "count"),
        "nets.forward_rows": (get("nets.forward", "count"), "count"),
        "nets.theta_s": (get("nets.theta"), "s"),
    }
    metrics.update({k: (v, "ms") for k, v in dense.items()})
    metrics.update({
        "rng.s": (sum(row["self_s"] for name, row in spans.items() if name.startswith("rng.")), "s"),
        "rng.words": (get("rng.uint64", "count"), "count"),
        "proposals.sample_s": (get("proposals.sample"), "s"),
        "proposals.mdn_fit_s": (get("proposals.mdn_fit"), "s"),
        "objectives.logsumexp_s": (get("objectives.logsumexp"), "s"),
        "objectives.logsumexp_calls": (get("objectives.logsumexp", "calls"), "count"),
        "objectives.estimate_z_s": (get("objectives.estimate_z"), "s"),
        "optim.adam_s": (get("optim.adam"), "s"),
        "optim.adam_calls": (get("optim.adam", "calls"), "count"),
        "training.step_self_s": (get("training.step"), "s"),
        "training.loop_self_s": (get("training.loop"), "s"),
        "training.skipped_steps": (outcome.skipped_steps, "count"),
        "regression.step_self_s": (get("regression.step"), "s"),
        "regression.loop_self_s": (get("regression.loop"), "s"),
        "regression.eval_self_s": (get("regression.eval"), "s"),
        "regression.eval_peak_mb": (tracer.peaks_mb.get("regression.eval", 0.0), "MB"),
        "models.grid_s": (get("models.grid"), "s"),
        "models.grid_cells": (get("models.grid", "count"), "count"),
        "evaluation.evaluate_s": (get("evaluation.evaluate"), "s"),
        "evaluation.evaluate_peak_mb": (tracer.peaks_mb.get("evaluation.evaluate", 0.0), "MB"),
        "trace.run_s": (run_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return metrics


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a child process."""
    import workloads

    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(trace)]
            print(f"== {name} trace={trace}", flush=True)
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if child.returncode != 0 or not lines:
                print(f"error: {name} trace={trace} exited with {child.returncode}", file=sys.stderr)
                status = 1
                continue
            results[name, trace] = result = json.loads(lines[-1])
            if not result["correct"]:
                status = 1

    print("== summary")
    for (name, trace), result in results.items():
        print(f"{name} trace={trace}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} {entry['value']:.6g} {entry['unit']}")
    for name in workloads.WORKLOADS:
        if (name, 0) in results and (name, 1) in results:
            plain = results[name, 0]["metrics"]["run_s"]["value"]
            traced = results[name, 1]["metrics"]["trace.run_s"]["value"]
            print(f"tracing overhead {name}: {traced - plain:.3f} s ({100 * (traced / plain - 1):.1f} %)")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    print("machine " + json.dumps(machine_record(), sort_keys=True), flush=True)
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}", flush=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
