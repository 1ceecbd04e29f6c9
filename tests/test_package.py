"""Package-level contracts: what importing the library pulls in, and the
library names the benchmark harness in ``perfbench/`` patches or counts."""

import os
import subprocess
import sys
from pathlib import Path

import snl_ebm
from snl_ebm import evaluation, objectives, regression, training


def fresh_import_loads(module: str) -> bool:
    """Whether ``import snl_ebm`` in a new interpreter loads ``module``."""
    src = str(Path(snl_ebm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, snl_ebm; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


def test_import_does_not_load_scipy_optimize():
    assert not fresh_import_loads("scipy.optimize")


def test_import_does_not_load_scipy_linalg():
    # only FittedGaussian needs it, and it imports it when one is built
    assert not fresh_import_loads("scipy.linalg")


def test_benchmark_hook_points_exist():
    # perfbench/spans.py wraps scipy's logsumexp wherever a library module
    # holds it, and these functions and methods by name
    from scipy.special import logsumexp

    holders = [name for name, module in sys.modules.items()
               if name.startswith("snl_ebm.") and any(v is logsumexp for v in vars(module).values())]
    assert holders, "no snl_ebm module holds scipy's logsumexp"
    hooks = {
        objectives: ["estimate_z"],
        training: ["fused_step", "optimizer_step", "train_density", "init_b"],
        regression: ["_regression_step", "adam_step", "train_regression", "eval_regression_l_is"],
        evaluation: ["evaluate"],
    }
    for module, names in hooks.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    for cls in (regression.ConditionalEnergyModel, regression.BilinearConditionalModel):
        assert callable(vars(cls).get("energy_grid_shared")), f"{cls.__name__}.energy_grid_shared"
