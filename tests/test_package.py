"""Package-level contracts: what importing the library pulls in, the
library names the benchmark harness in ``perfbench/`` patches or counts, and
that the package holds no code only the tests reach."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import snl_ebm
from snl_ebm import evaluation, nets, objectives, optim, proposals, regression, rng, training


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


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.sparse", "scipy.integrate"])
def test_import_does_not_load_scipy_subpackage(module):
    # scipy.special, for objectives, is the one scipy subpackage the import needs
    assert not fresh_import_loads(module)


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
    # spans.py patches these in their class's own ``vars``: an inherited one is a KeyError there
    methods = {
        nets.Mlp: ["forward", "backward"],
        rng.PortableRng: ["uint64", "uniform", "normal", "integers", "permutation"],
        proposals.StandardGaussian: ["sample", "log_density"],
        proposals.FittedGaussian: ["sample", "log_density"],
        proposals.MdnProposal: ["sample", "log_density", "loglik_gradient"],
    }
    for cls, names in methods.items():
        for name in names:
            assert callable(vars(cls).get(name)), f"{cls.__name__}.{name}"
    assert isinstance(vars(nets.Mlp).get("theta"), property), "Mlp.theta"
    # and it wraps these wherever a library module holds them
    for fn in (proposals.sample_and_score, optim.adam_step):
        assert any(fn in vars(module).values() for name, module in sys.modules.items()
                   if name.startswith("snl_ebm.")), fn.__qualname__


def test_models_does_not_import_the_trainers_or_the_cli():
    # models.py holds the density models and oracles; the conditional family,
    # the training loops, evaluation and the CLI build on it, not it on them
    tree = ast.parse(Path(snl_ebm.__file__).with_name("models.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add(node.module.split(".")[-1])
            imported.update(alias.name for alias in node.names)
    assert not imported & {"regression", "training", "evaluation", "cli"}


def _names(tree: ast.AST) -> Counter:
    """How often each name appears in ``tree`` as a Name, an Attribute or an import alias."""
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return Counter(getattr(node, fields[type(node)]).split(".")[-1] for node in ast.walk(tree) if type(node) in fields)


def test_every_module_level_definition_is_used_outside_the_tests():
    """Each module-level class and function of the package (``__init__.py``
    aside) is named in the package outside its own definition, or in the
    benchmark harness ``perfbench/``: code that only the tests reach belongs
    in ``tests/reference.py``. ``__init__.py``'s re-exports do not count as a
    use. Methods are out of scope, since the oracles keep closed forms, such
    as ``exact_log_z``, that only the tests call."""
    modules = [p for p in sorted(Path(snl_ebm.__file__).parent.glob("*.py")) if p.name != "__init__.py"]
    trees = {path.stem: ast.parse(path.read_text()) for path in modules}
    harness = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    assert harness, "perfbench/ not found next to tests/"
    used = sum((_names(tree) for tree in trees.values()), Counter())
    used += sum((_names(ast.parse(path.read_text())) for path in harness), Counter())
    unused = [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.ClassDef, ast.FunctionDef))
              and used[node.name] <= _names(node)[node.name]]
    assert not unused, f"reached only from the tests: {unused}"
