"""Package-level contracts: what importing the library pulls in, the
library names the benchmark harness in ``perfbench/`` patches or counts, and
that the package holds no code only the tests reach."""

import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import snl_ebm
from snl_ebm import nets


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


def _harness_names(tree: ast.AST) -> set[str]:
    """The library names a harness file reads: ``snl_ebm.<m>.<n>`` for each
    ``from snl_ebm.<m> import <n>``, and ``snl_ebm.<m>`` for each ``from
    snl_ebm import <m>`` with ``snl_ebm.<m>.<n>`` for each ``<m>.<n>`` and
    each call ``f(<m>, "<n>", ...)`` in the file (``CallCounter(training,
    "optimizer_step")``)."""
    modules, out = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "snl_ebm":
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("snl_ebm."):
            out.update(f"{node.module}.{alias.name}" for alias in node.names)
    out.update(f"snl_ebm.{m}" for m in modules)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            out.add(f"snl_ebm.{node.value.id}.{node.attr}")
        elif (isinstance(node, ast.Call) and len(node.args) >= 2 and isinstance(node.args[0], ast.Name)
              and node.args[0].id in modules and isinstance(node.args[1], ast.Constant)):
            out.add(f"snl_ebm.{node.args[0].id}.{node.args[1].value}")
    return out


def _resolves(dotted: str) -> bool:
    owner, _, name = dotted.rpartition(".")
    try:
        return hasattr(importlib.import_module(owner), name) or importlib.util.find_spec(dotted) is not None
    except ImportError:
        return False


def test_benchmark_harness_hooks_resolve():
    # perfbench/spans.py wraps library functions wherever a library module
    # holds them (scipy's logsumexp among them) and methods in their class's
    # own ``vars``; a hook it cannot find raises in ``install``
    harness = Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_spans", harness / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert isinstance(vars(nets.Mlp).get("theta"), property), "Mlp.theta"
    # and every library name the harness imports or reads off a library module exists
    for path in sorted(harness.glob("*.py")):
        missing = sorted(name for name in _harness_names(ast.parse(path.read_text())) if not _resolves(name))
        assert not missing, f"perfbench/{path.name} reads names the library lacks: {missing}"


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
