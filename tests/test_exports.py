import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import covrank


LIBRARY = ["dgp", "errors", "montecarlo", "sequential", "spectrum", "statistic"]


@pytest.mark.parametrize("module", LIBRARY)
def test_package_exports_every_public_name_of_each_library_module(module):
    mod = importlib.import_module(f"covrank.{module}")
    for name in mod.__all__:
        assert name in covrank.__all__, name
        assert getattr(covrank, name) is getattr(mod, name), name


def test_package_api_is_exactly_the_library_modules_names():
    # Each public name is declared once, in its module's __all__. A name that
    # two modules export would be shadowed by the later star import.
    names = [name for module in LIBRARY
             for name in importlib.import_module(f"covrank.{module}").__all__]
    assert len(names) == len(set(names))
    assert sorted(covrank.__all__) == sorted(names)
    ns = {}
    exec("from covrank import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == sorted(names)


SOURCES = sorted(Path(covrank.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_public_function_calls_itself(path):
    # A public function that retries itself on part of its input must pass
    # every argument again; each layer finds its failures in one pass instead.
    tree = ast.parse(path.read_text())
    public = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            public = set(ast.literal_eval(node.value))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in public:
            calls = [call for call in ast.walk(node) if isinstance(call, ast.Call)
                     and isinstance(call.func, ast.Name) and call.func.id == node.name]
            assert not calls, f"{node.name} calls itself on line {calls[0].lineno}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_only_the_quadrature_engine_evaluates_the_integrand(path):
    # _integrate prepares every term of the integrand (the exact-zero count of
    # the power term included), so a new term reaches each evaluation site.
    tree = ast.parse(path.read_text())
    for node in tree.body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and "_log_f" in (getattr(call.func, "id", None),
                                                          getattr(call.func, "attr", None)):
                assert getattr(node, "name", None) in ("_panels", "_integrate"), (
                    f"_log_f called on line {call.lineno} outside _panels and _integrate")


def test_importing_the_cli_does_no_numerical_work():
    # The quadrature rules are constants: building them with leggauss loaded
    # numpy.polynomial's 9 modules and solved two eigenproblems per launch.
    # numpy.random is imported only when a command draws data.
    src = str(Path(covrank.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, covrank.cli; print(*sorted(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60.0, check=True)
    loaded = done.stdout.split()
    assert "covrank.statistic" in loaded
    assert not [m for m in loaded if m.startswith("numpy.polynomial")]
    assert not [m for m in loaded if m.startswith("numpy.random")]
