import ast
import importlib
from pathlib import Path

import pytest

import covrank


@pytest.mark.parametrize("module", ["dgp", "montecarlo", "sequential", "spectrum", "statistic"])
def test_package_exports_every_public_name_of_each_library_module(module):
    mod = importlib.import_module(f"covrank.{module}")
    for name in mod.__all__:
        assert name in covrank.__all__, name
        assert getattr(covrank, name) is getattr(mod, name), name


@pytest.mark.parametrize("path", sorted(Path(covrank.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
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
