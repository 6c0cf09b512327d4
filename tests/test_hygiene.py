"""Source hygiene checks that need no linter: the standard library's ast, and
one import check in a fresh interpreter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import switchdet

MODULES = sorted(Path(switchdet.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def einsum_uses(source: str) -> list[int]:
    """Lines that name ``einsum``: a call, an attribute or an import of it."""
    return sorted({
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == "einsum")
        or (isinstance(node, ast.Name) and node.id == "einsum")
        or (isinstance(node, ast.ImportFrom) and any(a.name == "einsum" for a in node.names))
    })


# np.einsum does not reproduce np.dot and np.matmul bit for bit, and a stack
# of models must equal each model trained alone.
@pytest.mark.parametrize("name", ["scorer.py", "losses.py", "trainer.py"])
def test_numerics_never_use_einsum(name):
    path = Path(switchdet.__file__).parent / name
    assert einsum_uses(path.read_text(encoding="utf-8")) == []


def test_check_sees_einsum():
    source = (
        "import numpy as np\nfrom numpy import einsum as e\n"
        "x = np.einsum('ij,j->i', a, b)\nf = np.einsum\ny = np.dot(a, b)\n"
    )
    assert einsum_uses(source) == [2, 3, 4]


def loaded_names(tree: ast.AST) -> set[str]:
    """Every name and attribute that the tree loads."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_names`` and class ``_methods`` that no source loads.

    ``sources`` maps module names to their text; dunder names are exempt.
    """
    defined, loaded = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        loaded |= loaded_names(tree)
        scopes = [(module, n) for n in tree.body] + [
            (f"{module}.{c.name}", n)
            for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body
        ]
        for scope, node in scopes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.endswith("__"):
                    defined[f"{scope}.{name}"] = (name, node.lineno)
    return [f"{key} (line {line})" for key, (name, line) in sorted(defined.items())
            if name not in loaded]


def test_every_private_name_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced_private_names(sources) == []


def test_check_sees_unreferenced_private_names():
    sources = {
        "a": (
            "_USED = 1\n_LEFT: int = 2\n"
            "def _helper():\n    return _USED\n"
            "class C:\n    def __init__(self):\n        self._called()\n"
            "    def _called(self):\n        pass\n"
            "    def _orphan(self):\n        pass\n"
        ),
        "b": "from a import _helper\n_helper()\n",
    }
    assert unreferenced_private_names(sources) == [
        "a.C._orphan (line 10)", "a._LEFT (line 2)",
    ]


def unexported_unused_public_names(sources: dict[str, str], exported) -> list[str]:
    """Module-level public functions and classes that no source loads and
    ``exported`` does not list: code that nothing in the package runs.

    ``sources`` maps module names to their text.
    """
    defined, loaded = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        loaded |= loaded_names(tree)
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[f"{module}.{node.name}"] = (node.name, node.lineno)
    return [f"{key} (line {line})" for key, (name, line) in sorted(defined.items())
            if name not in loaded and name not in exported]


def test_every_public_name_is_used_or_exported():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    assert unexported_unused_public_names(sources, switchdet.__all__) == []


def test_check_sees_unexported_unused_public_names():
    sources = {
        "a": (
            "def used():\n    pass\ndef exported():\n    pass\n"
            "def orphan():\n    pass\nclass Orphan:\n    def method(self):\n        pass\n"
            "def _private():\n    pass\nLIMIT = 3\n"
        ),
        "b": "import a\na.used()\n",
    }
    assert unexported_unused_public_names(sources, ["exported"]) == [
        "a.Orphan (line 7)", "a.orphan (line 5)",
    ]


def test_check_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport os.path\nfrom json import dumps, loads\n"
        "__all__ = ['loads']\nprint(os.sep)\n"
    )
    assert unused_imports(source) == ["dumps (line 4)", "np (line 2)"]


def per_step_calls(source: str, function: str) -> tuple[int, int]:
    """Call expressions in the per-step loop of ``function``: the one ``for``
    statement at the top of its body.  Returns (calls made on every step,
    calls in all), the first leaving out the bodies of ``if`` statements."""
    func = next(node for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name == function)
    (loop,) = [node for node in func.body if isinstance(node, ast.For)]

    def calls(nodes, skip_if):
        count = 0
        for node in nodes:
            if skip_if and isinstance(node, ast.If):
                continue
            count += isinstance(node, ast.Call)
            count += calls(ast.iter_child_nodes(node), skip_if)
        return count

    return calls(loop.body, True), calls(loop.body, False)


# Per-frame call budget of the recurrent cell, as (calls on every frame,
# calls in all): each numpy call costs about half a microsecond of dispatch
# on rows of H = 32, which is most of a frame's time.  The forward's two
# calls under an `if` are the per-block matvecs taken only when 4 does not
# divide H.  The budget is pinned: raise it only with a measurement that the
# new call pays, and lower it when a call goes.
PER_STEP_CALL_BUDGET = {"forward_sequence": (10, 12), "backward_sequence": (8, 8)}


@pytest.mark.parametrize("function", sorted(PER_STEP_CALL_BUDGET))
def test_per_step_call_budget(function):
    source = (Path(switchdet.__file__).parent / "scorer.py").read_text(encoding="utf-8")
    calls = per_step_calls(source, function)
    assert calls == PER_STEP_CALL_BUDGET[function], (
        f"per-frame call budget: the per-step loop of scorer.{function} makes "
        f"{calls} calls (every step, in all), not its budget of "
        f"{PER_STEP_CALL_BUDGET[function]}"
    )


def test_check_counts_per_step_calls():
    source = (
        "def f(xs, split):\n    a = np.zeros(3)\n"
        "    for x in zip(xs, g(xs)):\n        np.add(x, a, a)\n"
        "        if split:\n            np.dot(x, a)\n        h(k(x))\n    return a\n"
    )
    assert per_step_calls(source, "f") == (3, 4)


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize alone costs a process about 48 MB and half a second.
    code = "import sys, switchdet.cli; print('scipy.optimize' in sys.modules)"
    src = str(Path(switchdet.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_multiprocessing_unloaded():
    # The sweep pool imports it when a sweep runs: about 2 MB for every other process.
    code = "import sys, switchdet.cli; print('multiprocessing' in sys.modules)"
    src = str(Path(switchdet.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_property_test_fails_as_a_test(tmp_path):
    # A failing @given test makes hypothesis import libcst, whose warnings
    # the session's filterwarnings must not turn into an INTERNALERROR.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    config = Path(__file__).parents[1] / "pyproject.toml"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout
