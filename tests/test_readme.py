"""The README's library quick start runs as written, the module names
it documents exist, and so do the private helpers the docstrings cite."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import epsnet

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})


def test_readme_module_names_resolve():
    # A constant or function deleted from the code must not stay
    # documented: every backticked `module.NAME` whose module is an
    # epsnet submodule has to resolve.
    text = README.read_text(encoding="utf-8")
    modules = {m.name for m in pkgutil.iter_modules(epsnet.__path__)}
    cited = set(re.findall(r"`(\w+)\.(\w+)", text))
    cited = {(mod, name) for mod, name in cited if mod in modules}
    assert cited, "the README cites no module names"
    missing = [f"{mod}.{name}" for mod, name in sorted(cited)
               if not hasattr(importlib.import_module(f"epsnet.{mod}"), name)]
    assert not missing, missing


def test_docstring_helper_names_resolve():
    # A private helper deleted or renamed must not stay cited: every bare
    # _name in a module, class or function docstring of an epsnet module
    # has to exist in that module. A dotted one (core._add) is not bare.
    missing = []
    for mod in ["epsnet"] + [f"epsnet.{m.name}"
                             for m in pkgutil.iter_modules(epsnet.__path__)]:
        module = importlib.import_module(mod)
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            for name in re.findall(r"(?<![\w.])_[A-Za-z]\w*",
                                   ast.get_docstring(node) or ""):
                if not hasattr(module, name):
                    missing.append(f"{mod}: {name}")
    assert not missing, sorted(set(missing))
