"""The README's library quick start runs as written, and the module
names it documents exist."""

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
