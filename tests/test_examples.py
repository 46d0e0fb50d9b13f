"""The demo scripts and the README's python blocks name only what exists.

No test runs them (a demo takes minutes), so a renamed API would break
them silently. Each is parsed with `ast`, never executed: every
`from toporisk... import <name>` and every attribute chain on a name
bound to a toporisk module (`tr.run_continuation`,
`tr.StiffnessSystem.factorize`) must resolve in the installed package.
"""
import ast
import importlib
import re
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _examples() -> dict:
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "demos").glob("*.py"))}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for k, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        sources[f"README.md-block{k}"] = block
    return sources


EXAMPLES = _examples()


def _package_aliases(tree) -> tuple[dict, list]:
    """Local names bound to toporisk modules, and the imported names that
    do not resolve."""
    aliases, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "toporisk":
                    module = importlib.import_module(alias.name)
                    if alias.asname:
                        aliases[alias.asname] = module
                    else:
                        aliases["toporisk"] = importlib.import_module("toporisk")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "toporisk":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    missing.append(f"{node.module}.{alias.name}")
                elif isinstance(getattr(module, alias.name), ModuleType):
                    aliases[alias.asname or alias.name] = getattr(module, alias.name)
    return aliases, missing


def _resolve(node, aliases, missing):
    """The object an attribute chain rooted at a package alias names, or None."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        owner = _resolve(node.value, aliases, missing)
        if owner is None:
            return None
        if not hasattr(owner, node.attr):
            missing.append(f"{ast.unparse(node.value)}.{node.attr}")
            return None
        return getattr(owner, node.attr)
    return None


def test_every_demo_and_the_readme_example_are_checked():
    assert len([name for name in EXAMPLES if name.endswith(".py")]) == 4
    assert any(name.startswith("README.md") for name in EXAMPLES)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_names_resolve(name):
    tree = ast.parse(EXAMPLES[name], filename=name)
    aliases, missing = _package_aliases(tree)
    assert aliases, f"{name} imports no toporisk module"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            _resolve(node, aliases, missing)
    assert not missing, f"{name} names what the package lacks: {sorted(set(missing))}"
