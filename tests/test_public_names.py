"""Every public name the package exports or the README's Python examples
use resolves to an attribute, so deleting a public name cannot leave the
docs or `__all__` pointing at it; and every module-level function or
class of the package has a caller in the package or the benchmarks, or
is exported, so no library function or class is reached only by tests."""

import ast
import re
from pathlib import Path

import pytest

import gradefactor

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "gradefactor"


def readme_names():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    return sorted({name for block in blocks for name in re.findall(r"\bgf\.(\w+)", block)})


def test_readme_python_blocks_use_gf():
    assert readme_names()


@pytest.mark.parametrize("name", readme_names())
def test_readme_name_resolves(name):
    assert hasattr(gradefactor, name)


@pytest.mark.parametrize("name", gradefactor.__all__)
def test_exported_name_resolves(name):
    assert hasattr(gradefactor, name)


def referenced_names(tree):
    """Names a module uses in code: loaded or stored names, attributes and
    imported names.  Strings and docstrings do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_definition_has_a_library_caller():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    used = set(gradefactor.__all__).union(*map(referenced_names, trees.values()))
    defined = [(path.name, node.name)
               for path, tree in trees.items() if path.parent == PACKAGE
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert defined
    assert [f"{module}: {name}" for module, name in defined if name not in used] == []
