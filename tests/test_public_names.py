"""Every public name the package exports or the README's Python examples
use resolves to an attribute, so deleting a public name cannot leave the
docs or `__all__` pointing at it."""

import re
from pathlib import Path

import pytest

import gradefactor

README = Path(__file__).resolve().parents[1] / "README.md"


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
