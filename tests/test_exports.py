"""Every exported name exists, and the package exports exactly what it re-exports.

A deletion that leaves its name in an ``__all__`` breaks ``from ionpulse import *``
only at that import; these tests catch it where the name is left.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ionpulse

MODULES = sorted(info.name for info in pkgutil.iter_modules(ionpulse.__path__, "ionpulse."))


@pytest.mark.parametrize("name", ["ionpulse", *MODULES])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_exactly_its_reexports():
    tree = ast.parse(Path(ionpulse.__file__).read_text(encoding="utf-8"))
    reexported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert set(ionpulse.__all__) == reexported | {"__version__"}
