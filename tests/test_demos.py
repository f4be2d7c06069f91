"""The demos against the package: no test runs a demo, so a change to a
public name would otherwise reach them unseen."""

import ast
import glob
import importlib
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(REPO_ROOT, "demos", "*.py")))


def _exists(module, name):
    """Whether ``from module import name`` finds ``name``."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule that the package does not import
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_every_name_a_demo_imports_from_s3flow_exists(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "s3flow":
            for alias in node.names:
                assert _exists(node.module, alias.name), (node.module, alias.name)
                imported += 1
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "s3flow":
                    importlib.import_module(alias.name)
                    imported += 1
    assert imported, "the demo imports nothing from s3flow"
