"""The committed tables of the scripts in ``tools/`` against the code they name."""

import ast
import importlib.util
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(path):
    with open(os.path.join(REPO_ROOT, path)) as fh:
        return fh.read()


def test_every_mutant_row_names_live_code_and_tests():
    # a change that deletes or rewrites a line the table mutates, or a test
    # it names, learns of the stale row here rather than in a run of
    # tools/mutants.py, which takes minutes
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(REPO_ROOT, "tools", "mutants.py"))
    mutants = sys.modules["mutants"] = importlib.util.module_from_spec(spec)  # for its dataclass
    spec.loader.exec_module(mutants)
    functions = {}
    for m in mutants.MUTANTS:
        assert _read(m.path).count(m.original) == 1, m.name
        for test in m.tests:
            path, name = test.split("::")
            if path not in functions:
                functions[path] = {node.name for node in ast.parse(_read(path)).body
                                   if isinstance(node, ast.FunctionDef)}
            assert name.split("[")[0] in functions[path], (m.name, test)
