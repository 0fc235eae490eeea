"""Static checks: every name a tpjc module or a test file imports is used
in that file, every name the package exports is read by the program, and
no function but the coherent build and its guard takes a tolerance override."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tpjc"
# __init__ imports names only to export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# test_acceptance.py is kept byte for byte as the acceptance criteria were
# written, and it imports math and mandel_q_coherent_predict without reading them
TESTS = sorted(p for p in (ROOT / "tests").glob("*.py") if p.name != "test_acceptance.py")
# The program's own readers of the package surface: the other modules, the
# benchmark harness and the acceptance suite. A unit test reading a name
# does not keep it exported.
READERS = [
    *MODULES,
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read, except on ``# noqa: F401`` lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import sys\n"
        "from math import pi, tau  # noqa: F401\n"
        "sys.exit()\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def read_names(source: str) -> set[str]:
    """Names a module reads: loaded names, attribute names, and string
    constants (the benchmark names the functions it traces as strings)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unread_exports(init_source: str, reader_sources: list[str]) -> list[str]:
    """Names ``__init__`` imports that no reader reads."""
    read = set().union(*map(read_names, reader_sources))
    return [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init_source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if (alias.asname or alias.name) not in read
    ]


def test_unread_exports_are_found():
    init = "from .a import called, attr, traced, stored, unread\n"
    readers = [
        "from .a import unread\ncalled()\n",
        "import tpjc\ntpjc.attr\nLAYERS = [('tpjc.a', 'traced')]\n",
        "stored = 1\n",
    ]
    assert unread_exports(init, readers) == ["stored", "unread"]


def test_every_export_has_a_program_reader():
    readers = [path.read_text() for path in READERS]
    assert unread_exports((SRC / "__init__.py").read_text(), readers) == []


# Every guard on the run path gates at DEFAULT_TOL. make_coherent keeps its
# tol for library callers (the benchmark harness passes one), and the guard
# it calls takes it on.
TOL_OVERRIDES = {"fock.make_coherent", "fock._check_edge"}


def tol_parameters(module: str, source: str) -> list[str]:
    """``module.function`` for each function in ``source`` with a ``tol`` parameter."""
    return sorted(
        f"{module}.{node.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        if arg.arg == "tol"
    )


def test_tol_parameters_are_found():
    source = (
        "def plain(x, tolerance=None):\n"
        "    def inner(tol): pass\n"
        "def keyword(x, *, tol=None): pass\n"
        "class A:\n"
        "    def method(self, tol, /): pass\n"
    )
    assert tol_parameters("mod", source) == ["mod.inner", "mod.keyword", "mod.method"]


def test_no_run_path_function_takes_a_tolerance():
    found = [name for path in MODULES for name in tol_parameters(path.stem, path.read_text())]
    assert [name for name in found if name not in TOL_OVERRIDES] == []
