"""Static checks: every name a tpjc module or a test file imports is used
in that file, the package imports nothing but numpy and the standard
library, every name the package exports is read by the program, no
function but the coherent build and its guard takes a tolerance override,
run_protocol leaves how rho is stored and which pass kernel runs to the
kernels' entry point, and sg owns the ladder truncation decision."""

import ast
import sys
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


# The runtime depends on numpy alone (pyproject.toml); scipy may be installed
# where the tests run, so only this check sees a module reach for it.
RUNTIME_MODULES = {"numpy", *sys.stdlib_module_names}


def foreign_imports(source: str) -> list[str]:
    """Modules ``source`` imports that are not relative, numpy or the standard library's."""
    modules = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.append(node.module)
    return [name for name in modules if name.split(".")[0] not in RUNTIME_MODULES]


def test_foreign_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import math, scipy.linalg\n"
        "import numpy as np\n"
        "from . import fock\n"
        "from .sg import Mode\n"
        "from numpy.lib import stride_tricks\n"
        "from scipy import sparse\n"
        "def f():\n"
        "    import numba\n"
    )
    assert foreign_imports(source) == ["scipy.linalg", "scipy", "numba"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text()) == []


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


# How the pass kernels store rho: the band kernel's block size and range, their
# C and S and the kernel order both are read in, the real-path choice and the
# padding of their base vector, the kernels
# themselves, the photon-number chain that gives the distribution and the stay
# count that picks a kernel, and that count's cap.
# run_protocol hands _passes psi0, p and lo.
KERNEL_STORAGE = {
    "BAND_BLOCK",
    "_band_range",
    "_pass_diagonals",
    "_has_phase_ramp",
    "_kernel_order",
    "pad",
    "_band_passes",
    "_branch_passes",
    "_stay_cap",
    "_photon_chain",
}


def body_reads(source: str, function: str) -> set[str]:
    """Names and attributes the body of the top-level ``function`` in ``source`` reads."""
    node = next(n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == function)
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for stmt in node.body
        for sub in ast.walk(stmt)
        if isinstance(sub, ast.Attribute) or isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def test_body_reads_are_found():
    source = (
        "def run(v, lo):\n"
        '    """Not BAND_BLOCK."""\n'
        "    base = np.pad(v, lo)\n"
        "    return kernel(base, BAND_BLOCK)\n"
        "def kernel(v, width):\n"
        "    return _pass_diagonals(width)\n"
    )
    assert body_reads(source, "run") == {"np", "pad", "v", "lo", "kernel", "base", "BAND_BLOCK"}


def test_run_protocol_leaves_storage_to_the_band_kernel():
    assert body_reads((SRC / "dynamics.py").read_text(), "run_protocol") & KERNEL_STORAGE == set()


def parameters(source: str, function: str) -> set[str]:
    """The parameter names of the top-level ``function`` in ``source``."""
    node = next(n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef) and n.name == function)
    return {arg.arg for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)}


def test_parameters_are_found():
    source = "def f(v, /, m, *rows, mode=None, **rest):\n    return mode\n"
    assert parameters(source, "f") == {"v", "m", "mode"}


# The pass machinery decides the direction once: _passes reads the window in
# kernel order and _pass_diagonals builds C and S in it, so the band range, both
# kernels and the photon-number chain run one direction for both modes.
DIRECTION_FREE = ["_band_range", "_band_passes", "_branch_passes", "_photon_chain"]


@pytest.mark.parametrize("function", DIRECTION_FREE)
def test_kernels_and_the_chain_read_no_direction(function):
    source = (SRC / "dynamics.py").read_text()
    assert "mode" not in parameters(source, function)
    assert body_reads(source, function) & {"mode", "Mode", "ADD", "SUBTRACT"} == set()


def imported_names(source: str) -> set[str]:
    """Names ``source`` imports from modules."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def calls_to(source: str, name: str) -> list[ast.Call]:
    """Calls of the bare name ``name`` in ``source``, raised or not."""
    return [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name
    ]


def raises_of(source: str, name: str) -> int:
    """How many ``raise name(...)`` statements ``source`` holds."""
    raised = [node.exc for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)]
    return sum(isinstance(e, ast.Call) and isinstance(e.func, ast.Name) and e.func.id == name for e in raised)


def top_edge_checks(source: str) -> int:
    """_check_edge calls whose f-string label names the top 2m amplitudes."""
    labels = [call.args[1] for call in calls_to(source, "_check_edge") if len(call.args) > 1]
    return sum(
        isinstance(label, ast.JoinedStr)
        and any(isinstance(v, ast.Constant) and "largest of the top" in v.value for v in label.values)
        for label in labels
    )


def test_calls_and_raises_are_counted_across_lines():
    source = (
        "def f(m):\n"
        "    _check_edge(\n        top,\n        f'largest of the top {2 * m} amplitudes', 'x'\n    )\n"
        "    _check_edge(bottom, 'largest of the top levels', 'x')\n"
        "    error = AllMassRemoved('built, not raised')\n"
        "    raise AllMassRemoved(\n        'msg'\n    )\n"
    )
    assert len(calls_to(source, "_check_edge")) == 2
    assert top_edge_checks(source) == 1
    assert len(calls_to(source, "AllMassRemoved")) == 2
    assert raises_of(source, "AllMassRemoved") == 1


def test_sg_owns_the_ladder_truncation_decision():
    # one guard per direction, in sg._ladder_guard; run_protocol reads S_0 .. S_m
    # from sg._truncation_decision and builds no ladder state
    sg = (SRC / "sg.py").read_text()
    assert raises_of(sg, "AllMassRemoved") == 1
    assert top_edge_checks(sg) == 1
    builders = {"ideal_state", "add_photons_ideal", "subtract_photons_ideal", "low_component_mass"}
    assert imported_names((SRC / "dynamics.py").read_text()) & builders == set()
