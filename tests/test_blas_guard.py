"""BLAS stays off the run-time paths: nothing under src/tailband multiplies
matrices, calls into numpy.linalg or numpy.polynomial, or lets einsum choose
a contraction order.  A BLAS product may split and order its sums by the
shape of the whole batch, so a value computed in a batch could take other
last bits than the same value computed alone.  Because nothing calls BLAS,
the package starts OpenBLAS with no worker pool (OPENBLAS_NUM_THREADS=1
unless the caller set it), so no worker thread spins, and burns CPU, in a
tailband process."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tailband"
PRODUCTS = {"matmul", "dot", "vdot", "inner", "tensordot"}
MODULES = {"linalg", "polynomial"}


def _blas_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of each use of a BLAS product, module or optimized einsum."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in PRODUCTS | MODULES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            names = set((node.module or "").split(".")) | {alias.name for alias in node.names}
            found += [(node.lineno, name) for name in sorted(names & (PRODUCTS | MODULES))]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                found += [(node.lineno, name) for name in sorted(set(alias.name.split(".")) & MODULES)]
        elif isinstance(node, ast.Call) and any(kw.arg == "optimize" for kw in node.keywords):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            if name == "einsum":
                found.append((node.lineno, "einsum(optimize=...)"))
    return found


def test_no_blas_under_src():
    uses = [
        f"{path.name}:{line} {what}"
        for path in sorted(SRC.glob("*.py"))
        for line, what in _blas_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    ]
    assert not uses, "BLAS on a run-time path: " + ", ".join(uses)


@pytest.mark.parametrize(
    "code",
    [
        "c = a @ b",
        "a @= b",
        "np.matmul(a, b)",
        "a.dot(b)",
        "np.vdot(a, b)",
        "np.inner(a, b)",
        "np.tensordot(a, b)",
        "np.linalg.solve(a, b)",
        "np.polynomial.legendre.leggauss(8)",
        "from numpy import dot",
        "from numpy.linalg import eigh",
        "import numpy.polynomial",
        "np.einsum('ij,j->i', a, b, optimize=True)",
        "einsum('ij,j->i', a, b, optimize=False)",
    ],
)
def test_guard_sees_each_form(code):
    assert _blas_uses(ast.parse(code))


@pytest.mark.parametrize("code", ["np.einsum('ij,j->i', a, b)", "inner = np.exp(x)", "a * b"])
def test_guard_passes_plain_code(code):
    assert not _blas_uses(ast.parse(code))


def _fresh_import(code: str, **env) -> tuple[str | None, int | None]:
    """OPENBLAS_NUM_THREADS and the thread count (None without /proc) of a
    fresh interpreter that runs `code` with the given extra environment."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = str(SRC.parent)
    script = (
        code + "\nimport json, os\n"
        "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))"
    )
    out = subprocess.run([sys.executable, "-c", script], env={**base, **env}, capture_output=True,
                         text=True, check=True, timeout=60)
    variable, tasks = json.loads(out.stdout)
    return variable, tasks


def test_import_starts_no_blas_pool():
    variable, tasks = _fresh_import("import tailband")
    assert variable == "1"
    if tasks is None or os.cpu_count() == 1:
        pytest.skip("thread count needs /proc and more than one CPU")
    assert tasks == 1


def test_import_keeps_the_callers_blas_setting():
    assert _fresh_import("import tailband", OPENBLAS_NUM_THREADS="2")[0] == "2"
    # numpy loaded first has read the environment already: nothing is set
    assert _fresh_import("import numpy, tailband")[0] is None
