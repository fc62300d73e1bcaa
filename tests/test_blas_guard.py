"""BLAS stays off the run-time paths: nothing under src/tailband multiplies
matrices, calls into numpy.linalg or numpy.polynomial, or lets einsum choose
a contraction order.  A BLAS product may split and order its sums by the
shape of the whole batch, so a value computed in a batch could take other
last bits than the same value computed alone; and the first call wakes an
OpenBLAS worker thread that keeps spinning, and burning CPU, after it
returns."""
import ast
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
