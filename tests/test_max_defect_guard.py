"""Every max-norm defect in the library goes through ``operators.max_defect``:
no module under src/povmint spells out ``np.max(np.abs(...))`` (or
``np.abs(...).max()``) outside that function.  A reduction that passes an
argument ``max_defect`` does not take (``axis=``, ``initial=`` ...) is a
different reduction and is exempt."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "povmint"
MODULES = sorted(SRC.glob("*.py"))
OWNER = "max_defect"


def _is_np(node, attr) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "np")


def _is_abs(node) -> bool:
    return isinstance(node, ast.Call) and _is_np(node.func, "abs")


def _spelled_out(call) -> bool:
    """True for a bare ``np.max(np.abs(x))`` or ``np.abs(x).max()``."""
    if not isinstance(call, ast.Call):
        return False
    if _is_np(call.func, "max") or _is_np(call.func, "amax"):
        return len(call.args) == 1 and not call.keywords and _is_abs(call.args[0])
    return (isinstance(call.func, ast.Attribute) and call.func.attr == "max"
            and _is_abs(call.func.value) and not call.args and not call.keywords)


def spelled_out_defects(source: str) -> list[int]:
    """Line numbers of spelled-out max-norm defects outside ``max_defect``."""
    tree = ast.parse(source)
    owner = {}  # node -> innermost enclosing function name (ast.walk is BFS)
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(ast.walk(func), func.name))
    return [node.lineno for node in ast.walk(tree)
            if _spelled_out(node) and owner.get(node) != OWNER]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_max_defect(path):
    lines = spelled_out_defects(path.read_text())
    assert not lines, f"{path.name} spells out np.max(np.abs(...)) at lines {lines}"


def test_guard_finds_the_owner():
    assert f"def {OWNER}(" in (SRC / "operators.py").read_text()


def test_guard_sees_the_reductions_it_forbids():
    samples = [  # (source, line of the forbidden reduction)
        ("d = float(np.max(np.abs(a - b)))", 1),
        ("if np.max(np.abs(p - p.T)) > tol:\n    pass", 1),
        ("x = 1\nd = np.amax(np.abs(m))", 2),
        ("d = np.abs(a - b).max()", 1),
        ("def other(a, b):\n    return float(np.max(np.abs(a - b)))", 2),
    ]
    for src, line in samples:
        assert spelled_out_defects(src) == [line], src
    allowed = [
        "def max_defect(a, b=0.0):\n    return float(np.max(np.abs(np.subtract(a, b))))",
        "m = np.max(np.abs(x), initial=0.0)",
        "m = np.max(np.abs(x), axis=0)",
        "s, big = terms.sum(axis=0), np.abs(terms).max(axis=0)",
        "d = max_defect(a, b)",
    ]
    for src in allowed:
        assert spelled_out_defects(src) == [], src
