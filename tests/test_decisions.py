"""The decisions ledger names every strict xfail that pins a printed form."""

import ast
import re
from pathlib import Path

TESTS = Path(__file__).resolve().parent
LEDGER = TESTS.parent / "DECISIONS.md"


def _is_strict_xfail(decorator) -> bool:
    return (isinstance(decorator, ast.Call)
            and isinstance(decorator.func, ast.Attribute)
            and decorator.func.attr == "xfail"
            and any(kw.arg == "strict" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True for kw in decorator.keywords))


def collect_ids(strict_xfail_only: bool):
    """`tests/<file>::[Class::]test` for every test function, or for every
    strict-xfail one."""
    ids = []
    for path in sorted(TESTS.glob("test_*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(None, tree.body)] + [
            (node.name, node.body) for node in tree.body
            if isinstance(node, ast.ClassDef)]
        for cls, body in scopes:
            for node in body:
                if (isinstance(node, ast.FunctionDef)
                        and node.name.startswith("test_")
                        and (not strict_xfail_only
                             or any(map(_is_strict_xfail, node.decorator_list)))):
                    parts = [f"tests/{path.name}", cls, node.name]
                    ids.append("::".join(p for p in parts if p))
    return ids


def test_every_strict_xfail_has_a_ledger_entry():
    ids = collect_ids(strict_xfail_only=True)
    assert ids, "no strict xfail found; the collector is broken"
    ledger = LEDGER.read_text()
    missing = [i for i in ids if f"`{i}`" not in ledger]
    assert not missing, f"strict xfails without a DECISIONS.md entry: {missing}"


def test_ledger_cites_only_existing_tests():
    cited = set(re.findall(r"`(tests/test_\w+\.py::[\w:]+)`", LEDGER.read_text()))
    assert cited
    stale = sorted(cited - set(collect_ids(strict_xfail_only=False)))
    assert not stale, f"DECISIONS.md cites tests that do not exist: {stale}"
