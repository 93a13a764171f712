"""Every top-level function and class in src/povmint, and every method and
property of a top-level class, has a caller in the library or the benchmark,
or is exported: code that only tests call belongs in tests/ (tests/oracles.py
holds the reference oracles).

A name counts as reached when an `ast.Name` or `ast.Attribute` spells it in
another module under src/povmint, in its own module outside its own
definition, or in any perfbench/*.py, or when `povmint.__all__` lists it.
Each name reached by none of these is listed in ALLOWED with its reason."""

import ast
from pathlib import Path

import povmint

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "povmint").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

ALLOWED = {
    "plane.plane_prob_series": "printed= variant: the n/n' cross-term weight "
                               "(DECISIONS.md), kept with its strict xfail",
    "plane.plane_hs_closed": "printed= variant: the squared purity term "
                             "(DECISIONS.md), kept with its strict xfail",
    "plane.oscillator_expected": "claimed by ROADMAP item 6 (an s-ordered "
                                 "oscillator row)",
    "plane.ThermalParams.truncation_deficit": "the thermal tail t^dim that ROADMAP aim 4 "
                                              "asks the plane report to show",
    "finite.ProbTable.to_json": "the writer of the format that ProbTable.from_json "
                                "reads (povmint reconstruct TABLE)",
}


def _spelled(tree, skip=None):
    """Names spelled as an ast.Name or ast.Attribute in tree, outside skip."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _definitions(tree):
    """(qualified name, node) of each top-level def or class and of each method
    or property of a top-level class, dunders skipped."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{m.name}", m) for m in node.body
                    if isinstance(m, ast.FunctionDef)]
    return [(qual, node) for qual, node in out
            if not (node.name.startswith("__") and node.name.endswith("__"))]


def unreached():
    """`module.name` of each definition in _definitions that nothing outside
    its own definition reaches."""
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in SRC + BENCH}
    spelled = {path: _spelled(tree) for path, tree in trees.items()}
    out = []
    for path in SRC:
        elsewhere = set(povmint.__all__).union(
            *(names for other, names in spelled.items() if other != path))
        for qual, node in _definitions(trees[path]):
            if (node.name not in elsewhere
                    and node.name not in _spelled(trees[path], skip=node)):
                out.append(f"{path.stem}.{qual}")
    return out


def test_every_unreached_definition_is_allowed():
    names = unreached()
    extra = [name for name in names if name not in ALLOWED]
    assert not extra, (f"unreached top-level definitions: {names}; move each of {extra} "
                       "to tests/oracles.py, delete it, or list it in ALLOWED")


def test_allowed_entries_are_current():
    defined = {f"{path.stem}.{qual}" for path in SRC
               for qual, _ in _definitions(ast.parse(path.read_text()))}
    missing = sorted(set(ALLOWED) - defined)
    assert not missing, f"ALLOWED names definitions that no longer exist: {missing}"
    reached = sorted(set(ALLOWED) - set(unreached()))
    assert not reached, f"ALLOWED names definitions that are now reached: {reached}"
