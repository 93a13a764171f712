"""The library builds node matrices and node values from whole node arrays:
no Python loop in any module under src/povmint walks a rule's nodes, with one
exemption. In core.py, ``quantize`` calls its per-node symbol (a scalar
callable by contract) once per node; that symbol loop is allowed as long as
it builds no node matrix (no ``evaluate``, ``phi``, ``unitary`` or
``orbit_density`` inside it). ``quantize_values`` is the array entry point:
it takes the symbol's values on the rule nodes, so it has no exemption, nor
has ``povm_region``, whose indicator takes the node array. ``map`` over rule
nodes counts as a loop."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "povmint"
CORE = SRC / "core.py"
OTHER_MODULES = sorted(set(SRC.glob("*.py")) - {CORE})
RULES = {"rule", "base_rule", "group_rule"}
SYMBOL_LOOPS = {"quantize"}
NODE_BUILDERS = {"evaluate", "phi", "unitary", "orbit_density"}


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _walks_rule_nodes(expr) -> bool:
    """True if ``expr`` reads ``<...>.rule.nodes``, ``.base_rule.nodes`` or
    ``.group_rule.nodes`` (also inside enumerate/zip/slicing)."""
    return any(isinstance(node, ast.Attribute) and node.attr == "nodes"
               and _name(node.value) in RULES for node in ast.walk(expr))


def _loop_iters(node) -> list:
    """What a for loop, comprehension or ``map`` call iterates over."""
    if isinstance(node, ast.For):
        return [node.iter]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        return [gen.iter for gen in node.generators]
    if isinstance(node, ast.Call) and _name(node.func) == "map":
        return node.args[1:]
    return []


def _builds_node_matrices(loop) -> bool:
    return any(_name(node) in NODE_BUILDERS for node in ast.walk(loop))


def node_loops(source: str, symbol_loops=SYMBOL_LOOPS) -> list[int]:
    """Line numbers of loops over rule nodes, outside the functions named in
    ``symbol_loops`` or building node matrices."""
    tree = ast.parse(source)
    owner = {}  # node -> innermost enclosing function name (ast.walk is BFS)
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(ast.walk(func), func.name))
    return [node.lineno for node in ast.walk(tree)
            if any(map(_walks_rule_nodes, _loop_iters(node)))
            and (owner.get(node) not in symbol_loops or _builds_node_matrices(node))]


def test_core_has_no_loop_over_rule_nodes():
    lines = node_loops(CORE.read_text())
    assert not lines, f"core.py loops over rule nodes at lines {lines}"


@pytest.mark.parametrize("path", OTHER_MODULES, ids=lambda path: path.name)
def test_module_has_no_loop_over_rule_nodes(path):
    lines = node_loops(path.read_text(), symbol_loops=set())
    assert not lines, f"{path.name} loops over rule nodes at lines {lines}"


def test_guard_finds_the_modules():
    assert {"halfplane.py", "plane.py", "cli.py"} <= {p.name for p in OTHER_MODULES}


def test_guard_sees_the_loops_it_forbids():
    samples = [  # (source, line of the forbidden loop)
        ("for k, x in enumerate(fam.rule.nodes):\n    pass", 1),
        ("vals = [f(x) for x in fam.rule.nodes]", 1),
        ("s = np.stack([phi(x) for x in self.base_rule.nodes])", 1),
        ("v = sum(g for g in spec.group_rule.nodes[::2])", 1),
        ("for x in rule.nodes:\n    pass", 1),
        ("m = np.stack(list(map(fam.evaluate, fam.rule.nodes)))", 1),
        ("def quantize(fam, f):\n"
         "    return [f(x) * fam.evaluate(x) for x in fam.rule.nodes]", 2),
        ("def povm_region(fam, ind):\n"
         "    return list(map(fam.evaluate, fam.rule.nodes))", 2),
        ("def povm_region(fam, ind):\n"
         "    return list(map(ind, fam.rule.nodes))", 2),
        ("def quantize(fam, f):\n    def inner():\n"
         "        return [f(x) for x in fam.rule.nodes]", 3),
        # the array entry point may not call a symbol per node
        ("def quantize_values(fam, f):\n"
         "    vals = [complex(f(x)) for x in fam.rule.nodes]", 2),
    ]
    for src, line in samples:
        assert node_loops(src) == [line], src
    assert node_loops("m = fam.evaluate(fam.rule.nodes)") == []
    assert node_loops("for i in range(len(fam.rule.weights)):\n    pass") == []
    assert node_loops("def quantize(fam, f):\n"
                      "    vals = [complex(f(x)) for x in fam.rule.nodes]") == []
    # outside core.py no function is exempt
    assert node_loops("def quantize(fam, f):\n"
                      "    vals = [complex(f(x)) for x in fam.rule.nodes]", set()) == [2]
