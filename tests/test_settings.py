"""Every setting has a caller: each defaulted parameter of a function or
method under src/povmint is passed, by keyword or by position, by at least
one call in src/, tests/ or perfbench/. Calls are matched to definitions by
function name alone, so a call of any function with the same name counts; a
call with ``*args`` passes every position and one with ``**kwargs`` every
keyword. A call that forwards its own function's unpassed parameter, with
the same default, passes nothing. A default that no call overrides is a
constant and belongs inline.

Settings read out of a ``**`` parameter have no default this audit can see,
so a ``**`` parameter under src/povmint may only be forwarded whole, once,
to one call."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "povmint"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]


def _name(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    return getattr(node, "id", None)


def _defaulted(func, is_method: bool):
    """(parameter, call position or None, default source) for each defaulted
    parameter; keyword-only parameters have no position, and a method's
    position skips self."""
    args = func.args
    positional = args.posonlyargs + args.args
    skip = 1 if is_method and positional and positional[0].arg in ("self", "cls") else 0
    first = len(positional) - len(args.defaults)
    out = [(arg.arg, i - skip, ast.dump(default)) for i, (arg, default)
           in enumerate(zip(positional[first:], args.defaults), first)]
    out += [(arg.arg, None, ast.dump(default))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None]
    return out


def definitions(sources) -> list[tuple[str, str, int | None, str]]:
    """(function, parameter, call position, default source) of every
    defaulted parameter in the given module sources."""
    found = []
    for source in sources:
        tree = ast.parse(source)
        methods = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(node.name, *entry)
                          for entry in _defaulted(node, id(node) in methods)]
    return found


def calls(sources) -> dict[str, list[tuple]]:
    """Function name -> (positional args, keyword args, has *args, has
    **kwargs) of every call to it in the given sources. Each argument is
    recorded as the ``function(parameter)`` and default source it forwards
    when it is a bare defaulted parameter of the enclosing function, else
    None."""
    out: dict[str, list] = {}
    for source in sources:
        tree = ast.parse(source)
        owner = {}  # node -> innermost enclosing function (ast.walk is BFS)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(func), func))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _name(node.func)):
                continue
            func = owner.get(node)
            own = {p: d for p, _, d in _defaulted(func, False)} if func else {}

            def forwards(value):
                if isinstance(value, ast.Name) and value.id in own:
                    return f"{func.name}({value.id})", own[value.id]
                return None

            out.setdefault(_name(node.func), []).append((
                [forwards(a) for a in node.args],
                {kw.arg: forwards(kw.value) for kw in node.keywords if kw.arg},
                any(isinstance(a, ast.Starred) for a in node.args),
                any(kw.arg is None for kw in node.keywords)))
    return out


def unpassed(def_sources, call_sources) -> list[str]:
    """``function(parameter)`` for each defaulted parameter no call passes.
    Forwarding another parameter that no call passes, with the same default,
    does not count."""
    seen = calls(call_sources)
    missing: list[str] = []
    while True:
        found = []
        for func, param, pos, default in definitions(def_sources):
            dead = {(name, default) for name in missing}
            if not any(double or (param in kws and kws[param] not in dead)
                       or (pos is not None and (starred or (
                           len(args) > pos and args[pos] not in dead)))
                       for args, kws, starred, double in seen.get(func, [])):
                found.append(f"{func}({param})")
        if found == missing:
            return missing
        missing = found


def unforwarded(sources) -> list[str]:
    """``function(**name)`` for each ``**`` parameter that its function's
    body does anything with other than pass whole to exactly one call."""
    found = []
    for source in sources:
        for func in ast.walk(ast.parse(source)):
            if not (isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and func.args.kwarg):
                continue
            name = func.args.kwarg.arg
            uses = [node for node in ast.walk(func)
                    if isinstance(node, ast.Name) and node.id == name]
            forwarded = [kw.value for node in ast.walk(func) if isinstance(node, ast.Call)
                         for kw in node.keywords if kw.arg is None]
            if len(uses) != 1 or uses[0] not in forwarded:
                found.append(f"{func.name}(**{name})")
    return found


def _sources(paths):
    return [p.read_text() for p in paths]


def test_every_defaulted_parameter_has_a_caller():
    callers = [p for d in CALLERS for p in sorted(d.rglob("*.py"))]
    missing = unpassed(_sources(sorted(SRC.glob("*.py"))), _sources(callers))
    assert not missing, f"defaulted parameters no call passes: {missing}"


def test_guard_finds_the_sources():
    assert {"core.py", "numerics.py", "halfplane.py"} <= {p.name for p in SRC.glob("*.py")}
    assert definitions(_sources(SRC.glob("*.py"))), "no defaulted parameter found"


def test_guard_sees_the_settings_it_forbids():
    define = ("def f(a, b=1, *, c=2):\n    pass\n"
              "class K:\n    def m(self, x=0):\n        pass\n")
    assert unpassed([define], []) == ["f(b)", "f(c)", "m(x)"]
    assert unpassed([define], ["f(1, 2)\nf(0, c=3)\nk.m(4)"]) == []
    # one position short, or a keyword-only parameter given by position
    assert unpassed([define], ["f(1)\nf(1, 2, 3)\nk.m()"]) == ["f(c)", "m(x)"]
    # a call of another name does not count
    assert unpassed([define], ["g(1, 2, c=3)\nk.n(4)"]) == ["f(b)", "f(c)", "m(x)"]
    # *args passes every position, **kwargs every keyword
    assert unpassed([define], ["f(*args)\nk.m(**opts)"]) == ["f(c)"]
    # forwarding a parameter that nothing passes passes only its default
    forward = ("def g(a, n=None, tol=1e-3):\n    return h(a, n, tol=tol)\n"
               "def h(a, n=None, tol=1e-10):\n    pass\n")
    assert unpassed([forward], [forward, "g(1)"]) == ["g(n)", "g(tol)", "h(n)"]
    assert unpassed([forward], [forward, "g(1, 2)\ng(1, tol=0.1)"]) == []
    # nested functions are audited too
    assert unpassed(["def outer():\n    def inner(y=1):\n        pass\n"],
                    ["outer()"]) == ["inner(y)"]


def test_double_star_parameters_only_forward():
    hidden = unforwarded(_sources(sorted(SRC.glob("*.py"))))
    assert not hidden, f"** parameters that do more than forward whole: {hidden}"


def test_guard_sees_hidden_settings():
    assert unforwarded(["def f(*a, **kw):\n    return g(*a, **kw)\n"
                        "class K:\n    def m(self, **kw):\n        self.g(x=1, **kw)\n"]) == []
    # a keyword read out of the parameter is a setting with a hidden default
    hidden = "def make(kind, n, **params):\n    return params.get('scale', 1.0)\n"
    assert unforwarded([hidden]) == ["make(**params)"]
    # forwarded twice, merged into a new dict, or never used
    assert unforwarded(["def f(**kw):\n    g(**kw)\n    h(**kw)\n",
                        "def f(**kw):\n    g(**{**kw, 'a': 1})\n",
                        "def f(**kw):\n    g(kw)\n",
                        "def f(**kw):\n    pass\n"]) == ["f(**kw)"] * 4
