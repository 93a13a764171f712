"""No function or property under src/povmint keeps a cache between calls:
no ``functools.cache``, ``lru_cache`` or ``cached_property`` decorator, in any
spelling (``@functools.cache``, ``@lru_cache(maxsize=None)`` ...).  A cache
makes the first call of a process pay what every later call skips, so a
benchmark that repeats a call times a hit that one CLI run never gets.  Each
cache that stays is listed in ALLOWED with its reason."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "povmint"
CACHES = {"cache", "lru_cache", "cached_property"}

ALLOWED: dict[str, str] = {}


def _decorator_name(node) -> str | None:
    """The name a decorator spells: ``cache`` for ``@functools.cache``,
    ``lru_cache`` for ``@lru_cache(maxsize=None)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def cached(source: str, module: str) -> list[str]:
    """`module.qualname` of each function or method in source decorated with a cache."""
    out, stack = [], [(node, module) for node in ast.parse(source).body]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qual = f"{prefix}.{node.name}"
            if any(_decorator_name(d) in CACHES for d in node.decorator_list):
                out.append(qual)
            stack.extend((child, qual) for child in node.body)
    return sorted(out)


def all_cached() -> list[str]:
    return sorted(name for path in sorted(SRC.glob("*.py"))
                  for name in cached(path.read_text(), path.stem))


def test_every_cache_is_allowed():
    extra = [name for name in all_cached() if name not in ALLOWED]
    assert not extra, (f"caches kept between calls: {extra}; build the value on "
                       "each call, or list it in ALLOWED with its reason")


def test_allowed_entries_are_current():
    stale = sorted(set(ALLOWED) - set(all_cached()))
    assert not stale, f"ALLOWED names caches that no longer exist: {stale}"


def test_guard_sees_every_spelling():
    src = ("import functools\nfrom functools import cache, lru_cache, cached_property\n"
           "@functools.cache\ndef a(): pass\n"
           "@functools.lru_cache(maxsize=None)\ndef b(): pass\n"
           "@lru_cache\ndef c(): pass\n"
           "@cache\ndef d(): pass\n"
           "class E:\n    @functools.cached_property\n    def f(self): pass\n"
           "    @cached_property\n    def g(self): pass\n"
           "    @property\n    def h(self): pass\n"
           "@staticmethod\ndef i(): pass\n"
           "def j():\n    @cache\n    def k(): pass\n")
    assert cached(src, "m") == ["m.E.f", "m.E.g", "m.a", "m.b", "m.c", "m.d", "m.j.k"]
