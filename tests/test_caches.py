"""One memo rule: every cache of the package is declared through
``diagrams._memo``, which records it, so ``clear_caches()`` empties them all
and gives back what they held."""

import ast
import gc
import importlib
import pathlib
import tracemalloc

import diagramalg
from diagramalg import clear_caches, diagrams

PACKAGE = pathlib.Path(diagramalg.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py"))


def _cache_references(tree, memo):
    """The line of each reference to functools' cache or lru_cache (an
    import of either from functools, functools.cache, the name lru_cache
    or any attribute of that name) outside the body of the function named
    memo (None: everywhere)."""
    allowed = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == memo
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            bad = any(a.name in ("cache", "lru_cache", "*") for a in node.names)
        elif isinstance(node, ast.Attribute):
            bad = node.attr == "lru_cache" or (
                node.attr == "cache"
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            )
        else:
            bad = isinstance(node, ast.Name) and node.id == "lru_cache"
        if bad:
            found.append(node.lineno)
    return sorted(found)


def _memo_sites(tree):
    """The number of functions decorated by a call of _memo, as _memo(...)
    or as an attribute, diagrams._memo(...)."""
    return sum(
        isinstance(d, ast.Call)
        and (
            isinstance(d.func, ast.Name) and d.func.id == "_memo"
            or isinstance(d.func, ast.Attribute) and d.func.attr == "_memo"
        )
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for d in node.decorator_list
    )


def _trees():
    for name in MODULES:
        path = PACKAGE / (name + ".py")
        yield name, ast.parse(path.read_text(encoding="utf-8"))


def test_the_check_sees_every_spelling_of_a_functools_cache():
    source = (
        "from functools import cache\n"
        "from functools import partial, lru_cache\n"
        "import functools\n"
        "f = functools.lru_cache(maxsize=1)(abs)\n"
        "g = functools.cache(abs)\n"
        "h = lru_cache\n"
        "def _memo(bound=None):\n"
        "    from functools import lru_cache\n"
        "    return functools.lru_cache(maxsize=bound)\n"
        "cache = {}\n"
        "partial = functools.partial\n"
        "k = __import__('functools').lru_cache\n"
        "self.cache = None\n"
    )
    assert _cache_references(ast.parse(source), "_memo") == [1, 2, 4, 5, 6, 12]
    assert _cache_references(ast.parse(source), None) == [1, 2, 4, 5, 6, 8, 9, 12]
    sites = "@_memo()\ndef f(): pass\n@diagrams._memo(1)\ndef g(): pass\n"
    assert _memo_sites(ast.parse(sites + "@_memo\ndef h(): pass\n")) == 2


def test_no_module_of_the_package_caches_outside_memo():
    found = []
    for name, tree in _trees():
        # only diagrams._memo may name lru_cache
        memo = "_memo" if name == "diagrams" else None
        found += [(name, line) for line in _cache_references(tree, memo)]
    assert found == []


def test_every_memo_site_is_recorded_and_reachable_by_name():
    # importing cli records its parser's cache too
    modules = [
        importlib.import_module(("diagramalg." + name).removesuffix(".__init__"))
        for name in MODULES
    ]
    sites = sum(_memo_sites(tree) for _, tree in _trees())
    assert sites == len(diagrams._CACHES) > 0
    # a checked entry carries its cache's own cache_info and cache_clear
    reachable = {
        id(value.cache_info.__self__)
        for module in modules
        for value in vars(module).values()
        if hasattr(value, "cache_info") and hasattr(value, "cache_clear")
    }
    assert all(id(cached) in reachable for cached in diagrams._CACHES)


def _library_work():
    d = diagrams.family_generators(diagrams.PARTITION, 5)[0]
    diagramalg.character_table("partition", 12)
    diagramalg.rep_columns(d, diagrams.PARTITION, 5, (2, 1), "Tableau")
    diagramalg.enumerate_sspt("Brauer", 6, (2,))
    diagramalg.enumerate_symmetric("TemperleyLieb", 9, 3)


def test_clear_caches_gives_back_what_the_caches_hold():
    clear_caches()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        _library_work()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
        clear_caches()
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert all(c.cache_info().currsize == 0 for c in diagrams._CACHES)
    assert held > 1 << 20
    assert left <= 0.05 * held, (held, left)
