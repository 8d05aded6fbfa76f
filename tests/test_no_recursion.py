"""No function of the package calls itself, so whether a call answers
never depends on how deep the caller's stack already is."""

import ast
import pathlib

import diagramalg

PACKAGE = pathlib.Path(diagramalg.__file__).parent


def _self_calls(tree):
    """(line, name) of each call, anywhere in a function's body or in a
    function nested in it, to the function's own name, or to a method's
    own name through self or cls.  In a method a bare name is the module's,
    not the method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, defs)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, defs):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name) and func.id == node.name:
                if id(node) not in methods:
                    found.append((call.lineno, node.name))
            elif (
                isinstance(func, ast.Attribute)
                and func.attr == node.name
                and isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
            ):
                found.append((call.lineno, node.name))
    return sorted(found)


def test_the_check_sees_direct_and_nested_self_calls():
    source = (
        "def f(n):\n    return f(n - 1)\n"
        "def g():\n    def walk(n):\n        return walk(n)\n    return walk(1)\n"
        "def h():\n    return [h() for _ in ()]\n"
        "class C:\n    def m(self):\n        return self.m()\n"
        "class D:\n    def f(self):\n        return f(self)\n"
        "def fine(n):\n    return abs(n)\n"
    )
    assert _self_calls(ast.parse(source)) == [(2, "f"), (5, "walk"), (8, "h"), (11, "m")]


def test_no_function_in_the_package_calls_itself():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.name, line, name) for line, name in _self_calls(tree)]
    assert found == []
