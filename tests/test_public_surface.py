"""The public surface holds only what is used: every name in
``diagramalg.__all__`` is read by the library or the CLI, or is documented
in the README.  Importing the library loads neither the CLI nor the
`verify` suites, and the suites load no CLI code."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import diagramalg

PACKAGE = pathlib.Path(diagramalg.__file__).parent
README = PACKAGE.parents[1] / "README.md"


def _code_names():
    """Every name the package's modules read, as a variable or an
    attribute; docstrings and comments name nothing."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _readme_names():
    """Every identifier inside a backtick span of the README's prose."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    spans = re.findall(r"`([^`]+)`", text)
    return {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}


def test_every_public_name_is_used_or_documented():
    used = _code_names() | _readme_names()
    unused = sorted(set(diagramalg.__all__) - used - {"errors"})
    assert unused == []


def test_the_library_loads_neither_the_cli_nor_the_oracles():
    # a fresh interpreter, so no module another test imported counts
    script = (
        "import sys, diagramalg\n"
        "print(sorted(m for m in sys.modules if m in %r))\n"
        "import diagramalg.oracles\n"
        "print('diagramalg.cli' in sys.modules)\n"
    ) % (("diagramalg.cli", "diagramalg.oracles"),)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\nFalse\n"
