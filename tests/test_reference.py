"""The Fraction references and the supermatrix realizations read the library
only through public names, so that no test compares the library with its
own private code."""

import ast
from pathlib import Path

HERE = Path(__file__).resolve().parent


def private_names(source: str) -> list[str]:
    """The private ``superhaar`` names that ``source`` imports, and the
    private attributes (one leading underscore, not a dunder) that it
    reads, sorted."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("superhaar"):
            dotted = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            dotted = [f".{node.attr}"]
        else:
            continue
        found += [name for name in dotted
                  if name.startswith(("superhaar", "."))
                  and any(private(part) for part in name.split(".") if part)]
    return sorted(found)


def test_reference_reads_no_private_library_name():
    assert private_names((HERE / "reference.py").read_text()) == []


def test_realizations_read_no_private_library_name():
    assert private_names((HERE / "realizations.py").read_text()) == []


def test_the_scan_finds_private_imports_and_reads():
    source = "\n".join([
        "import superhaar._kernel",
        "import random._inst",
        "from superhaar.enveloping import UEElement, _rewrite",
        "from superhaar import linalg",
        "linalg._eliminate(rows)",
        "alg._int_scale + alg.dim",
        "type(alg).__name__",
    ])
    assert private_names(source) == [
        "._eliminate", "._int_scale", "superhaar._kernel", "superhaar.enveloping._rewrite"]
