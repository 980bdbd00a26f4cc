"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import superhaar

SOURCES = sorted(Path(superhaar.__file__).parent.glob("*.py"))


def test_runtime_imports_only_the_standard_library():
    assert SOURCES
    foreign = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "superhaar" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno} imports {name}")
    assert not foreign, foreign
