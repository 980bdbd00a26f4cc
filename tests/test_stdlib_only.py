"""The runtime imports nothing outside the standard library, and ships
only what its entry points reach."""

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


def package_imports(path: Path) -> set[str]:
    """The modules of the package that the source at ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "superhaar" if node.level else node.module or ""
            if node.level and node.module:
                base += "." + node.module
            # `from . import linalg` names modules; `from .algebra import X`
            # names attributes of one
            dotted = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "superhaar" and len(parts) == 2:
                found.add(parts[1])
    return found


def test_every_module_is_reachable_from_the_entry_points():
    modules = {path.stem: path for path in SOURCES}
    seen, todo = set(), ["__init__", "cli"]
    while todo:
        name = todo.pop()
        if name in seen or name not in modules:
            continue
        seen.add(name)
        todo.extend(package_imports(modules[name]))
    assert sorted(set(modules) - seen) == []


def test_every_name_in_all_is_defined():
    names = superhaar.__all__
    assert [n for n in names if not hasattr(superhaar, n)] == []
    assert len(set(names)) == len(names)
