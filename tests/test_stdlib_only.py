"""The runtime imports nothing outside the standard library, ships only
what its entry points reach, imports only names it reads, and exports
only names that something uses."""

import ast
import re
import sys
from pathlib import Path

import superhaar

ROOT = Path(__file__).resolve().parent.parent
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


def test_every_public_name_is_used_or_documented():
    # a public name stays while the package or the tools use it, or the
    # README documents it; its own definition does not count
    texts, spans = [], {}
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        for node in ast.parse(source, str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
                start = node.lineno
            else:
                continue
            spans.update((name, (len(texts), start, node.end_lineno)) for name in defined)
        texts.append(source.splitlines())
    texts += [path.read_text().splitlines() for path in sorted((ROOT / "tools").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text().splitlines())
    unused = []
    for name in superhaar.__all__:
        k, start, end = spans[name]
        rest = [lines for t, lines in enumerate(texts) if t != k]
        rest.append(texts[k][:start - 1] + texts[k][end:])
        if not any(re.search(rf"\b{name}\b", line) for lines in rest for line in lines):
            unused.append(name)
    assert unused == []


def test_every_imported_name_is_used():
    # an import that nothing in its module reads is dead code, even while
    # another module or a tool reaches the name through it
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert unused == []


def test_only_linalg_reads_its_private_names():
    # the other modules eliminate through linalg's public functions
    found = []
    for path in SOURCES:
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.attr] if node.value.id == "linalg" else []
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} linalg.{name}"
                      for name in names if name.startswith("_")]
    assert found == []
