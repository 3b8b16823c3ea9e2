import ast
from pathlib import Path

import proxydet


def test_all_lists_each_public_name_once():
    namespace: dict = {}
    exec("from proxydet import *", namespace)  # raises on a stale entry
    assert set(proxydet.__all__) <= namespace.keys()
    assert [name for name in proxydet.__all__ if not hasattr(proxydet, name)] == []
    assert len(set(proxydet.__all__)) == len(proxydet.__all__)


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads (``from __future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_check_flags_a_stale_import():
    assert _unused_imports("import os\nimport sys\nfrom a import b as c\nsys.exit(0)\n") == [
        "line 1: os",
        "line 3: c",
    ]


def test_no_module_imports_a_name_it_never_uses():
    package, tests = Path(proxydet.__file__).parent, Path(__file__).parent
    stale = {
        f"{path.parent.name}/{path.name}": found
        for path in sorted([*package.glob("*.py"), *tests.glob("*.py")])
        if path.name != "__init__.py" and (found := _unused_imports(path.read_text()))
    }
    assert stale == {}


def _private_definitions(source: str) -> list[str]:
    """Module-level functions and classes whose names start with one underscore."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


def _referenced_names(source: str) -> set[str]:
    """Every name a module reads, as a bare name, an attribute or an imported name."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_orphan_check_flags_an_unreferenced_private_function():
    source = "def _used():\n    pass\n\n\ndef _orphan():\n    pass\n\n\nclass _Kept:\n    pass\n\n\n_used()\n"
    assert _private_definitions(source) == ["_used", "_orphan", "_Kept"]
    assert {"_used", "_Kept"} - _referenced_names(source + "_Kept\n") == set()
    assert "_orphan" not in _referenced_names(source)


def test_every_private_function_and_class_is_referenced():
    package, tests = Path(proxydet.__file__).parent, Path(__file__).parent
    sources = {path: path.read_text() for path in [*package.glob("*.py"), *tests.glob("*.py")]}
    referenced = set().union(*map(_referenced_names, sources.values()))
    orphans = {
        f"{path.parent.name}/{path.name}": unused
        for path in sorted(package.glob("*.py"))
        if (unused := [name for name in _private_definitions(sources[path]) if name not in referenced])
    }
    assert orphans == {}
