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
