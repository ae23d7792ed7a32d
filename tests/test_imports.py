"""Every name a module of the package imports is read in that module.

The package's ``__init__`` imports names to export them, so it is not
checked.  Two imports are kept unread on purpose: the benchmark's tracer
patches the name in the importing module's namespace.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "magschro"
PATCHED = {("criteria.py", "completeness_probe"), ("suites.py", "random_connected_graph")}


def _unread_imports(tree) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in _unread_imports(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, name) not in PATCHED:
                unread.append(f"{path.name}:{line}: {name}")
    assert unread == []


def test_the_check_sees_an_unread_import():
    tree = ast.parse("import os.path\nimport json as j\nfrom math import pi, tau\nprint(tau)\n")
    assert _unread_imports(tree) == [(1, "os"), (2, "j"), (3, "pi")]
