"""Import hygiene of the package: every imported name is used or exported.

There is no linter among the package's dependencies, so this reads each
module's syntax tree: a name bound by an import statement must appear as
a name in the module, or in its ``__all__``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "conformal_lab"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_every_package_import_is_used():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {k: v for k, v in unused.items() if v} == {}


def test_an_unused_import_is_caught():
    source = ("from . import fields as F\nimport csv, json\n"
              "__all__ = ['F']\njson.dumps(1)\n")
    assert unused_imports(source) == ["csv"]
