"""No module of the package, the tests or the tools imports a name it
never uses.

A name bound by an import counts as used when it is read anywhere in the
module (as a bare name or as the root of an attribute chain) or listed
in `__all__`.  The package's `__init__.py` is left out: its imports are
the package's exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "totaldp"
# Package modules by file name, tests and tools by their path from the root.
MODULES = {p.name: p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
MODULES.update((str(p.relative_to(ROOT)), p)
               for folder in ("tests", "tools") for p in sorted((ROOT / folder).glob("*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import json\nimport os\nos.getcwd()\n") == ["line 1: json"]
    assert unused_imports("from a import b as c, d\nd()\n") == ["line 1: c"]


@pytest.mark.parametrize("path", MODULES.values(), ids=MODULES.keys())
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
