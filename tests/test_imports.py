"""No module in src/ or scripts/ imports a name it never uses; nothing else
lints this repository, so a deletion that strands an import fails here."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py")])


def _unused_imports(path: Path) -> list[str]:
    """Names ``path`` binds by an import and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []


def test_an_unused_import_is_found(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\nimport os, re as regex\n"
                      "import numpy.linalg\nfrom json import dumps, loads\n"
                      "print(os.sep, numpy.linalg, loads)\n")
    assert _unused_imports(module) == ["dumps", "regex"]
