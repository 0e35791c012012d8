"""Import layering of the package modules, read from their source with ast.

The file formats live in ``formats``, so nothing but the ``python -m
kscertify`` entry point needs the command-line module, and loading a ray set
never pulls in argparse.
"""

from __future__ import annotations

import ast
from pathlib import Path

import kscertify

PACKAGE = Path(kscertify.__file__).resolve().parent


def _imports(path: Path) -> set[str]:
    """Absolute names of the modules, and of the names imported from them,
    that one module of the package imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = ".".join(filter(None, ("kscertify", base)))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


IMPORTS = {path.name: _imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_only_the_cli_imports_argparse():
    assert [name for name, imports in IMPORTS.items() if "argparse" in imports] == ["cli.py"]


def test_only_the_entry_point_imports_the_cli():
    importers = [name for name, imports in IMPORTS.items() if "kscertify.cli" in imports]
    assert importers == ["__main__.py"]
