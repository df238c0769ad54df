"""The top-level namespace exports what the demos and the README example use.

Names are read from the sources with ``ast`` rather than by running them,
so the check is fast and catches a demo that imports a name the package
no longer lists.
"""

import ast
import re
from pathlib import Path

import orientedcp

ROOT = Path(__file__).resolve().parents[1]


def _imported_from_package(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "orientedcp":
            names.update(alias.name for alias in node.names)
    return names


def _readme_python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def test_all_names_resolve_once():
    names = orientedcp.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(orientedcp, name), name


def test_error_types_are_exported():
    assert {"ResourceLimitError", "ScanError"} <= set(orientedcp.__all__)


def test_demo_and_readme_imports_are_listed():
    sources = [p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))]
    blocks = _readme_python_blocks()
    assert blocks, "README has no python example"
    used = set()
    for src in sources + blocks:
        used |= _imported_from_package(src)
    assert used, "no demo imports from orientedcp"
    assert used <= set(orientedcp.__all__), sorted(used - set(orientedcp.__all__))
