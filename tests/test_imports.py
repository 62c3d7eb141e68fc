"""Every imported name is used by the module that imports it.

The scan parses each module under ``src/reeslab``, ``tests`` and
``tools``; a name counts as used when it appears anywhere in the module
as a plain name (``np`` in ``np.array`` included).  Re-exports in
``__init__.py`` and lines marked ``# noqa: F401`` are skipped.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src/reeslab", "tests", "tools") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_scan_sees_unused_names_and_skips_marked_lines():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import (\n    gcd,\n    lcm,  # noqa: F401\n)\n"
        "np.zeros(os.sep)\n"
    )
    assert unused_imports(source) == ["line 5: gcd"]


def test_no_module_imports_a_name_it_does_not_use():
    assert len(MODULES) > 20
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in MODULES if p.name != "__init__.py"}
    assert {path: names for path, names in found.items() if names} == {}
