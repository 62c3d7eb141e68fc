"""Every imported name is used, and every definition of the package is called.

The first scan parses each module under ``src/reeslab``, ``tests`` and
``tools``; a name counts as used when it appears anywhere in the module
as a plain name (``np`` in ``np.array`` included).  Re-exports in
``__init__.py`` and lines marked ``# noqa: F401`` are skipped.

The second scan keeps the package to what its commands, the benchmark and
the tools call.  Every module-level function and class of ``src/reeslab``
must be reached: named, as an AST ``Name`` or ``Attribute``, from
``perfbench``, ``tools``, the module-level statements of the package, or
the body of a definition that is itself reached.  The ``cmd_*`` functions
of ``cli`` are reached through ``main``'s dispatch.  References from
``tests`` and the re-exports of ``__init__.py`` do not count, so a name
that only the tests call is listed.

The third scan does the same for the methods of the package's classes.
A method counts as reached only when its name appears as an AST
``Attribute`` in ``src/reeslab``, ``perfbench`` or ``tools``; dunder
methods, which Python calls by protocol, are skipped.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src/reeslab", "tests", "tools") for p in (ROOT / d).rglob("*.py"))
PACKAGE = ROOT / "src" / "reeslab"


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


def _imports(tree: ast.AST, package: str, members: set[str]) -> tuple[dict, dict]:
    """The modules of `package` (named `members`) that `tree` imports
    whole, by alias, and the names it imports from them, by alias, as
    (module, name)."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").removeprefix(package).lstrip(".")
            for alias in node.names:
                if source in members:
                    names[alias.asname or alias.name] = (source, alias.name)
                elif not source and alias.name in members:
                    modules[alias.asname or alias.name] = alias.name
    return modules, names


def references(node: ast.AST, module: str | None, imports: tuple[dict, dict]) -> set[tuple[str, str]]:
    """The (module, name) pairs of the package that `node` names: a plain
    name imported from a package module or, inside the package module
    `module`, any other plain name; or an attribute of a package module
    imported whole (``toric.generates_up_to``)."""
    modules, names = imports
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            if sub.id in names:
                found.add(names[sub.id])
            elif module is not None:
                found.add((module, sub.id))
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) and sub.value.id in modules:
            found.add((modules[sub.value.id], sub.attr))
    return found


def unreached(package_dir: Path, callers: list[Path]) -> list[str]:
    """The module-level functions and classes of the package in
    `package_dir` that neither a caller nor reached code of the package
    names, as ``module.name``, module by module in order of definition."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package_dir.glob("*.py")) if p.name != "__init__.py"}
    members = set(trees)
    named = set()
    for path in callers:
        tree = ast.parse(path.read_text())
        named |= references(tree, None, _imports(tree, package_dir.name, members))
    imports = {module: _imports(tree, package_dir.name, members) for module, tree in trees.items()}
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(module, node.name)] = node
            else:
                named |= references(node, module, imports[module])
    named |= {key for key in defs if key[0] == "cli" and key[1].startswith("cmd_")}
    while True:
        reached = named & set(defs)
        grown = named.union(*(references(defs[key], key[0], imports[key[0]]) - {key} for key in reached))
        if grown == named:
            return [f"{m}.{n}" for m, n in defs if (m, n) not in reached]
        named = grown


def test_the_reach_scan_sees_what_only_tests_call(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .core import dead, helper\n")
    (pkg / "core.py").write_text(
        "def helper():\n    return helper\n\n"  # naming itself does not reach it
        "def dead():\n    return helper()\n\n"  # called by unreached code only
        "class Used:\n    pass\n\n"
        "def called():\n    return Used()\n"
    )
    (pkg / "cli.py").write_text("from . import core\n\ndef cmd_run(args):\n    return core.called()\n")
    caller = tmp_path / "tool.py"
    caller.write_text("from pkg import core\n")
    assert unreached(pkg, [caller]) == ["core.helper", "core.dead"]
    caller.write_text("from pkg.core import dead\n\ndead()\n")
    assert unreached(pkg, [caller]) == []


def test_every_definition_of_the_package_is_reached_without_the_tests():
    callers = sorted(p for d in ("perfbench", "tools") for p in (ROOT / d).rglob("*.py"))
    assert len(callers) >= 8
    assert unreached(PACKAGE, callers) == []


def unreached_methods(package_dir: Path, callers: list[Path]) -> list[str]:
    """The methods of the classes of the package in `package_dir` whose
    names appear as no attribute in the package or in a caller, as
    ``module.Class.name``, in order of definition; dunder methods are
    skipped."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package_dir.glob("*.py"))}
    attrs = {node.attr for tree in [*trees.values(), *(ast.parse(p.read_text()) for p in callers)]
             for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    found = []
    for module, tree in trees.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.endswith("__") and node.name not in attrs:
                        found.append(f"{module}.{cls.name}.{node.name}")
    return found


def test_the_method_scan_sees_what_only_tests_call(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "core.py").write_text(
        "class Box:\n"
        "    def __len__(self):\n        return 0\n\n"  # called by protocol
        "    def size(self):\n        return self.width()\n\n"
        "    def width(self):\n        return 1\n\n"
        "    def dead(self):\n        return 2\n"
    )
    caller = tmp_path / "tool.py"
    caller.write_text("from pkg.core import Box\n")
    assert unreached_methods(pkg, [caller]) == ["core.Box.size", "core.Box.dead"]
    caller.write_text("from pkg.core import Box\n\nBox().size()\n")
    assert unreached_methods(pkg, [caller]) == ["core.Box.dead"]


def test_every_method_of_the_package_is_reached_without_the_tests():
    callers = sorted(p for d in ("perfbench", "tools") for p in (ROOT / d).rglob("*.py"))
    assert unreached_methods(PACKAGE, callers) == []
