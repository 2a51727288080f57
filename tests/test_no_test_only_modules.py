"""Every ``src/repro`` module must be reached by the program, not only by tests.

A module counts as used when it is run as a program (``__main__``), when a
package ``__init__`` imports the module itself to register it, or when one
of its public top-level names is imported (``from repro... import name``)
by a bench, an example or another used ``src`` module.  Re-exports in
``__init__`` files do not count: they would make every module look used.
The check is by name, so it errs towards "used".  It is run to a fixed
point, so a module reached only from test-only modules is test-only too.

Within ``repro.core``, ``repro.comm``, ``repro.serving`` and
``repro.resilience`` the same holds for each public function, class and
method: its name must be referenced somewhere in ``src``, a bench or an
example.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def _module_name(path: Path) -> str:
    return ".".join(path.relative_to(SRC).with_suffix("").parts)


def _public_names(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def _repro_imports(tree: ast.AST) -> set:
    """Qualified ``module.name`` pairs of every ``from repro... import name``."""
    return {
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro")
        for alias in node.names
    }


def _is_program(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.If) and "__main__" in ast.dump(node.test) for node in tree.body
    )


def test_no_test_only_modules():
    parsed = {_module_name(p): ast.parse(p.read_text()) for p in sorted(SRC.rglob("*.py"))}
    modules = {name: tree for name, tree in parsed.items() if not name.endswith("__init__")}
    imports = {name: _repro_imports(tree) for name, tree in modules.items()}

    outside = set()
    callers = [
        *REPO_ROOT.joinpath("benchmarks").rglob("*.py"),
        *REPO_ROOT.joinpath("examples").glob("*.py"),
    ]
    for path in callers:
        outside |= _repro_imports(ast.parse(path.read_text()))
    registered = set()
    for name, tree in parsed.items():
        if name.endswith("__init__"):
            registered |= _repro_imports(tree) & set(modules)

    unused: set = set()
    while True:
        reached = {pair.rsplit(".", 1)[1] for pair in outside}
        for name, pairs in imports.items():
            if name not in unused:
                reached |= {pair.rsplit(".", 1)[1] for pair in pairs}
        newly = {
            name
            for name, tree in modules.items()
            if name not in unused
            and name not in registered
            and not _is_program(tree)
            and not _public_names(tree) & reached
        }
        if not newly:
            break
        unused |= newly
    assert not unused, f"modules reached only by tests (move to tests/ or delete): {sorted(unused)}"


def _referenced_names(tree: ast.AST) -> set:
    """Every name a module reads, attribute or imported name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_no_test_only_core_names():
    callers = [
        *SRC.rglob("*.py"),
        *REPO_ROOT.joinpath("benchmarks").rglob("*.py"),
        *REPO_ROOT.joinpath("examples").glob("*.py"),
    ]
    referenced = set()
    for path in callers:
        referenced |= _referenced_names(ast.parse(path.read_text()))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined = []  # (qualified name, name)
    paths = [path for package in ("core", "comm", "serving", "resilience", "memory", "tiering")
             for path in sorted(SRC.joinpath("repro", package).glob("*.py"))]
    for path in paths:
        module = _module_name(path)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{item.name}", item.name)
                            for item in node.body if isinstance(item, functions)]
    unused = [qualified for qualified, name in defined
              if not name.startswith("_") and name not in referenced]
    assert not unused, f"repro.core/comm/serving/resilience/memory/tiering names reached only by tests: {unused}"
