"""`src/ponodet` holds only code that a run executes, and needs only the
packages it declares.

Every public module-level name in a `src/ponodet` module must be read
somewhere a run reaches it from: its own module, another package module,
the benchmark harness (`bench/`), the scripts (`scripts/`) or the entry
points in `pyproject.toml`.  Code that only tests use belongs in the
tests.  `__init__.py` re-exports names, so an import there is not a use.
A public `autodiff` name must be read by another package module,
`bench/` or `scripts/`: its op set is what training records, and an op
that only `autodiff`'s own code calls (a Tensor operator calling a free
function, say) is on no run's path.
Likewise every public method or property of a `src/ponodet` class must be
read as an attribute somewhere in `src/`, `bench/` or `scripts/`.

Every package a `src/ponodet` module imports is the standard library,
`ponodet` itself or one of the `[project] dependencies`; test-only
packages belong in the `test` extra.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ponodet"
# modules whose own reads of a public name do not count as a use
OWN_READS_DO_NOT_COUNT = {"autodiff.py"}


def defined_names(tree: ast.Module) -> list[str]:
    """Public names bound at module level by def, class or assignment."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def used_names(tree: ast.Module) -> set[str]:
    """Identifiers a module reads: loaded names, attributes, imported names."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_public_src_name_is_used_outside_the_tests():
    modules = {p: parse(p) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    outside = set()
    for path in sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        outside |= used_names(parse(path))
    outside |= set(re.findall(r"\w+", (ROOT / "pyproject.toml").read_text()))
    uses = {p: used_names(tree) for p, tree in modules.items()}

    unused = []
    for path, tree in modules.items():
        elsewhere = set().union(*(u for q, u in uses.items() if q != path))
        own = set() if path.name in OWN_READS_DO_NOT_COUNT else uses[path]
        for name in defined_names(tree):
            if name not in own | elsewhere | outside:
                unused.append(f"{path.name}: {name}")
    assert not unused, "names only tests use: " + ", ".join(unused)


def read_attributes(tree: ast.Module) -> set[str]:
    """Attribute names a module reads (`x.name` in a load context)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_public_class_member_is_read_outside_the_tests():
    trees = {p: parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(read_attributes, trees.values()))
    for path in sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        read |= read_attributes(parse(path))
    unread = []
    for path, tree in trees.items():
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            unread += [f"{path.name}: {cls.name}.{node.name}" for node in cls.body
                       if isinstance(node, ast.FunctionDef)
                       and not node.name.startswith("_") and node.name not in read]
    assert not unread, "class members only tests read: " + ", ".join(unread)


def test_src_imports_only_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[\w.-]+", dep).group().lower().replace("-", "_")
                for dep in project["dependencies"]}
    allowed = declared | set(sys.stdlib_module_names) | {"ponodet"}
    undeclared = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            undeclared += [f"{path.name}: {top}" for top in tops
                           if top.lower() not in allowed]
    assert not undeclared, "imports missing from [project] dependencies: " \
        + ", ".join(undeclared)
