"""`src/ponodet` holds only code that a run executes, and needs only the
packages it declares.

Every public module-level name in a `src/ponodet` module must be read
somewhere a run reaches it from: its own module, another package module,
the benchmark harness (`bench/`), the scripts (`scripts/`) or the entry
points in `pyproject.toml`.  Code that only tests use belongs in the
tests.  `__init__.py` re-exports names, so an import there is not a use.
Outside its own module a name of module `m` is read only when read
qualified: `from .m import name`, `alias.name` with `alias` bound to
module `m`, or a `("ponodet.m", "name")` string pair, which is how the
bench tracer names its targets.  An unrelated name that happens to match
does not keep it alive.
A public `autodiff` name must be read by another package module,
`bench/` or `scripts/`: its op set is what training records, and an op
that only `autodiff`'s own code calls (a Tensor operator calling a free
function, say) is on no run's path.
Likewise every public method or property of a `src/ponodet` class must be
read as an attribute somewhere in `src/`, `bench/` or `scripts/`.

Every default of a module-level or class-body `def` in `src/ponodet` is
an option that runs vary: some call in `src/`, `bench/` or `scripts/`
omits it and another one overrides it, and a call with `*` or `**`
counts as both.  A default that every such call overrides, or that none
does, is a value only the tests vary; the parameter goes or loses its
default.  Calls resolve as the qualified reads above: a bare name in its
own module or bound by `from .m import name`, `alias.name` with `alias`
bound to module `m`, a class name for `__init__`, and for any other
method an attribute call of its name.  Nested functions are exempt.

Every field of `TrainConfig`, `ToyNetConfig` and `GenSpec` is a config
key, and some code in `src/`, `bench/` or `scripts/` sets it: a keyword
of a call there, or a `key = value` line in a string literal there,
f-string parts included.  A key that only tests set is a setting no run
varies; it goes.

A training variant is filled and read only through `train.SceneBank.batch`:
no `src/ponodet` module but `train.py` reads `train.scene_cache`.

Every package a `src/ponodet` module imports is the standard library,
`ponodet` itself or one of the `[project] dependencies`; test-only
packages belong in the `test` extra.  A module imports `ponodet` only
relatively (`from . import m`, `from .m import name`), so two copies of
the package, loaded side by side as separate packages, never share a
module.
"""

import ast
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

from ponodet.data import GenSpec
from ponodet.model import ToyNetConfig
from ponodet.train import TrainConfig

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


def _imported_module(module: str | None, level: int) -> str | None:
    """The `ponodet` module an import names: "" for the package itself,
    None outside `ponodet`.  A relative import is one from a package
    module."""
    if level == 1:
        return module or ""
    if module == "ponodet":
        return ""
    if module and module.startswith("ponodet."):
        return module[len("ponodet."):]
    return None


def imports(tree: ast.Module) -> tuple[dict[str, tuple[str, str]], dict[str, str]]:
    """The package names a file imports: local name -> (module, name) for
    `from .m import name`, and local name -> module for the aliases of
    `from . import m`."""
    names, aliases = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = _imported_module(node.module, node.level)
            for alias in node.names if base is not None else ():
                if base:
                    names[alias.asname or alias.name] = (base, alias.name)
                else:
                    aliases[alias.asname or alias.name] = alias.name
    return names, aliases


def qualified_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) pairs a file reads qualified: `from .m import name`,
    `alias.name` with `alias` bound to module `m`, and `("ponodet.m",
    "name")` string pairs ("name" may be "Class.method")."""
    names, aliases = imports(tree)
    reads = set(names.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Tuple) and len(node.elts) >= 2 and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in node.elts[:2]):
            base = _imported_module(node.elts[0].value, 0)
            if base:
                reads.add((base, node.elts[1].value.split(".")[0]))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and aliases.get(node.value.id)):
            reads.add((aliases[node.value.id], node.attr))
    return reads


def loaded_names(tree: ast.Module) -> set[str]:
    """Bare names a module reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unused_public_names(modules: dict[str, ast.Module], outside: list[ast.Module],
                        pyproject: str) -> list[str]:
    """`file: name` for each public name of a package module (keyed by
    file name) that nothing in the rule above reads."""
    reads = set().union(*map(qualified_reads, [*modules.values(), *outside]))
    words = set(re.findall(r"\w+", pyproject))
    unused = []
    for filename, tree in modules.items():
        module = filename.removesuffix(".py")
        own = set() if filename in OWN_READS_DO_NOT_COUNT else loaded_names(tree)
        unused += [f"{filename}: {name}" for name in defined_names(tree)
                   if (module, name) not in reads and name not in own | words]
    return unused


def test_every_public_src_name_is_used_outside_the_tests():
    modules = {p.name: parse(p) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    outside = [parse(p) for p in sorted((ROOT / "bench").glob("*.py"))
               + sorted((ROOT / "scripts").glob("*.py"))]
    unused = unused_public_names(modules, outside,
                                 (ROOT / "pyproject.toml").read_text())
    assert not unused, "names only tests use: " + ", ".join(unused)


def test_an_unrelated_name_does_not_count_as_a_use():
    modules = {name: ast.parse(src) for name, src in {
        "ops.py": "def sub(a, b):\n    return a - b\n\n"
                  "def add(a, b):\n    return a + b\n\n"
                  "def mul(a, b):\n    return a * b\n\n"
                  "def neg(a):\n    return -a\n",
        # a local `sub` and a `.sub` attribute that are not ops.sub
        "cli.py": "from .ops import add\n\n"
                  "def main(parser):\n    sub = parser.sub\n    return add(sub, 1)\n",
    }.items()}
    outside = [ast.parse("from ponodet import ops as o\n"
                         "PROBES = [('ponodet.ops', 'neg', 'ops.neg')]\n"
                         "def f(x):\n    return o.mul(x, x)\n")]
    assert unused_public_names(modules, outside, "main = 'ponodet.cli:main'") \
        == ["ops.py: sub"]


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


def defaults(module: str, tree: ast.Module) -> list[tuple]:
    """One entry per module-level or class-body def with defaults: how a
    call names it, (module, name) for a function, (module, Class) for
    `Class.__init__` and (None, name) for any other method; its
    `module:qualified name`; its positional parameters; the defaulted ones;
    and how many leading parameters a call does not pass (`self`, `cls`)."""
    found = []

    def add(key, name, fn, bound):
        a = fn.args
        pos = [p.arg for p in a.posonlyargs + a.args]
        with_default = pos[len(pos) - len(a.defaults):] + [
            p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        if with_default:
            found.append((key, f"{module}:{name}", pos, with_default, bound))

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            add((module, node.name), node.name, node, 0)
        elif isinstance(node, ast.ClassDef):
            for fn in (n for n in node.body if isinstance(n, ast.FunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                key = (module, node.name) if fn.name == "__init__" else (None, fn.name)
                add(key, f"{node.name}.{fn.name}", fn, 0 if static else 1)
    return found


def calls(module: str | None, tree: ast.Module):
    """(key, call) for each call in a file, keyed as `defaults` keys the
    defs it may reach; `module` is None outside the package."""
    names, aliases = imports(tree)
    own = {n.name for n in tree.body
           if isinstance(n, (ast.FunctionDef, ast.ClassDef))} if module else set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name):
            if f.id in own:
                yield (module, f.id), node
            elif f.id in names:
                yield names[f.id], node
        elif isinstance(f, ast.Attribute):
            if isinstance(f.value, ast.Name) and f.value.id in aliases:
                yield (aliases[f.value.id], f.attr), node
            yield (None, f.attr), node


def unvaried_defaults(modules: dict[str, ast.Module], outside: list[ast.Module]) -> list[str]:
    """`module:function(param)` for each default of a package module (keyed
    by module name) that no call omits or no call overrides."""
    entries = [e for module, tree in modules.items() for e in defaults(module, tree)]
    by_key = {}
    for entry in entries:
        by_key.setdefault(entry[0], []).append(entry)
    omitted, overridden = set(), set()
    for module, tree in [*modules.items(), *((None, t) for t in outside)]:
        for key, call in calls(module, tree):
            starred = any(isinstance(a, ast.Starred) for a in call.args) \
                or any(k.arg is None for k in call.keywords)
            for _, name, pos, with_default, bound in by_key.get(key, ()):
                given = set(pos[:bound + len(call.args)]) | {k.arg for k in call.keywords}
                for param in with_default:
                    if starred or param in given:
                        overridden.add((name, param))
                    if starred or param not in given:
                        omitted.add((name, param))
    return [f"{name}({param})" for _, name, _, with_default, _ in entries
            for param in with_default
            if (name, param) not in omitted or (name, param) not in overridden]


def test_every_src_default_is_an_option_runs_vary():
    modules = {p.stem: parse(p) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    outside = [parse(p) for p in sorted((ROOT / "bench").glob("*.py"))
               + sorted((ROOT / "scripts").glob("*.py"))
               if not p.name.startswith("test_")]
    unvaried = unvaried_defaults(modules, outside)
    assert not unvaried, "defaults no run varies: " + ", ".join(unvaried)


def test_a_default_counts_only_calls_that_reach_it():
    modules = {name: ast.parse(src) for name, src in {
        "ops": "def scale(x, k=2):\n    return x * k\n\n"
               "def shift(x, d=1):\n    return x + d\n\n"
               "def clip(x, lo=0, hi=1):\n    return min(max(x, lo), hi)\n\n"
               "class Acc:\n"
               "    def __init__(self, start=0):\n        self.total = start\n\n"
               "    def add(self, x, times=1):\n        self.total += x * times\n",
        # `scale` omitted here and overridden in the outside file; `clip`
        # overridden positionally and by keyword, omitted in a `*` call
        "cli": "from .ops import Acc, clip, scale\n\n"
               "def main(args, shift):\n"
               "    acc = Acc(5)\n    acc.add(scale(1))\n    acc.add(2, 3)\n"
               "    shift(clip(1, 2), 3)\n    return clip(*args, hi=2)\n",
    }.items()}
    # `o.shift(x)` omits `d`, but the `shift(..., 3)` above is a local, not
    # ops.shift; `Acc(5)` overrides `start` and nothing omits it
    outside = [ast.parse("from ponodet import ops as o\n"
                         "def f(x):\n    return o.scale(o.shift(x), k=3)\n")]
    assert unvaried_defaults(modules, outside) == ["ops:shift(d)", "ops:Acc.__init__(start)"]


# a `key = value` line of a config text; `==` is no setting
KEY_LINE = re.compile(r"^\s*(\w+)\s*=(?!=)", re.M)


def set_keys(tree: ast.Module) -> set[str]:
    """The names a file sets: the keywords of its calls and the keys of the
    `key = value` lines in its string literals, f-string parts included."""
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            keys |= {k.arg for k in node.keywords if k.arg}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            keys |= set(KEY_LINE.findall(node.value))
    return keys


def unset_config_keys(configs, trees: list[ast.Module]) -> list[str]:
    """`Class.field` for each field of the dataclasses `configs` that no
    file of `trees` sets."""
    keys = set().union(*map(set_keys, trees))
    return [f"{cls.__name__}.{f.name}" for cls in configs for f in fields(cls)
            if f.name not in keys]


def test_every_config_key_is_set_outside_the_tests():
    trees = [parse(p) for p in sorted(PACKAGE.glob("*.py"))
             + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
             if not p.name.startswith("test_")]
    unset = unset_config_keys((TrainConfig, ToyNetConfig, GenSpec), trees)
    assert not unset, "config keys only tests set: " + ", ".join(unset)


def test_a_config_key_counts_only_settings():
    @dataclass
    class Cfg:
        by_keyword: int = 0
        by_text: int = 0
        by_f_string: int = 0
        compared: int = 0
        assigned: int = 0

    trees = [ast.parse(src) for src in (
        "run(by_keyword=1)\nassigned = 2\n",
        'TEXT = """\nby_text = 3\n"""\nOK = "compared == 4"\n',
        'def text(v):\n    return f"x = {v}\\nby_f_string = 5\\n"\n')]
    assert unset_config_keys([Cfg], trees) == ["Cfg.compared", "Cfg.assigned"]


def test_only_train_reads_the_scene_cache():
    readers = [p.name for p in sorted(PACKAGE.glob("*.py")) if p.name != "train.py"
               and ("train", "scene_cache") in qualified_reads(parse(p))]
    assert not readers, "modules that read train.scene_cache: " + ", ".join(readers)


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


def test_src_imports_ponodet_only_relatively():
    absolute = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            absolute += [f"{path.name}:{node.lineno}: {name}" for name in names
                         if name.split(".")[0] == "ponodet"]
    assert not absolute, "absolute ponodet imports: " + ", ".join(absolute)
