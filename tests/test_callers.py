"""Every definition in the package earns a caller, and no oracle is in it.

An AST scan reads each module of src/gamma_forest but __init__, which only
re-exports.  A definition is a top-level function or class, or a method or
property of a top-level class.  It is reached when module-level code of the
package reads it, when ALLOWED names it, or when the body of a reached
definition reads it.  A read is matched to definitions by where it is, not
by its name alone: mod.name, with mod a package module imported by
`from . import mod`, reads mod.name alone, and any other attribute reads
only the methods of its name.  A bare name reads a top-level definition of
its own module, one imported by `from .mod import name`, or, in a class
body, that class's own method.  A definition's own body does not count, and
neither does a bare name that the same function binds itself (a local, a
parameter).  A class reaches what its bases, decorators and class-level
statements read, but not its methods: each method needs a reader of its
own.  Python calls the dunders in IMPLICIT without any code naming them, so
those of a reached class are reached with it; any other dunder, an operator
such as __add__ included, is reached only when reached code reads it.
Whatever is not reached only the tests call: it belongs in tests/oracles.py,
or nowhere.
"""

import ast
from pathlib import Path
from typing import NamedTuple

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "gamma_forest"

TRACED = "rebound by name in perfbench/spans.py; goes when TRACED drops it"

# "module.name" of each definition that no package code calls, with the reason it stays
ALLOWED = {
    "cli.main": "the console script",
    "rooted_trees.enumerate_rooted_trees": TRACED,
    "rooted_trees.RootedTree": "yielded by enumerate_rooted_trees",
    "binary_trees.enumerate_colored_combs": TRACED,
    "binary_trees.distribution_ndrd_rdes": TRACED,
    "binary_trees.distribution_ndnl_nlyn": TRACED,
    "stirling.distribution_naas_aapair": TRACED,
    "stirling.distribution_ntns_tnpair": TRACED,
    "stirling.statistics_rows": TRACED,
}

# the dunders that Python calls implicitly, reached with their class, with the reason each stays
IMPLICIT = {
    "__init__": "runs when the class is called",
    "__init_subclass__": "runs when a subclass is defined; it names the fields of each value type",
    "__eq__": "values are compared, by the checks and by library callers",
    "__hash__": "values are dict keys, as the partitions of an expansion are",
    "__repr__": "values print by their fields, in doctests and error messages",
    "__bool__": "without it the zero polynomial would be truthy for library callers",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def modules(src: Path = SRC) -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py")) if p.stem != "__init__"}


def definitions(src: Path = SRC) -> dict[str, ast.AST]:
    """Each top-level definition as "module.name", and each method of a
    top-level class as "module.Class.name"."""
    out = {}
    for module, tree in modules(src).items():
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                out[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, FUNCTIONS):
                        out[f"{module}.{node.name}.{m.name}"] = m
    return out


class Scope(NamedTuple):
    """What a read in one module can reach, each as a definition's key."""

    names: dict[str, str]  # its top-level definitions, and those imported by `from .mod import name`
    modules: dict[str, str]  # the package modules imported by `from . import mod`, by local name
    methods: dict[str, list[str]]  # every method in the package, by name


def scopes(src: Path, defs: dict[str, ast.AST]) -> dict[str, Scope]:
    """Each module's Scope, by module name."""
    methods: dict[str, list[str]] = {}
    for key in defs:
        if key.count(".") == 2:
            methods.setdefault(key.rpartition(".")[2], []).append(key)
    out = {}
    for module, tree in modules(src).items():
        names = {}
        for key in defs:
            owner, _, name = key.partition(".")
            if owner == module and "." not in name:
                names[name] = key
        mods = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        mods[alias.asname or alias.name] = alias.name
                    else:
                        names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        out[module] = Scope(names, mods, methods)
    return out


def reads(node: ast.AST, scope: Scope, own: dict[str, str] | None = None) -> set[str]:
    """The keys that node reads in scope, where own holds the methods of the
    class whose body node is in.  mod.name, with mod a package module in
    scope, reads mod.name alone; any other attribute reads every method of
    its name.  A bare name reads what scope or own names, unless node binds
    it itself (a local, a parameter).  A class's methods are definitions of
    their own, so what they read is not the class's."""
    if isinstance(node, ast.ClassDef):
        body = [n for n in node.body if not isinstance(n, FUNCTIONS)]
        parts = [*node.bases, *node.keywords, *node.decorator_list, *body]
        own = {m.name: f"{scope.names[node.name]}.{m.name}" for m in node.body if isinstance(m, FUNCTIONS)}
        return set().union(*(reads(part, scope, own) for part in parts))
    own = own or {}
    bound = {node.name} if isinstance(node, DEFINITIONS) else set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            bound.add(n.id)
        elif isinstance(n, ast.arg):
            bound.add(n.arg)
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            owner = n.value.id if isinstance(n.value, ast.Name) and n.value.id not in bound else None
            if owner in scope.modules:
                read.add(f"{scope.modules[owner]}.{n.attr}")
            else:
                read.update(scope.methods.get(n.attr, ()))
        elif isinstance(n, ast.Name) and n.id not in bound:
            read.update(key for key in (scope.names.get(n.id), own.get(n.id)) if key)
    return read


def unreached(src: Path = SRC, allowed=ALLOWED, implicit=IMPLICIT) -> list[str]:
    """The key of each definition in src that neither module-level code, nor
    an allowed entry, nor a reached definition reads, and that is not an
    implicit dunder of a reached class."""
    defs = definitions(src)
    scope = scopes(src, defs)
    todo = [key for key in defs if key in allowed]
    for module, tree in modules(src).items():
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                todo += reads(node, scope[module])
    reached: set[str] = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in reached:
            reached.add(key)
            todo += reads(defs[key], scope[key.partition(".")[0]])
            if isinstance(defs[key], ast.ClassDef):
                todo += [f"{key}.{name}" for name in implicit if f"{key}.{name}" in defs]
    return sorted(set(defs) - reached)


def test_every_definition_has_a_caller():
    assert unreached() == []


def test_allowed_entries_name_definitions():
    defs = definitions()
    assert set(ALLOWED) <= set(defs)
    assert all(ALLOWED.values())
    methods = {key.rpartition(".")[2] for key in defs if key.count(".") == 2}
    assert set(IMPLICIT) <= methods
    assert all(IMPLICIT.values())


def test_no_oracle_is_defined_or_imported_in_the_package():
    oracles = {
        node.name
        for node in ast.parse((TESTS / "oracles.py").read_text()).body
        if isinstance(node, DEFINITIONS)
    }
    assert len(oracles) > 20
    oracles.add("oracles")  # the module itself
    found = []
    for module, tree in modules(SRC).items():
        for node in ast.walk(tree):
            if isinstance(node, DEFINITIONS):
                taken = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                taken = {alias.name.rpartition(".")[2] for alias in node.names}
                taken |= {alias.asname for alias in node.names if alias.asname}
            else:
                continue
            found += [f"{module}.{name}" for name in sorted(taken & oracles)]
    assert found == []


def test_scan_sees_calls_locals_and_cycles(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import used\n"
        "def main():\n    used()\n    x = 1\n    return x\n"
        "def x():\n    pass\n"
        "def spare():\n    pass\n"
        "def loop():\n    loop()\n"
        "def ping():\n    pong()\n"
        "def pong():\n    ping()\n"
    )
    (tmp_path / "b.py").write_text(
        "def used():\n    return helper\n"
        "def helper():\n    pass\n"
        "def spare():\n    pass\n"
        "TABLE = {'k': constant}\n"
        "def constant():\n    pass\n"
    )
    # self.x reads a method x, of which there is none, not a.x; b.spare
    # reads b.spare, not a.spare; the class body reads its own _frozen
    (tmp_path / "c.py").write_text(
        "from . import b\n"
        "class Value:\n"
        "    def __init__(self):\n        self.value = start()\n"
        "    def read(self):\n        return self.value, self.x, b.spare()\n"
        "    def unread(self):\n        pass\n"
        "    def _frozen(self):\n        pass\n"
        "    frozen = _frozen\n"
        "    def __add__(self, other):\n        return self\n"
        "def start():\n    return 1\n"
        "DEFAULT = Value().read()\n"
    )
    assert unreached(tmp_path, {"a.main": "entry"}) == [
        "a.loop", "a.ping", "a.pong", "a.spare", "a.x", "c.Value.__add__", "c.Value.unread"
    ]
