"""No dead imports and no dead module-level names in the package: a
stdlib-only stand-in for a linter's unused-import rule (F401).

An import is dead when its scope never reads the name it binds: the module
for a module-level import, the function for one inside a function.  Only
the names of ``genimpl.__all__`` that ``__init__`` imports are kept as
re-exports: a ``# noqa: F401`` mark does not keep an import, so each name
has one import path, the module that defines it.  A module-level name
(a constant, a helper, a class) is dead when no module of the package
reads it, unless ``genimpl.__all__`` exports it or ``KEPT_PUBLIC`` names
it with its reason.  No module imports another module's private
(underscore) name: a helper that two modules share is public.
"""

import ast
import pathlib

import pytest

import genimpl

PACKAGE = pathlib.Path(genimpl.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))

# public names that nothing in the package reads and genimpl does not
# export, each with the reason it is kept; both are aliases of
# specs.parse_binary named after a role
KEPT_PUBLIC = {
    "parse_connective": "perfbench's tracer and job list look it up by name",
    "parse_implication": "perfbench's tracer and job list look it up by name",
}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def read_names(tree) -> set[str]:
    """The names a module reads, with the attribute names it reads and the
    names it imports from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_imports(scope):
    """The import statements of a module or function, less those of the
    functions it defines."""
    todo = list(ast.iter_child_nodes(scope))
    for node in todo:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCTIONS):
            todo.extend(ast.iter_child_nodes(node))


def dead_imports(path) -> list[str]:
    """The imports whose scope, the module or the function that holds the
    import, never reads the name they bind."""
    tree = parse(path)
    kept = set(genimpl.__all__) if path.name == "__init__.py" else set()
    dead = []
    for scope in [tree, *(n for n in ast.walk(tree) if isinstance(n, FUNCTIONS))]:
        read = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in own_imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and (scope is not tree or bound not in kept):
                    dead.append(f"{path.name}:{alias.lineno} {bound}")
    return dead


def private_imports(path) -> list[str]:
    """The underscore names that ``path`` imports from another module."""
    return [f"{path.name}:{alias.lineno} {alias.name}"
            for node in ast.walk(parse(path)) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name.startswith("_")]


def definitions(tree) -> list[tuple[int, str]]:
    """(line, name) of each module-level def, class or assignment, dunder
    names such as ``__all__`` left out."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        found += [(node.lineno, name) for name in targets if not name.startswith("__")]
    return found


def dead_names(trees, private: bool) -> list[str]:
    """The private, or the public, module-level names of the parsed modules
    that none of them reads, less the exported and the kept ones."""
    read = set().union(*map(read_names, trees.values()))
    kept = read | set(genimpl.__all__) | set(KEPT_PUBLIC)
    return [f"{path.name}:{line} {name}" for path, tree in trees.items()
            for line, name in definitions(tree)
            if name.startswith("_") == private and name not in kept]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_dead_import(path):
    assert dead_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_private_import(path):
    assert private_imports(path) == []


def test_no_dead_private_name():
    assert dead_names({path: parse(path) for path in MODULES}, private=True) == []


def test_no_dead_public_name():
    assert dead_names({path: parse(path) for path in MODULES}, private=False) == []


def test_the_check_sees_a_dead_import_and_a_dead_constant(tmp_path):
    # a re-export marked for a linter is dead too: nothing here reads root
    module = tmp_path / "module.py"
    module.write_text(
        "from .generators import (\n"
        "    clamp01,\n"
        "    root,  # noqa: F401  (re-exported)\n"
        "    wide,\n"
        ")\n"
        "import sys\n"
        "_SMALLEST_NORMAL = sys.float_info.min\n"
        "_USED = 1\n"
        "LAW_NAMES = ('NP', 'EP')\n"
        "power_gp = parse_implication = None\n"
        "def f(v):\n"
        "    import math, mpmath\n"
        "    from .properties import check_property as check\n"
        "    return wide(v) + _USED + math.inf\n"
    )
    # an import inside f is judged by what f reads
    assert dead_imports(module) == [
        "module.py:2 clamp01", "module.py:3 root", "module.py:12 mpmath",
        "module.py:13 check"]
    trees = {module: parse(module)}
    assert dead_names(trees, private=True) == ["module.py:7 _SMALLEST_NORMAL"]
    # power_gp is exported and parse_implication kept; f is public and unread
    assert dead_names(trees, private=False) == ["module.py:9 LAW_NAMES", "module.py:11 f"]


def test_the_check_sees_a_private_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from __future__ import annotations\n"
        "from .properties import (\n"
        "    _pointwise_law,\n"
        "    check_property,\n"
        ")\n"
        "from . import _private_module as public\n"
        "def f():\n"
        "    from .classes import _right_continuity\n"
    )
    assert private_imports(module) == [
        "module.py:3 _pointwise_law", "module.py:6 _private_module",
        "module.py:8 _right_continuity"]
