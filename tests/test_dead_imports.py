"""No dead imports and no dead private names in the package: a stdlib-only
stand-in for a linter's unused-import rule (F401).

An import is dead when its module never reads the name it binds.  Only
the names of ``genimpl.__all__`` that ``__init__`` imports are kept as
re-exports: a ``# noqa: F401`` mark does not keep an import, so each name
has one import path, the module that defines it.  A private
module-level name (one leading underscore, such as a constant or a
helper) is dead when no module of the package reads it.
"""

import ast
import pathlib

import pytest

import genimpl

PACKAGE = pathlib.Path(genimpl.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def read_names(tree) -> set[str]:
    """The names a module reads, with the attribute names it reads and the
    names it imports from another module (how a private helper is shared)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def dead_imports(path) -> list[str]:
    tree = parse(path)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    kept = set(genimpl.__all__) if path.name == "__init__.py" else set()
    dead = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and bound not in kept:
                    dead.append(f"{path.name}:{alias.lineno} {bound}")
    return dead


def private_definitions(tree) -> list[tuple[int, str]]:
    """(line, name) of each module-level private def, class or assignment."""
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
        found += [(node.lineno, name) for name in targets
                  if name.startswith("_") and not name.startswith("__")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_dead_import(path):
    assert dead_imports(path) == []


def test_no_dead_private_name():
    trees = {path: parse(path) for path in MODULES}
    read = set().union(*map(read_names, trees.values()))
    dead = [f"{path.name}:{line} {name}" for path, tree in trees.items()
            for line, name in private_definitions(tree) if name not in read]
    assert dead == []


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
        "def f(v):\n"
        "    return wide(v) + _USED\n"
    )
    assert dead_imports(module) == ["module.py:2 clamp01", "module.py:3 root"]
    tree = parse(module)
    assert [name for _, name in private_definitions(tree)
            if name not in read_names(tree)] == ["_SMALLEST_NORMAL"]
