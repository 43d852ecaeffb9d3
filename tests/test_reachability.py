"""Every public function and class in the package is reached by real code.

A public top-level function or class of src/shadowlab must be used by code
in the package outside its own definition, by a script, or by the
benchmark (perfbench/*.py); or be pinned, by name in perfbench/layers.LAYERS
or by an import in tests/test_acceptance.py.  A use is an AST name or
attribute, not a docstring or an import alone, so a re-export from
__init__ does not count.  A public helper that only tests call fails here.

A private top-level function or class must be used by the package itself,
outside its own definition: a helper left behind once its callers are gone
fails here, even if a test still reaches it.  So must a private module-level
name that the package assigns, such as a lock or a cache: one that no code
in the package reads (an assignment or a global statement is not a read)
fails here, so removing a mechanism cannot leave its state behind.

A public method of a class in the package must be read as an attribute by
the package outside the method's own body, by a script or by the
benchmark; dunders and private methods are exempt.  So a method whose last
caller is gone fails here, even if a test still calls it.
"""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shadowlab"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree, skip=()):
    """Names and attribute names read in tree, outside the nodes in skip."""
    inside = {id(n) for top in skip for n in ast.walk(top)}
    used = set()
    for node in ast.walk(tree):
        if id(node) in inside or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _attributes_read(tree, skip=()):
    """Attribute names read in tree, outside the nodes in skip."""
    inside = {id(n) for top in skip for n in ast.walk(top)}
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load) and id(node) not in inside}


def _layer_names():
    # loaded the way test_layers loads it: from its file, without importing perfbench
    path = ROOT / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = layers  # its dataclasses look the module up
    try:
        spec.loader.exec_module(layers)
    finally:
        del sys.modules[spec.name]
    return {fn for _, fn, _ in layers.LAYERS}


def _acceptance_imports():
    tree = _parse(ROOT / "tests" / "test_acceptance.py")
    return {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _package_trees():
    return {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def _top_level(trees, private):
    """(path, node) of each top-level function or class, private or public."""
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_") == private:
                    yield path, node


def _used_in_package(trees, path, node):
    # a use elsewhere in the package; its own body (a recursive call) does not count
    uses = (_used_names(t, [node] if p == path else []) for p, t in trees.items())
    return any(node.name in used for used in uses)


def test_every_public_name_is_reached_outside_the_tests():
    outside = set()
    for path in [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        outside |= _used_names(_parse(path))
    pinned = _layer_names() | _acceptance_imports()
    trees = _package_trees()
    unreached = [
        f"{path.stem}.{node.name}" for path, node in _top_level(trees, private=False)
        if node.name not in outside | pinned and not _used_in_package(trees, path, node)
    ]
    for name in unreached:
        print(f"unreached: {name}")
    assert unreached == []


def test_every_private_name_is_used_in_the_package():
    trees = _package_trees()
    unused = [
        f"{path.stem}.{node.name}" for path, node in _top_level(trees, private=True)
        if not _used_in_package(trees, path, node)
    ]
    for name in unused:
        print(f"unused: {name}")
    assert unused == []


def _private_globals(trees):
    """(path, name) of each private name a module-level statement assigns,
    dunders such as __all__ aside."""
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name) and name.id.startswith("_")
                            and not name.id.startswith("__")):
                        yield path, name.id


def test_every_private_global_is_read_in_the_package():
    trees = _package_trees()
    read = set().union(*(_used_names(tree) for tree in trees.values()))
    unread = [f"{path.stem}.{name}" for path, name in _private_globals(trees) if name not in read]
    for name in unread:
        print(f"unread: {name}")
    assert unread == []


def test_every_public_method_is_read_outside_its_body():
    outside = set()
    for path in [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        outside |= _attributes_read(_parse(path))
    trees = _package_trees()
    unread = [
        f"{path.stem}.{cls.name}.{fn.name}"
        for path, tree in trees.items() for cls in tree.body if isinstance(cls, ast.ClassDef)
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
        if fn.name not in outside
        and not any(fn.name in _attributes_read(t, [fn] if p == path else [])
                    for p, t in trees.items())
    ]
    for name in unread:
        print(f"unread: {name}")
    assert unread == []
