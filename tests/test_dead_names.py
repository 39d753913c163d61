"""Every module-level name and every method in the package is used
somewhere.

A function, class or assignment at module level of src/equiloc, or a
method in the body of one of its classes, that no file under src/, tests/
or demos/ names outside its own definition is dead code: delete it rather
than keep it "just in case".  Dunder names are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "equiloc"


def _definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def _methods(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _unreferenced(definitions):
    """`path:line name` of each package definition named nowhere else."""
    files = [p for d in ("src", "tests", "demos")
             for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in files}
    uses = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            uses.setdefault(name, []).append((path, line))
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = [(p, line) for p, line in uses.get(name, [])
                       if not (p == path and
                               node.lineno <= line <= node.end_lineno)]
            if not outside:
                dead.append(f"{path.name}:{node.lineno} {qualname}")
    return dead


def test_no_unreferenced_module_level_names():
    dead = _unreferenced(_definitions)
    assert not dead, "unreferenced module-level names: " + ", ".join(dead)


def test_no_unreferenced_methods():
    dead = _unreferenced(_methods)
    assert not dead, "unreferenced methods: " + ", ".join(dead)
