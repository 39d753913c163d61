"""Every module-level name, every method and every setting in the package
is used somewhere.

A function, class or assignment at module level of src/equiloc, or a
method in the body of one of its classes, that no file under src/, tests/
or demos/ names outside its own definition is dead code: delete it rather
than keep it "just in case".  A method counts as used only where it is
read as an attribute, so a local variable of the same name does not keep
it alive.  Dunder names are exempt.

A default-valued parameter or dataclass field that no call under src/,
tests/ or demos/ sets is a constant in disguise: make it one.
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


def _attribute_references(tree):
    """Only `obj.name` uses a method: a local variable or function of the
    same name does not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _methods(tree):
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _unreferenced(definitions, references=_references):
    """`path:line name` of each package definition named nowhere else."""
    files = [p for d in ("src", "tests", "demos")
             for p in sorted((ROOT / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in files}
    uses = {}
    for path, tree in trees.items():
        for name, line in references(tree):
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
    dead = _unreferenced(_methods, _attribute_references)
    assert not dead, "unreferenced methods: " + ", ".join(dead)


# ---------------------------------------------------------------------------
# settings that no caller sets


def _is_dataclass(node):
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _field_is_init(value):
    """False for a `field(init=False)` dataclass field."""
    return not (isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant)
        and kw.value.value is False for kw in value.keywords))


def _parameters(func, drop_first):
    """(name, positional index or None, has default) of each parameter of
    a def; `self`/`cls` is dropped from a method."""
    args = func.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    out = [(a.arg, i, i >= first_default)
           for i, a in enumerate(positional)]
    if drop_first and out:
        out = [(name, i - 1, d) for name, i, d in out[1:]]
    out += [(a.arg, None, d is not None)
            for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return out


def _settings(path, tree):
    """(call name, parameter, positional index, where) of every
    default-valued parameter or dataclass field in one package module.  A
    method is called by its own name, a class by its name (its `__init__`
    or its dataclass fields).  A `_`-prefixed default binds a closure
    variable (`_vdir=vdir`) and is no setting."""
    methods = set()
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        fields = []
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.add(item)
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in item.decorator_list)
                if item.name == "__init__":
                    name = cls.name
                elif item.name.startswith("__"):
                    continue
                else:
                    name = item.name
                for param, index, default in _parameters(item, not static):
                    if default:
                        yield (name, param, index,
                               f"{path.name}:{item.lineno} "
                               f"{cls.name}.{item.name}({param})")
            elif (_is_dataclass(cls) and isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)
                  and _field_is_init(item.value)):
                fields.append(item)
        for index, item in enumerate(fields):
            if item.value is not None:
                yield (cls.name, item.target.id, index,
                       f"{path.name}:{item.lineno} "
                       f"{cls.name}.{item.target.id}")
    for func in ast.walk(tree):
        if (isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                and func not in methods):
            for param, index, default in _parameters(func, False):
                if default and not param.startswith("_"):
                    yield (func.name, param, index,
                           f"{path.name}:{func.lineno} "
                           f"{func.name}({param})")


def _calls(tree):
    """(called name, positional count, keyword names) of every call; a
    `*args` or `**kwargs` call sets everything."""
    everything = float("inf")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name is None:
            continue
        npos = everything if any(isinstance(a, ast.Starred)
                                 for a in node.args) else len(node.args)
        keywords = {kw.arg for kw in node.keywords}
        yield name, npos, keywords


def _unset_settings():
    """`path:line name` of each default-valued parameter or dataclass field
    in the package that no call under src/, tests/ or demos/ sets."""
    files = [p for d in ("src", "tests", "demos")
             for p in sorted((ROOT / d).rglob("*.py"))]
    calls = {}
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, npos, keywords in _calls(tree):
            calls.setdefault(name, []).append((npos, keywords))
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, param, index, where in _settings(path, tree):
            if not any(param in keywords or None in keywords or
                       (index is not None and npos > index)
                       for npos, keywords in calls.get(name, [])):
                unset.append(where)
    return unset


def test_no_setting_that_no_caller_sets():
    """A default that no call overrides is a constant in disguise: an
    untested configuration that could make an oracle coarser unseen."""
    unset = _unset_settings()
    assert not unset, (f"{len(unset)} defaults no caller sets: "
                       + ", ".join(unset))


# ---------------------------------------------------------------------------
# fields that nothing reads


def _fields(tree):
    """(name, node) of each dataclass field and each `self.name = ...`
    attribute set in a method of one package module."""
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for item in cls.body:
            if (_is_dataclass(cls) and isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                yield f"{cls.name}.{item.target.id}", item
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(item):
                    if (isinstance(node, ast.Attribute)
                            and isinstance(node.ctx, ast.Store)
                            and getattr(node.value, "id", None) == "self"):
                        yield f"{cls.name}.{node.attr}", node


def test_no_field_that_nothing_reads():
    """A field or attribute is read where `obj.name` is loaded under src/,
    tests/, demos/ or perfbench/; the benchmark tracer is the only reader of
    some flags.  One that is only ever written is dead state."""
    reads = set()
    for d in ("src", "tests", "demos", "perfbench"):
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)):
                    reads.add(node.attr)
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualname, node in _fields(tree):
            if qualname.rsplit(".", 1)[-1] not in reads:
                unread.add(f"{path.name} {qualname}")
    assert not unread, "fields nothing reads: " + ", ".join(sorted(unread))
