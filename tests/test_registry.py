"""The catalog classes of equiloc.models are the one place that knows a
model's kind.

No module of the package branches on the catalog: an isinstance test on
Sphere, CotangentCircle or LinearCotangent may only be the condition of
an `if` whose body is a single `raise` (a refusal guard), and no string
is compared with == or != to a kind of the registry MODELS.  What differs
between models is a method or an attribute of its class.

The package needs numpy only: no module imports scipy, at any depth, and
importing them all loads no scipy module.  The tests keep scipy as an
outside reference.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from equiloc.models import MODELS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "equiloc"
CATALOG = {"Sphere", "CotangentCircle", "LinearCotangent"}


def _class_names(node):
    """The names an isinstance call's second argument lists."""
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    return {getattr(e, "id", getattr(e, "attr", None)) for e in elts}


def _in_refusal_guards(tree):
    """ids of the nodes in the condition of an `if` whose body is one
    `raise` and which has no `else`."""
    inside = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and not node.orelse
                and len(node.body) == 1
                and isinstance(node.body[0], ast.Raise)):
            inside.update(id(n) for n in ast.walk(node.test))
    return inside


def ladder_sites(path: Path):
    """`file:line` of each catalog branch in one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    guards = _in_refusal_guards(tree)
    sites = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2
                and _class_names(node.args[1]) & CATALOG
                and id(node) not in guards):
            sites.append(f"{path.name}:{node.lineno} isinstance")
        elif isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for side in (node.left, *node.comparators):
                if (isinstance(side, ast.Constant)
                        and isinstance(side.value, str)
                        and side.value in MODELS):
                    sites.append(f"{path.name}:{node.lineno} "
                                 f"== {side.value!r}")
    return sites


def test_no_module_branches_on_the_catalog():
    sites = [s for path in sorted(PACKAGE.glob("*.py"))
             for s in ladder_sites(path)]
    assert sites == []


def test_the_guard_sees_ladders_and_spares_refusals(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "def f(model, kind):\n"
        "    if not isinstance(model, LinearCotangent):\n"
        "        raise ModelError('refused')\n"
        "    if isinstance(model, (Sphere, int)):\n"
        "        return 1\n"
        "    x = 2 if isinstance(model, models.CotangentCircle) else 3\n"
        "    if kind == 'linrot2' or 'sphere' != kind:\n"
        "        return x\n"
        "    return kind == 'fresnel'\n")
    assert ladder_sites(src) == [
        "sample.py:4 isinstance", "sample.py:6 isinstance",
        "sample.py:7 == 'linrot2'", "sample.py:7 == 'sphere'"]


def _scipy_modules_after(code: str):
    """The scipy modules loaded in a fresh interpreter after `code`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    code += ("; print(sorted(m for m in sys.modules "
             "if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", "import sys; " + code],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    return out.strip()


def test_importing_the_cli_loads_no_scipy():
    # the package needs numpy only; scipy's start-up would add about half a
    # second to every command
    assert _scipy_modules_after("import equiloc.cli") == "[]"


def test_importing_every_module_loads_no_scipy():
    names = ["equiloc"] + [f"equiloc.{path.stem}"
                           for path in sorted(PACKAGE.glob("*.py"))
                           if path.stem != "__init__"]
    assert _scipy_modules_after(
        "import " + ", ".join(names)) == "[]"


def scipy_imports(path: Path):
    """`file:line` of each import of scipy, at any depth of the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if not node.level else []
        else:
            continue
        if any(n == "scipy" or n.startswith("scipy.") for n in names):
            sites.append(f"{path.name}:{node.lineno}")
    return sites


def test_no_module_imports_scipy():
    sites = [s for path in sorted(PACKAGE.glob("*.py"))
             for s in scipy_imports(path)]
    assert sites == []


def test_the_scipy_check_sees_lazy_imports(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "import numpy, scipy\n"
        "from .scipy_free import x\n"
        "def flow(a):\n"
        "    from scipy.linalg import expm\n"
        "    if a:\n"
        "        import scipy.special as sp\n"
        "    return expm(a)\n")
    assert scipy_imports(src) == ["sample.py:1", "sample.py:4",
                                  "sample.py:6"]
