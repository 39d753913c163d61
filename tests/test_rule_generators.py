"""`quadrature.gauss_legendre` is the one place a Gauss-Legendre rule is
built.

A module of src/equiloc that calls numpy's `leggauss`, scipy's
`roots_legendre` or `fixed_quad` builds a second rule beside the cached
one, with its own cost and its own round-off; build it from
`gauss_legendre` or `composite_gl` instead.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "equiloc"
RULE_BUILDERS = {"leggauss", "roots_legendre", "fixed_quad"}


def _rule_builder_uses(tree):
    """(line, name) of each call of a rule builder, by any access path,
    and of each import of one (which an alias could then call)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            names = [func.attr if isinstance(func, ast.Attribute) else
                     getattr(func, "id", None)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        else:
            continue
        for name in names:
            if name in RULE_BUILDERS:
                yield node.lineno, name


def test_no_second_gauss_legendre_generator():
    uses = [f"{path.name}:{line} {name}"
            for path in sorted(PACKAGE.glob("*.py"))
            for line, name in _rule_builder_uses(
                ast.parse(path.read_text(), filename=str(path)))]
    assert not uses, "Gauss-Legendre rules built outside " \
        "quadrature.gauss_legendre: " + ", ".join(uses)


def test_the_check_sees_each_access_path():
    tree = ast.parse("import numpy as np\n"
                     "from scipy.special import roots_legendre as rl\n"
                     "np.polynomial.legendre.leggauss(8)\n"
                     "roots_legendre(4)\n"
                     "scipy.integrate.fixed_quad(f, 0, 1)\n")
    assert sorted(_rule_builder_uses(tree)) == [
        (2, "roots_legendre"), (3, "leggauss"), (4, "roots_legendre"),
        (5, "fixed_quad")]
