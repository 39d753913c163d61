"""No reduction of the package enters the BLAS thread pool.

numpy sends `@`, `np.dot`, `np.matmul`, `np.inner`, `np.vdot`,
`np.tensordot` and `.dot(` to BLAS, which runs large products on its own
worker threads; those threads spin-wait between calls, so a run's CPU
time counts their waiting, and a threaded call sometimes stalls for
milliseconds.  `np.einsum` without `optimize=` reduces on the calling
thread (with `optimize=` it hands the work to `tensordot`).  So these
products appear only at the fixed tiny sizes listed in ALLOWED, each
with its reason; LAPACK calls (`solve`, `lstsq`, `qr`, `eigvalsh`,
`det`, `matrix_rank`) stay allowed.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "equiloc"
BLAS_CALLS = {"dot", "matmul", "inner", "vdot", "tensordot", "multi_dot"}

# (module, function) -> why its products may go through BLAS
ALLOWED = {
    ("models", "LinearCotangent.flow"):
        "one plane's few speeds against X",
    ("models", "LinearCotangent._act"):
        "an n x n matrix on one point's q and p",
    ("models", "LinearCotangent.gram"):
        "the k x k Gram matrix of one point's fundamental fields",
    ("oscillatory", "CleanPhase.validate"):
        "one d-vector against itself",
    ("oscillatory", "_h_callable.h"):
        "one d-vector against a d x d Hessian",
    ("resolution", "_charts_depth1.equations"):
        "points times a 2 x 2 generator",
    ("resolution", "_charts_depth1.conditions"):
        "points times a 2 x 2 generator",
    ("resolution", "_make_theta_theta_chart.equations"):
        "points times the 4 x 4 and 2 x 2 generator blocks",
    ("resolution", "_make_theta_theta_chart.conditions"):
        "points times a 2 x 2 generator block",
    ("resolution", "_make_theta_theta_chart.crit_sampler"):
        "points times the generator blocks; 4 x 4 projectors",
    ("resolution", "alpha_grad_norm.grad_norm"):
        "points times the 4 x 4 generator blocks",
}


def blas_sites(path: Path):
    """(module, function, what, line) of each BLAS product and each
    einsum with optimize= in one module; function is the qualified name
    of the innermost enclosing def."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + [node.name]
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            what = "@"
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in BLAS_CALLS:
                what = name
            elif name == "einsum" and any(k.arg == "optimize"
                                          for k in node.keywords):
                what = "einsum(optimize=)"
        if what:
            sites.append((path.stem, ".".join(scope), what, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, [])
    return sites


def _all_sites(package=PACKAGE):
    return [s for path in sorted(package.glob("*.py"))
            for s in blas_sites(path)]


def stray_sites(package=PACKAGE):
    """Each BLAS product of the package outside ALLOWED."""
    return [f"{m}.py:{line} {what} in {fn or '<module>'}"
            for m, fn, what, line in _all_sites(package)
            if (m, fn) not in ALLOWED]


def test_no_blas_product_outside_the_allowlist():
    assert not stray_sites(), stray_sites()


def test_every_allowlist_entry_still_has_a_product():
    used = {(m, fn) for m, fn, _, _ in _all_sites()}
    assert not set(ALLOWED) - used, set(ALLOWED) - used


def test_a_planted_product_is_caught(tmp_path):
    for path in PACKAGE.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    (tmp_path / "planted.py").write_text(
        "import numpy as np\n"
        "def total(x, y):\n"
        "    return x @ y\n"
        "def inner(x, y):\n"
        "    return np.einsum('i,i->', x, y, optimize=True) + x.dot(y)\n"
        "def good(x, y):\n"
        "    return np.einsum('i,i->', x, y) + np.linalg.solve(x, y)\n")
    assert stray_sites(tmp_path) == [
        "planted.py:3 @ in total", "planted.py:5 einsum(optimize=) in inner",
        "planted.py:5 dot in inner"]
