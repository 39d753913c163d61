"""Every name the benchmark tracer patches is still where it looks.

perfbench/tracer.py lists its targets as (span, module, attribute) in
TARGETS; Tracer.install rebinds a function wherever its module binds it
and a method in its class's __dict__.  A deletion in src/ that removes or
moves one of them breaks every traced run, so the list is checked here,
read from the tracer's source as it stands.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def _resolves(module: str, attr: str) -> bool:
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return meth in vars(getattr(mod, cls_name, object))
    return callable(getattr(mod, attr, None))


def test_every_tracer_target_resolves():
    targets = _targets()
    assert targets
    missing = [span for span, module, attr in targets
               if not _resolves(module, attr)]
    assert missing == []
