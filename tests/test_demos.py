"""Every script under demos/ runs to the end and prints its results.

The dead-name scans count the demos as callers, so a demo that no longer
runs would keep a name alive that nothing working uses.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
