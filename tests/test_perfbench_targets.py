"""Every function the benchmark traces still exists.

perfbench/run.py names its traced functions in TARGETS as
"<module>.<function>" of src/contactfit. The tracer looks each one up with
getattr, so a renamed or deleted target makes the traced run fail.
"""

import ast
import importlib
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _targets():
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {RUN}")


@pytest.mark.parametrize("target", _targets())
def test_target_resolves(target):
    module_name, fn_name = target.rsplit(".", 1)
    module = importlib.import_module(f"contactfit.{module_name}")
    assert callable(getattr(module, fn_name, None)), f"contactfit.{target} is gone"
