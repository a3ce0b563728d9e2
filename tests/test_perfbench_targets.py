"""Every function the benchmark traces still exists, and its counters
still read the arguments it is called with.

perfbench/run.py names its traced functions in TARGETS as
"<module>.<function>" of src/contactfit. The tracer looks each one up with
getattr, so a renamed or deleted target makes the traced run fail. COUNTERS
maps a target to a function of the (args, kwargs) of each call, so a changed
signature can make a counter fail or count wrongly.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from contactfit import contact_geometry

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


def _run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _phi_distance_call():
    """phi_distance on two small facet sets: it calls nearest_neighbors."""
    centers = np.random.default_rng(0).normal(size=(7, 3))
    contact_geometry.phi_distance(centers, [0, 1, 2], [3, 4, 5, 6])


def _nearest_neighbor_counts(args, kwargs):
    """Brute force scans every (query, data) pair and no KD-tree is left."""
    return {"point_pairs": len(args[0]) * len(args[1]), "kdtree_calls": 0}


# per counted target: the module whose global the call goes through, a real
# call of the library that reaches the target from there, and the counts
# expected of one call
_CALLERS = {"spatial.nearest_neighbors":
            (contact_geometry, _phi_distance_call, _nearest_neighbor_counts)}


def test_every_counter_has_a_real_call():
    assert set(_run_module().COUNTERS) == set(_CALLERS)


@pytest.mark.parametrize("target", sorted(_CALLERS))
def test_counter_takes_the_arguments_of_a_real_call(target, monkeypatch):
    counter = _run_module().COUNTERS[target]
    module, call, expected = _CALLERS[target]
    fn_name = target.rsplit(".", 1)[1]
    original = getattr(module, fn_name)
    calls = []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, fn_name, recording)
    call()
    assert calls
    for args, kwargs in calls:
        counts = counter(args, kwargs)
        assert all(isinstance(v, int) and v >= 0 for v in counts.values())
        assert counts == expected(args, kwargs)
