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
import sys
from pathlib import Path

import numpy as np
import pytest

from contactfit import contact_geometry
from contactfit.reconstruct import (OptimizerSettings, ReconstructionProblem,
                                    optimize)
from contactfit.synthetic import generate_scenario

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


# -- a fit reaches every traced fit-path name through the patched namespaces

# the names whose calls the per-layer metrics of the fit workloads count
_FIT_PATH = ("reconstruct.evaluate_breakdown", "reconstruct.evaluate_gradient",
             "reconstruct.loss_collision", "reconstruct.loss_regularizer",
             "contact_geometry.loss_distance", "contact_geometry.loss_distance_frozen",
             "contact_geometry.loss_normal", "contact_geometry.phi_distance",
             "regions.region_facets", "body.pose_mesh", "body.facet_geometry")


def _recording(target, fn, calls):
    def recorded(*args, **kwargs):
        call = [target, args, None]
        calls.append(call)  # before the call: a call that raises still counts
        call[2] = fn(*args, **kwargs)
        return call[2]
    return recorded


@pytest.fixture(scope="module")
def recorded_fit():
    """A 3-step hand-chin fit with a recording wrapper on each _FIT_PATH
    name, put in every `contactfit` namespace that holds the function, as
    perfbench/tracer.py installs its wrappers. Returns (problem, trace,
    [[target, args, result]] in call order)."""
    bundle = generate_scenario("hand-chin", seed=7)
    problem = ReconstructionProblem(
        model=bundle.body.model, region_map=bundle.body.region_map,
        camera=bundle.camera, keypoints=bundle.keypoints,
        keypoint_joints=bundle.keypoint_joints, signature=bundle.signature,
        initial_params=bundle.initial_params,
        settings=OptimizerSettings(iterations=3))
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "contactfit" or n.startswith("contactfit."))]
    calls, patched = [], []
    try:
        for target in _FIT_PATH:
            module_name, fn_name = target.rsplit(".", 1)
            original = getattr(importlib.import_module(f"contactfit.{module_name}"),
                               fn_name)
            recorded = _recording(target, original, calls)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, recorded)
                        patched.append((module, attr, original))
        _, trace = optimize(problem)
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
    return problem, trace, calls


def test_fit_path_names_are_traced():
    assert set(_FIT_PATH) <= set(_targets())


@pytest.mark.filterwarnings("ignore:.*behind camera")
@pytest.mark.parametrize("target", _FIT_PATH)
def test_a_fit_calls_the_traced_name(recorded_fit, target):
    _, _, calls = recorded_fit
    assert any(call[0] == target for call in calls), f"{target} is routed around"


@pytest.mark.filterwarnings("ignore:.*behind camera")
def test_breakdown_runs_at_the_start_and_at_each_trial_step(recorded_fit):
    """perfbench/run.py takes the evaluations and the accept ratio from the
    evaluate_breakdown count: one call for the start, then one per trial
    step x - a * g, where g is the gradient at the current point x and a
    is the step size halved some number of times."""
    problem, trace, calls = recorded_fit
    settings = problem.settings
    steps = settings.step_size * 0.5 ** np.arange(3 * settings.max_backtracks + 3)
    fit = [(target.rsplit(".", 1)[1], args[1].to_vector(), result)
           for target, args, result in calls
           if target in ("reconstruct.evaluate_breakdown", "reconstruct.evaluate_gradient")]
    kind, x, _ = fit[0]
    assert kind == "evaluate_breakdown"
    assert np.array_equal(x, problem.initial_params.to_vector())
    trials, gradients, grad, last = 0, 0, None, None
    for kind, point, result in fit[1:]:
        if kind == "evaluate_gradient":
            x = x if last is None else last  # the last trial step was accepted
            assert np.array_equal(point, x)
            grad, last, gradients = result, None, gradients + 1
        else:
            assert any(np.array_equal(point, x - a * grad) for a in steps)
            trials, last = trials + 1, point
    assert gradients == settings.iterations == len(trace) - 1
    assert [call[0] for call in calls].count("reconstruct.evaluate_breakdown") == 1 + trials
