"""Property test of the whole fit: on drawn scenarios, seeds, keypoint
noise, step sizes and contact weights, `optimize` returns a finite trace
whose total never rises, or raises a `ContactFitError` subclass. Any other
exception fails the test.

The fits are coarsened to 9 regions and capped at 8 steps, so the drawn
examples take a few seconds together.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from contactfit import (SCENARIO_NAMES, ContactFitError, ObjectiveWeights,
                        OptimizerSettings, ReconstructionProblem,
                        coarsen_region_map, coarsen_signature, generate_scenario,
                        optimize)


@pytest.mark.filterwarnings("ignore:.*behind camera")
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(name=st.sampled_from(SCENARIO_NAMES), seed=st.integers(0, 1000),
       noise_px=st.floats(0.0, 20.0), step_size=st.floats(1e-3, 4.0),
       lambda_col=st.floats(0.0, 10.0), lambda_n=st.floats(0.0, 1.0))
def test_fit_trace_is_finite_and_monotone_or_a_typed_error(
        name, seed, noise_px, step_size, lambda_col, lambda_n):
    bundle = generate_scenario(name, seed=seed, noise_px=noise_px)
    cmap = bundle.body.coarsen_maps[(75, 9)]
    config = bundle.config
    weights = ObjectiveWeights(
        lambda_s=config["lambda_s"], lambda_psr=config["lambda_psr"],
        lambda_col=lambda_col, lambda_d=config["lambda_d"], lambda_n=lambda_n,
        lambda_pose=config["lambda_pose"], lambda_shape=config["lambda_shape"])
    try:
        problem = ReconstructionProblem(
            model=bundle.body.model,
            region_map=coarsen_region_map(bundle.body.region_map, cmap),
            camera=bundle.camera, keypoints=bundle.keypoints,
            keypoint_joints=bundle.keypoint_joints,
            signature=coarsen_signature(bundle.signature, cmap),
            initial_params=bundle.initial_params, weights=weights,
            settings=OptimizerSettings(iterations=8, step_size=step_size))
        _, trace = optimize(problem)
    except ContactFitError:
        return
    assert 1 <= len(trace) <= 9
    assert all(math.isfinite(v) for row in trace for v in vars(row).values())
    totals = [row.total for row in trace]
    assert all(b <= a for a, b in zip(totals, totals[1:]))
