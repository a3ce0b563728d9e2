"""Golden answers: fit and sweep results of fixed inputs, pinned to the bit.

`tests/golden/answers.json` holds, for each pinned fit, the step count and
`float.hex` of every final packed parameter and of the last trace row; for
the threshold sweep, the chosen thresholds and IoUs in hex and the filtered
signatures' contact pairs. The fits are the four scenarios at seed 7 with
region map and signature coarsened 75 -> 9 and a 60-step cap (as the
benchmark's fit-coarse-9 builds them), and the hand-chin scenario at 75
regions with a 20-step cap. The coarse answers move with the last bit of
any value on the fit path.

The file also records the numpy version and `platform.machine()`. A
mismatch on another CPU or numpy is a finding to report, not a reason to
loosen the test. Regenerating the file changes what "the same answers"
means; a change that does so declares it with the old and new answers.
Regenerate from the root of the repository with:

    PYTHONPATH=src python3 tests/test_golden_answers.py
"""

import dataclasses
import json
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest

from contactfit import (SCENARIO_NAMES, ContactSignature, ObjectiveWeights,
                        OptimizerSettings, RawPrediction, ReconstructionProblem,
                        coarsen_region_map, coarsen_signature, filter_signature,
                        generate_scenario, optimize, sweep_thresholds)

GOLDEN = Path(__file__).resolve().parent / "golden" / "answers.json"
SEED = 7
# (granularity, step cap, scenarios)
FITS = {"coarse-9": (9, 60, SCENARIO_NAMES), "fine-75": (75, 20, ("hand-chin",))}
SWEEP_SEEDS = (1, 2, 3, 4, 5, 6)
SWEEP_GRIDS = ((0.3, 0.5, 0.7), (0.3, 0.5, 0.7), (0.05, 0.1, 0.2))


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _config_fields(cls, config):
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in config.items() if k in names})


def _problem(name, granularity, iterations):
    """The scenario's fit with its shipped config and the given step cap."""
    bundle = generate_scenario(name, seed=SEED)
    config = dict(bundle.config, iterations=iterations)
    region_map, signature = bundle.body.region_map, bundle.signature
    if granularity != region_map.granularity:
        cmap = bundle.body.coarsen_maps[(region_map.granularity, granularity)]
        region_map = coarsen_region_map(region_map, cmap)
        signature = coarsen_signature(signature, cmap)
    return ReconstructionProblem(
        model=bundle.body.model, region_map=region_map, camera=bundle.camera,
        keypoints=bundle.keypoints, keypoint_joints=bundle.keypoint_joints,
        signature=signature, initial_params=bundle.initial_params,
        weights=_config_fields(ObjectiveWeights, config),
        settings=_config_fields(OptimizerSettings, config),
        selection_mode=config.get("selection_mode", "all"),
        selection_k=config.get("selection_k", 2))


def fit_answer(level, name):
    granularity, iterations, _ = FITS[level]
    params, trace = optimize(_problem(name, granularity, iterations))
    return {"steps": len(trace) - 1, "params": _hex(params.to_vector()),
            "last_row": {k: _hex([v])[0] for k, v in vars(trace[-1]).items()}}


def _validation_pair(seed, n=12):
    """A ground-truth signature with 1-3 contact pairs and a noisy dense
    prediction of it, some landmarks missing."""
    rng = np.random.default_rng(seed)
    lo, hi = np.triu_indices(n, 1)
    contact = rng.choice(len(lo), size=int(rng.integers(1, 4)), replace=False)
    truth = ContactSignature.from_sets(
        n, contact=[(int(lo[i]), int(hi[i])) for i in sorted(contact)])
    probs = rng.beta(1.0, 8.0, len(lo))
    probs[contact] = rng.uniform(0.3, 1.0, len(contact))
    seg = rng.beta(1.0, 4.0, n)
    touched = np.unique(np.concatenate([lo[contact], hi[contact]]))
    seg[touched] = rng.uniform(0.3, 1.0, len(touched))
    landmarks = rng.uniform(0.0, 1.0, (n, 2))
    for i in contact:
        landmarks[hi[i]] = landmarks[lo[i]] + rng.normal(0.0, 0.05, 2)
    landmarks[rng.integers(0, n)] = np.nan
    pred = RawPrediction.from_arrays(n, np.stack([lo, hi], axis=1), probs, seg,
                                     landmarks)
    return truth, pred


def sweep_answer():
    truths, preds = zip(*(_validation_pair(s) for s in SWEEP_SEEDS))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the dropped-landmark warnings
        cfg, ious = sweep_thresholds(preds, truths, *SWEEP_GRIDS)
        filtered = [filter_signature(p, cfg).contact_pairs() for p in preds]
    return {"thresholds": _hex([cfg.tau_s, cfg.tau_c, cfg.tau_dist]),
            "segmentation_iou": _hex([ious["segmentation_iou"]])[0],
            "signature_iou": _hex([ious["signature_iou"]])[0],
            "filtered": [[list(map(int, pair)) for pair in pairs] for pairs in filtered]}


def _machine():
    return {"numpy": np.__version__, "machine": platform.machine()}


def _fit_cases():
    return [(level, name) for level, (_, _, names) in FITS.items() for name in names]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def _where(golden):
    return f"pinned on {golden['machine']}, running on {_machine()}"


@pytest.mark.filterwarnings("ignore:.*behind camera")
@pytest.mark.parametrize("level, name", _fit_cases())
def test_fit_answer_is_pinned(golden, level, name):
    assert fit_answer(level, name) == golden["fits"][f"{level}/{name}"], _where(golden)


def test_sweep_answer_is_pinned(golden):
    assert sweep_answer() == golden["sweep"], _where(golden)


def test_golden_file_covers_every_case(golden):
    assert sorted(golden["fits"]) == sorted(f"{lv}/{n}" for lv, n in _fit_cases())


if __name__ == "__main__":
    answers = {"machine": _machine(),
               "fits": {f"{lv}/{n}": fit_answer(lv, n) for lv, n in _fit_cases()},
               "sweep": sweep_answer()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(answers, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
