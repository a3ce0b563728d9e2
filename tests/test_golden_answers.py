"""Golden answers: fit and sweep results of fixed inputs, pinned to the bit.

`tests/golden/answers.json` holds, for each pinned fit, the step count and
`float.hex` of every final packed parameter and of the last trace row, and
of the `evaluate_breakdown` row and `evaluate_gradient` at the start point
(which pin the arithmetic of one evaluation, such as the summation order of
the nearest-neighbour scan, even where no step of the fit moves); for
the threshold sweep, the chosen thresholds and IoUs in hex and the filtered
signatures' contact pairs; for the synthetic suite itself, the SHA-256 of
the body arrays, the fine region map and each coarsen map, the part and
anchor region ids, and per scenario at seed 7 its class, the GT and start
parameters, the keypoints and their joints and the image support points.
The fits are the four scenarios at seed 7 with
region map and signature coarsened 75 -> 9 and a 60-step cap (as the
benchmark's fit-coarse-9 builds them), and the hand-chin scenario at 75
regions with a 20-step cap. The coarse answers move with the last bit of
any value on the fit path.

The file also records the numpy version, `platform.machine()`, the
OpenBLAS kernel numpy runs (its core name) and the SIMD targets numpy found
on the CPU (the `found` list of `np.show_runtime()`), so a failure names
the kernel that differs. A mismatch on another CPU, kernel or numpy is a
finding to report, not a reason to loosen the test. Regenerating the file
changes what "the same answers" means; a change that does so declares it
with the old and new answers.
Regenerate from the root of the repository with:

    PYTHONPATH=src python3 tests/test_golden_answers.py
"""

import ctypes
import hashlib
import json
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest

from contactfit import (SCENARIO_NAMES, ContactSignature, RawPrediction,
                        ReconstructionProblem, build_synthetic_body, coarsen_region_map,
                        coarsen_signature, filter_signature, generate_scenario, optimize,
                        problem_options, sweep_thresholds)
from contactfit.reconstruct import evaluate_breakdown, evaluate_gradient

GOLDEN = Path(__file__).resolve().parent / "golden" / "answers.json"
SEED = 7
# (granularity, step cap, scenarios)
FITS = {"coarse-9": (9, 60, SCENARIO_NAMES), "fine-75": (75, 20, ("hand-chin",))}
SWEEP_SEEDS = (1, 2, 3, 4, 5, 6)
SWEEP_GRIDS = ((0.3, 0.5, 0.7), (0.3, 0.5, 0.7), (0.05, 0.1, 0.2))


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


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
        **problem_options(config))


def fit_answer(level, name):
    granularity, iterations, _ = FITS[level]
    params, trace = optimize(_problem(name, granularity, iterations))
    start = _problem(name, granularity, iterations)
    row, matches = evaluate_breakdown(start, start.initial_params)
    return {"steps": len(trace) - 1, "params": _hex(params.to_vector()),
            "last_row": {k: _hex([v])[0] for k, v in vars(trace[-1]).items()},
            "start_row": {k: _hex([v])[0] for k, v in vars(row).items()},
            "start_gradient": _hex(evaluate_gradient(start, start.initial_params, matches))}


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


def _sha256(array):
    """SHA-256 of an array's dtype, shape and C-order bytes."""
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def body_answer():
    body = build_synthetic_body()
    model = body.model
    arrays = {name: _sha256(getattr(model, name))
              for name in ("template_vertices", "faces", "joint_parents", "joint_offsets",
                           "skinning_weights", "joint_regressor")}
    arrays["facet_to_region"] = _sha256(body.region_map.facet_to_region)
    for (fine, coarse), cmap in body.coarsen_maps.items():
        arrays[f"{fine}->{coarse}"] = _sha256(cmap.mapping)
    return {"arrays": arrays,
            "part_regions": {p: list(map(int, ids)) for p, ids in body.part_regions.items()},
            "named_regions": {n: int(r) for n, r in body.named_regions.items()}}


def scenario_answer(name):
    bundle = generate_scenario(name, seed=SEED)
    return {"class": bundle.scenario_class,
            "gt_params": _hex(bundle.gt_params.to_vector()),
            "initial_params": _hex(bundle.initial_params.to_vector()),
            "keypoints": _hex(bundle.keypoints),
            "keypoint_joints": list(map(int, bundle.keypoint_joints)),
            "support": {str(r): _hex(xy) for r, xy in bundle.support.points.items()}}


def _openblas_core():
    """The core name of the OpenBLAS kernel numpy runs (say "SkylakeX"), or
    None where numpy ships no OpenBLAS with that symbol."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def _machine():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {"numpy": np.__version__, "machine": platform.machine(),
            "openblas_core": _openblas_core(),
            "simd_found": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]}


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


def test_body_is_pinned(golden):
    assert body_answer() == golden["body"], _where(golden)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_is_pinned(golden, name):
    assert scenario_answer(name) == golden["scenarios"][name], _where(golden)


def test_golden_file_covers_every_case(golden):
    assert sorted(golden["fits"]) == sorted(f"{lv}/{n}" for lv, n in _fit_cases())
    assert list(golden["scenarios"]) == list(SCENARIO_NAMES)


if __name__ == "__main__":
    answers = {"machine": _machine(),
               "fits": {f"{lv}/{n}": fit_answer(lv, n) for lv, n in _fit_cases()},
               "sweep": sweep_answer(),
               "body": body_answer(),
               "scenarios": {name: scenario_answer(name) for name in SCENARIO_NAMES}}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(answers, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
