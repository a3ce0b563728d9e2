"""The benchmark's workloads: inputs made from a seed, and one timed pass each.

fit-75        `optimize` on the four shipped scenarios at 75 regions with the
              shipped reconstruction config (contact term on, 450 steps).
fit-coarse-9  the same scenarios with region map and signature coarsened
              75 -> 9, so most contact pairs exceed the brute-force limit of
              `method="auto"` and nearest-neighbour matching uses the KD-tree.
sweep-75      `contactfit sweep` on a validation set of dense 75-region
              predictions, then filtering, coarsening to 37/17/9, IoU and
              `contact_stats`; no fitting layer runs.

`run_pass` runs a workload on its whole input. `timed_pass` runs what the
untraced run repeats and times: the same fits, or, for the sweep, the same
path on a fold of 2 predictions.

A pass returns its wall time, the time of each of its operations (a fit or
the fold), its failed operations, its failed correctness checks and its
`answer`: the deterministic outputs, which must be identical between passes
and between the traced and the untraced run. A failed operation is a fit
that raises, fails a check or ends with its contact regions 10 mm or more
apart, or a sweep step that raises; a failed check also fails its
operation.
"""

import contextlib
import dataclasses
import io
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

import contactfit as cf
import contactfit.cli
from contactfit import io as cfio

WORKLOADS = ("fit-75", "fit-coarse-9", "sweep-75")
# workloads whose timed pass runs a sample of the input, not all of it
SAMPLED = ("sweep-75",)

# the KD-tree makes a coarse step about 9x dearer than a 75-region one, so the
# coarse fits are capped at 60 steps (a pass of 28-42 s on 2 CPUs); fewer
# steps stop some fits before their contact regions meet
_FIT = {"fit-75": {"granularity": 75, "iterations": None},
        "fit-coarse-9": {"granularity": 9, "iterations": 60}}
_TINY_ITERATIONS = 2
MAX_CONTACT_MM = 10.0  # a fit whose contact regions end farther apart failed

SWEEP_PREDICTIONS = 100
_TINY_PREDICTIONS = 6
MANIFEST = "manifest.json"     # the whole validation set
# the timed fold: the set's first FOLD_SIZE predictions. It takes about 0.1 s,
# so a 20 s run repeats it about 200 times and meets enough moments when the
# shared host leaves the CPU alone for a steady best time (see NOTES.md)
FOLD, FOLD_SIZE = "fold.json", 2
_TINY_GRIDS = ["--tau-s", "0.3,0.6", "--tau-c", "0.3,0.6", "--tau-dist", "0.1,0.3"]
COARSE_GRANULARITIES = (37, 17, 9)
SWEEP_STEPS = ("sweep", "load", "filter", "coarsen", "stats")


@dataclass
class PassResult:
    seconds: float
    attempted: int
    units: int                   # accepted optimizer steps, or predictions
    answer: dict
    failures: list = field(default_factory=list)   # failed operations
    checks: list = field(default_factory=list)     # failed correctness checks
    times: dict = field(default_factory=dict)      # seconds per fit, fold or step

    @property
    def failed(self):
        return len(self.failures)


def _tag(tracer, label):
    if tracer is not None:
        tracer.set_op(label)


def setup(workload, seed, tiny, workdir):
    """Build the inputs of one workload. `workdir` is a directory the sweep
    writes its validation files to."""
    if workload in _FIT:
        return _setup_fits(workload, seed, tiny)
    return _setup_sweep(seed, tiny, workdir)


def run_pass(workload, inputs, tracer=None):
    """The workload on its whole input: every fit, or the sweep path on the
    whole validation set."""
    if workload in _FIT:
        return _run_fits(inputs, tracer)
    return _run_sweep(inputs, MANIFEST, tracer)


def timed_pass(workload, inputs):
    """One pass of what the untraced run times: every fit, or the sweep
    path on the fold. Its `times` has one entry per fit, or the fold's."""
    if workload in _FIT:
        return _run_fits(inputs, None)
    result = _run_sweep(inputs, FOLD)
    return dataclasses.replace(result, times={FOLD: result.seconds})


def answer_error(workload, result):
    """Distance of a pass's answer from the ground truth, as a share: the
    mean over fits of the final vertex error over the start pose's, or
    1 - the mean segmentation IoU at the sweep's chosen tau_s."""
    a = result.answer
    if workload in _FIT:
        return float(np.mean([f["V_mm"] / f["V_init_mm"] for f in a.values()]))
    return 1.0 - a["segmentation_iou"]


# -- fits -----------------------------------------------------------------

def _from_config(cls, config):
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in config.items() if k in names})


def _setup_fits(workload, seed, tiny):
    granularity = _FIT[workload]["granularity"]
    iterations = _TINY_ITERATIONS if tiny else _FIT[workload]["iterations"]
    cases = []
    for name in cf.SCENARIO_NAMES:
        bundle = cf.generate_scenario(name, seed=seed)
        config = dict(bundle.config)
        if iterations is not None:
            config["iterations"] = iterations
        region_map, signature = bundle.body.region_map, bundle.signature
        if granularity != region_map.granularity:
            cmap = bundle.body.coarsen_maps[(region_map.granularity, granularity)]
            region_map = cf.coarsen_region_map(region_map, cmap)
            signature = cf.coarsen_signature(signature, cmap)
        problem = cf.ReconstructionProblem(
            model=bundle.body.model, region_map=region_map, camera=bundle.camera,
            keypoints=bundle.keypoints, keypoint_joints=bundle.keypoint_joints,
            signature=signature, initial_params=bundle.initial_params,
            weights=_from_config(cf.ObjectiveWeights, config),
            settings=_from_config(cf.OptimizerSettings, config),
            selection_mode=config.get("selection_mode", "all"),
            selection_k=config.get("selection_k", 2))
        cases.append((name, bundle, problem))
    return cases


def _score(bundle, problem, params, trace):
    model = bundle.body.model
    verts = cf.pose_mesh(model, params)
    gt_verts = cf.pose_mesh(model, bundle.gt_params)
    joints = cf.joint_positions(model, params)
    gt_joints = cf.joint_positions(model, bundle.gt_params)
    centers = cf.facet_geometry(verts, model.faces).centers
    return {
        "steps": len(trace) - 1,
        "objective_final": trace[-1].total,
        "P_mm": cf.mpjpe(joints, gt_joints),
        "T_mm": cf.translation_error(joints[0], gt_joints[0]),
        "V_mm": cf.vertex_error(verts, gt_verts),
        "V_init_mm": cf.vertex_error(cf.pose_mesh(model, problem.initial_params),
                                     gt_verts),
        "C_mm": cf.contact_distance_error(centers, problem.signature,
                                          problem.region_map),
    }


def _trace_checks(name, trace):
    totals = [b.total for b in trace]
    checks = []
    if not all(math.isfinite(t) for t in totals):
        checks.append(f"{name}: non-finite objective in the trace")
    if any(b > a for a, b in zip(totals, totals[1:])):
        checks.append(f"{name}: objective increased along the trace")
    return checks


def _run_fits(cases, tracer):
    times, steps, answer, failures, checks = {}, 0, {}, [], []
    for name, bundle, problem in cases:
        _tag(tracer, name)
        start = time.perf_counter()
        try:
            params, trace = cf.optimize(problem)
        except Exception as e:  # a fit that raises is a failed operation
            times[name] = time.perf_counter() - start
            failures.append(f"{name}: {type(e).__name__}: {e}")
            continue
        times[name] = time.perf_counter() - start
        steps += len(trace) - 1
        answer[name] = _score(bundle, problem, params, trace)
        failed_checks = _trace_checks(name, trace)
        checks += failed_checks
        contact = answer[name]["C_mm"]
        if failed_checks:
            failures.append(f"{name}: failed a check")
        elif contact is None or not contact < MAX_CONTACT_MM:
            failures.append(f"{name}: contact regions {contact} mm apart")
    return PassResult(sum(times.values()), len(cases), steps, answer, failures,
                      checks, times)


# -- sweep ----------------------------------------------------------------

@dataclass
class SweepInputs:
    directory: object            # pathlib.Path holding the files and manifests
    manifests: dict              # manifest file name -> its number of predictions
    coarsen_maps: dict           # coarse granularity -> CoarsenMap from 75
    grids: list


def _validation_pair(rng, hand_regions, n=75):
    """A ground-truth signature with 1-5 contact pairs (each touching a hand
    region, as most self-contact does) and 0-2 masked pairs, and a noisy
    dense prediction of it."""
    contact, masked = set(), set()
    n_contact, n_masked = int(rng.integers(1, 6)), int(rng.integers(0, 3))
    while len(contact) < n_contact:
        a, b = int(rng.choice(hand_regions)), int(rng.integers(0, n))
        if a != b:
            contact.add((min(a, b), max(a, b)))
    while len(masked) < n_masked:
        a, b = sorted(int(r) for r in rng.choice(n, size=2, replace=False))
        if (a, b) not in contact:
            masked.add((a, b))
    truth = cf.ContactSignature.from_sets(n, contact=sorted(contact),
                                          masked=sorted(masked))

    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    # background pairs are unlikely, a few are confident mistakes that only
    # the segmentation or landmark rule can remove
    probs = rng.beta(1.0, 30.0, len(pairs))
    probs[rng.choice(len(pairs), size=8, replace=False)] = rng.uniform(0.4, 0.95, 8)
    for i, pair in enumerate(pairs):
        if pair in contact:
            probs[i] = rng.uniform(0.35, 1.0)
    regions = sorted({r for pair in contact for r in pair})
    seg = rng.beta(1.0, 6.0, n)
    seg[rng.choice(n, size=3, replace=False)] = rng.uniform(0.4, 0.9, 3)
    seg[regions] = rng.uniform(0.35, 1.0, len(regions))
    landmarks = rng.uniform(0.0, 1.0, (n, 2))
    for a, b in sorted(contact):
        landmarks[b] = np.clip(landmarks[a] + rng.normal(0.0, 0.03, 2), 0.0, 1.0)
    landmarks[rng.choice(n, size=int(rng.integers(1, 4)), replace=False)] = np.nan
    prediction = cf.RawPrediction(n, dict(zip(pairs, probs.tolist())), seg, landmarks)
    return truth, prediction


def _setup_sweep(seed, tiny, directory):
    rng = np.random.Generator(np.random.PCG64(seed))
    body = cf.build_synthetic_body()
    hands = body.part_regions["l_hand"] + body.part_regions["r_hand"]
    count = _TINY_PREDICTIONS if tiny else SWEEP_PREDICTIONS
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for i in range(count):
        truth, prediction = _validation_pair(rng, hands)
        row = {"prediction": f"pred-{i:03d}.json", "ground_truth": f"truth-{i:03d}.json"}
        cfio.save_prediction(prediction, directory / row["prediction"])
        cfio.save_annotation(truth, cf.ImageSupport(75, {}), directory / row["ground_truth"])
        rows.append(row)
    manifests = {MANIFEST: rows, FOLD: rows[:FOLD_SIZE]}
    for name, manifest in manifests.items():
        (directory / name).write_text(json.dumps(manifest, indent=1))
    maps = {g: body.coarsen_maps[(75, g)] for g in COARSE_GRANULARITIES}
    return SweepInputs(directory, {n: len(r) for n, r in manifests.items()}, maps,
                       _TINY_GRIDS if tiny else [])


def _sweep(inputs, manifest, tracer, reached, checks):
    """The sweep path on the predictions `manifest` names; appends (step,
    start time) to `reached` before each step and a description of every
    failed check to `checks`."""
    d = inputs.directory
    cfg_path = d / f"filter-{manifest}"

    reached.append(("sweep", time.perf_counter()))
    _tag(tracer, "sweep")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = contactfit.cli.cli_dispatch(
            ["sweep", "--manifest", str(d / manifest), "--out", str(cfg_path)]
            + inputs.grids)
    if code != 0:
        raise RuntimeError(f"contactfit sweep exited with {code}")

    reached.append(("load", time.perf_counter()))
    _tag(tracer, "load")
    cfg = cfio.load_filter_config(cfg_path)
    rows = json.loads((d / manifest).read_text())
    preds = [cfio.load_prediction(d / row["prediction"]) for row in rows]
    truths = [cfio.load_annotation(d / row["ground_truth"])[0] for row in rows]

    reached.append(("filter", time.perf_counter()))
    filtered, seg_ious = [], []
    for i, (pred, truth) in enumerate(zip(preds, truths)):
        _tag(tracer, f"prediction-{i}")
        filtered.append(cf.filter_signature(pred, cfg))
        seg_ious.append(cf.iou_segmentation(cf.threshold_segmentation(pred, cfg.tau_s),
                                            cf.segmentation_from_signature(truth)))

    reached.append(("coarsen", time.perf_counter()))
    levels = {75: (filtered, truths)}
    for g, cmap in inputs.coarsen_maps.items():
        _tag(tracer, f"coarsen-{g}")
        levels[g] = ([cf.coarsen_signature(s, cmap) for s in filtered],
                     [cf.coarsen_signature(s, cmap) for s in truths])
    sig_iou = {g: float(np.mean([cf.iou_signature(s, t) for s, t in zip(*pair)]))
               for g, pair in levels.items()}

    reached.append(("stats", time.perf_counter()))
    _tag(tracer, "stats")
    contact_pairs = {}
    for g, (sigs, _) in levels.items():
        stats = cf.contact_stats(sigs)
        contact = sum(len(s.contact_pairs()) for s in sigs)
        if (stats.region_counts.sum() != 2 * contact
                or sum(stats.pair_counts.values()) != contact):
            checks.append(f"stats: contact_stats at {g} regions does not add up")
        contact_pairs[g] = contact

    seg_iou = float(np.mean(seg_ious))
    expected = f"seg_iou={seg_iou:.4f} sig_iou={sig_iou[75]:.4f}"
    if expected not in printed.getvalue():
        checks.append(f"sweep: printed {printed.getvalue().strip()!r}, "
                      f"recomputed {expected!r}")
    return {"thresholds": (cfg.tau_s, cfg.tau_c, cfg.tau_dist),
            "signature_iou": sig_iou, "segmentation_iou": seg_iou,
            "contact_pairs": contact_pairs}


def _run_sweep(inputs, manifest, tracer=None):
    reached, answer, checks = [], {}, []
    start = time.perf_counter()
    try:
        answer = _sweep(inputs, manifest, tracer, reached, checks)
        failures = [f"{check.split(':')[0]}: failed a check" for check in checks]
    except Exception as e:  # a step that raises fails it and every later step
        failures = [f"{reached[-1][0]}: {type(e).__name__}: {e}"]
        failures += [f"{step}: not run" for step in SWEEP_STEPS[len(reached):]]
    end = time.perf_counter()
    starts = [t for _, t in reached] + [end]
    times = {step: starts[i + 1] - t for i, (step, t) in enumerate(reached)}
    return PassResult(end - start, len(SWEEP_STEPS), inputs.manifests[manifest],
                      answer, failures, checks, times)
