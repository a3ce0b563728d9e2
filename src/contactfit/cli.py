"""Command-line surface tying the library together.

Subcommands: synth, reconstruct, eval, metrics, filter, sweep, stats,
coarsen, losses, export-obj. All structured inputs/outputs are JSON, tables
are CSV, meshes are OBJ. Runs are deterministic given identical inputs and
seeds.
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import io
from .body import PoseParams, facet_geometry, joint_positions, pose_mesh
from .contact import (ContactState, ImageSupport, contact_stats,
                      coarsen_signature, segmentation_from_signature)
from .contact_geometry import contact_distance_error
from .errors import CodecError, ContactFitError
from .evaluation import (SCENARIO_CLASSES, EvalRecord, aggregate, mpjpe,
                         translation_error, vertex_error)
from .inference_filter import FilterConfig, filter_signature, sweep_thresholds
from .reconstruct import ReconstructionProblem, optimize, problem_options
from .synthetic import SCENARIO_NAMES, generate_scenario
from .train_losses import (loss_landmark, loss_separation,
                           loss_segmentation_ce, signature_similarity_loss,
                           total_train_loss)


def _cmd_synth(args):
    bundle = generate_scenario(args.scenario, seed=args.seed, noise_px=args.noise_px)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    body = bundle.body
    io.save_body_model(body.model, out / "body.json")
    io.save_region_map(body.region_map, out / "regions_75.json")
    for (fine, coarse), cmap in sorted(body.coarsen_maps.items()):
        io.save_coarsen_map(cmap, out / f"coarsen_{fine}_to_{coarse}.json")
    io.save_annotation(bundle.signature, bundle.support, out / "annotation.json")
    io.save_camera(bundle.camera, out / "camera.json")
    io.save_keypoints(bundle.keypoints, bundle.keypoint_joints, out / "keypoints.json")
    io.save_pose_params(bundle.gt_params, out / "gt_params.json")
    io.save_pose_params(bundle.initial_params, out / "init_params.json")
    io.save_config(bundle.config, out / "reconstruct.cfg")
    io.save_obj(pose_mesh(body.model, bundle.gt_params), body.model.faces,
                out / "gt_mesh.obj")
    io._dump({"scenario": bundle.name, "class": bundle.scenario_class,
              "seed": bundle.seed, "noise_px": bundle.noise_px,
              "rng": "numpy-PCG64"}, out / "metadata.json")
    print(f"wrote scenario '{bundle.name}' (seed {bundle.seed}) to {out}")
    return 0


def _cmd_reconstruct(args):
    model = io.load_body_model(args.body)
    region_map = io.load_region_map(args.regions)
    signature, _ = io.load_annotation(args.annotation)
    keypoints, keypoint_joints = io.load_keypoints(args.keypoints)
    camera = io.load_camera(args.camera)
    init = (io.load_pose_params(args.init) if args.init
            else PoseParams.identity(model.num_joints))
    cfg = io.load_config(args.config) if args.config else {}
    problem = ReconstructionProblem(
        model=model, region_map=region_map, camera=camera,
        keypoints=keypoints, keypoint_joints=keypoint_joints,
        signature=signature, initial_params=init,
        **problem_options(cfg, args.config))
    final, trace = optimize(problem)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    io.save_pose_params(final, out / "params.json")
    io.save_trace_csv(trace, out / "trace.csv")
    io.save_obj(pose_mesh(model, final), model.faces, out / "final.obj")
    print(f"optimized {len(trace) - 1} accepted steps; "
          f"total {trace[0].total:.6g} -> {trace[-1].total:.6g}")
    return 0


def _cmd_eval(args):
    model = io.load_body_model(args.body)
    region_map = io.load_region_map(args.regions)
    signature, _ = io.load_annotation(args.annotation)
    pred = io.load_pose_params(args.pred_params)
    gt = io.load_pose_params(args.gt_params)
    pred_joints = joint_positions(model, pred)
    gt_joints = joint_positions(model, gt)
    pred_verts = pose_mesh(model, pred)
    gt_verts = pose_mesh(model, gt)
    centers = facet_geometry(pred_verts, model.faces).centers
    record = EvalRecord(
        instance_id=args.id, scenario_class=args.scenario_class,
        pose_error=mpjpe(pred_joints, gt_joints),
        translation_error=translation_error(pred_joints[0], gt_joints[0]),
        vertex_error=vertex_error(pred_verts, gt_verts),
        contact_distance=contact_distance_error(centers, signature, region_map))
    io.save_eval_record(record, args.out)
    if args.table:
        io.save_metrics_csv(aggregate([record]), args.table)
    print(f"P={record.pose_error:.2f} T={record.translation_error:.2f} "
          f"V={record.vertex_error:.2f} C={record.contact_distance}")
    return 0


def _cmd_metrics(args):
    paths = [Path(p) for p in args.records]
    if len(paths) == 1 and paths[0].is_dir():
        paths = sorted(paths[0].glob("*.json"))
    if not paths:
        raise CodecError("no record files given")
    records = [io.load_eval_record(p) for p in paths]
    table = aggregate(records)
    io.save_metrics_csv(table, args.out)
    print(f"aggregated {len(records)} records -> {args.out}")
    return 0


def _cmd_filter(args):
    pred = io.load_prediction(args.pred)
    cfg = io.load_filter_config(args.config) if args.config else FilterConfig()
    sig = filter_signature(pred, cfg)
    io.save_annotation(sig, ImageSupport(sig.granularity, {}), args.out)
    print(f"kept {len(sig.contact_pairs())} of {len(pred.pair_probs)} pairs")
    return 0


def _cmd_sweep(args):
    pairs = io.load_manifest(args.manifest)
    preds = [io.load_prediction(pred) for pred, _ in pairs]
    gts = [io.load_annotation(gt)[0] for _, gt in pairs]
    cfg, scores = sweep_thresholds(preds, gts, args.tau_s, args.tau_c, args.tau_dist)
    io.save_filter_config(cfg, args.out)
    print(f"tau_s={cfg.tau_s} tau_c={cfg.tau_c} tau_dist={cfg.tau_dist} "
          f"seg_iou={scores['segmentation_iou']:.4f} "
          f"sig_iou={scores['signature_iou']:.4f}")
    return 0


def _cmd_stats(args):
    paths = sorted(Path(args.in_dir).glob("*.json"))
    sigs = []
    for p in paths:
        sig, _ = io.load_annotation(p)
        if sig.granularity == args.granularity:
            sigs.append(sig)
    if not sigs:
        raise CodecError(f"no annotations at granularity {args.granularity} "
                         f"in {args.in_dir}")
    stats = contact_stats(sigs)
    io.save_stats_csv(stats, args.out, args.pairs_out)
    print(f"tallied {len(sigs)} annotations -> {args.out}")
    return 0


def _cmd_coarsen(args):
    sig, support = io.load_annotation(args.infile)
    cmap = io.load_coarsen_map(args.map)
    coarse_sig = coarsen_signature(sig, cmap)
    # coarse support: average the fine support points landing in each
    # contacting coarse region
    seg = segmentation_from_signature(coarse_sig)
    groups = {}
    for r, xy in support.points.items():
        a = int(cmap.mapping[r])
        if seg.states[a] == ContactState.CONTACT:
            groups.setdefault(a, []).append(xy)
    points = {a: tuple(np.mean(pts, axis=0)) for a, pts in groups.items()}
    io.save_annotation(coarse_sig, ImageSupport(cmap.coarse, points), args.out)
    print(f"coarsened {sig.granularity} -> {cmap.coarse}: "
          f"{len(coarse_sig.contact_pairs())} contact pairs")
    return 0


def _cmd_losses(args):
    b = io.load_loss_bundle(args.infile)
    l_sep, _ = loss_separation(b.landmarks, b.signature, b.sigma_sq_sep)
    l_k, _ = loss_landmark(b.landmarks, b.support)
    l_s, _ = loss_segmentation_ce(b.seg_logits, segmentation_from_signature(b.signature))
    l_c, _ = signature_similarity_loss(b.features, b.signature, metric=b.metric)
    total = total_train_loss(l_sep, l_k, l_s, l_c, b.weights)
    rows = [("sep", l_sep), ("K", l_k), ("S", l_s), ("C", l_c), ("total", total)]
    if args.out:
        with open(args.out, "w", newline="") as f:
            csv.writer(f).writerows([("term", "value")]
                                    + [(term, repr(float(value))) for term, value in rows])
    for term, value in rows:
        print(f"{term},{value!r}")
    return 0


def _cmd_export_obj(args):
    model = io.load_body_model(args.body)
    params = (io.load_pose_params(args.params) if args.params
              else PoseParams.identity(model.num_joints))
    io.save_obj(pose_mesh(model, params), model.faces, args.out)
    print(f"wrote {model.num_vertices} vertices, {model.num_faces} faces")
    return 0


def _grid(text):
    """A threshold grid: comma-separated numbers."""
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="contactfit",
        description="Self-contact signatures and contact-consistent body fitting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic contact scenario bundle")
    p.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-px", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("reconstruct", help="fit a body under contact constraints")
    p.add_argument("--body", required=True)
    p.add_argument("--regions", required=True)
    p.add_argument("--annotation", required=True)
    p.add_argument("--keypoints", required=True)
    p.add_argument("--camera", required=True)
    p.add_argument("--init")
    p.add_argument("--config")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("eval", help="per-instance reconstruction metrics")
    p.add_argument("--body", required=True)
    p.add_argument("--regions", required=True)
    p.add_argument("--annotation", required=True)
    p.add_argument("--pred-params", required=True)
    p.add_argument("--gt-params", required=True)
    p.add_argument("--id", required=True)
    p.add_argument("--class", dest="scenario_class", required=True,
                   choices=SCENARIO_CLASSES)
    p.add_argument("--out", required=True)
    p.add_argument("--table", help="also write a one-record metrics CSV")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("metrics", help="aggregate eval records into a table")
    p.add_argument("--records", nargs="+", required=True,
                   help="record files, or one directory of them")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("filter", help="consistency-filter a raw prediction")
    p.add_argument("--pred", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("sweep", help="pick filter thresholds on a validation set")
    p.add_argument("--manifest", required=True,
                   help="JSON list of {prediction, ground_truth} paths")
    p.add_argument("--tau-s", type=_grid, default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--tau-c", type=_grid, default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    p.add_argument("--tau-dist", type=_grid, default="0.05,0.1,0.15,0.2,0.3,0.5")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("stats", help="contact frequency tables over annotations")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--granularity", type=int, default=75)
    p.add_argument("--out", required=True)
    p.add_argument("--pairs-out")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("coarsen", help="coarsen an annotation to fewer regions")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_coarsen)

    p = sub.add_parser("losses", help="evaluate training-loss terms on a bundle")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_losses)

    p = sub.add_parser("export-obj", help="pose a body model and write an OBJ")
    p.add_argument("--body", required=True)
    p.add_argument("--params")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_obj)

    return parser


def cli_dispatch(argv):
    """Run one CLI invocation. Returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0
    try:
        return args.func(args)
    except ContactFitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
