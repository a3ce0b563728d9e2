"""contactfit benchmark: one workload per run, its metrics as JSON on the last line.

    python3 perfbench/run.py --workload fit-75 [--seed 7] [--seconds 20] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
`src/` directory. With `--trace 0` the run sets the workload up several
times, runs a sampled workload once on its whole input, then makes timed
passes until `--seconds` would be exceeded (at least one). It reports the
end-to-end metrics: the median set-up, and per pass the sum over its
operations (fits, or the sweep's fold) of each one's shortest time in the
run. With `--trace 1` it makes one untraced pass, then a traced set-up and pass, and
reports the per-layer metrics and the tracing overhead; the spans go to
`perfbench/out/`. Both modes count failed operations and check the
answers; the exit code is 1 when a check failed. `--tiny` shrinks every
workload to seconds, for the smoke test.
"""

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3

# the public functions traced, as "<module>.<function>" of src/contactfit
TARGETS = (
    "body.pose_mesh", "body.pose_mesh_with_jacobian", "body.facet_geometry",
    "body.facet_normal_vertex_jacobian",
    "rotations.rodrigues", "rotations.rodrigues_jacobian",
    "reconstruct.optimize", "reconstruct.evaluate_breakdown",
    "reconstruct.evaluate_gradient", "reconstruct.loss_collision",
    "reconstruct.loss_regularizer", "reconstruct.fit_collision_proxies",
    "contact_geometry.loss_distance", "contact_geometry.phi_distance",
    "contact_geometry.loss_distance_frozen", "contact_geometry.loss_normal",
    "contact_geometry.contact_distance_error",
    "spatial.nearest_neighbors",
    "regions.region_facets",
    "synthetic.build_synthetic_body", "synthetic.generate_scenario",
    "inference_filter.sweep_thresholds", "inference_filter.filter_signature",
    "inference_filter.threshold_segmentation",
    "contact.iou_signature", "contact.iou_segmentation",
    "contact.coarsen_signature", "contact.contact_stats",
    "io.load_prediction", "io.load_annotation",
    "cli.cli_dispatch",
)


def _nearest_neighbor_counts(args, kwargs):
    query, data = args[0], args[1]
    method = args[3] if len(args) > 3 else kwargs.get("method", "brute")
    return {"point_pairs": len(query) * len(data), "kdtree_calls": int(method == "kdtree")}


COUNTERS = {"spatial.nearest_neighbors": _nearest_neighbor_counts}
WARNING_COUNTS = {"reconstruct.behind_camera_warnings": "behind camera"}


def machine():
    """nproc, Python, numpy, BLAS library and BLAS thread count."""
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": None}
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(handle, symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                info["blas_threads"] = get()
                return info
    return info


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    value = float(value)
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def shortest_pass(passes):
    """The sum over a pass's operations of each one's shortest time in
    `passes`: the time of a pass on a CPU the shared host leaves alone."""
    return sum(min(p.times[op] for p in passes) for op in passes[0].times)


def end_to_end(wl, workload, setups, passes, whole):
    answer_error = wl.answer_error(workload, whole) if whole.answer else math.nan
    pass_s = shortest_pass(passes)
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "pass_s": _metric(pass_s, "s"),
        "iter_ms": _metric(1e3 * pass_s / max(passes[0].units, 1), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        "answer_error": _metric(answer_error, "share"),
    }


def per_layer(tracer, base, traced):
    layers = tracer.summary()
    metrics = {}
    modules = {}
    for target, (calls, self_s) in layers.items():
        metrics[f"{target}.calls"] = _metric(calls, "count")
        metrics[f"{target}.self_s"] = _metric(self_s, "s")
        module = target.split(".")[0]
        modules[module] = modules.get(module, 0.0) + self_s
    for module, self_s in modules.items():
        metrics[f"{module}.self_s"] = _metric(self_s, "s")

    evaluations = layers["reconstruct.evaluate_breakdown"][0]
    trials = evaluations - layers["reconstruct.optimize"][0]  # minus initial points
    iterations = traced.units if layers["reconstruct.optimize"][0] else 0
    metrics["reconstruct.optimize.iterations"] = _metric(iterations, "count")
    metrics["reconstruct.optimize.evaluations"] = _metric(evaluations, "count")
    metrics["reconstruct.linesearch.accept_ratio"] = _metric(
        iterations / trials if trials else 0.0, "share")
    for name in ("reconstruct.behind_camera_warnings",
                 "spatial.nearest_neighbors.point_pairs",
                 "spatial.nearest_neighbors.kdtree_calls"):
        metrics[name] = _metric(tracer.counts[name], "count")
    metrics["trace.spans"] = _metric(len(tracer), "count")
    metrics["trace.overhead_s"] = _metric(traced.seconds - base.seconds, "s")
    metrics["trace.overhead_ratio"] = _metric(traced.seconds / base.seconds - 1.0, "share")
    return metrics


def _timed_setups(wl, args, workdir):
    durations = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = wl.setup(args.workload, args.seed, args.tiny, workdir)
        durations.append(time.perf_counter() - start)
    return inputs, durations


def _passes(wl, workload, inputs, seconds):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(wl.timed_pass(workload, inputs))
        typical = statistics.median(p.seconds for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def _report_pass(label, result):
    times = ", ".join(f"{k} {v:.3f}" for k, v in result.times.items())
    print(f"{label}: {result.seconds:.3f} s ({times}), {result.units} units, "
          f"{result.failed}/{result.attempted} failed")
    for failure in result.failures:
        print(f"  FAILED {failure}")
    for check in result.checks:
        print(f"  CHECK FAILED {check}")


def _report_answer(answer):
    for key, value in answer.items():
        print(f"  {key}: {json.dumps(value, default=str)}")


def measure(args, wl, workdir):
    """Untraced run: returns (passes, failed checks, end-to-end metrics)."""
    inputs, setups = _timed_setups(wl, args, workdir)
    # a sampled workload runs once on its whole input, untimed, for its answer
    sampled = args.workload in wl.SAMPLED
    if sampled:
        whole = wl.run_pass(args.workload, inputs)
        _report_pass("whole input", whole)
    passes = _passes(wl, args.workload, inputs, args.seconds)
    if not sampled:
        whole = passes[0]
    mismatches = []
    for i, p in enumerate(passes):
        _report_pass(f"pass {i}", p)
        if p.answer != passes[0].answer:
            mismatches.append(f"pass {i} answer differs from pass 0")
    _report_answer(whole.answer)
    metrics = end_to_end(wl, args.workload, setups, passes, whole)
    return passes + [whole] * sampled, mismatches, metrics


def trace(args, wl, workdir):
    """One untraced pass, then a traced set-up and pass: returns (passes,
    failed checks, per-layer metrics) and writes the spans."""
    from tracer import Tracer
    base = wl.run_pass(args.workload, wl.setup(args.workload, args.seed, args.tiny, workdir))
    tracer = Tracer(TARGETS, COUNTERS, WARNING_COUNTS)
    with tracer.installed():
        tracer.set_op("setup")
        inputs = wl.setup(args.workload, args.seed, args.tiny, workdir)
        traced = wl.run_pass(args.workload, inputs, tracer)
    _report_pass("untraced", base)
    _report_pass("traced", traced)
    _report_answer(base.answer)
    mismatches = (["traced answer differs from untraced answer"]
                  if traced.answer != base.answer else [])
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write(spans)
    print(f"{len(tracer)} spans written to {spans.relative_to(ROOT)}")
    return [base, traced], mismatches, per_layer(tracer, base, traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a few seconds (smoke test)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import contactfit
    except ImportError as e:
        print(f"error: cannot import contactfit from {SRC}: {e}", file=sys.stderr)
        return 2
    if Path(contactfit.__file__).resolve().parent != SRC / "contactfit":
        print(f"error: contactfit imported from {contactfit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")

    print(f"machine: {json.dumps(machine())}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    workdir = OUT / f"sweep-{os.getpid()}"
    try:
        passes, mismatches, metrics = (trace if args.trace else measure)(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for m in mismatches:
        print(f"  CHECK FAILED {m}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    correct = not mismatches and not any(p.checks for p in passes)
    attempted = sum(p.attempted for p in passes) + len(mismatches)
    failed = sum(p.failed for p in passes) + len(mismatches)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
