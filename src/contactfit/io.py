"""File codecs: JSON for structured data, OBJ mesh output, CSV tables.

Every encode/decode pair round-trips exactly (floats survive via repr), and
encoding is deterministic (sorted keys) so identical inputs produce
byte-identical files.
"""

import csv
import functools
import json
from collections import namedtuple
from pathlib import Path

import numpy as np

from .body import BodyModel, Camera, PoseParams
from .contact import (ContactSignature, ContactState, ImageSupport,
                      segmentation_from_signature)
from .errors import CodecError, ContactFitError, ParameterError, check_number
from .evaluation import EvalRecord
from .inference_filter import FilterConfig, RawPrediction
from .regions import CoarsenMap, RegionMap
from .train_losses import (DEFAULT_SIGMA_SQ_SEP, SIMILARITY_METRICS, LandmarkSet,
                           LossWeights, softargmax)

_STATE_VALUES = {"contact": ContactState.CONTACT, "masked": ContactState.MASKED,
                 "no-contact": ContactState.NO_CONTACT}


def _dump(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")


def _load(path):
    with open(path) as f:
        return json.load(f)


def _decoder(what):
    """Decorator of a `load_*(path)`: a missing file, bad JSON or any
    malformed content raises a CodecError naming the file."""
    def wrap(load):
        @functools.wraps(load)
        def decode(path):
            try:
                return load(path)
            except CodecError:
                raise
            except OSError as e:
                raise CodecError(str(e), path=path) from e
            except json.JSONDecodeError as e:
                raise CodecError(f"invalid JSON: {e}", path=path) from e
            except (ValueError, TypeError, KeyError, IndexError, AttributeError,
                    OverflowError, ContactFitError) as e:
                raise CodecError(f"invalid {what}: {e}", path=path) from e
        return decode
    return wrap


def _require(data, field, path, kind=None):
    """data[field], checked to be a list or dict `kind`, or cast by `_number`
    to an int or float `kind`."""
    if field not in data:
        raise CodecError("missing", path=path, field=field)
    val = data[field]
    if kind is None:  # first: a prediction file's rows take it three times a pair
        return val
    if kind in (int, float):
        return _number(val, kind, field, path)
    if not isinstance(val, kind):
        raise CodecError(f"expected {kind.__name__}", path=path, field=field)
    return val


def _number(val, kind, field, path):
    """val as a `kind` (int or float) by `errors.check_number`, or a
    CodecError naming the field. A float passes as it is: the field's own
    check names a non-finite one."""
    if kind is float and isinstance(val, float):
        return val
    try:
        return check_number(field, val, kind)
    except ParameterError as e:
        raise CodecError(str(e), path=path, field=field) from None


# -- body model ---------------------------------------------------------

def save_body_model(model, path):
    weights = [[int(v), int(j), float(w)]
               for v, j in zip(*np.nonzero(model.skinning_weights))
               for w in [model.skinning_weights[v, j]]]
    regressor = [[int(j), int(v), float(w)]
                 for j, v in zip(*np.nonzero(model.joint_regressor))
                 for w in [model.joint_regressor[j, v]]]
    _dump({
        "vertices": model.template_vertices.tolist(),
        "faces": model.faces.tolist(),
        "joints": [{"parent": int(p), "offset": o.tolist()}
                   for p, o in zip(model.joint_parents, model.joint_offsets)],
        "weights": weights,
        "regressor": regressor,
    }, path)


@_decoder("body model")
def load_body_model(path):
    data = _load(path)
    verts = _number_rows(_require(data, "vertices", path, list), float, "vertices", path)
    faces = _number_rows(_require(data, "faces", path, list), int, "faces", path)
    joints = _require(data, "joints", path, list)
    parents = np.array([_require(j, "parent", path, int) for j in joints], dtype=int)
    if ((parents < -1) | (parents >= len(joints))).any():
        raise CodecError("parent id out of range", path=path, field="parent")
    offsets = _number_rows([_require(j, "offset", path) for j in joints], float,
                           "offset", path)
    weights = _sparse(data, "weights", path, (len(verts), len(joints)))
    regressor = _sparse(data, "regressor", path, (len(joints), len(verts)))
    return BodyModel(verts, faces, parents, offsets, weights, regressor)


def _numbers(values, kind, field, path):
    """values (a list) as a `kind` array, each entry read by `_number`."""
    return np.array([_number(x, kind, field, path) for x in values], dtype=kind)


def _number_rows(rows, kind, field, path):
    """rows (a list of lists) as a `kind` array, each entry read by `_number`."""
    return np.array([[_number(x, kind, field, path) for x in row] for row in rows],
                    dtype=kind)


def _sparse(data, field, path, shape):
    """The matrix of shape `shape` of the [row, column, value] rows of
    data[field]; each (row, column) in range and given at most once."""
    out = np.zeros(shape)
    given = np.zeros(shape, dtype=bool)
    for i, j, value in _require(data, field, path, list):
        i, j = _number(i, int, field, path), _number(j, int, field, path)
        if not (0 <= i < shape[0] and 0 <= j < shape[1]):
            raise CodecError(f"entry ({i}, {j}) out of range for shape {shape}",
                             path=path, field=field)
        if given[i, j]:
            raise CodecError(f"entry ({i}, {j}) given twice", path=path, field=field)
        given[i, j] = True
        out[i, j] = _number(value, float, field, path)
    return out


# -- pose parameters ----------------------------------------------------

def save_pose_params(params, path):
    _dump({"joint_rotations": params.joint_rotations.tolist(),
           "translation": params.translation.tolist(),
           "shape": params.shape.tolist()}, path)


@_decoder("pose params")
def load_pose_params(path):
    data = _load(path)
    return PoseParams(_number_rows(_require(data, "joint_rotations", path, list), float,
                                   "joint_rotations", path),
                      *(_numbers(_require(data, f, path, list), float, f, path)
                        for f in ("translation", "shape")))


# -- camera -------------------------------------------------------------

def save_camera(camera, path):
    _dump({"fx": camera.fx, "fy": camera.fy, "cx": camera.cx, "cy": camera.cy,
           "rotation": camera.rotation.tolist(),
           "translation": camera.translation.tolist()}, path)


@_decoder("camera")
def load_camera(path):
    data = _load(path)
    return Camera(fx=_require(data, "fx", path, float),
                  fy=_require(data, "fy", path, float),
                  cx=_require(data, "cx", path, float),
                  cy=_require(data, "cy", path, float),
                  rotation=_number_rows(_require(data, "rotation", path, list), float,
                                        "rotation", path),
                  translation=_numbers(_require(data, "translation", path, list), float,
                                       "translation", path))


# -- regions ------------------------------------------------------------

def save_region_map(region_map, path):
    _dump({"granularity": region_map.granularity,
           "facet_to_region": region_map.facet_to_region.tolist()}, path)


@_decoder("region map")
def load_region_map(path):
    data = _load(path)
    return RegionMap(_require(data, "granularity", path, int),
                     _numbers(_require(data, "facet_to_region", path, list), int,
                              "facet_to_region", path))


def save_coarsen_map(cmap, path):
    _dump({"fine": cmap.fine, "coarse": cmap.coarse,
           "map": cmap.mapping.tolist()}, path)


@_decoder("coarsen map")
def load_coarsen_map(path):
    data = _load(path)
    return CoarsenMap(_require(data, "fine", path, int),
                      _require(data, "coarse", path, int),
                      _numbers(_require(data, "map", path, list), int, "map", path))


# -- annotation (signature + image support) -----------------------------

def save_annotation(signature, support, path):
    pairs = [{"r1": r1, "r2": r2, "state": "contact"}
             for r1, r2 in signature.contact_pairs()]
    pairs += [{"r1": r1, "r2": r2, "state": "masked"}
              for r1, r2 in signature.masked_pairs()]
    supp = [{"r": r, "x": support.points[r][0], "y": support.points[r][1]}
            for r in support.regions()] if support is not None else []
    _dump({"granularity": signature.granularity, "pairs": pairs,
           "support": supp}, path)


@_decoder("annotation")
def load_annotation(path):
    """Returns (ContactSignature, ImageSupport).

    Accepts an optional masked_regions list: all pairs touching those
    regions become masked (unless annotated contact).
    """
    data = _load(path)
    return _annotation_from(_require(data, "granularity", path, int), data,
                            data.get("support", []), path)


def _annotation_from(n, sigdata, support_rows, path):
    """(ContactSignature, ImageSupport) at granularity n from the `pairs`
    and optional `masked_regions` of sigdata and the support rows. A pair
    listed twice, or support on a region not in contact, is a CodecError."""
    annotated = {}  # (lo, hi) -> state name
    for row in _require(sigdata, "pairs", path, list):
        state = _require(row, "state", path)
        if state not in _STATE_VALUES:
            raise CodecError(f"unknown state {state!r}", path=path, field="pairs")
        r1, r2 = _require(row, "r1", path, int), _require(row, "r2", path, int)
        pair = (min(r1, r2), max(r1, r2))
        if pair in annotated:
            prev = annotated[pair]
            what = f"listed twice as {state}" if prev == state else f"both {prev} and {state}"
            raise CodecError(f"pair {pair} is {what}", path=path, field="pairs")
        annotated[pair] = state
    for r in sigdata.get("masked_regions", []):
        r = _number(r, int, "masked_regions", path)
        if not 0 <= r < n:
            raise CodecError(f"region {r} out of range", path=path,
                             field="masked_regions")
        for other in range(n):
            if other != r:
                annotated.setdefault((min(r, other), max(r, other)), "masked")
    sig = ContactSignature(n, [(pair, _STATE_VALUES[state])
                               for pair, state in annotated.items()])
    support = ImageSupport(n, {_require(row, "r", path, int):
                               (_require(row, "x", path, float),
                                _require(row, "y", path, float))
                               for row in support_rows})
    seg = segmentation_from_signature(sig)
    for r in support.regions():
        if seg.states[r] != ContactState.CONTACT:
            raise CodecError(f"support on non-contact region {r}", path=path,
                             field="support")
    return sig, support


# -- training-loss bundle ------------------------------------------------

# the inputs of the training-loss terms, as load_loss_bundle reads them
LossBundle = namedtuple("LossBundle", ["signature", "support", "landmarks", "seg_logits",
                                       "features", "metric", "sigma_sq_sep", "weights"])


@_decoder("loss bundle")
def load_loss_bundle(path):
    """A LossBundle. The signature and support decode as an annotation's
    do; the landmarks are given, or are the soft-argmax of `heatmaps`."""
    data = _load(path)
    n = _require(data, "granularity", path, int)
    sig, support = _annotation_from(n, _require(data, "signature", path, dict),
                                     data.get("support", []), path)
    coords = ([softargmax(h)[0] for h in data["heatmaps"]] if "heatmaps" in data
              else _number_rows(_require(data, "landmarks", path, list), float,
                                "landmarks", path))
    metric = data.get("metric", "dot")
    if metric not in SIMILARITY_METRICS:
        raise CodecError(f"unknown similarity metric {metric!r}", path=path, field="metric")
    return LossBundle(
        sig, support, LandmarkSet(n, coords),
        _finite_rows(data, "seg_logits", path, n, 1),
        _finite_rows(data, "features", path, n, 2),
        metric, _finite(data.get("sigma_sq_sep", DEFAULT_SIGMA_SQ_SEP), "sigma_sq_sep", path),
        LossWeights(**data.get("weights", {})))


def _finite(val, field, path):
    """val as a finite float, or a CodecError naming the field."""
    val = _number(val, float, field, path)
    if not np.isfinite(val):
        raise CodecError("not finite", path=path, field=field)
    return val


def _finite_rows(data, field, path, n, ndim):
    """data[field] as a finite float array of `ndim` dimensions and n rows,
    each entry read by `_number`."""
    rows = _require(data, field, path, list)
    want = f"({n},)" if ndim == 1 else f"({n}, d)"
    if ndim == 2 and not all(isinstance(row, list) and len(row) == len(rows[0])
                             for row in rows):
        raise CodecError(f"expected shape {want}, got rows that are not lists of one length",
                         path=path, field=field)
    arr = (_numbers if ndim == 1 else _number_rows)(rows, float, field, path)
    if arr.ndim != ndim or len(arr) != n:
        raise CodecError(f"expected shape {want}, got {arr.shape}", path=path, field=field)
    if not np.isfinite(arr).all():
        raise CodecError("not finite", path=path, field=field)
    return arr


# -- sweep manifest ------------------------------------------------------

@_decoder("manifest")
def load_manifest(path):
    """[(prediction path, ground-truth path)] of a sweep manifest, a JSON
    list of {prediction, ground_truth} rows; the paths are resolved against
    the manifest's folder."""
    rows = _load(path)
    if not isinstance(rows, list):
        raise CodecError("expected a list of {prediction, ground_truth} rows", path=path)
    base = Path(path).parent
    return [(base / _require(row, "prediction", path),
             base / _require(row, "ground_truth", path)) for row in rows]


# -- raw predictions and filter config ----------------------------------

def save_prediction(pred, path):
    probs = [{"r1": r1, "r2": r2, "p": p}
             for (r1, r2), p in zip(pred.pairs.tolist(), pred.pair_probs.tolist())]
    landmarks = [None if not np.isfinite(lm).all() else [float(lm[0]), float(lm[1])]
                 for lm in pred.landmarks]
    _dump({"granularity": pred.granularity,
           "signature_probs": probs,
           "segmentation_probs": pred.segmentation_probs.tolist(),
           "landmarks": landmarks}, path)


@_decoder("prediction")
def load_prediction(path):
    data = _load(path)
    n = _require(data, "granularity", path, int)
    rows = _require(data, "signature_probs", path, list)
    r1, r2, probs = ([_require(row, f, path) for row in rows] for f in ("r1", "r2", "p"))
    landmarks = [[np.nan, np.nan] if lm is None else lm
                 for lm in _require(data, "landmarks", path, list)]
    return RawPrediction.from_arrays(
        n, np.array([r1, r2], dtype=np.int64).T, probs,
        _finite_rows(data, "segmentation_probs", path, n, 1),
        np.asarray(landmarks, dtype=float))


def save_filter_config(cfg, path):
    _dump({"tau_s": cfg.tau_s, "tau_c": cfg.tau_c, "tau_dist": cfg.tau_dist}, path)


@_decoder("filter config")
def load_filter_config(path):
    data = _load(path)
    return FilterConfig(tau_s=_require(data, "tau_s", path),
                        tau_c=_require(data, "tau_c", path),
                        tau_dist=_require(data, "tau_dist", path))


# -- keypoints ----------------------------------------------------------

def save_keypoints(keypoints, keypoint_joints, path):
    _dump({"keypoints": [{"joint": int(j), "x": float(x), "y": float(y)}
                         for j, (x, y) in zip(keypoint_joints, keypoints)]}, path)


@_decoder("keypoints")
def load_keypoints(path):
    data = _load(path)
    rows = _require(data, "keypoints", path, list)
    joints = np.array([_require(r, "joint", path, int) for r in rows], dtype=int)
    if (joints < 0).any():
        raise CodecError("negative joint id", path=path, field="joint")
    pts = np.array([[_finite(_require(r, f, path), f, path) for f in "xy"] for r in rows],
                   dtype=float).reshape(-1, 2)
    return pts, joints


# -- evaluation records --------------------------------------------------

def save_eval_record(record, path):
    _dump({"id": record.instance_id, "class": record.scenario_class,
           "P": record.pose_error, "T": record.translation_error,
           "V": record.vertex_error, "C": record.contact_distance}, path)


@_decoder("eval record")
def load_eval_record(path):
    data = _load(path)
    return EvalRecord(str(_require(data, "id", path)),
                      str(_require(data, "class", path)),
                      _require(data, "P", path, float),
                      _require(data, "T", path, float),
                      _require(data, "V", path, float),
                      None if data.get("C") is None else _require(data, "C", path, float))


# -- reconstruction config (key = value lines) --------------------------

def save_config(config, path):
    with open(path, "w") as f:
        for key in sorted(config):
            f.write(f"{key} = {config[key]}\n")


@_decoder("config")
def load_config(path):
    """{key: value} of `key = value` lines, a value read as a bool, an int,
    a float or else a string; `#` starts a comment.

    This is the one generic `key = value` parser, and it accepts any key:
    the caller whitelists the keys it knows (`contactfit reconstruct`
    rejects the others, and casts each value to its field's type).
    """
    out = {}
    with open(path) as f:
        lines = f.readlines()
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CodecError(f"line {lineno} is not 'key = value'", path=path)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key:
            raise CodecError(f"line {lineno} has no key", path=path)
        if raw.lower() in ("true", "false"):
            out[key] = raw.lower() == "true"
            continue
        try:
            out[key] = int(raw)
        except ValueError:
            try:
                out[key] = float(raw)
            except ValueError:
                out[key] = raw
    return out


# -- OBJ ----------------------------------------------------------------

def save_obj(verts, faces, path):
    """Vertices + triangular faces, y-up, meters, 1-based indices."""
    with open(path, "w") as f:
        for v in np.asarray(verts, dtype=float):
            f.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for a, b, c in np.asarray(faces, dtype=int):
            f.write(f"f {a + 1} {b + 1} {c + 1}\n")


# -- CSV tables ----------------------------------------------------------

def save_trace_csv(trace, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["iteration", "L_S", "L_psr", "L_col", "L_D", "L_N", "total"])
        for i, row in enumerate(trace):
            writer.writerow([i] + [repr(float(x)) for x in
                                   (row.l_s, row.l_psr, row.l_col,
                                    row.l_d, row.l_n, row.total)])


def save_metrics_csv(table, path):
    """Table-style CSV: one column per scenario class plus overall,
    one row per metric."""
    classes = [c for c in ("standing", "sitting-no-chair", "with-chair", "overall")
               if c in table]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["metric"] + classes)
        for metric in ("P", "T", "V", "C"):
            row = [metric]
            for c in classes:
                val = table[c].get(metric)
                row.append("" if val is None else repr(float(val)))
            writer.writerow(row)


def save_stats_csv(stats, path, pairs_path=None):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["region", "count"])
        for r, count in enumerate(stats.region_counts):
            writer.writerow([r, int(count)])
    if pairs_path is not None:
        with open(pairs_path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["r1", "r2", "count"])
            for (r1, r2), count in sorted(stats.pair_counts.items()):
                writer.writerow([r1, r2, int(count)])
