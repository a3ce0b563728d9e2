"""File codecs: JSON for structured data, OBJ mesh output, CSV tables.

Every encode/decode pair round-trips exactly (floats survive via repr), and
encoding is deterministic (sorted keys) so identical inputs produce
byte-identical files.

Each JSON loader declares its fields once, as `_Field` data that `_read`
reads, a list of row objects column by column: one pass takes a column's
entry types, and `errors.check_number` runs per entry only when a type is not
allowed. Checked per entry, a prediction's thousands of pairs would cost more
than its JSON parse; a bad entry still gets that check's message and field.
"""

import contextlib
import csv
import dataclasses
import functools
import json
from collections import namedtuple
from itertools import chain
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
_REQUIRED = object()
# the entry types each kind takes as they are
_ALLOWED = {int: {int}, float: {float, int}, str: {str}}


class _Field(namedtuple("_Field", "kind shape finite default null_rows",
                        defaults=((), False, _REQUIRED, False))):
    """A field of an input file. kind: int, float, str, or a {name: _Field}
    dict for an object (keys 0, 1, ... for a list). shape: per level of list
    nesting, None for any length, a length, or the name of an int field read
    before it; (None,) with a dict kind is a list of rows. finite: no NaN or
    infinity. default: the value of a missing field, read as a given one; a
    None default also admits null. null_rows: a null row reads as NaNs."""


def _read(value, field, path, name=None, known=None):
    """value, the field `name`, read as `field` declares: {name: value} for
    an object, {key: column} for a list of rows, a str or a list of them, a
    Python int or float, or an int or float array; else a CodecError."""
    if value is None and field.default is None:
        return None
    if isinstance(field.kind, dict):
        return (_read_rows if field.shape else _read_object)(value, field.kind, path, name)
    want = [known[d] if isinstance(d, str) else d for d in field.shape]
    entries, shape = [value], []
    for depth, length in enumerate(want):  # one level of list nesting at a time
        if field.null_rows and depth == 1:
            entries = [[np.nan] * length if row is None else row for row in entries]
        if (set(map(type, entries)) - {list} or len(lengths := set(map(len, entries))) > 1
                or length is not None and lengths - {length}):
            raise CodecError(f"expected lists of shape {want}", path=path, field=name)
        shape.append(lengths.pop() if lengths else length or 0)
        entries = list(chain.from_iterable(entries)) if depth else value
    bad = set(map(type, entries)) - _ALLOWED[field.kind]
    if bad and field.kind is str:
        first = next(v for v in entries if type(v) in bad)
        raise CodecError(f"expected a string, got {first!r}", path=path, field=name)
    if bad:
        try:
            entries = [check_number(name, v, field.kind) if type(v) in bad else v
                       for v in entries]
        except ParameterError as e:
            raise CodecError(str(e), path=path, field=name) from None
    if field.kind is str:
        return entries if shape else entries[0]
    arr = np.fromiter(entries, field.kind, len(entries)).reshape(shape)
    if field.finite and not np.isfinite(arr).all():
        raise CodecError("not finite", path=path, field=name)
    return arr if shape else arr.item()


def _read_object(data, fields, path, name):
    """{name: value} of `fields` in the object `data`, which holds no other."""
    if type(data) is not dict:
        raise CodecError("expected an object", path=path, field=name)
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise CodecError("unknown key", path=path, field=unknown[0])
    out = {}
    for key, field in fields.items():
        value = data.get(key, field.default)
        if value is _REQUIRED:
            raise CodecError("missing", path=path, field=key)
        out[key] = _read(value, field, path, key, out)
    return out


def _read_rows(rows, fields, path, name):
    """{key: column} of a list of rows that each hold every key of `fields`
    and no other, each column read as its field with one more dimension. A
    column of list rows (keys 0, 1, ...) is named by the list."""
    positional = isinstance(next(iter(fields)), int)
    expected = f"expected a list of {'lists' if positional else 'objects'}"
    if type(rows) is not list:
        raise CodecError(expected, path=path, field=name)
    columns = {}
    for key, field in fields.items():
        try:
            column = [row[key] for row in rows]
        except (KeyError, IndexError):
            raise CodecError("missing", path=path, field=name if positional else key) from None
        except TypeError:  # a row of another kind
            raise CodecError(expected, path=path, field=name) from None
        columns[key] = _read(column, field._replace(shape=(None,) + field.shape), path,
                             name if positional else key)
    if set(map(len, rows)) - {len(fields)}:  # every row holds every field: one holds more
        raise CodecError("a row holds an undeclared field", path=path, field=name)
    return columns


def _dump(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")


def _decoder(what, fields=None):
    """Decorator of a `load_*`: `load_*(path)` calls it with `_read` of the
    JSON file's `fields` (its `fields` attribute) and the path, or with the
    path alone. Any fault in the file is a CodecError naming the file."""
    def wrap(load):
        @functools.wraps(load)
        def decode(path):
            try:
                if fields is None:
                    return load(path)
                with open(path) as f:
                    return load(_read(json.load(f), fields, path), path)
            except CodecError:
                raise
            except OSError as e:
                raise CodecError(str(e), path=path) from e
            except json.JSONDecodeError as e:
                raise CodecError(f"invalid JSON: {e}", path=path) from e
            except (ValueError, TypeError, KeyError, IndexError, AttributeError,
                    OverflowError, ContactFitError) as e:
                raise CodecError(f"invalid {what}: {e}", path=path) from e
        decode.fields = fields
        return decode
    return wrap


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


_SPARSE = _Field({0: _Field(int), 1: _Field(int), 2: _Field(float)}, (None,))


@_decoder("body model", _Field({
    "vertices": _Field(float, (None, None)), "faces": _Field(int, (None, None)),
    "joints": _Field({"parent": _Field(int), "offset": _Field(float, (None,))}, (None,)),
    "weights": _SPARSE, "regressor": _SPARSE}))
def load_body_model(f, path):
    parents = f["joints"]["parent"]
    if ((parents < -1) | (parents >= len(parents))).any():
        raise CodecError("parent id out of range", path=path, field="parent")
    shape = (len(f["vertices"]), len(parents))
    return BodyModel(f["vertices"], f["faces"], parents, f["joints"]["offset"],
                     _sparse(f["weights"], "weights", path, shape),
                     _sparse(f["regressor"], "regressor", path, shape[::-1]))


def _sparse(entries, field, path, shape):
    """The matrix of shape `shape` of the [row, column, value] entries (the
    `_SPARSE` columns) of `field`; each (row, column) in range and given at
    most once."""
    i, j = entries[0], entries[1]
    repeated = np.ones(len(i), dtype=bool)  # out-of-range entries are reported first
    repeated[np.unique(i * shape[1] + j, return_index=True)[1]] = False
    for bad, what in (((i < 0) | (i >= shape[0]) | (j < 0) | (j >= shape[1]),
                       f"out of range for shape {shape}"), (repeated, "given twice")):
        if bad.any():
            k = bad.argmax()
            raise CodecError(f"entry ({i[k]}, {j[k]}) {what}", path=path, field=field)
    out = np.zeros(shape)
    out[i, j] = entries[2]
    return out


# -- pose parameters ----------------------------------------------------

def save_pose_params(params, path):
    _dump({"joint_rotations": params.joint_rotations.tolist(),
           "translation": params.translation.tolist(),
           "shape": params.shape.tolist()}, path)


@_decoder("pose params", _Field({"joint_rotations": _Field(float, (None, None)),
                                 "translation": _Field(float, (None,)),
                                 "shape": _Field(float, (None,))}))
def load_pose_params(f, path):
    return PoseParams(**f)


# -- camera -------------------------------------------------------------

def save_camera(camera, path):
    _dump({"fx": camera.fx, "fy": camera.fy, "cx": camera.cx, "cy": camera.cy,
           "rotation": camera.rotation.tolist(),
           "translation": camera.translation.tolist()}, path)


@_decoder("camera", _Field({**dict.fromkeys(("fx", "fy", "cx", "cy"), _Field(float)),
                            "rotation": _Field(float, (None, None)),
                            "translation": _Field(float, (None,))}))
def load_camera(f, path):
    return Camera(**f)


# -- regions ------------------------------------------------------------

def save_region_map(region_map, path):
    _dump({"granularity": region_map.granularity,
           "facet_to_region": region_map.facet_to_region.tolist()}, path)


@_decoder("region map", _Field({"granularity": _Field(int),
                                "facet_to_region": _Field(int, (None,))}))
def load_region_map(f, path):
    return RegionMap(**f)


def save_coarsen_map(cmap, path):
    _dump({"fine": cmap.fine, "coarse": cmap.coarse,
           "map": cmap.mapping.tolist()}, path)


@_decoder("coarsen map", _Field({"fine": _Field(int), "coarse": _Field(int),
                                 "map": _Field(int, (None,))}))
def load_coarsen_map(f, path):
    return CoarsenMap(f["fine"], f["coarse"], f["map"])


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


# the fields of a signature, and the support rows, of an annotation or bundle
_SIGNATURE = {"pairs": _Field({"r1": _Field(int), "r2": _Field(int), "state": _Field(str)},
                              (None,)),
              "masked_regions": _Field(int, (None,), default=[])}
_SUPPORT = _Field({"r": _Field(int), "x": _Field(float), "y": _Field(float)}, (None,),
                  default=[])


@_decoder("annotation", _Field({"granularity": _Field(int), **_SIGNATURE,
                                "support": _SUPPORT}))
def load_annotation(f, path):
    """(ContactSignature, ImageSupport). All pairs touching a region of
    `masked_regions` become masked, unless annotated contact."""
    return _annotation_from(f["granularity"], f, f["support"], path)


def _annotation_from(n, sig, support, path):
    """(ContactSignature, ImageSupport) at granularity n from the `pairs`
    and `masked_regions` of sig and the support columns. A pair listed
    twice, or support on a region not in contact, is a CodecError."""
    annotated = {}  # (lo, hi) -> state name
    pairs = sig["pairs"]
    for r1, r2, state in zip(pairs["r1"].tolist(), pairs["r2"].tolist(), pairs["state"]):
        if state not in _STATE_VALUES:
            raise CodecError(f"unknown state {state!r}", path=path, field="pairs")
        pair = (min(r1, r2), max(r1, r2))
        if pair in annotated:
            prev = annotated[pair]
            what = f"listed twice as {state}" if prev == state else f"both {prev} and {state}"
            raise CodecError(f"pair {pair} is {what}", path=path, field="pairs")
        annotated[pair] = state
    for r in sig["masked_regions"].tolist():
        if not 0 <= r < n:
            raise CodecError(f"region {r} out of range", path=path,
                             field="masked_regions")
        for other in range(n):
            if other != r:
                annotated.setdefault((min(r, other), max(r, other)), "masked")
    sig = ContactSignature(n, [(pair, _STATE_VALUES[state])
                               for pair, state in annotated.items()])
    support = ImageSupport(n, {r: (x, y) for r, x, y in
                               zip(*(support[k].tolist() for k in "rxy"))})
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


@_decoder("loss bundle", _Field({
    "granularity": _Field(int), "signature": _Field(_SIGNATURE), "support": _SUPPORT,
    "landmarks": _Field(float, ("granularity", 2), True, None),
    "heatmaps": _Field(float, ("granularity", None, None), True, None),
    "seg_logits": _Field(float, ("granularity",), True),
    "features": _Field(float, ("granularity", None), True),
    "metric": _Field(str, default="dot"),
    "sigma_sq_sep": _Field(float, finite=True, default=DEFAULT_SIGMA_SQ_SEP),
    "weights": _Field({w.name: _Field(float, default=w.default)
                       for w in dataclasses.fields(LossWeights)}, default={})}))
def load_loss_bundle(f, path):
    """A LossBundle. The signature and support decode as an annotation's
    do; the landmarks are given, or are the soft-argmax of `heatmaps`."""
    n = f["granularity"]
    sig, support = _annotation_from(n, f["signature"], f["support"], path)
    coords = (f["landmarks"] if f["heatmaps"] is None
              else [softargmax(h)[0] for h in f["heatmaps"]])
    if coords is None:
        raise CodecError("missing", path=path, field="landmarks")
    if f["metric"] not in SIMILARITY_METRICS:
        raise CodecError(f"unknown similarity metric {f['metric']!r}", path=path,
                         field="metric")
    return LossBundle(sig, support, LandmarkSet(n, coords), f["seg_logits"], f["features"],
                      f["metric"], f["sigma_sq_sep"], LossWeights(**f["weights"]))


# -- sweep manifest ------------------------------------------------------

@_decoder("manifest", _Field({"prediction": _Field(str), "ground_truth": _Field(str)},
                             (None,)))
def load_manifest(f, path):
    """[(prediction path, ground-truth path)] of a sweep manifest, a JSON
    list of {prediction, ground_truth} rows; the paths are resolved against
    the manifest's folder."""
    base = Path(path).parent
    return [(base / p, base / g) for p, g in zip(f["prediction"], f["ground_truth"])]


# -- raw predictions and filter config ----------------------------------

def save_prediction(pred, path):
    landmarks = [None if not np.isfinite(lm).all() else [float(lm[0]), float(lm[1])]
                 for lm in pred.landmarks]
    _dump({"granularity": pred.granularity,
           "pairs": pred.pairs.tolist(), "p": pred.pair_probs.tolist(),
           "segmentation_probs": pred.segmentation_probs.tolist(),
           "landmarks": landmarks}, path)


@_decoder("prediction", _Field({
    "granularity": _Field(int),
    "pairs": _Field(int, (None, 2)),
    "p": _Field(float, (None,), True),
    "segmentation_probs": _Field(float, ("granularity",), True),
    "landmarks": _Field(float, ("granularity", 2), null_rows=True)}))
def load_prediction(f, path):
    """A RawPrediction from the `pairs` (M, 2) and `p` (M,) columns."""
    return RawPrediction.from_arrays(f["granularity"], f["pairs"], f["p"],
                                     f["segmentation_probs"], f["landmarks"])


def save_filter_config(cfg, path):
    _dump({"tau_s": cfg.tau_s, "tau_c": cfg.tau_c, "tau_dist": cfg.tau_dist}, path)


@_decoder("filter config", _Field(dict.fromkeys(("tau_s", "tau_c", "tau_dist"),
                                                _Field(float))))
def load_filter_config(f, path):
    return FilterConfig(**f)


# -- keypoints ----------------------------------------------------------

def save_keypoints(keypoints, keypoint_joints, path):
    _dump({"keypoints": [{"joint": int(j), "x": float(x), "y": float(y)}
                         for j, (x, y) in zip(keypoint_joints, keypoints)]}, path)


@_decoder("keypoints", _Field({"keypoints": _Field({
    "joint": _Field(int), "x": _Field(float, finite=True), "y": _Field(float, finite=True)},
    (None,))}))
def load_keypoints(f, path):
    rows = f["keypoints"]
    if (rows["joint"] < 0).any():
        raise CodecError("negative joint id", path=path, field="joint")
    return np.stack([rows["x"], rows["y"]], 1), rows["joint"]


# -- evaluation records --------------------------------------------------

def save_eval_record(record, path):
    _dump({"id": record.instance_id, "class": record.scenario_class,
           "P": record.pose_error, "T": record.translation_error,
           "V": record.vertex_error, "C": record.contact_distance}, path)


@_decoder("eval record", _Field({"id": _Field(str), "class": _Field(str),
                                 **dict.fromkeys("PTV", _Field(float)),
                                 "C": _Field(float, default=None)}))
def load_eval_record(f, path):
    return EvalRecord(f["id"], f["class"], f["P"], f["T"], f["V"], f["C"])


# -- reconstruction config (key = value lines) --------------------------

def save_config(config, path):
    with open(path, "w") as f:
        for key in sorted(config):
            f.write(f"{key} = {config[key]}\n")


@_decoder("config")
def load_config(path):
    """{key: value} of `key = value` lines, a value read as a bool, an int,
    a float or else a string; `#` starts a comment. Any key is read:
    `reconstruct.problem_options` rejects a key it does not know."""
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            key, eq, raw = (part.strip() for part in line.split("#", 1)[0].partition("="))
            if key and not eq:
                raise CodecError(f"line {lineno} is not 'key = value'", path=path)
            if eq and not key:
                raise CodecError(f"line {lineno} has no key", path=path)
            if key:
                out[key] = {"true": True, "false": False}.get(raw.lower(), raw)
                for cast in (float, int):  # an int reads as one, not as a float
                    with contextlib.suppress(ValueError):
                        out[key] = cast(raw)
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
