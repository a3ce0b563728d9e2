import json
import shutil

import numpy as np
import pytest

from contactfit import io
from contactfit.body import Camera, PoseParams, pose_mesh
from contactfit.cli import cli_dispatch
from contactfit.contact import ContactSignature, ImageSupport
from contactfit.errors import CodecError
from contactfit.evaluation import EvalRecord
from contactfit.inference_filter import FilterConfig, RawPrediction
from contactfit.synthetic import build_synthetic_body


@pytest.fixture(scope="module")
def body():
    return build_synthetic_body()


class TestRoundTrips:
    def test_body_model(self, body, tmp_path):
        path = tmp_path / "body.json"
        io.save_body_model(body.model, path)
        loaded = io.load_body_model(path)
        assert np.array_equal(loaded.template_vertices, body.model.template_vertices)
        assert np.array_equal(loaded.faces, body.model.faces)
        assert np.array_equal(loaded.skinning_weights, body.model.skinning_weights)
        assert np.array_equal(loaded.joint_regressor, body.model.joint_regressor)
        assert np.array_equal(loaded.joint_parents, body.model.joint_parents)
        assert np.array_equal(loaded.joint_offsets, body.model.joint_offsets)

    def test_pose_params(self, tmp_path):
        rng = np.random.default_rng(0)
        params = PoseParams(rng.normal(0, 1, (19, 3)), rng.normal(0, 1, 3),
                            rng.normal(0, 0.1, 3))
        path = tmp_path / "params.json"
        io.save_pose_params(params, path)
        loaded = io.load_pose_params(path)
        assert np.array_equal(loaded.to_vector(), params.to_vector())

    def test_camera(self, tmp_path):
        cam = Camera(fx=500.0, fy=480.5, cx=184.0, cy=190.25,
                     rotation=np.diag([1.0, -1.0, -1.0]),
                     translation=np.array([0.1, -0.2, 2.9]))
        path = tmp_path / "camera.json"
        io.save_camera(cam, path)
        loaded = io.load_camera(path)
        assert loaded.fx == cam.fx and loaded.cy == cam.cy
        assert np.array_equal(loaded.rotation, cam.rotation)
        assert np.array_equal(loaded.translation, cam.translation)

    def test_region_and_coarsen_maps(self, body, tmp_path):
        p1 = tmp_path / "regions.json"
        io.save_region_map(body.region_map, p1)
        assert io.load_region_map(p1) == body.region_map
        p2 = tmp_path / "cmap.json"
        cmap = body.coarsen_maps[(75, 9)]
        io.save_coarsen_map(cmap, p2)
        assert io.load_coarsen_map(p2) == cmap

    def test_annotation(self, tmp_path):
        sig = ContactSignature.from_sets(75, contact=[(3, 9), (20, 40)],
                                         masked=[(1, 2)])
        support = ImageSupport(75, {3: (0.25, 0.5), 9: (0.25, 0.5),
                                    20: (0.75, 0.125), 40: (0.75, 0.125)})
        path = tmp_path / "ann.json"
        io.save_annotation(sig, support, path)
        sig2, support2 = io.load_annotation(path)
        assert sig2 == sig
        assert support2 == support

    def test_annotation_masked_regions_field(self, tmp_path):
        path = tmp_path / "ann.json"
        with open(path, "w") as f:
            json.dump({"granularity": 5,
                       "pairs": [{"r1": 0, "r2": 1, "state": "contact"}],
                       "support": [],
                       "masked_regions": [4]}, f)
        sig, _ = io.load_annotation(path)
        assert sig.state(4, 2) == 2  # masked
        assert sig.state(0, 1) == 1

    def test_prediction(self, tmp_path):
        rng = np.random.default_rng(1)
        landmarks = rng.random((9, 2))
        landmarks[4] = np.nan
        pred = RawPrediction(9, {(0, 1): 0.5, (2, 7): 0.25},
                             rng.random(9), landmarks)
        path = tmp_path / "pred.json"
        io.save_prediction(pred, path)
        loaded = io.load_prediction(path)
        assert loaded.signature_probs == pred.signature_probs
        assert np.array_equal(loaded.segmentation_probs, pred.segmentation_probs)
        assert np.array_equal(np.isnan(loaded.landmarks), np.isnan(pred.landmarks))
        mask = ~np.isnan(pred.landmarks)
        assert np.array_equal(loaded.landmarks[mask], pred.landmarks[mask])

    def test_filter_config(self, tmp_path):
        cfg = FilterConfig(tau_s=0.35, tau_c=0.65, tau_dist=0.175)
        path = tmp_path / "cfg.json"
        io.save_filter_config(cfg, path)
        assert io.load_filter_config(path) == cfg

    def test_keypoints(self, tmp_path):
        pts = np.array([[1.5, 2.25], [3.0, 4.125]])
        joints = np.array([2, 5])
        path = tmp_path / "kp.json"
        io.save_keypoints(pts, joints, path)
        pts2, joints2 = io.load_keypoints(path)
        assert np.array_equal(pts, pts2) and np.array_equal(joints, joints2)

    def test_eval_record(self, tmp_path):
        rec = EvalRecord("x1", "standing", 12.5, 400.25, 9.75, None)
        path = tmp_path / "rec.json"
        io.save_eval_record(rec, path)
        loaded = io.load_eval_record(path)
        assert loaded == rec

    def test_obj(self, body, tmp_path):
        verts = pose_mesh(body.model, PoseParams.identity(body.model.num_joints))
        path = tmp_path / "mesh.obj"
        io.save_obj(verts, body.model.faces, path)
        v2, f2 = _read_obj(path)
        assert np.array_equal(v2, verts)
        assert np.array_equal(f2, body.model.faces)

    def test_config(self, tmp_path):
        cfg = {"iterations": 40, "step_size": 0.5, "lambda_d": 1.0,
               "selection_mode": "all", "flag": True}
        path = tmp_path / "run.cfg"
        io.save_config(cfg, path)
        assert io.load_config(path) == cfg


    @pytest.mark.parametrize("r1, r2", [(1, 50), (50, 1)])
    def test_annotation_masked_region_of_a_contact_row_in_either_order(
            self, tmp_path, r1, r2):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({
            "granularity": 75, "support": [], "masked_regions": [1, 50],
            "pairs": [{"r1": r1, "r2": r2, "state": "contact"}]}))
        sig, _ = io.load_annotation(path)
        assert sig.contact_pairs() == [(1, 50)]
        assert sig.state(1, 7) == sig.state(50, 7) == 2
        assert len(sig.masked_pairs()) == 2 * 73


def _annotation_rows(path, *rows):
    path.write_text(json.dumps({
        "granularity": 75, "support": [],
        "pairs": [{"r1": a, "r2": b, "state": state} for a, b, state in rows]}))
    return path


class TestCodecErrors:
    @pytest.mark.parametrize("rows", [
        [(1, 50, "contact"), (1, 50, "no-contact")],
        [(1, 50, "no-contact"), (50, 1, "contact")],
        [(1, 50, "contact"), (50, 1, "masked")]])
    def test_conflicting_annotation_rows_rejected(self, tmp_path, rows):
        path = _annotation_rows(tmp_path / "ann.json", *rows)
        with pytest.raises(CodecError) as err:
            io.load_annotation(path)
        assert err.value.path == path and err.value.field == "pairs"
        assert "(1, 50)" in str(err.value)

    @pytest.mark.parametrize("rows", [
        [(1, 50, "contact"), (1, 50, "contact")],
        [(4, 9, "masked"), (9, 4, "masked")]])
    def test_duplicate_annotation_rows_rejected(self, tmp_path, rows):
        path = _annotation_rows(tmp_path / "ann.json", *rows)
        with pytest.raises(CodecError, match="listed twice") as err:
            io.load_annotation(path)
        assert err.value.path == path and err.value.field == "pairs"

    def test_missing_field_names_file_and_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"granularity": 5}')
        with pytest.raises(CodecError) as err:
            io.load_annotation(path)
        assert "pairs" in str(err.value)
        assert "bad.json" in str(err.value)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CodecError):
            io.load_region_map(path)

    def test_bad_state_value(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({
            "granularity": 5, "support": [],
            "pairs": [{"r1": 0, "r2": 1, "state": "sticky"}]}))
        with pytest.raises(CodecError):
            io.load_annotation(path)

    def test_support_on_noncontact_region_rejected(self, tmp_path):
        path = tmp_path / "ann.json"
        path.write_text(json.dumps({
            "granularity": 5, "pairs": [],
            "support": [{"r": 2, "x": 0.5, "y": 0.5}]}))
        with pytest.raises(CodecError):
            io.load_annotation(path)


def _read_obj(path):
    """(vertices, faces) of an OBJ file that `io.save_obj` wrote."""
    rows = [line.split() for line in path.read_text().splitlines()]
    return (np.array([[float(x) for x in r[1:]] for r in rows if r[0] == "v"]),
            np.array([[int(i) - 1 for i in r[1:]] for r in rows if r[0] == "f"]))


_BODY = {"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "faces": [[0, 1, 2]],
         "joints": [{"parent": -1, "offset": [0, 0, 0]}],
         "weights": [[0, 0, 1.0], [1, 0, 1.0], [2, 0, 1.0]], "regressor": [[0, 0, 1.0]]}
_POSE = {"joint_rotations": [[0, 0, 0]], "translation": [0, 0, 0], "shape": [1, 1, 1]}
_CAMERA = {"fx": 500, "fy": 500, "cx": 0, "cy": 0, "translation": [0, 0, 2],
           "rotation": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
_ANNOTATION = {"granularity": 3, "pairs": [{"r1": 0, "r2": 1, "state": "contact"}],
               "support": [{"r": 0, "x": 0.5, "y": 0.5}]}
_PREDICTION = {"granularity": 2, "signature_probs": [{"r1": 0, "r2": 1, "p": 0.5}],
               "segmentation_probs": [0.5, 0.5], "landmarks": [[0.5, 0.5], None]}
_FILTER = {"tau_s": 0.5, "tau_c": 0.5, "tau_dist": 0.1}
_RECORD = {"id": "a", "class": "standing", "P": 1.0, "T": 1.0, "V": 1.0, "C": None}
_BUNDLE = {"granularity": 2, "landmarks": [[0.2, 0.2], [0.2, 0.2]],
           "features": [[1.0], [1.0]], "seg_logits": [2.0, 2.0],
           "signature": {"pairs": [{"r1": 0, "r2": 1, "state": "contact"}]},
           "support": [{"r": 0, "x": 0.2, "y": 0.2}]}
_MANIFEST = [{"prediction": "p.json", "ground_truth": "g.json"}]

# every io.load_*: a valid file, then that file with a bad cast, with a row
# of the wrong kind (not an object where one is expected), and with a row
# of the wrong arity; a missing file is a fourth case for every loader
_MALFORMED = {
    "load_body_model": (_BODY, {
        "bad cast": {**_BODY, "weights": [["a", 0, 1.0]]},
        "non-object row": {**_BODY, "joints": [5]},
        "wrong arity": {**_BODY, "weights": [[0, 0]]}}),
    "load_pose_params": (_POSE, {
        "bad cast": {**_POSE, "joint_rotations": [["a", 0, 0]]},
        "non-object row": 5,
        "wrong arity": {**_POSE, "joint_rotations": [[0, 0]]}}),
    "load_camera": (_CAMERA, {
        "bad cast": {**_CAMERA, "fx": "a"},
        "non-object row": [_CAMERA],
        "wrong arity": {**_CAMERA, "rotation": [[1, 0], [0, 1], [0, 0]]}}),
    "load_region_map": ({"granularity": 1, "facet_to_region": [0]}, {
        "bad cast": {"granularity": "a", "facet_to_region": [0]},
        "non-object row": {"granularity": 1, "facet_to_region": [{}]},
        "wrong arity": {"granularity": 1, "facet_to_region": [[0, 0]]}}),
    "load_coarsen_map": ({"fine": 2, "coarse": 1, "map": [0, 0]}, {
        "bad cast": {"fine": "a", "coarse": 1, "map": [0, 0]},
        "non-object row": {"fine": 2, "coarse": 1, "map": [0, {}]},
        "wrong arity": {"fine": 2, "coarse": 1, "map": [0]}}),
    "load_annotation": (_ANNOTATION, {
        "bad cast": {**_ANNOTATION, "pairs": [{"r1": "a", "r2": 1, "state": "contact"}]},
        "non-object row": {**_ANNOTATION, "pairs": [5]},
        "wrong arity": {**_ANNOTATION, "support": [{"r": 0, "x": 0.5}]}}),
    "load_prediction": (_PREDICTION, {
        "bad cast": {**_PREDICTION, "signature_probs": [{"r1": 0, "r2": 1, "p": "a"}]},
        "non-object row": {**_PREDICTION, "signature_probs": [5]},
        "wrong arity": {**_PREDICTION, "landmarks": [[0.5], None]}}),
    "load_filter_config": (_FILTER, {
        "bad cast": {**_FILTER, "tau_s": "a"},
        "non-object row": 5,
        "wrong arity": {**_FILTER, "tau_s": [0.5, 0.5]}}),
    "load_keypoints": ({"keypoints": [{"joint": 0, "x": 1.0, "y": 2.0}]}, {
        "bad cast": {"keypoints": [{"joint": "a", "x": 1.0, "y": 2.0}]},
        "non-object row": {"keypoints": [5]},
        "wrong arity": {"keypoints": [{"joint": 0, "x": 1.0}]}}),
    "load_eval_record": (_RECORD, {
        "bad cast": {**_RECORD, "P": "a"},
        "non-object row": 5,
        "wrong arity": {**_RECORD, "P": [1.0, 2.0]}}),
    "load_loss_bundle": (_BUNDLE, {
        "bad cast": {**_BUNDLE, "seg_logits": ["a", 2.0]},
        "non-object row": {**_BUNDLE, "signature": {"pairs": [5]}},
        "wrong arity": {**_BUNDLE, "support": [{"r": 0, "x": 0.2}]}}),
    "load_manifest": (_MANIFEST, {
        "bad cast": [{"prediction": 5, "ground_truth": "g.json"}],
        "non-object row": ["prediction.json"],
        "wrong arity": [{"prediction": "p.json"}]}),
    "load_config": ("iterations = 5\n", {
        "bad cast": b"iterations = 5\n\xff\xfe\n",
        "non-object row": "= 5\n",
        "wrong arity": "iterations 5\n"}),
}
_LOADERS = sorted(name for name in dir(io) if name.startswith("load_"))


def _write(path, content):
    if content is None:
        pass
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif isinstance(content, str):
        path.write_text(content)
    else:
        path.write_text(json.dumps(content))
    return path


class TestEveryLoader:
    def test_every_loader_has_malformed_files(self):
        assert _LOADERS == sorted(_MALFORMED)

    @pytest.mark.parametrize("case", ["bad cast", "non-object row", "wrong arity",
                                      "missing file"])
    @pytest.mark.parametrize("name", _LOADERS)
    def test_malformed_file_is_a_codec_error_naming_it(self, tmp_path, name, case):
        load = getattr(io, name)
        valid, malformed = _MALFORMED[name]
        load(_write(tmp_path / "valid.txt", valid))
        path = _write(tmp_path / "in.txt", malformed.get(case))
        with pytest.raises(CodecError) as err:
            load(path)
        assert err.value.path == path and str(path) in str(err.value)

    def test_loss_bundle_decodes_its_signature_as_an_annotation(self, tmp_path):
        bundle = io.load_loss_bundle(_write(tmp_path / "b.json", _BUNDLE))
        ann = io.load_annotation(_write(tmp_path / "a.json", {**_BUNDLE["signature"],
                                 "granularity": 2, "support": _BUNDLE["support"]}))
        assert (bundle.signature, bundle.support) == ann

    def test_manifest_paths_resolve_against_its_folder(self, tmp_path):
        (tmp_path / "sub").mkdir()
        path = _write(tmp_path / "sub" / "m.json", _MANIFEST)
        assert io.load_manifest(path) == [(tmp_path / "sub" / "p.json",
                                           tmp_path / "sub" / "g.json")]


class TestCli:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self):
        assert cli_dispatch(["synth", "--scenario", "hand-chin", "--bogus"]) == 2

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = cli_dispatch(["export-obj", "--body", str(bad),
                             "--out", str(tmp_path / "out.obj")])
        assert code == 1
        assert "bad.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d["weights"].__setitem__(2, [-1, 0, 1.0]), "weights"),
        (lambda d: d["weights"].__setitem__(0, [0.7, 0, 1.0]), "weights"),
        (lambda d: d["weights"].append([2, 0, 1.0]), "weights"),
        (lambda d: d["regressor"].append([0, 0, 1.0]), "regressor"),
        (lambda d: d["joints"][1].update(parent=0.6), "parent"),
        (lambda d: d["weights"].__setitem__(0, [0, 0, "1"]), "weights"),
        (lambda d: d.update(faces=[[0, 1.4, 2]]), "faces"),
        (lambda d: d.update(vertices=[["0", 0, 0], [1, 0, 0], [0, 1, 0]]), "vertices"),
        (lambda d: d["weights"].__setitem__(0, [0, 0, float("nan")]), "skinning_weights"),
        (lambda d: d["vertices"].__setitem__(0, [float("nan"), 0, 0]), "template_vertices"),
        (lambda d: d["joints"][1].update(offset=[float("nan"), 0, 0]), "joint_offsets"),
        (lambda d: d["regressor"].__setitem__(0, [0, 0, float("inf")]), "joint_regressor")])
    def test_export_obj_rejects_an_ambiguous_or_non_finite_body(self, tmp_path, capsys,
                                                               edit, field):
        body = {"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]], "faces": [[0, 1, 2]],
                "joints": [{"parent": -1, "offset": [0, 0, 0]},
                           {"parent": 0, "offset": [1, 0, 0]}],
                "weights": [[0, 0, 1.0], [1, 1, 1.0], [2, 0, 1.0]],
                "regressor": [[0, 0, 1.0], [1, 1, 1.0]]}
        path = tmp_path / "body.json"
        args = ["export-obj", "--body", str(path), "--out", str(tmp_path / "out.obj")]
        path.write_text(json.dumps(body))
        assert cli_dispatch(args) == 0
        edit(body)
        path.write_text(json.dumps(body))
        capsys.readouterr()
        assert cli_dispatch(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err
        assert field in err

    @pytest.mark.parametrize("line, field", [
        ("lamda_d = 2.0", "lamda_d"),
        ("fd_step = 1e-3", "fd_step"),
        ("iterations = many", "iterations"),
        ("selection_k = two", "selection_k")])
    def test_reconstruct_rejects_a_bad_config_key(self, tmp_path, capsys, line, field):
        bundle = tmp_path / "bundle"
        assert cli_dispatch(["synth", "--scenario", "hand-chin", "--seed", "2",
                             "--out", str(bundle)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"iterations = 1\n{line}\n")
        capsys.readouterr()
        code = cli_dispatch(_reconstruct_args(bundle, cfg, tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert "run.cfg" in err and f"'{field}'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, field", [
        ("iterations = 2.5", "iterations"),
        ("iterations = true", "iterations"),
        ("armijo_c = nan", "armijo_c"),
        ("step_size = inf", "step_size"),
        ("lambda_d = nan", "lambda_d"),
        ("step_size = 1" + "0" * 400, "step_size")])
    def test_reconstruct_rejects_a_non_finite_or_lossy_value(self, tmp_path, capsys,
                                                             line, field):
        bundle = tmp_path / "bundle"
        assert cli_dispatch(["synth", "--scenario", "hand-chin", "--seed", "7",
                             "--out", str(bundle)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"iterations = 1\n{line}\n")
        capsys.readouterr()
        code = cli_dispatch(_reconstruct_args(bundle, cfg, tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {cfg}: field '{field}': ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, key, value, message", [
        ("keypoints.json", "joint", -1, "keypoints.json: field 'joint': negative joint id"),
        ("keypoints.json", "joint", 99, "error: keypoint_joints must lie in [0, 19)\n"),
        ("keypoints.json", "x", float("nan"), "keypoints.json: field 'x': not finite"),
        ("camera.json", "fx", float("nan"), "camera.json: invalid camera: camera fx must be finite")])
    def test_reconstruct_rejects_a_bad_keypoint_or_camera(self, tmp_path, capsys,
                                                          name, key, value, message):
        bundle = tmp_path / "bundle"
        assert cli_dispatch(["synth", "--scenario", "hand-chin", "--seed", "7",
                             "--out", str(bundle)]) == 0
        data = json.loads((bundle / name).read_text())
        (data["keypoints"][0] if name == "keypoints.json" else data)[key] = value
        (bundle / name).write_text(json.dumps(data))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 1\n")
        capsys.readouterr()
        code = cli_dispatch(_reconstruct_args(bundle, cfg, tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, edit, field", [
        ("annotation.json", lambda d: d["pairs"][0].update(r1=2.9), "r1"),
        ("annotation.json", lambda d: d["pairs"][0].update(r2=True), "r2"),
        ("annotation.json", lambda d: d.update(masked_regions=[1.5]), "masked_regions"),
        ("annotation.json", lambda d: d.update(granularity="75"), "granularity"),
        ("camera.json", lambda d: d.update(fx=True), "fx"),
        ("camera.json", lambda d: d.update(fy="500"), "fy"),
        ("keypoints.json", lambda d: d["keypoints"][0].update(joint=1.7), "joint"),
        ("keypoints.json", lambda d: d["keypoints"][0].update(x="3"), "x")])
    def test_reconstruct_rejects_a_lossy_or_mistyped_number(self, hand_chin_bundle, tmp_path,
                                                            capsys, name, edit, field):
        bundle = shutil.copytree(hand_chin_bundle, tmp_path / "bundle")
        data = json.loads((bundle / name).read_text())
        edit(data)
        (bundle / name).write_text(json.dumps(data))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 1\n")
        capsys.readouterr()
        code = cli_dispatch(_reconstruct_args(bundle, cfg, tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {bundle / name}: field '{field}': ")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, name, edit, field", [
        ("reconstruct", "regions_75.json",
         lambda d: d["facet_to_region"].__setitem__(1, d["facet_to_region"][1] + 0.7),
         "facet_to_region"),
        ("reconstruct", "regions_75.json",
         lambda d: d["facet_to_region"].__setitem__(1, True), "facet_to_region"),
        ("reconstruct", "regions_75.json",
         lambda d: d["facet_to_region"].__setitem__(1, str(d["facet_to_region"][1])),
         "facet_to_region"),
        ("coarsen", "coarsen_75_to_9.json",
         lambda d: d["map"].__setitem__(1, d["map"][1] + 0.5), "map"),
        ("export-obj", "gt_params.json",
         lambda d: d.update(translation=[str(x) for x in d["translation"]]), "translation"),
        ("export-obj", "gt_params.json",
         lambda d: d["shape"].__setitem__(0, True), "shape")])
    def test_maps_and_params_reject_a_lossy_number(self, hand_chin_bundle, tmp_path,
                                                   capsys, command, name, edit, field):
        bundle = shutil.copytree(hand_chin_bundle, tmp_path / "bundle")
        data = json.loads((bundle / name).read_text())
        edit(data)
        (bundle / name).write_text(json.dumps(data))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 1\n")
        out = tmp_path / "out"
        args = {"reconstruct": _reconstruct_args(bundle, cfg, out),
                "coarsen": ["coarsen", "--in", str(bundle / "annotation.json"),
                            "--map", str(bundle / name), "--out", str(out)],
                "export-obj": ["export-obj", "--body", str(bundle / "body.json"),
                               "--params", str(bundle / name), "--out", str(out)]}[command]
        capsys.readouterr()
        assert cli_dispatch(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bundle / name}: field '{field}': ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("edit, field", [
        ({"P": float("nan")}, "P"),
        ({"T": float("-inf")}, "T"),
        ({"V": float("inf")}, "V"),
        ({"C": float("nan")}, "C"),
        ({"C": -3.0}, "C")])
    def test_metrics_rejects_a_non_finite_or_negative_metric(self, tmp_path, capsys,
                                                             edit, field):
        path = _write(tmp_path / "rec.json", {**_RECORD, **edit})
        out = tmp_path / "table.csv"
        assert cli_dispatch(["metrics", "--records", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert f"{field} must be finite and non-negative" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_reconstruct_rejects_an_unknown_selection_mode(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        cli_dispatch(["synth", "--scenario", "hand-chin", "--seed", "2",
                      "--out", str(bundle)])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("iterations = 1\nselection_mode = nearest\n")
        capsys.readouterr()
        assert cli_dispatch(_reconstruct_args(bundle, cfg, tmp_path / "out")) == 1
        assert capsys.readouterr().err.startswith("error: unknown selection mode 'nearest'")

    def test_reconstruct_config_keys_follow_the_dataclasses(self):
        from contactfit.cli import _settings_from_config, _weights_from_config
        settings = _settings_from_config({"armijo_c": 1e-3, "iterations": 7.0})
        assert settings.armijo_c == 1e-3 and settings.iterations == 7
        assert isinstance(settings.iterations, int)
        assert _weights_from_config({"lambda_pose": 2}).lambda_pose == 2.0

    def test_synth_writes_bundle(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert cli_dispatch(["synth", "--scenario", "hand-chin", "--seed", "4",
                             "--out", str(out)]) == 0
        for name in ("body.json", "regions_75.json", "annotation.json",
                     "camera.json", "keypoints.json", "gt_params.json",
                     "init_params.json", "reconstruct.cfg", "gt_mesh.obj",
                     "metadata.json", "coarsen_75_to_9.json"):
            assert (out / name).exists(), name

    def test_synth_regeneration_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        cli_dispatch(["synth", "--scenario", "arms-crossed", "--seed", "11",
                      "--out", str(out1)])
        cli_dispatch(["synth", "--scenario", "arms-crossed", "--seed", "11",
                      "--out", str(out2)])
        for p1 in sorted(out1.iterdir()):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes(), p1.name

    def test_coarsen_command(self, tmp_path):
        bundle = tmp_path / "bundle"
        cli_dispatch(["synth", "--scenario", "hand-chin", "--seed", "0",
                      "--out", str(bundle)])
        out = tmp_path / "ann9.json"
        code = cli_dispatch(["coarsen", "--in", str(bundle / "annotation.json"),
                             "--map", str(bundle / "coarsen_75_to_9.json"),
                             "--out", str(out)])
        assert code == 0
        sig, support = io.load_annotation(out)
        assert sig.granularity == 9
        assert len(sig.contact_pairs()) == 1

    def test_stats_command(self, tmp_path):
        anns = tmp_path / "anns"
        anns.mkdir()
        sig = ContactSignature.from_sets(9, contact=[(1, 2)])
        io.save_annotation(sig, ImageSupport(9, {}), anns / "a.json")
        io.save_annotation(sig, ImageSupport(9, {}), anns / "b.json")
        out = tmp_path / "freq.csv"
        pairs = tmp_path / "pairs.csv"
        code = cli_dispatch(["stats", "--in", str(anns), "--granularity", "9",
                             "--out", str(out), "--pairs-out", str(pairs)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "region,count"
        assert lines[2] == "1,2"
        assert pairs.read_text().strip().splitlines()[1] == "1,2,2"

    def test_filter_command(self, tmp_path):
        rng = np.random.default_rng(2)
        landmarks = np.tile([0.5, 0.5], (9, 1))
        pred = RawPrediction(9, {(0, 1): 0.9, (2, 3): 0.2},
                             np.array([0.9, 0.9, 0.9, 0.9, 0, 0, 0, 0, 0]),
                             landmarks)
        pred_path = tmp_path / "pred.json"
        io.save_prediction(pred, pred_path)
        out = tmp_path / "filtered.json"
        assert cli_dispatch(["filter", "--pred", str(pred_path),
                             "--out", str(out)]) == 0
        sig, _ = io.load_annotation(out)
        assert sig.contact_pairs() == [(0, 1)]

    def test_sweep_command(self, tmp_path):
        rng = np.random.default_rng(3)
        landmarks = np.tile([0.5, 0.5], (6, 1))
        pred = RawPrediction(6, {(0, 1): 0.9}, np.array([0.9, 0.9, 0, 0, 0, 0]),
                             landmarks)
        gt = ContactSignature.from_sets(6, contact=[(0, 1)])
        io.save_prediction(pred, tmp_path / "pred.json")
        io.save_annotation(gt, ImageSupport(6, {}), tmp_path / "gt.json")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(
            [{"prediction": "pred.json", "ground_truth": "gt.json"}]))
        out = tmp_path / "cfg.json"
        assert cli_dispatch(["sweep", "--manifest", str(manifest),
                             "--tau-s", "0.3,0.5", "--tau-c", "0.4",
                             "--tau-dist", "0.1", "--out", str(out)]) == 0
        cfg = io.load_filter_config(out)
        assert cfg.tau_c == 0.4

    def test_losses_command(self, tmp_path, capsys):
        bundle = {
            "granularity": 3,
            "landmarks": [[0.2, 0.2], [0.2, 0.2], [0.8, 0.8]],
            "features": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            "seg_logits": [2.0, 2.0, -2.0],
            "signature": {"pairs": [{"r1": 0, "r2": 1, "state": "contact"}]},
            "support": [{"r": 0, "x": 0.2, "y": 0.2},
                        {"r": 1, "x": 0.2, "y": 0.2}],
        }
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        out = tmp_path / "losses.csv"
        assert cli_dispatch(["losses", "--in", str(path), "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "term,value"
        values = {r.split(",")[0]: float(r.split(",")[1]) for r in rows[1:]}
        assert values["K"] == 0.0
        assert values["total"] == pytest.approx(
            5 * values["sep"] + 5 * values["K"] + values["S"] + values["C"])

    @pytest.mark.parametrize("name, content", [
        ("bundle.json", {**_BUNDLE, "support": [{"r": 0, "x": 0.2}]}),
        ("bundle.json",
         {**_BUNDLE, "signature": {"pairs": [{"r1": 0, "r2": 1, "state": "contact"},
                                             {"r1": 1, "r2": 0, "state": "contact"}]}}),
        ("manifest.json", ["prediction.json"])])
    def test_malformed_input_exits_1_naming_the_file(self, tmp_path, capsys, name, content):
        path = _write(tmp_path / name, content)
        argv = (["losses", "--in", str(path)] if name == "bundle.json" else
                ["sweep", "--manifest", str(path), "--out", str(tmp_path / "cfg.json")])
        assert cli_dispatch(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err

    def test_sweep_rejects_a_bad_grid_as_a_usage_error(self, tmp_path, capsys):
        manifest = _write(tmp_path / "manifest.json", [])
        code = cli_dispatch(["sweep", "--manifest", str(manifest), "--tau-s", "abc",
                             "--out", str(tmp_path / "cfg.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "argument --tau-s" in err and "'abc'" in err
        assert not (tmp_path / "cfg.json").exists()

    def test_losses_with_heatmaps(self, tmp_path):
        bundle = {
            "granularity": 2,
            "heatmaps": [np.zeros((4, 4)).tolist(), np.zeros((4, 4)).tolist()],
            "features": [[1.0], [1.0]],
            "seg_logits": [0.0, 0.0],
            "signature": {"pairs": []},
            "support": [],
        }
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(bundle))
        assert cli_dispatch(["losses", "--in", str(path)]) == 0

    def test_export_obj_roundtrip(self, tmp_path):
        bundle = tmp_path / "bundle"
        cli_dispatch(["synth", "--scenario", "hand-chin", "--seed", "0",
                      "--out", str(bundle)])
        out = tmp_path / "posed.obj"
        assert cli_dispatch(["export-obj", "--body", str(bundle / "body.json"),
                             "--params", str(bundle / "gt_params.json"),
                             "--out", str(out)]) == 0
        verts, faces = _read_obj(out)
        gt = _read_obj(bundle / "gt_mesh.obj")
        assert np.array_equal(verts, gt[0])

    def test_eval_and_metrics_commands(self, tmp_path):
        bundle = tmp_path / "bundle"
        cli_dispatch(["synth", "--scenario", "hand-chin", "--seed", "0",
                      "--out", str(bundle)])
        rec_path = tmp_path / "rec.json"
        code = cli_dispatch([
            "eval", "--body", str(bundle / "body.json"),
            "--regions", str(bundle / "regions_75.json"),
            "--annotation", str(bundle / "annotation.json"),
            "--pred-params", str(bundle / "init_params.json"),
            "--gt-params", str(bundle / "gt_params.json"),
            "--id", "demo", "--class", "standing", "--out", str(rec_path)])
        assert code == 0
        record = io.load_eval_record(rec_path)
        assert record.pose_error > 0
        table_path = tmp_path / "table.csv"
        assert cli_dispatch(["metrics", "--records", str(rec_path),
                             "--out", str(table_path)]) == 0
        text = table_path.read_text()
        assert "standing" in text and "overall" in text


@pytest.mark.parametrize("row, field", [
    ({"joint": -1, "x": 1.0, "y": 2.0}, "joint"),
    ({"joint": 0, "x": float("nan"), "y": 2.0}, "x"),
    ({"joint": 0, "x": 1.0, "y": float("inf")}, "y")])
def test_load_keypoints_rejects_a_negative_joint_or_non_finite_point(tmp_path, row, field):
    path = _write(tmp_path / "kp.json",
                  {"keypoints": [{"joint": 1, "x": 0.0, "y": 0.0}, row]})
    with pytest.raises(CodecError, match=rf"kp\.json: field '{field}': ") as err:
        io.load_keypoints(path)
    assert err.value.field == field


@pytest.fixture(scope="module")
def hand_chin_bundle(tmp_path_factory):
    bundle = tmp_path_factory.mktemp("synth") / "bundle"
    assert cli_dispatch(["synth", "--scenario", "hand-chin", "--seed", "7",
                         "--out", str(bundle)]) == 0
    return bundle


def _reconstruct_args(bundle, cfg, out):
    return ["reconstruct", "--body", str(bundle / "body.json"),
            "--regions", str(bundle / "regions_75.json"),
            "--annotation", str(bundle / "annotation.json"),
            "--keypoints", str(bundle / "keypoints.json"),
            "--camera", str(bundle / "camera.json"),
            "--init", str(bundle / "init_params.json"),
            "--config", str(cfg), "--out-dir", str(out)]


class TestPredictionArrays:
    # the bytes io.save_prediction wrote while a prediction held a dict and
    # sorted it on saving: writing from the sorted arrays must not move them
    PINNED = (
        '{\n "granularity": 4,\n "landmarks": [\n  [\n   0.1,\n   0.2\n  ],\n'
        '  null,\n  null,\n  [\n   1.0,\n   0.0\n  ]\n ],\n'
        ' "segmentation_probs": [\n  0.5,\n  0.0,\n  1.0,\n  0.75\n ],\n'
        ' "signature_probs": [\n'
        '  {\n   "p": 0.1,\n   "r1": 0,\n   "r2": 1\n  },\n'
        '  {\n   "p": 0.5,\n   "r1": 0,\n   "r2": 2\n  },\n'
        '  {\n   "p": 0.0,\n   "r1": 0,\n   "r2": 3\n  },\n'
        '  {\n   "p": 0.25,\n   "r1": 1,\n   "r2": 3\n  },\n'
        '  {\n   "p": 1.0,\n   "r1": 2,\n   "r2": 3\n  }\n ]\n}\n')

    def test_save_prediction_bytes_are_pinned(self, tmp_path):
        pred = RawPrediction(4, [((3, 1), 0.25), ((2, 0), 0.5), ((1, 0), 0.1),
                                 ((3, 2), 1.0), ((0, 3), 0.0)],
                             [0.5, 0.0, 1.0, 0.75],
                             [[0.1, 0.2], [np.nan, np.nan], [0.3, np.nan], [1.0, 0.0]])
        path = tmp_path / "pred.json"
        io.save_prediction(pred, path)
        assert path.read_text() == self.PINNED
        loaded = io.load_prediction(path)
        assert loaded.pairs.tolist() == pred.pairs.tolist()
        assert loaded.pair_probs.tolist() == pred.pair_probs.tolist()

    @pytest.mark.parametrize("rows", [
        [{"r1": 0, "r2": 1, "p": 0.5}, {"r1": 0, "r2": 1, "p": 0.5}],
        [{"r1": 1, "r2": 0, "p": 0.5}, {"r1": 0, "r2": 1, "p": 0.25}],
    ])
    def test_load_prediction_rejects_a_pair_given_twice(self, tmp_path, rows):
        path = _write(tmp_path / "pred.json", {**_PREDICTION, "signature_probs": rows})
        with pytest.raises(CodecError, match=r"pair \(0, 1\) given twice") as err:
            io.load_prediction(path)
        assert err.value.path == path and str(path) in str(err.value)

    @pytest.mark.parametrize("r1", ["1e400", str(2 ** 70)])
    def test_load_prediction_rejects_an_index_beyond_int64(self, tmp_path, r1):
        row = '{"r1": %s, "r2": 1, "p": 0.5}' % r1
        path = tmp_path / "pred.json"
        path.write_text(json.dumps(_PREDICTION).replace('{"r1": 0, "r2": 1, "p": 0.5}', row))
        with pytest.raises(CodecError) as err:
            io.load_prediction(path)
        assert err.value.path == path

    def test_load_prediction_names_a_missing_field(self, tmp_path):
        path = _write(tmp_path / "pred.json",
                      {**_PREDICTION, "signature_probs": [{"r1": 0, "p": 0.5}]})
        with pytest.raises(CodecError) as err:
            io.load_prediction(path)
        assert err.value.field == "r2"

    def test_filter_counts_pairs_from_the_arrays(self, tmp_path, capsys):
        pred = RawPrediction(4, {(1, 0): 0.9, (3, 2): 0.2, (0, 2): 0.1},
                             np.array([0.9, 0.9, 0.9, 0.9]), np.full((4, 2), 0.5))
        io.save_prediction(pred, tmp_path / "pred.json")
        assert cli_dispatch(["filter", "--pred", str(tmp_path / "pred.json"),
                             "--out", str(tmp_path / "out.json")]) == 0
        assert capsys.readouterr().out == "kept 1 of 3 pairs\n"


    def test_load_prediction_rejects_a_nan_segmentation_probability(self, tmp_path):
        path = _write(tmp_path / "pred.json",
                      {**_PREDICTION, "segmentation_probs": [float("nan"), 0.5]})
        with pytest.raises(CodecError) as err:
            io.load_prediction(path)
        assert err.value.path == path and err.value.field == "segmentation_probs"

    def test_filter_exits_1_on_a_nan_segmentation_probability(self, tmp_path, capsys):
        path = _write(tmp_path / "pred.json",
                      {**_PREDICTION, "segmentation_probs": [0.5, float("nan")]})
        assert cli_dispatch(["filter", "--pred", str(path),
                             "--out", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err
        assert not (tmp_path / "out.json").exists()


class TestLossBundleChecks:
    @pytest.mark.parametrize("field, value", [
        ("features", [[1.0], [1.0], [1.0]]),
        ("features", [1.0, 1.0]),
        ("features", [[1.0], [float("nan")]]),
        ("seg_logits", [2.0]),
        ("seg_logits", [2.0, float("inf")]),
        ("metric", "cosine"),
        ("sigma_sq_sep", float("nan")),
        ("sigma_sq_sep", float("inf")),
    ])
    def test_losses_exits_1_naming_the_file_and_field(self, tmp_path, capsys,
                                                       field, value):
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps({**_BUNDLE, field: value}))
        assert cli_dispatch(["losses", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: field '{field}': ")
        assert "Traceback" not in err


@pytest.mark.parametrize("load, content", [
    (io.load_filter_config, {**_FILTER, "tau_dist": True}),
    (io.load_filter_config, {**_FILTER, "tau_dist": float("inf")}),
    (io.load_filter_config, {**_FILTER, "tau_c": "0.5"}),
    (io.load_loss_bundle, {**_BUNDLE, "weights": {"w_k": float("nan")}}),
    (io.load_loss_bundle, {**_BUNDLE, "weights": {"w_sep": True}}),
])
def test_settings_files_reject_a_non_finite_or_lossy_value(tmp_path, load, content):
    path = _write(tmp_path / "settings.json", content)
    with pytest.raises(CodecError, match="must be a finite number") as err:
        load(path)
    assert err.value.path == path
