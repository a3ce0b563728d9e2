"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with -s to see them live).

1. Analytic gradients match central finite differences (1e-3 relative,
   >= 100 random configurations per loss family, < 1 min total).
2. Core set algebra and geometry match independent brute-force oracles
   exactly (100 instances at 9 regions, 20 at 75).
3. Closed-form fixtures hold to tight tolerances.
4. Contact-constrained optimization beats the no-contact baseline on all
   shipped scenarios (and closes contact below 10 mm).
5. Consistency filtering improves signature IoU on every constructed trial.
6. Optimizer traces are monotone non-increasing.
7. End-to-end CLI runs are byte-identical given identical seeds.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from contactfit.body import (PoseParams, facet_geometry, joint_positions,
                             pose_mesh, pose_mesh_with_jacobian, project)
from contactfit.cli import cli_dispatch
from contactfit.contact import (ContactSegmentation, ContactSignature,
                                ContactState, ImageSupport, contact_stats,
                                coarsen_signature, iou_segmentation,
                                iou_signature, segmentation_from_signature)
from contactfit.contact_geometry import (contact_distance_error,
                                         loss_distance, loss_distance_frozen,
                                         loss_normal, phi_distance)
from contactfit.evaluation import mpjpe, vertex_error
from contactfit.inference_filter import (FilterConfig, RawPrediction,
                                         filter_signature, threshold_signature)
from contactfit.reconstruct import (ObjectiveWeights, OptimizerSettings,
                                    ReconstructionProblem,
                                    fit_collision_proxies, loss_collision,
                                    loss_projection, loss_regularizer,
                                    optimize)
from contactfit.regions import CoarsenMap, RegionMap
from contactfit.synthetic import SCENARIO_NAMES, generate_scenario
from contactfit.train_losses import (LandmarkSet, loss_landmark,
                                     loss_segmentation_ce, loss_separation,
                                     signature_similarity_loss, softargmax,
                                     total_train_loss)

from conftest import fd_gradient, rel_error, random_model, random_params, simple_camera

C = ContactState.CONTACT
M = ContactState.MASKED

GRAD_TOL = 1e-3


def _report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _random_signature(rng, n, p_contact=0.15, p_masked=0.1):
    entries = []
    for a in range(n):
        for b in range(a + 1, n):
            u = rng.random()
            if u < p_contact:
                entries.append(((a, b), C))
            elif u < p_contact + p_masked:
                entries.append(((a, b), M))
    return ContactSignature(n, entries)


# ---------------------------------------------------------------- 1 ----

class TestCriterion1Gradients:
    def test_gradient_suite(self):
        start = time.time()
        rng = np.random.default_rng(1234)
        worst = {}

        # L_K
        errs = []
        for _ in range(100):
            n = int(rng.integers(3, 9))
            coords = rng.random((n, 2))
            regions = rng.choice(n, size=max(1, n // 2), replace=False)
            support = ImageSupport(n, {int(r): tuple(rng.random(2)) for r in regions})
            _, grad = loss_landmark(LandmarkSet(n, coords), support)
            num = fd_gradient(lambda x: loss_landmark(LandmarkSet(n, x), support)[0],
                              coords)
            errs.append(rel_error(grad, num))
        worst["L_K"] = max(errs)

        # L_sep
        errs = []
        for _ in range(100):
            n = int(rng.integers(3, 9))
            coords = rng.random((n, 2))
            sig = _random_signature(rng, n)
            _, grad = loss_separation(LandmarkSet(n, coords), sig)
            num = fd_gradient(lambda x: loss_separation(LandmarkSet(n, x), sig)[0],
                              coords)
            errs.append(rel_error(grad, num))
        worst["L_sep"] = max(errs)

        # weighted cross-entropy on segmentation logits
        errs = []
        for _ in range(100):
            n = int(rng.integers(3, 10))
            states = rng.choice([0, 1, 2], size=n, p=[0.5, 0.35, 0.15])
            if not (states == 1).any():
                states[0] = 1
            seg = ContactSegmentation(n, states)
            logits = rng.normal(0, 2, n)
            _, grad = loss_segmentation_ce(logits, seg)
            num = fd_gradient(lambda x: loss_segmentation_ce(x, seg)[0], logits)
            errs.append(rel_error(grad, num))
        worst["L_S_ce"] = max(errs)

        # weighted cross-entropy on the pairwise similarity matrix
        errs = []
        for i in range(100):
            n = int(rng.integers(3, 8))
            F = rng.normal(0, 1, (n, 3))
            sig = _random_signature(rng, n, p_contact=0.3)
            metric = "dot" if i % 2 == 0 else "neg-sq-euclidean"
            _, grad = signature_similarity_loss(F, sig, metric=metric)
            num = fd_gradient(
                lambda x: signature_similarity_loss(x, sig, metric=metric)[0], F)
            errs.append(rel_error(grad, num))
        worst["L_C_sim"] = max(errs)

        # Phi_D / L_D with matches frozen (gradient w.r.t. facet centers)
        errs = []
        for _ in range(100):
            centers = rng.normal(0, 1, (16, 3))
            rmap = RegionMap(4, np.repeat(np.arange(4), 4))
            sig = ContactSignature.from_sets(4, contact=[(0, 2), (1, 3)])
            _, matches = loss_distance(centers, sig, rmap)
            _, grad = loss_distance_frozen(centers, matches)
            num = fd_gradient(lambda x: loss_distance_frozen(x, matches)[0],
                              centers, step=1e-6)
            errs.append(rel_error(grad, num))
        worst["L_D"] = max(errs)

        # L_N through the facet-normal chain (matches frozen)
        from contactfit.body import facet_normal_vertex_jacobian
        errs = []
        for _ in range(100):
            verts = rng.normal(0, 1, (18, 3))
            faces = np.arange(18).reshape(6, 3)
            rmap = RegionMap(2, np.array([0, 0, 0, 1, 1, 1]))
            sig = ContactSignature.from_sets(2, contact=[(0, 1)])
            geom = facet_geometry(verts, faces)
            _, matches = loss_distance(geom.centers, sig, rmap)
            _, g_norm = loss_normal(geom.normals, matches)
            face_ids = np.flatnonzero(np.any(g_norm != 0.0, axis=1))
            blocks = facet_normal_vertex_jacobian(verts, faces, face_ids)
            grad = np.zeros_like(verts)
            for row, fid in enumerate(face_ids):
                for corner in range(3):
                    grad[faces[fid, corner]] += g_norm[fid] @ blocks[row, corner]
            num = fd_gradient(
                lambda x: loss_normal(facet_geometry(x, faces).normals,
                                      matches)[0], verts, step=1e-6)
            errs.append(rel_error(grad, num))
        worst["L_N"] = max(errs)

        # L_projection (gradient over packed pose parameters)
        errs = []
        cam = simple_camera()
        for _ in range(100):
            model = random_model(rng, n_joints=3, n_verts=9)
            params = random_params(rng, model, rot_scale=0.3, shape_scale=0.05)
            joint_ids = np.arange(3)
            targets = rng.normal(150, 40, (3, 2))
            _, grad = loss_projection(model, params, cam, targets, joint_ids)
            num = fd_gradient(
                lambda x: loss_projection(model, PoseParams.from_vector(x, 3),
                                          cam, targets, joint_ids,
                                          with_jacobian=False),
                params.to_vector())
            errs.append(rel_error(grad, num))
        worst["L_projection"] = max(errs)

        # L_psr
        errs = []
        for _ in range(100):
            J = int(rng.integers(2, 6))
            init = PoseParams(rng.normal(0, 1, (J, 3)), np.zeros(3), np.zeros(3))
            params = PoseParams(rng.normal(0, 1, (J, 3)), rng.normal(0, 1, 3),
                                rng.normal(0, 0.3, 3))
            lp, ls = float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 2))
            _, grad = loss_regularizer(params, init, lp, ls)
            num = fd_gradient(
                lambda x: loss_regularizer(PoseParams.from_vector(x, J), init,
                                           lp, ls, with_jacobian=False),
                params.to_vector())
            errs.append(rel_error(grad, num))
        worst["L_psr"] = max(errs)

        # L_col through the pose chain, proxies frozen
        errs = []
        count = 0
        while count < 100:
            model = random_model(rng, n_joints=3, n_verts=24)
            params = random_params(rng, model, rot_scale=0.2, shape_scale=0.02)
            rmap = RegionMap(4, np.arange(model.num_faces) % 4)
            centers0 = facet_geometry(pose_mesh(model, params), model.faces).centers
            proxies = fit_collision_proxies(centers0, rmap)
            # enlarge radii so some pairs collide under a fresh pose
            proxies.radii = proxies.radii * float(rng.uniform(1.1, 1.6))
            params2 = random_params(rng, model, rot_scale=0.25, shape_scale=0.02)
            centers2 = facet_geometry(pose_mesh(model, params2), model.faces).centers
            f2r = rmap.facet_to_region
            cents = np.array([centers2[f2r == r].mean(axis=0) for r in range(4)])
            pens = []
            for a in range(4):
                for b in range(a + 1, 4):
                    if (a, b) in proxies.excluded:
                        continue
                    pens.append(proxies.radii[a] + proxies.radii[b]
                                - np.linalg.norm(cents[a] - cents[b]))
            if pens and min(abs(p) for p in pens) < 1e-3:
                continue  # too close to the hinge for finite differences

            def col_value(x):
                p = PoseParams.from_vector(x, model.num_joints)
                cen = facet_geometry(pose_mesh(model, p), model.faces).centers
                return loss_collision(cen, rmap, proxies)[0]

            verts, vjac = pose_mesh_with_jacobian(model, params2)
            geom = facet_geometry(verts, model.faces)
            _, g_centers = loss_collision(geom.centers, rmap, proxies)
            grad_verts = np.zeros_like(verts)
            for corner in range(3):
                np.add.at(grad_verts, model.faces[:, corner], g_centers / 3.0)
            grad = np.einsum("vc,vcp->p", grad_verts, vjac)
            num = fd_gradient(col_value, params2.to_vector())
            if np.linalg.norm(num) < 1e-12:
                continue  # nothing collides in this draw
            errs.append(rel_error(grad, num))
            count += 1
        worst["L_col"] = max(errs)

        elapsed = time.time() - start
        detail = " ".join(f"{k}={v:.2e}" for k, v in worst.items())
        ok = all(v < GRAD_TOL for v in worst.values()) and elapsed < 60.0
        _report(1, ok, f"(max rel err: {detail}; {elapsed:.1f}s)")


# ---------------------------------------------------------------- 2 ----

def _oracle_iou_signature(a, b):
    n = a.granularity
    inter = union = 0
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            sa, sb = a.state(r1, r2), b.state(r1, r2)
            if sa == M or sb == M:
                continue
            ca, cb = sa == C, sb == C
            inter += ca and cb
            union += ca or cb
    return 1.0 if union == 0 else inter / union


def _oracle_iou_segmentation(a, b):
    inter = union = 0
    for r in range(a.granularity):
        if a.states[r] == 2 or b.states[r] == 2:
            continue
        ca, cb = a.states[r] == 1, b.states[r] == 1
        inter += ca and cb
        union += ca or cb
    return 1.0 if union == 0 else inter / union


def _oracle_coarsen(sig, cmap):
    out = {}
    for r1 in range(sig.granularity):
        for r2 in range(r1 + 1, sig.granularity):
            s = sig.state(r1, r2)
            if s == ContactState.NO_CONTACT:
                continue
            a, b = int(cmap.mapping[r1]), int(cmap.mapping[r2])
            if a == b:
                continue
            key = (min(a, b), max(a, b))
            if s == C or out.get(key) == C:
                out[key] = C
            else:
                out[key] = M
    return ContactSignature(cmap.coarse, list(out.items()))


def _oracle_phi(centers, ids1, ids2):
    ids1, ids2 = sorted(ids1), sorted(ids2)
    d12 = []
    d21 = []
    for f in ids1:
        d12.append(min(math.sqrt(((centers[f] - centers[g]) ** 2).sum())
                       for g in ids2))
    for g in ids2:
        d21.append(min(math.sqrt(((centers[f] - centers[g]) ** 2).sum())
                       for f in ids1))
    return float(np.sum(np.array(d12))) + float(np.sum(np.array(d21)))


def _oracle_cde(centers, sig, rmap):
    pairs = sig.contact_pairs()
    if not pairs:
        return None
    total = 0.0
    for r1, r2 in pairs:
        ids1 = [i for i, r in enumerate(rmap.facet_to_region) if r == r1]
        ids2 = [i for i, r in enumerate(rmap.facet_to_region) if r == r2]
        best = math.inf
        for i in ids1:
            for j in ids2:
                best = min(best, math.sqrt(((centers[i] - centers[j]) ** 2).sum()))
        total += best
    return 1000.0 * total / len(pairs)


def _random_coarsen(rng, fine, coarse):
    mapping = np.concatenate([np.arange(coarse),
                              rng.integers(0, coarse, fine - coarse)])
    rng.shuffle(mapping)
    return CoarsenMap(fine, coarse, mapping)


class TestCriterion2Oracles:
    def test_oracle_equivalence(self):
        start = time.time()
        rng = np.random.default_rng(999)
        checks = Counter()

        for n, trials, batch in ((9, 100, 3), (75, 20, 2)):
            for _ in range(trials):
                a = _random_signature(rng, n)
                b = _random_signature(rng, n)
                assert iou_signature(a, b) == _oracle_iou_signature(a, b)
                sa = segmentation_from_signature(a)
                sb = segmentation_from_signature(b)
                assert iou_segmentation(sa, sb) == _oracle_iou_segmentation(sa, sb)
                checks["iou"] += 1

                coarse = max(2, n // 3)
                cmap = _random_coarsen(rng, n, coarse)
                assert coarsen_signature(a, cmap) == _oracle_coarsen(a, cmap)
                checks["coarsen"] += 1

                sigs = [_random_signature(rng, n) for _ in range(batch)]
                stats = contact_stats(sigs)
                region = np.zeros(n, dtype=int)
                pair = Counter()
                for s in sigs:
                    for r1, r2 in s.contact_pairs():
                        region[r1] += 1
                        region[r2] += 1
                        pair[(r1, r2)] += 1
                assert stats.region_counts.tolist() == region.tolist()
                assert stats.pair_counts == pair
                checks["stats"] += 1

                n_facets = 3 * n
                centers = rng.normal(0, 1, (n_facets, 3))
                rmap = RegionMap(n, np.repeat(np.arange(n), 3))
                r1, r2 = sorted(rng.choice(n, size=2, replace=False).tolist())
                ids1 = np.flatnonzero(rmap.facet_to_region == r1)
                ids2 = np.flatnonzero(rmap.facet_to_region == r2)
                value, _ = phi_distance(centers, ids1, ids2)
                assert value == _oracle_phi(centers, ids1, ids2)
                checks["phi"] += 1

                cde_sig = _random_signature(rng, n, p_contact=0.2, p_masked=0.0)
                assert contact_distance_error(centers, cde_sig, rmap) == \
                    _oracle_cde(centers, cde_sig, rmap)
                checks["cde"] += 1

        elapsed = time.time() - start
        ok = elapsed < 60.0 and checks["iou"] == 120
        _report(2, ok, f"({dict(checks)} comparisons, all exact; {elapsed:.1f}s)")


# ---------------------------------------------------------------- 3 ----

class TestCriterion3Fixtures:
    def test_analytic_fixtures(self):
        ok = True
        for H, W in ((1, 1), (4, 6), (9, 3), (16, 16)):
            (x, y), _ = softargmax(np.zeros((H, W)))
            ok &= abs(x - (W + 1) / (2 * W)) < 1e-12
            ok &= abs(y - (H + 1) / (2 * H)) < 1e-12

        d = math.sqrt(0.05)
        lms = LandmarkSet(2, np.array([[0.1, 0.2], [0.1 + d, 0.2]]))
        value, _ = loss_separation(lms, ContactSignature(2), sigma_sq=0.025)
        ok &= abs(value - math.exp(-1.0)) < 1e-12

        ok &= total_train_loss(1.0, 1.0, 1.0, 1.0) == 12.0
        _report(3, ok, "(softargmax uniform, exp(-1) separation, 12.0 total)")


# ---------------------------------------------------------------- 4/6 ----

def _scenario_problem(bundle, with_contact):
    cfg = bundle.config
    weights = ObjectiveWeights(
        lambda_s=cfg["lambda_s"], lambda_psr=cfg["lambda_psr"],
        lambda_col=cfg["lambda_col"],
        lambda_d=cfg["lambda_d"] if with_contact else 0.0,
        lambda_n=cfg["lambda_n"] if with_contact else 0.0,
        lambda_pose=cfg["lambda_pose"], lambda_shape=cfg["lambda_shape"])
    settings = OptimizerSettings(iterations=cfg["iterations"],
                                 step_size=cfg["step_size"])
    return ReconstructionProblem(
        model=bundle.body.model, region_map=bundle.body.region_map,
        camera=bundle.camera, keypoints=bundle.keypoints,
        keypoint_joints=bundle.keypoint_joints, signature=bundle.signature,
        initial_params=bundle.initial_params, weights=weights,
        settings=settings, selection_mode=cfg["selection_mode"])


@pytest.fixture(scope="module")
def scenario_runs():
    runs = {}
    for name in SCENARIO_NAMES:
        bundle = generate_scenario(name, seed=7)
        model = bundle.body.model
        gt_joints = joint_positions(model, bundle.gt_params)
        gt_verts = pose_mesh(model, bundle.gt_params)
        entry = {"bundle": bundle}
        for key, with_contact in (("with", True), ("without", False)):
            t0 = time.time()
            final, trace = optimize(_scenario_problem(bundle, with_contact))
            elapsed = time.time() - t0
            verts = pose_mesh(model, final)
            geom = facet_geometry(verts, model.faces)
            entry[key] = {
                "params": final,
                "trace": trace,
                "seconds": elapsed,
                "P": mpjpe(joint_positions(model, final), gt_joints),
                "V": vertex_error(verts, gt_verts),
                "C": contact_distance_error(geom.centers, bundle.signature,
                                            bundle.body.region_map),
            }
        runs[name] = entry
    return runs


class TestCriterion4Reconstruction:
    def test_contact_term_ablation(self, scenario_runs):
        lines = []
        ok = True
        for name in SCENARIO_NAMES:
            a = scenario_runs[name]["with"]
            b = scenario_runs[name]["without"]
            cond = (a["C"] < 10.0 and a["P"] < b["P"] and a["V"] < b["V"]
                    and a["C"] < b["C"] and a["seconds"] < 30.0
                    and b["seconds"] < 30.0)
            ok &= cond
            lines.append(f"{name}: C {a['C']:.1f}/{b['C']:.1f}mm "
                         f"P {a['P']:.1f}/{b['P']:.1f} V {a['V']:.1f}/{b['V']:.1f} "
                         f"[{a['seconds']:.1f}s/{b['seconds']:.1f}s]")
        hand_chin_without = scenario_runs["hand-chin"]["without"]["C"]
        ok &= hand_chin_without > 50.0
        _report(4, ok, "(with/without contact term: " + "; ".join(lines) + ")")


class TestCriterion6Monotone:
    def test_traces_monotone_nonincreasing(self, scenario_runs):
        ok = True
        steps = 0
        for name in SCENARIO_NAMES:
            for key in ("with", "without"):
                totals = [t.total for t in scenario_runs[name][key]["trace"]]
                steps += len(totals) - 1
                ok &= all(b <= a for a, b in zip(totals, totals[1:]))
        _report(6, ok, f"({steps} accepted steps, all non-increasing)")


# ---------------------------------------------------------------- 5 ----

def _spurious_prediction(rng, n=12):
    all_pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    order = rng.permutation(len(all_pairs))
    gt_pairs = [all_pairs[i] for i in order[:4]]
    gt = ContactSignature.from_sets(n, contact=gt_pairs)

    comp = {}
    for a, b in gt_pairs:
        ca, cb = comp.get(a), comp.get(b)
        if ca is None and cb is None:
            comp[a] = comp[b] = len(comp)
        elif ca is None:
            comp[a] = cb
        elif cb is None:
            comp[b] = ca
        else:
            for r, c_ in list(comp.items()):
                if c_ == cb:
                    comp[r] = ca
    spots = {c_: rng.random(2) * 0.6 + 0.2 for c_ in set(comp.values())}
    corners = [(0.02, 0.02), (0.98, 0.98), (0.02, 0.98), (0.98, 0.02)]
    landmarks = np.zeros((n, 2))
    ci = 0
    for r in range(n):
        if r in comp:
            landmarks[r] = spots[comp[r]]
        else:
            landmarks[r] = corners[ci % 4]
            ci += 1
    probs = {p: 0.9 for p in gt_pairs}
    spurious = [(a, b) for i in order[4:] for (a, b) in [all_pairs[i]]
                if a not in comp and b not in comp
                and np.linalg.norm(landmarks[a] - landmarks[b]) > 0.5]
    # at least 20% of predicted pairs are spurious far-landmark pairs
    for p in spurious[:2]:
        probs[p] = 0.85
    assert len([p for p in probs.values() if p == 0.85]) >= 1
    return gt, RawPrediction(n, probs, np.full(n, 0.9), landmarks)


class TestCriterion5FilterAblation:
    def test_filtering_improves_iou_every_trial(self):
        start = time.time()
        rng = np.random.default_rng(77)
        cfg = FilterConfig(tau_s=0.5, tau_c=0.5, tau_dist=0.1)
        improved = 0
        trials = 50
        befores = []
        afters = []
        for _ in range(trials):
            gt, pred = _spurious_prediction(rng)
            before = iou_signature(threshold_signature(pred, cfg.tau_c), gt)
            after = iou_signature(filter_signature(pred, cfg), gt)
            befores.append(before)
            afters.append(after)
            improved += after > before
        elapsed = time.time() - start
        ok = improved == trials and elapsed < 10.0
        _report(5, ok, f"({improved}/{trials} trials improved, "
                       f"mean IoU {np.mean(befores):.3f} -> {np.mean(afters):.3f}; "
                       f"{elapsed:.1f}s)")


# ---------------------------------------------------------------- 7 ----

class TestCriterion7Determinism:
    def test_cli_end_to_end_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "fast.cfg"
        cfg_path.write_text(
            "iterations = 60\nstep_size = 1.0\nlambda_s = 0.05\n"
            "lambda_psr = 0.01\nlambda_col = 1.0\nlambda_d = 1.0\n"
            "lambda_n = 0.02\nlambda_pose = 0.1\nlambda_shape = 100000.0\n")
        outputs = []
        for run in ("run_a", "run_b"):
            base = tmp_path / run
            bundle = base / "bundle"
            recon = base / "recon"
            assert cli_dispatch(["synth", "--scenario", "hand-chin",
                                 "--seed", "21", "--out", str(bundle)]) == 0
            assert cli_dispatch([
                "reconstruct", "--body", str(bundle / "body.json"),
                "--regions", str(bundle / "regions_75.json"),
                "--annotation", str(bundle / "annotation.json"),
                "--keypoints", str(bundle / "keypoints.json"),
                "--camera", str(bundle / "camera.json"),
                "--init", str(bundle / "init_params.json"),
                "--config", str(cfg_path),
                "--out-dir", str(recon)]) == 0
            rec = base / "record.json"
            assert cli_dispatch([
                "eval", "--body", str(bundle / "body.json"),
                "--regions", str(bundle / "regions_75.json"),
                "--annotation", str(bundle / "annotation.json"),
                "--pred-params", str(recon / "params.json"),
                "--gt-params", str(bundle / "gt_params.json"),
                "--id", "det", "--class", "standing",
                "--out", str(rec)]) == 0
            table = base / "table.csv"
            assert cli_dispatch(["metrics", "--records", str(rec),
                                 "--out", str(table)]) == 0
            outputs.append({
                "params": (recon / "params.json").read_bytes(),
                "trace": (recon / "trace.csv").read_bytes(),
                "obj": (recon / "final.obj").read_bytes(),
                "record": rec.read_bytes(),
                "table": table.read_bytes(),
            })
        ok = all(outputs[0][k] == outputs[1][k] for k in outputs[0])
        _report(7, ok, f"({len(outputs[0])} artifacts byte-identical)")
