"""Acceptance suite.

Each test enforces one release criterion at its stated tolerance and prints
one PASS/FAIL line (visible with `pytest -s` or in failure reports).
"""

import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from satalign.cli import _gradcheck_setup, dispatch, hash_path
from satalign.contrastive import info_nce, pairwise_loss, trimodal_loss
from satalign.encoders import ImageEncoderConfig, LocationEncoderConfig, ModelConfig
from satalign.evaluate import (ProbeConfig, accuracy, build_index,
                               fit_linear_probe, mean_iou, micro_f1, query_index,
                               top_k_accuracy)
from satalign.geodata import CovariateRaster, bilinear_sample, pair_samples
from satalign.gradcheck import finite_diff_check
from satalign.synthworld import SyntheticWorldConfig, generate_synthetic_world
from satalign.tape import l2_normalize_rows
from satalign.training import (TrainConfig, initial_model, model_from_checkpoint,
                               train)

SEEDS = range(5)


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number:02d} [{'PASS' if passed else 'FAIL'}] {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def acceptance_world_config(seed: int) -> SyntheticWorldConfig:
    # 8 habitats x 32 tiles = 256 tiles, 32 species
    return SyntheticWorldConfig(seed=seed, n_species=32, n_habitats=8,
                                raster_rows=24, raster_cols=24, tiles_per_habitat=32,
                                n_observations=384, d_txt=16, tile_size=16,
                                sections_per_species=2, tile_shift=0.01, clutter=0.25)


def acceptance_train_config(seed: int, **overrides) -> TrainConfig:
    model = ModelConfig(image=ImageEncoderConfig(in_size=16, widths=(8, 12), d_img=32),
                        location=LocationEncoderConfig(hidden=16, depth=2, d_loc=16),
                        d_txt=16, embed_dim=16)
    defaults = dict(epochs=6, batch_size=16, lr=1e-3, seed=seed, crop_size=12,
                    jitter=0.02, channel_mix=0.05, model=model)
    defaults.update(overrides)
    return TrainConfig(**defaults)


@dataclass
class SeedRun:
    world: object
    labels: np.ndarray
    random_acc: float
    trained_acc: float
    scale_shift_acc: float
    scale_shift_params: dict
    init_params: dict
    trained_model: object


def _probe_accuracy(model, tiles, labels, seed) -> float:
    features = model.image_features(np.stack([t.pixels for t in tiles]))
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(tiles))
    n_train = int(0.75 * len(tiles))
    tr, te = order[:n_train], order[n_train:]
    head = fit_linear_probe(None, features[tr], labels[tr], "single_label",
                            ProbeConfig(lr=1e-3, epochs=200, seed=seed))
    return accuracy(head.predict(features[te]), labels[te])


@pytest.fixture(scope="module")
def seed_runs():
    started = time.monotonic()
    runs = []
    for seed in SEEDS:
        world = generate_synthetic_world(acceptance_world_config(seed))
        labels = np.array([world.tile_habitats[t.tile_id] for t in world.tiles])
        paired = pair_samples(world.observations, world.tiles, world.texts,
                              world.raster, seed=seed)
        config = acceptance_train_config(seed)
        init = initial_model(config)
        init_params = init.params.copy_values()
        random_acc = _probe_accuracy(init, world.tiles, labels, seed)

        trained = model_from_checkpoint(train(config, paired.samples))
        trained_acc = _probe_accuracy(trained, world.tiles, labels, seed)

        ss_config = acceptance_train_config(seed, peft="scale_shift", lr=1e-2)
        ss_ckpt = train(ss_config, paired.samples)
        ss_acc = _probe_accuracy(model_from_checkpoint(ss_ckpt), world.tiles, labels, seed)

        runs.append(SeedRun(world=world, labels=labels, random_acc=random_acc,
                            trained_acc=trained_acc, scale_shift_acc=ss_acc,
                            scale_shift_params=ss_ckpt.params, init_params=init_params,
                            trained_model=trained))
    return runs, time.monotonic() - started


def test_criterion_01_gradient_correctness():
    """Finite differences match the full three-term loss gradient, 20 seeds, <60 s."""
    started = time.monotonic()
    worst = 0.0
    for seed in range(20):
        tape = _gradcheck_setup(seed)
        result = finite_diff_check(tape, tolerance=1e-4, step=1e-5)
        worst = max(worst, result.max_rel_err)
        assert result.passed, f"seed {seed}: {result}"
    elapsed = time.monotonic() - started
    report(1, "full-loss gradients match central finite differences",
           worst < 1e-4 and elapsed < 60.0,
           f"max_rel_err={worst:.2e}, {elapsed:.1f}s for 20 seeds")


def test_criterion_02_loss_closed_forms():
    """InfoNCE closed forms and the random-batch mean."""
    ok = True
    for tau in (0.07, 0.5, 1.0):
        value = info_nce(np.array([1.0, 0.0]), np.eye(2), 0, tau)
        ok &= abs(value - math.log1p(math.exp(-1.0 / tau))) < 1e-9
    single = unit = l2_normalize_rows(np.ones((1, 4)))
    ok &= info_nce(unit[0], single, 0, 0.07) == 0.0
    # Monte-Carlo oracle: at tau=1 the n=64 random-batch mean sits at
    # ln 64 plus a ~0.02 Jensen term, inside the +-0.1 band.
    rng = np.random.default_rng(2024)
    n = d = 64
    total = 0.0
    trials = 1000
    for t in range(trials):
        z = l2_normalize_rows(rng.normal(size=(n, d)))
        e = l2_normalize_rows(rng.normal(size=(n, d)))
        total += info_nce(z[t % n], e, t % n, temperature=1.0)
    mc_gap = abs(total / trials - math.log(n))
    ok &= mc_gap < 0.1
    report(2, "closed-form and Monte-Carlo InfoNCE values", ok,
           f"MC mean within {mc_gap:.3f} of ln 64")


def test_criterion_03_symmetry_and_additivity():
    """L(Z,E) = L(E,Z) on 100 random pairs; the objective equals its term sum."""
    rng = np.random.default_rng(7)
    worst_sym = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        z = l2_normalize_rows(rng.normal(size=(n, 6)))
        e = l2_normalize_rows(rng.normal(size=(n, 6)))
        worst_sym = max(worst_sym, abs(pairwise_loss(z, e, 0.07) - pairwise_loss(e, z, 0.07)))
    batches = [l2_normalize_rows(rng.normal(size=(5, 6))) for _ in range(6)]
    total, _ = trimodal_loss(*batches)
    expected = (pairwise_loss(batches[0], batches[1], 0.07)
                + pairwise_loss(batches[2], batches[3], 0.07)
                + pairwise_loss(batches[4], batches[5], 0.07))
    additivity = abs(total - expected)
    report(3, "batch loss symmetry and objective additivity",
           worst_sym < 1e-12 and additivity < 1e-12,
           f"sym={worst_sym:.2e}, add={additivity:.2e}")


def test_criterion_04_training_beats_random_init(seed_runs):
    """Contrastive training lifts linear-probe habitat accuracy by >= 15 points."""
    runs, elapsed = seed_runs
    gaps = [r.trained_acc - r.random_acc for r in runs]
    ok = all(g >= 0.15 for g in gaps) and elapsed < 600.0
    report(4, "trained encoder beats random init by >= 15 points on 5/5 seeds", ok,
           f"gaps={['%.2f' % g for g in gaps]}, {elapsed:.0f}s total")


def test_criterion_05_zero_shot_retrieval(seed_runs):
    """Habitat text prototypes retrieve their own tiles at >= 3x chance."""
    runs, _ = seed_runs
    worst = math.inf
    for run in runs:
        world = run.world
        chance = (len(world.tiles) / world.config.n_habitats) / len(world.tiles)
        index = build_index(run.trained_model, world.tiles)
        for habitat in range(world.config.n_habitats):
            hits = query_index(index, world.text_prototypes[habitat], k=10,
                               model=run.trained_model)
            precision = float(np.mean([world.tile_habitats[tid] == habitat
                                       for tid, _ in hits]))
            worst = min(worst, precision / (3.0 * chance))
    report(5, "top-10 retrieval precision >= 3x chance for every habitat, 5/5 seeds",
           worst >= 1.0, f"worst precision/threshold ratio={worst:.2f}")


def test_zero_shot_classification_beats_chance(seed_runs):
    """Habitat prototypes as a class set classify tiles at >= 2x chance."""
    from satalign.evaluate import zero_shot_classify

    runs, _ = seed_runs
    for run in runs:
        world = run.world
        preds = zero_shot_classify(run.trained_model, world.tiles, world.text_prototypes)
        acc = accuracy(preds, [world.tile_habitats[t.tile_id] for t in world.tiles])
        assert acc >= 2.0 / world.config.n_habitats


def test_criterion_06_peft_scale_shift_contract(seed_runs):
    """scale_shift training freezes conv kernels bitwise yet still helps probing."""
    runs, _ = seed_runs
    kernels_frozen = True
    for run in runs:
        for name, value in run.init_params.items():
            if name.startswith("img.conv") or name.startswith("img.fc"):
                kernels_frozen &= np.array_equal(run.scale_shift_params[name], value)
    gaps = [r.scale_shift_acc - r.random_acc for r in runs]
    ok = kernels_frozen and all(g >= 0.05 for g in gaps)
    report(6, "scale_shift freezes conv kernels and still gains >= 5 points", ok,
           f"frozen={kernels_frozen}, gaps={['%.2f' % g for g in gaps]}")


def test_criterion_07_metric_oracles():
    """Metrics match independent brute-force implementations, exactly."""

    def brute_accuracy(preds, labels):
        hits = sum(1 for p, t in zip(preds, labels) if p == t)
        return hits / len(preds)

    def brute_micro_f1(pairs):
        tp = fp = fn = 0
        for pred, true in pairs:
            for v in pred:
                if v in true:
                    tp += 1
                else:
                    fp += 1
            for v in true:
                if v not in pred:
                    fn += 1
        return 1.0 if 2 * tp + fp + fn == 0 else 2 * tp / (2 * tp + fp + fn)

    def brute_mean_iou(pred, true, n_classes):
        scores = []
        for k in range(n_classes):
            p = {i for i, v in enumerate(pred) if v == k}
            t = {i for i, v in enumerate(true) if v == k}
            if p or t:
                scores.append(len(p & t) / len(p | t))
        return sum(scores) / len(scores)

    def brute_top_k(rates, observed):
        ranked = sorted(range(len(rates)), key=lambda i: (-rates[i], i))
        top = set(ranked[:len(observed)])
        return len(top & set(observed)) / len(observed)

    ok = True
    subsets = [set(s) for r in range(5) for s in itertools.combinations(range(4), r)]
    for pred in subsets:
        for true in subsets:
            ok &= micro_f1([pred], [true]) == brute_micro_f1([(pred, true)])
    for pred in itertools.product(range(3), repeat=4):
        for true in itertools.product(range(3), repeat=4):
            ok &= accuracy(pred, true) == brute_accuracy(pred, true)
            ok &= abs(mean_iou(pred, true, 3) - brute_mean_iou(pred, true, 3)) == 0.0
    values = (0.25, 0.5, 0.75)
    for rates in itertools.product(values, repeat=6):
        for r in (1, 3, 6):
            for observed in itertools.combinations(range(6), r):
                ok &= top_k_accuracy(np.array(rates), set(observed)) == \
                    brute_top_k(rates, observed)
    report(7, "accuracy, micro-F1, mean IoU, top-k match brute force exactly", ok)


def test_criterion_08_bilinear_sampling():
    """Node exactness, convex bounds on 1e4 queries, and the unit-cell case."""
    rng = np.random.default_rng(0)
    # grid geometry in exact binary fractions so node coordinates round-trip
    raster = CovariateRaster(lat0=0.0, lon0=0.0, dlat=0.5, dlon=0.25,
                             values=rng.normal(size=(9, 11, 20)))
    exact = True
    for r in range(raster.rows):
        for c in range(raster.cols):
            got = bilinear_sample(raster, r * 0.5, c * 0.25)
            exact &= np.array_equal(got, raster.values[r, c])

    convex = True
    for _ in range(10_000):
        fr = rng.uniform(0, raster.rows - 1)
        fc = rng.uniform(0, raster.cols - 1)
        out = bilinear_sample(raster, fr * 0.5, fc * 0.25)
        r0 = min(int(fr), raster.rows - 2)
        c0 = min(int(fc), raster.cols - 2)
        corners = raster.values[r0:r0 + 2, c0:c0 + 2].reshape(4, -1)
        convex &= bool(np.all(out >= corners.min(axis=0) - 1e-12)
                       and np.all(out <= corners.max(axis=0) + 1e-12))

    cell = CovariateRaster(lat0=0, lon0=0, dlat=1, dlon=1,
                           values=np.array([[[0.0], [1.0]], [[2.0], [3.0]]]))
    center = float(bilinear_sample(cell, 0.5, 0.5)[0])
    report(8, "bilinear sampling exact at nodes, convex, centered at 1.5",
           exact and convex and center == 1.5, f"center={center}")


def test_criterion_09_end_to_end_determinism(tmp_path):
    """synth + train + probe reproduce byte-identical outputs across two runs."""
    synth_cfg = tmp_path / "synth.json"
    synth_cfg.write_text(json.dumps({
        "n_species": 8, "n_habitats": 4, "raster_rows": 16, "raster_cols": 16,
        "tiles_per_habitat": 8, "n_observations": 96, "d_txt": 12,
        "tile_size": 12, "sections_per_species": 2}))
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({
        "epochs": 2, "batch_size": 16, "lr": 1e-3, "seed": 5, "crop_size": 10,
        "jitter": 0.02, "channel_mix": 0.05,
        "model": {"image": {"in_size": 12, "widths": [6, 8], "d_img": 16},
                  "location": {"hidden": 12, "depth": 2, "d_loc": 8},
                  "d_txt": 12, "embed_dim": 12}}))

    digests = []
    for tag in ("one", "two"):
        base = tmp_path / tag
        assert dispatch(["synth", "--out", str(base / "world"), "--seed", "9",
                         "--config", str(synth_cfg)]) == 0
        assert dispatch(["train", "--data", str(base / "world"),
                         "--out", str(base / "ckpt.json"),
                         "--config", str(train_cfg)]) == 0
        assert dispatch(["probe", "--data", str(base / "world"),
                         "--ckpt", str(base / "ckpt.json"), "--task", "cls",
                         "--seed", "0", "--out", str(base / "metrics.json")]) == 0
        digests.append((hash_path(base / "world"),
                        hash_path(base / "ckpt.json"), hash_path(base / "ckpt.bin"),
                        hash_path(base / "metrics.json")))
    report(9, "synth+train+probe byte-identical across two runs",
           digests[0] == digests[1])


def test_criterion_10_probe_leaves_encoder_frozen(seed_runs):
    """Every probe task kind leaves the encoder parameter blob bit-identical."""
    runs, _ = seed_runs
    run = runs[0]
    model = run.trained_model
    tiles = run.world.tiles[:32]
    features_labels = {
        "single_label": np.array([run.world.tile_habitats[t.tile_id] % 2 for t in tiles]),
        "multi_label": np.eye(2)[[run.world.tile_habitats[t.tile_id] % 2 for t in tiles]],
        "encounter_rate": np.random.default_rng(0).random((len(tiles), 5)),
    }
    ok = True
    for kind, labels in features_labels.items():
        before = model.params.blob_hash()
        fit_linear_probe(model, list(tiles), labels, kind, ProbeConfig(epochs=30))
        ok &= model.params.blob_hash() == before
    report(10, "probe fits leave the encoder hash unchanged", ok)
