#!/usr/bin/env python3
"""Ablate the loss terms, the covariate input and PEFT on synthetic worlds.

For each seed, generate a world with known habitat structure and train one
encoder per row: the loss-term weights toggle the image, text and location
terms, the covariate flag switches the location encoder's input between
coordinates-only and coordinates+environment, and the last row fine-tunes
scale-shift parameters only (conv kernels frozen). The first row is the
untrained encoder. Each row reports, as means over the seeds, the
frozen-encoder linear-probe habitat accuracy, the habitat precision of the
top 10 tiles retrieved for each habitat's text prototype, and zero-shot
accuracy against those prototypes.

Usage:
    python scripts/modality_ablation.py [--seeds 5] [--epochs 6]
"""

import argparse
import dataclasses
import sys
import time

import numpy as np

from satalign.encoders import ImageEncoderConfig, LocationEncoderConfig, ModelConfig
from satalign.evaluate import (ProbeConfig, accuracy, build_index, fit_linear_probe,
                               probe_split, query_index, zero_shot_classify)
from satalign.geodata import pair_samples
from satalign.synthworld import SyntheticWorldConfig, generate_synthetic_world
from satalign.training import TrainConfig, initial_model, model_from_checkpoint, train

ROWS = [
    # (label, location encoder takes covariates, TrainConfig changes; None: no training)
    ("random init (no training)", True, None),
    ("image only", True, {"text_weight": 0.0, "location_weight": 0.0}),
    ("text only", True, {"image_weight": 0.0, "location_weight": 0.0}),
    ("location only (coords)", False, {"image_weight": 0.0, "text_weight": 0.0}),
    ("location only (coords+env)", True, {"image_weight": 0.0, "text_weight": 0.0}),
    ("image + text", True, {"location_weight": 0.0}),
    ("image + location", True, {"text_weight": 0.0}),
    ("all three terms", True, {}),
    ("all three terms, scale_shift", True, {"peft": "scale_shift", "lr": 1e-2}),
]


def probe_accuracy(model, tiles, labels, seed):
    """Linear-probe habitat accuracy on the CLI's `probe --task cls` split:
    75/25 within each habitat, so every habitat has the same share in both."""
    features = model.image_features(np.stack([t.pixels for t in tiles]))
    train_idx, test_idx = probe_split(labels, seed)
    head = fit_linear_probe(None, features[train_idx], labels[train_idx],
                            "single_label", ProbeConfig(lr=1e-3, epochs=200, seed=seed))
    return accuracy(head.predict(features[test_idx]), labels[test_idx])


def retrieval_precision(model, world):
    """Mean over habitats of the share of the top 10 tiles retrieved for the
    habitat's text prototype that belong to that habitat."""
    index = build_index(model, world.tiles)
    return float(np.mean([
        np.mean([world.tile_habitats[tid] == habitat for tid, _ in
                 query_index(index, world.text_prototypes[habitat], k=10, model=model)])
        for habitat in range(world.truth.n_habitats)]))


def run_seed(seed, epochs):
    """Each row's (probe accuracy, retrieval@10, zero-shot accuracy) at `seed`."""
    world = generate_synthetic_world(SyntheticWorldConfig(
        seed=seed, n_species=32, n_habitats=8, raster_rows=24, raster_cols=24,
        tiles_per_habitat=32, n_observations=384, d_txt=16, tile_size=16,
        sections_per_species=2, tile_shift=0.01, clutter=0.25))
    labels = np.array([world.tile_habitats[t.tile_id] for t in world.tiles])
    paired = pair_samples(world.observations, world.tiles, world.texts,
                          world.raster, seed=seed)
    scores = []
    for _, use_cov, changes in ROWS:
        model_cfg = ModelConfig(
            image=ImageEncoderConfig(in_size=16, widths=(8, 12), d_img=32),
            location=LocationEncoderConfig(use_covariates=use_cov, hidden=16,
                                           depth=2, d_loc=16),
            d_txt=16, embed_dim=16)
        config = TrainConfig(epochs=epochs, batch_size=16, lr=1e-3, seed=seed,
                             crop_size=12, jitter=0.02, channel_mix=0.05, model=model_cfg)
        if changes is None:
            model = initial_model(config)
        else:
            config = dataclasses.replace(config, **changes)
            model = model_from_checkpoint(train(config, paired.samples))
        scores.append((probe_accuracy(model, world.tiles, labels, seed),
                       retrieval_precision(model, world),
                       accuracy(zero_shot_classify(model, world.tiles, world.text_prototypes),
                                labels)))
    return scores


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="run seeds 0..N-1")
    parser.add_argument("--epochs", type=int, default=6)
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be >= 1")

    started = time.monotonic()
    means = np.mean([run_seed(seed, args.epochs) for seed in range(args.seeds)], axis=0)
    print(f"{'configuration':<30}  {'probe':>6}  {'retrieval@10':>12}  {'zero-shot':>9}")
    for (label, _, _), (probe, retrieval, zero_shot) in zip(ROWS, means):
        print(f"{label:<30}  {probe:>6.3f}  {retrieval:>12.3f}  {zero_shot:>9.3f}")
    print(f"\nmeans over seeds 0-{args.seeds - 1}, in {time.monotonic() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
