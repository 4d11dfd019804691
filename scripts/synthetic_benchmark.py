#!/usr/bin/env python3
"""Desk-scale benchmark on synthetic worlds.

For each seed: generate a world with known habitat structure, then compare
linear-probe habitat accuracy of (a) a randomly initialized encoder, (b) the
same encoder after full contrastive training, and (c) after scale-shift-only
fine-tuning with frozen conv kernels. Also reports text-prototype retrieval
precision and zero-shot classification accuracy for the fully trained model.

Usage:
    python scripts/synthetic_benchmark.py [--seeds 5] [--epochs 6]
"""

import argparse
import sys
import time

import numpy as np

from satalign.encoders import ImageEncoderConfig, LocationEncoderConfig, ModelConfig
from satalign.evaluate import (ProbeConfig, accuracy, build_index, fit_linear_probe,
                               probe_split, query_index, zero_shot_classify)
from satalign.geodata import pair_samples
from satalign.synthworld import SyntheticWorldConfig, generate_synthetic_world
from satalign.training import TrainConfig, initial_model, model_from_checkpoint, train


def probe_accuracy(model, tiles, labels, seed):
    """Linear-probe habitat accuracy on the CLI's `probe --task cls` split:
    75/25 within each habitat, so every habitat has the same share in both."""
    features = model.image_features(np.stack([t.pixels for t in tiles]))
    train_idx, test_idx = probe_split(labels, seed)
    head = fit_linear_probe(None, features[train_idx], labels[train_idx],
                            "single_label", ProbeConfig(lr=1e-3, epochs=200, seed=seed))
    return accuracy(head.predict(features[test_idx]), labels[test_idx])


def run_seed(seed, epochs):
    world_cfg = SyntheticWorldConfig(seed=seed, n_species=32, n_habitats=8,
                                     raster_rows=24, raster_cols=24,
                                     tiles_per_habitat=32, n_observations=384,
                                     d_txt=16, tile_size=16, sections_per_species=2,
                                     tile_shift=0.01, clutter=0.25)
    world = generate_synthetic_world(world_cfg)
    labels = np.array([world.tile_habitats[t.tile_id] for t in world.tiles])
    paired = pair_samples(world.observations, world.tiles, world.texts,
                          world.raster, seed=seed)

    model_cfg = ModelConfig(image=ImageEncoderConfig(in_size=16, widths=(8, 12), d_img=32),
                            location=LocationEncoderConfig(hidden=16, depth=2, d_loc=16),
                            d_txt=16, embed_dim=16)
    full_cfg = TrainConfig(epochs=epochs, batch_size=16, lr=1e-3, seed=seed,
                           crop_size=12, jitter=0.02, channel_mix=0.05, model=model_cfg)
    ss_cfg = TrainConfig(epochs=epochs, batch_size=16, lr=1e-2, seed=seed,
                         crop_size=12, jitter=0.02, channel_mix=0.05,
                         peft="scale_shift", model=model_cfg)

    random_acc = probe_accuracy(initial_model(full_cfg), world.tiles, labels, seed)
    trained = model_from_checkpoint(train(full_cfg, paired.samples))
    trained_acc = probe_accuracy(trained, world.tiles, labels, seed)
    ss_model = model_from_checkpoint(train(ss_cfg, paired.samples))
    ss_acc = probe_accuracy(ss_model, world.tiles, labels, seed)

    index = build_index(trained, world.tiles)
    precisions = []
    for habitat in range(world_cfg.n_habitats):
        hits = query_index(index, world.text_prototypes[habitat], k=10, model=trained)
        precisions.append(np.mean([world.tile_habitats[tid] == habitat
                                   for tid, _ in hits]))
    zs_acc = accuracy(zero_shot_classify(trained, world.tiles, world.text_prototypes), labels)
    return random_acc, trained_acc, ss_acc, float(np.mean(precisions)), zs_acc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--epochs", type=int, default=6)
    args = parser.parse_args(argv)

    print(f"{'seed':>4}  {'random':>7}  {'trained':>7}  {'scale_shift':>11}  "
          f"{'retrieval@10':>12}  {'zero-shot':>9}")
    rows = []
    started = time.monotonic()
    for seed in range(args.seeds):
        row = run_seed(seed, args.epochs)
        rows.append(row)
        print(f"{seed:>4}  {row[0]:>7.3f}  {row[1]:>7.3f}  {row[2]:>11.3f}  "
              f"{row[3]:>12.3f}  {row[4]:>9.3f}")
    means = np.mean(rows, axis=0)
    print(f"{'mean':>4}  {means[0]:>7.3f}  {means[1]:>7.3f}  {means[2]:>11.3f}  "
          f"{means[3]:>12.3f}  {means[4]:>9.3f}")
    print(f"\n{args.seeds} seeds in {time.monotonic() - started:.1f}s; "
          f"probe gain over random init: full {means[1] - means[0]:+.3f}, "
          f"scale_shift {means[2] - means[0]:+.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
