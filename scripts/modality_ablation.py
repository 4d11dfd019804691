#!/usr/bin/env python3
"""Ablate the three loss terms and the covariate input on a synthetic world.

Trains one encoder per configuration row (loss-term weights toggle the image,
text, and location terms; the covariate flag switches the location encoder
input between coordinates-only and coordinates+environment) and reports
frozen-encoder linear-probe habitat accuracy for each.

Usage:
    python scripts/modality_ablation.py [--seed 0] [--epochs 6]
"""

import argparse
import dataclasses
import sys
import time

import numpy as np

from satalign.encoders import ImageEncoderConfig, LocationEncoderConfig, ModelConfig
from satalign.evaluate import ProbeConfig, accuracy, fit_linear_probe, probe_split
from satalign.geodata import pair_samples
from satalign.synthworld import SyntheticWorldConfig, generate_synthetic_world
from satalign.training import TrainConfig, initial_model, model_from_checkpoint, train

ROWS = [
    # (label, image_w, text_w, location_w, use_covariates)
    ("random init (no training)", None, None, None, True),
    ("image only", 1.0, 0.0, 0.0, True),
    ("text only", 0.0, 1.0, 0.0, True),
    ("location only (coords)", 0.0, 0.0, 1.0, False),
    ("location only (coords+env)", 0.0, 0.0, 1.0, True),
    ("image + text", 1.0, 1.0, 0.0, True),
    ("image + location", 1.0, 0.0, 1.0, True),
    ("all three terms", 1.0, 1.0, 1.0, True),
]


def probe_accuracy(model, tiles, labels, seed):
    """Linear-probe habitat accuracy on the CLI's `probe --task cls` split:
    75/25 within each habitat, so every habitat has the same share in both."""
    features = model.image_features(np.stack([t.pixels for t in tiles]))
    train_idx, test_idx = probe_split(labels, seed)
    head = fit_linear_probe(None, features[train_idx], labels[train_idx],
                            "single_label", ProbeConfig(lr=1e-3, epochs=200, seed=seed))
    return accuracy(head.predict(features[test_idx]), labels[test_idx])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=6)
    args = parser.parse_args(argv)

    world = generate_synthetic_world(SyntheticWorldConfig(
        seed=args.seed, n_species=32, n_habitats=8, raster_rows=24, raster_cols=24,
        tiles_per_habitat=32, n_observations=384, d_txt=16, tile_size=16,
        sections_per_species=2, tile_shift=0.01, clutter=0.25))
    labels = np.array([world.tile_habitats[t.tile_id] for t in world.tiles])
    paired = pair_samples(world.observations, world.tiles, world.texts,
                          world.raster, seed=args.seed)

    print(f"{'configuration':<28}  {'probe accuracy':>14}")
    started = time.monotonic()
    for label, img_w, txt_w, loc_w, use_cov in ROWS:
        model_cfg = ModelConfig(
            image=ImageEncoderConfig(in_size=16, widths=(8, 12), d_img=32),
            location=LocationEncoderConfig(use_covariates=use_cov, hidden=16,
                                           depth=2, d_loc=16),
            d_txt=16, embed_dim=16)
        config = TrainConfig(epochs=args.epochs, batch_size=16, lr=1e-3,
                             seed=args.seed, crop_size=12, jitter=0.02,
                             channel_mix=0.05, model=model_cfg)
        if img_w is None:
            model = initial_model(config)
        else:
            config = dataclasses.replace(config, image_weight=img_w,
                                         text_weight=txt_w, location_weight=loc_w)
            model = model_from_checkpoint(train(config, paired.samples))
        acc = probe_accuracy(model, world.tiles, labels, args.seed)
        print(f"{label:<28}  {acc:>14.3f}")
    print(f"\ndone in {time.monotonic() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
