"""Geometric and photometric augmentations over (n, C, H, W) tile batches.

The augmentations draw nothing themselves: the caller draws the random
numbers as arrays, one row per tile, and passes them in, so a tile's result
depends only on its own pixels and its own row of draws. Only the crop
slicing runs per tile; the resize, clip, jitter and channel mixing are array
operations over the batch.

The bits depend neither on memory layout nor on the rest of the batch. The
resize is two matrix products per tile channel against bilinear weight
matrices and returns C order; jitter and clip are elementwise; the channel
mix is an explicit sum over input channels in channel order.
"""

from __future__ import annotations

import numpy as np


def _bilinear_weights(n_in: int, n_out: int) -> np.ndarray:
    """(n_out, n_in) matrix of endpoint-aligned linear interpolation weights."""
    pos = np.linspace(0.0, n_in - 1, n_out) if n_out > 1 else np.zeros(1)
    lo = np.minimum(np.floor(pos).astype(int), max(n_in - 2, 0))
    frac = pos - lo
    rows = np.arange(n_out)
    weights = np.zeros((n_out, n_in))
    weights[rows, lo] = 1 - frac
    weights[rows, np.minimum(lo + 1, n_in - 1)] += frac
    return weights


def resize_pixels(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of a (..., H, W) array (endpoint-aligned sampling),
    returned in C order. Each (H, W) slice is multiplied by the column
    weights, then by the row weights, one matrix product per slice, so a
    tile's bits do not depend on the batch it is in. When the size already
    matches, the result is a copy."""
    h, w = pixels.shape[-2:]
    if (h, w) == (out_h, out_w):
        return pixels.copy()
    cols = np.matmul(np.ascontiguousarray(pixels), _bilinear_weights(w, out_w).T)
    return np.matmul(_bilinear_weights(h, out_h), cols)


def fit_to_input(pixels: np.ndarray, size: int) -> np.ndarray:
    """Deterministically resize an (n, C, H, W) batch to the model input size."""
    return np.clip(resize_pixels(pixels, size, size), 0.0, 1.0)


def augment_geometric(tiles, crop_size: int, flips: np.ndarray, offsets: np.ndarray,
                      out_size: int | None = None) -> np.ndarray:
    """Per tile, a horizontal and/or vertical flip, then a crop of
    `crop_size`; then the batch is resized to `out_size` (defaults to
    crop_size) and clipped to [0, 1].

    `tiles` is an (n, C, H, W) array or a sequence of (C, H, W) arrays, whose
    sizes may differ; the result is (n, C, out_size, out_size). `flips` is
    (n, 2) booleans (horizontal, vertical). `offsets` is (n, 2) uniform draws
    in [0, 1) that place the crop: a tile of height H gets the top row
    floor(offsets[i, 0] * (H - crop_size + 1)), and the left column likewise.
    """
    if out_size is None:
        out_size = crop_size
    crops = np.empty((len(flips), tiles[0].shape[0], crop_size, crop_size))
    for i, pixels in enumerate(tiles):
        h, w = pixels.shape[-2:]
        if crop_size > min(h, w):
            raise ValueError(f"crop size {crop_size} exceeds tile dims {h}x{w}")
        top = int(offsets[i, 0] * (h - crop_size + 1))
        left = int(offsets[i, 1] * (w - crop_size + 1))
        if top < 0 or left < 0 or top + crop_size > h or left + crop_size > w:
            raise ValueError(f"crop [{top}:{top + crop_size}, {left}:{left + crop_size}] "
                             f"outside tile of size {h}x{w}")
        if flips[i, 0]:  # horizontal: the last axis
            pixels = pixels[..., ::-1]
        if flips[i, 1]:
            pixels = pixels[..., ::-1, :]
        crops[i] = pixels[..., top:top + crop_size, left:left + crop_size]
    return np.clip(resize_pixels(crops, out_size, out_size), 0.0, 1.0)


def augment_photometric(pixels: np.ndarray, jitter: float, mix_strength: float,
                        shift: np.ndarray, mix: np.ndarray) -> np.ndarray:
    """Per-channel additive jitter, then channel mixing, then clamp, over an
    (n, C, H, W) batch; returns C order.

    `shift` (n, C) and `mix` (n, C, C) are uniform draws in [-1, 1]. Tile i
    is shifted by jitter * shift[i] and mixed by I + mix_strength * mix[i],
    rows renormalized to sum to 1; output channel d is the sum over input
    channels c = 0, 1, ... of m[d, c] * x[c], added in that order. Jitter 0
    and mix 0 is the identity.
    """
    if jitter < 0 or mix_strength < 0:
        raise ValueError("jitter and mix strength must be >= 0")
    shifted = np.add(pixels, jitter * shift[:, :, None, None], out=np.empty(pixels.shape))
    if mix_strength == 0:
        return np.clip(shifted, 0.0, 1.0, out=shifted)
    c = pixels.shape[1]
    matrix = np.eye(c) + mix_strength * mix
    row_sums = matrix.sum(axis=2, keepdims=True)
    matrix = matrix / np.where(np.abs(row_sums) < 1e-6, 1.0, row_sums)
    out = np.empty(pixels.shape)
    np.multiply(matrix[:, :, 0, None, None], shifted[:, None, 0], out=out)
    for k in range(1, c):
        out += matrix[:, :, k, None, None] * shifted[:, None, k]
    return np.clip(out, 0.0, 1.0, out=out)
