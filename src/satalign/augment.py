"""Geometric and photometric augmentations over (n, C, H, W) tile batches.

Every augmentation takes one seed per tile, and each seed seeds its own
generator, so a tile's draws do not depend on the rest of its batch. Only
those draws and the crop slicing run per tile; resize, clip, jitter and
channel mixing are one array operation over the batch.

Memory layout is part of the result bits. A real resize returns channels
innermost, then rows, then columns ((..., W, H, C) in memory); an identity
resize returns a C-ordered copy. Clip and jitter keep the layout they are
given, and the channel mix is an einsum whose rounding depends on it (on a
C-ordered copy of resized tiles, about a fifth of the mixed pixels move by
one ulp). So nothing between the resize and the mix may reorder memory.
"""

from __future__ import annotations

import numpy as np


def flip_pixels(pixels: np.ndarray, horizontal: bool, vertical: bool) -> np.ndarray:
    """Mirror the last two axes of a (..., H, W) array; returns a view.
    Involutive, and it preserves the pixel multiset."""
    if horizontal:
        pixels = pixels[..., ::-1]
    if vertical:
        pixels = pixels[..., ::-1, :]
    return pixels


def crop_pixels(pixels: np.ndarray, top: int, left: int, size: int) -> np.ndarray:
    """The `size` x `size` window at (top, left) of a (..., H, W) array; a view."""
    h, w = pixels.shape[-2:]
    if top < 0 or left < 0 or top + size > h or left + size > w:
        raise ValueError(f"crop [{top}:{top + size}, {left}:{left + size}] "
                         f"outside tile of size {h}x{w}")
    return pixels[..., top:top + size, left:left + size]


def resize_pixels(pixels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of a (..., C, H, W) array (endpoint-aligned sampling).

    A real resize returns its result in (..., W, H, C) memory order; when the
    size already matches, the result is a C-ordered copy.
    """
    h, w = pixels.shape[-2:]
    if (h, w) == (out_h, out_w):
        return pixels.copy()
    ys = np.linspace(0.0, h - 1, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1, out_w) if out_w > 1 else np.zeros(1)
    y0 = np.minimum(np.floor(ys).astype(int), max(h - 2, 0))
    x0 = np.minimum(np.floor(xs).astype(int), max(w - 2, 0))
    ty = (ys - y0)[:, None]
    tx = xs - x0
    rows0 = pixels[..., y0, :]
    rows1 = pixels[..., np.minimum(y0 + 1, h - 1), :]
    x1 = np.minimum(x0 + 1, w - 1)
    top = (1 - tx) * rows0[..., x0] + tx * rows0[..., x1]
    bot = (1 - tx) * rows1[..., x0] + tx * rows1[..., x1]
    out = np.swapaxes(np.empty(pixels.shape[:-3] + (out_w, out_h, pixels.shape[-3])), -1, -3)
    return np.add((1 - ty) * top, ty * bot, out=out)


def fit_to_input(pixels: np.ndarray, size: int) -> np.ndarray:
    """Deterministically resize an (n, C, H, W) batch to the model input size."""
    return np.clip(resize_pixels(pixels, size, size), 0.0, 1.0)


def augment_geometric(tiles, crop_size: int, seeds, out_size: int | None = None) -> np.ndarray:
    """Per tile, a random horizontal/vertical flip (p=0.5 each), then a
    uniform-random crop of `crop_size`; then the batch is resized to
    `out_size` (defaults to crop_size) and clipped to [0, 1].

    `tiles` is an (n, C, H, W) array or a sequence of (C, H, W) arrays, whose
    sizes may differ; the result is (n, C, out_size, out_size).
    """
    if out_size is None:
        out_size = crop_size
    crops = np.empty((len(seeds), tiles[0].shape[0], crop_size, crop_size))
    for i, (pixels, seed) in enumerate(zip(tiles, seeds)):
        h, w = pixels.shape[-2:]
        if crop_size > min(h, w):
            raise ValueError(f"crop size {crop_size} exceeds tile dims {h}x{w}")
        rng = np.random.default_rng(int(seed))
        flip_h = bool(rng.random() < 0.5)
        flip_v = bool(rng.random() < 0.5)
        top = int(rng.integers(h - crop_size + 1))
        left = int(rng.integers(w - crop_size + 1))
        crops[i] = crop_pixels(flip_pixels(pixels, flip_h, flip_v), top, left, crop_size)
    return np.clip(resize_pixels(crops, out_size, out_size), 0.0, 1.0)


def augment_photometric(pixels: np.ndarray, jitter: float, mix_strength: float,
                        seeds) -> np.ndarray:
    """Per-channel additive jitter, then random channel mixing, then clamp,
    over an (n, C, H, W) batch with one seed per tile.

    Each tile's mixing matrix is I + mix_strength * R with R uniform in
    [-1, 1], rows renormalized to sum to 1; jitter 0 and mix 0 is the identity.
    """
    if jitter < 0 or mix_strength < 0:
        raise ValueError("jitter and mix strength must be >= 0")
    n, c = pixels.shape[:2]
    shift = np.zeros((n, c))
    draws = np.empty((n, c, c))
    if jitter > 0 or mix_strength > 0:
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(int(seed))
            if jitter > 0:
                shift[i] = rng.uniform(-jitter, jitter, size=c)
            if mix_strength > 0:
                draws[i] = rng.uniform(-1.0, 1.0, size=(c, c))
    out = pixels + shift[:, :, None, None]
    if mix_strength > 0:
        mix = np.eye(c) + mix_strength * draws
        row_sums = mix.sum(axis=2, keepdims=True)
        row_sums = np.where(np.abs(row_sums) < 1e-6, 1.0, row_sums)
        out = np.einsum("ndc,nchw->ndhw", mix / row_sums, out)
    return np.clip(out, 0.0, 1.0)
