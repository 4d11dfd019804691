"""Tile and location encoders plus the shared-space projection heads.

The tile encoder is a small strided conv net: conv -> scale-shift norm ->
relu per stage, global average pooling, then a linear layer to the feature
dimension. The location encoder lifts (lat, lon) through a sinusoidal wrap
(optionally concatenated with normalized environmental covariates) into an
MLP with residual relu blocks. Five bias-free linear heads project tile
features (three heads) and the raw text / location embeddings (one each)
into one shared unit-norm space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geodata import COVARIATE_CHANNELS
from .optim import ParameterStore
from .tape import Node, Tape, l2_normalize_rows

PEFT_MODES = ("full", "scale_shift")

IMAGE_HEADS = ("heads.image.weight", "heads.image_to_text.weight",
               "heads.image_to_location.weight")

# Rows per eval-mode encoding slice, sized so one conv stage's buffers (padded
# input, patch columns, output: 116 and 132 KB per tile for the default model
# on 32 px tiles) fit in a 2 MB L2 cache. On 1,024 such tiles (one BLAS thread,
# 30 alternating in-process calls) 8, 16 and 32 took 87.3, 84.5 and 92.4 ms
# per call. The bits do not depend on the size.
ENCODE_CHUNK = 16


@dataclass(frozen=True)
class ImageEncoderConfig:
    in_channels: int = 3
    in_size: int = 32
    widths: tuple[int, ...] = (16, 32)
    d_img: int = 128
    kernel: int = 3
    stride: int = 2
    padding: int = 1
    norm_eps: float = 1e-5
    norm_momentum: float = 0.1

    def __post_init__(self):
        if self.d_img < 8:
            raise ValueError("d_img must be >= 8")
        if not self.widths or any(w < 1 for w in self.widths):
            raise ValueError("conv stage widths must be positive")
        size = self.in_size
        for _ in self.widths:
            size = (size + 2 * self.padding - self.kernel) // max(self.stride, 1) + 1
        if self.kernel < 1 or self.stride < 1 or self.padding < 0 or size < 1:
            raise ValueError(f"conv kernel {self.kernel}, stride {self.stride} and padding "
                             f"{self.padding} leave no output for {self.in_size} px tiles")


@dataclass(frozen=True)
class LocationEncoderConfig:
    use_covariates: bool = True
    hidden: int = 64
    depth: int = 2
    d_loc: int = 64  # 256 mirrors the full-scale setup

    def __post_init__(self):
        if self.d_loc < 8:
            raise ValueError("d_loc must be >= 8")
        if self.hidden < 1 or self.depth < 1:
            raise ValueError("hidden width and depth must be >= 1")

    @property
    def input_dim(self) -> int:
        return 4 + (COVARIATE_CHANNELS if self.use_covariates else 0)


@dataclass(frozen=True)
class ModelConfig:
    image: ImageEncoderConfig = field(default_factory=ImageEncoderConfig)
    location: LocationEncoderConfig = field(default_factory=LocationEncoderConfig)
    d_txt: int = 64
    embed_dim: int = 64  # 512 mirrors the full-scale setup

    def __post_init__(self):
        if self.embed_dim < 1 or self.d_txt < 1:
            raise ValueError("embedding dimensions must be positive")


def location_input_features(lat, lon, covariates: np.ndarray | None = None) -> np.ndarray:
    """Sinusoidal coordinate wrap, optionally joined with covariates in [-1, 1].

    Scalar coordinates give one feature vector; arrays of n coordinates (with
    (n, channels) covariates) give an (n, features) matrix. Longitude is
    unrestricted (the wrap is 360-degree periodic); latitude must be a real
    coordinate.
    """
    lat, lon = np.broadcast_arrays(np.asarray(lat, dtype=np.float64),
                                   np.asarray(lon, dtype=np.float64))
    bad = np.flatnonzero(~((np.abs(lat) <= 90.0) & np.isfinite(lon)))
    if bad.size:
        raise ValueError(f"coordinates out of range: ({lat.flat[bad[0]]}, {lon.flat[bad[0]]})")
    feats = np.stack([np.sin(np.pi * lon / 180.0), np.cos(np.pi * lon / 180.0),
                      np.sin(np.pi * lat / 90.0), np.cos(np.pi * lat / 90.0)], axis=-1)
    if covariates is None:
        return feats
    covariates = np.asarray(covariates, dtype=np.float64)
    if np.any(np.abs(covariates) > 1.0 + 1e-9):
        raise ValueError("covariates must be normalized to [-1, 1]")
    return np.concatenate([feats, covariates], axis=-1)


def _uniform_fan_in(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = math.sqrt(1.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Model:
    """Parameter store, normalization statistics, and eval-mode encoders."""

    def __init__(self, cfg: ModelConfig, params: ParameterStore,
                 stats: dict[str, np.ndarray]):
        self.cfg = cfg
        self.params = params
        self.stats = stats

    @classmethod
    def initialize(cls, cfg: ModelConfig,
                   seed: int | np.random.SeedSequence) -> "Model":
        rng = np.random.default_rng(seed)
        params = ParameterStore()
        stats: dict[str, np.ndarray] = {}

        img = cfg.image
        in_ch = img.in_channels
        for i, width in enumerate(img.widths, start=1):
            fan_in = in_ch * img.kernel * img.kernel
            params.add(f"img.conv{i}.kernel",
                       _uniform_fan_in(rng, (width, in_ch, img.kernel, img.kernel), fan_in))
            params.add(f"img.norm{i}.gamma", np.ones(width))
            params.add(f"img.norm{i}.beta", np.zeros(width))
            stats[f"img.norm{i}.mean"] = np.zeros(width)
            stats[f"img.norm{i}.var"] = np.ones(width)
            in_ch = width
        params.add("img.fc.weight", _uniform_fan_in(rng, (in_ch, img.d_img), in_ch))
        params.add("img.fc.bias", _uniform_fan_in(rng, (img.d_img,), in_ch))

        loc = cfg.location
        params.add("loc.fc0.weight", _uniform_fan_in(rng, (loc.input_dim, loc.hidden),
                                                     loc.input_dim))
        params.add("loc.fc0.bias", _uniform_fan_in(rng, (loc.hidden,), loc.input_dim))
        for i in range(1, loc.depth):
            params.add(f"loc.res{i}.weight", _uniform_fan_in(rng, (loc.hidden, loc.hidden),
                                                             loc.hidden))
            params.add(f"loc.res{i}.bias", _uniform_fan_in(rng, (loc.hidden,), loc.hidden))
        params.add("loc.out.weight", _uniform_fan_in(rng, (loc.hidden, loc.d_loc), loc.hidden))
        params.add("loc.out.bias", _uniform_fan_in(rng, (loc.d_loc,), loc.hidden))

        d = cfg.embed_dim
        for name in IMAGE_HEADS:
            params.add(name, _uniform_fan_in(rng, (img.d_img, d), img.d_img))
        params.add("heads.text.weight", _uniform_fan_in(rng, (cfg.d_txt, d), cfg.d_txt))
        params.add("heads.location.weight", _uniform_fan_in(rng, (loc.d_loc, d), loc.d_loc))
        return cls(cfg, params, stats)

    def copy_stats(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.stats.items()}

    # -- eval-mode paths (no tape, batch statistics frozen) -----------------

    def image_features(self, pixels: np.ndarray | list[np.ndarray]) -> np.ndarray:
        """Eval-mode features for a batch of tiles, shape (n, d_img).

        `pixels` is an (n, C, H, W) array or a list of n (C, H, W) tile
        arrays; a list is stacked one slice at a time, never copied whole.
        No tape is recorded: the eval-mode pooled_feature_graph's arithmetic
        runs on slices of ENCODE_CHUNK tiles in buffers allocated once per
        call, with the tape's conv2d BLAS calls and its norm and relu
        operations in their order. The linear layer runs once over all
        pooled rows, so the bits equal one whole-batch graph. Non-finite
        pixels or conv and norm parameters raise a tape leaf's error.
        """
        if isinstance(pixels, list):
            shapes = {np.shape(tile) for tile in pixels}
            shape = (len(pixels), *shapes.pop()) if len(shapes) == 1 else None
        else:
            pixels = np.asarray(pixels, dtype=np.float64)
            shape = pixels.shape
        img = self.cfg.image
        if shape is None or len(shape) != 4 or shape[1:] != (img.in_channels, img.in_size,
                                                             img.in_size):
            got = shape if shape is not None else f"tiles of shapes {sorted(shapes)}"
            raise ValueError(f"expected pixels of shape "
                             f"(n, {img.in_channels}, {img.in_size}, {img.in_size}), "
                             f"got {got}")
        for name in (n for n in self.params.names() if n.startswith(("img.conv", "img.norm"))):
            if not np.all(np.isfinite(self.params.get(name))):
                raise ValueError(f"non-finite values in leaf {name!r}")
        k, s, p, size = img.kernel, img.stride, img.padding, img.in_size
        m = min(len(pixels), ENCODE_CHUNK)
        # per stage: padded input, its patches (a strided view), patch columns,
        # kernel matrix, output, and the norm's mean, inv, gamma, beta columns
        stages = []
        for i, (c, f) in enumerate(zip((img.in_channels, *img.widths), img.widths), start=1):
            o = (size + 2 * p - k) // s + 1
            pad = np.zeros((m, c, size + 2 * p, size + 2 * p))
            sn, sc, sh, sw = pad.strides
            norm = (self.stats[f"img.norm{i}.mean"],
                    1.0 / np.sqrt(self.stats[f"img.norm{i}.var"] + img.norm_eps),
                    self.params.get(f"img.norm{i}.gamma"), self.params.get(f"img.norm{i}.beta"))
            stages.append((pad, np.ndarray((m, c, k, k, o, o), pad.dtype, pad, 0,
                                           (sn, sc, sh, sw, s * sh, s * sw)),
                           np.empty((m, c * k * k, o * o)),
                           self.params.get(f"img.conv{i}.kernel").reshape(1, f, c * k * k),
                           np.empty((m, f, o * o)),
                           [v[:, None] for v in norm]))
            size = o
        pooled = np.empty((len(pixels), img.widths[-1]))
        for start in range(0, len(pixels), ENCODE_CHUNK):
            n = min(ENCODE_CHUNK, len(pixels) - start)
            x = stages[0][0][:n]
            np.stack(pixels[start:start + n], out=x[:, :, p:p + img.in_size, p:p + img.in_size])
            if not np.all(np.isfinite(x)):
                raise ValueError("non-finite values in leaf 'pixels'")
            for j, (_, patches, cols, kernel, out, norm) in enumerate(stages):
                np.copyto(cols[:n].reshape(patches[:n].shape), patches[:n])
                h = np.matmul(kernel, cols[:n], out=out[:n])
                # (h - mean) * inv * gamma + beta, in the tape's channel_norm order
                for op, v in zip((np.subtract, np.multiply, np.multiply, np.add), norm):
                    op(h, v, out=h)
                o = patches.shape[-1]
                relu = stages[j + 1][0][:n, :, p:p + o, p:p + o] if j + 1 < len(stages) else h
                np.maximum(h.reshape(relu.shape), 0.0, out=relu)
            np.add.reduce(h, axis=-1, out=pooled[start:start + n])
        pooled /= size * size
        # the same expressions as image_feature_graph's pool, matmul and add nodes
        return pooled @ self.params.get("img.fc.weight") + self.params.get("img.fc.bias")

    def _project(self, head: str, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        return l2_normalize_rows(rows @ self.params.get(head))

    def project_text_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._project("heads.text.weight", rows)

    def tile_text_embeddings(self, pixels: np.ndarray | list[np.ndarray]) -> np.ndarray:
        """Unit-norm text-head embeddings for a batch of tiles (retrieval space)."""
        return self._project("heads.image_to_text.weight", self.image_features(pixels))


# -- graph builders (shared by training and eval paths) ----------------------


def pooled_feature_graph(tape: Tape, leaves: dict[str, Node], cfg: ImageEncoderConfig,
                         x: Node, stats: dict[str, np.ndarray], training: bool):
    """Conv stages + global pooling; returns (pooled node, norm nodes). Its eval
    mode is the reference that Model.image_features is tested against, bit for bit."""
    norm_nodes: list[tuple[str, Node]] = []
    h = x
    for i in range(1, len(cfg.widths) + 1):
        h = tape.conv2d(h, leaves[f"img.conv{i}.kernel"], stride=cfg.stride,
                        padding=cfg.padding)
        norm = tape.channel_norm(h, leaves[f"img.norm{i}.gamma"], leaves[f"img.norm{i}.beta"],
                                 training=training, eps=cfg.norm_eps,
                                 running_mean=None if training else stats[f"img.norm{i}.mean"],
                                 running_var=None if training else stats[f"img.norm{i}.var"])
        norm_nodes.append((f"img.norm{i}", norm))
        h = tape.relu(norm)
    return tape.global_avg_pool(h), norm_nodes


def image_feature_graph(tape: Tape, leaves: dict[str, Node], cfg: ImageEncoderConfig,
                        x: Node, stats: dict[str, np.ndarray], training: bool):
    """Conv stages + pooling + linear head; returns (feature node, norm nodes)."""
    pooled, norm_nodes = pooled_feature_graph(tape, leaves, cfg, x, stats, training)
    feat = tape.add(tape.matmul(pooled, leaves["img.fc.weight"]), leaves["img.fc.bias"])
    return feat, norm_nodes


def location_feature_graph(tape: Tape, leaves: dict[str, Node],
                           cfg: LocationEncoderConfig, x: Node) -> Node:
    h = tape.relu(tape.add(tape.matmul(x, leaves["loc.fc0.weight"]), leaves["loc.fc0.bias"]))
    for i in range(1, cfg.depth):
        block = tape.relu(tape.add(tape.matmul(h, leaves[f"loc.res{i}.weight"]),
                                   leaves[f"loc.res{i}.bias"]))
        h = tape.add(h, block)
    return tape.add(tape.matmul(h, leaves["loc.out.weight"]), leaves["loc.out.bias"])


def head_graph(tape: Tape, leaves: dict[str, Node], feat: Node, head: str) -> Node:
    return tape.l2norm_rows(tape.matmul(feat, leaves[head]))


def trainable_mask(mode: str, params: ParameterStore,
                   freeze_location: bool = False) -> frozenset[str]:
    """Names the optimizer may touch under the given fine-tuning mode.

    `full` covers everything; `scale_shift` restricts the tile encoder to its
    normalization scale/shift parameters while heads (and, unless frozen, the
    location encoder) stay trainable.
    """
    if mode not in PEFT_MODES:
        raise ValueError(f"unknown fine-tuning mode {mode!r}, expected one of {PEFT_MODES}")
    names = set(params.names())
    if mode == "scale_shift":
        def keep(name: str) -> bool:
            if name.startswith("img."):
                return ".norm" in name
            return True
        names = {n for n in names if keep(n)}
    if freeze_location:
        names = {n for n in names if not n.startswith("loc.")}
    return frozenset(names)
