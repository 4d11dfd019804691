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
from .tape import Node, Tape, conv_gemm, conv_size, l2_normalize_rows, run_sub_slices

PEFT_MODES = ("full", "scale_shift")

IMAGE_HEADS = ("heads.image.weight", "heads.image_to_text.weight",
               "heads.image_to_location.weight")

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
            size = conv_size(size, self.kernel, max(self.stride, 1), self.padding)
        if self.kernel < 1 or self.stride < 1 or self.padding < 0 or size < 1:
            raise ValueError(f"conv kernel {self.kernel}, stride {self.stride} and padding "
                             f"{self.padding} leave no output for {self.in_size} px tiles")
        if self.padding >= self.kernel:  # a window could lie wholly inside the zero border
            raise ValueError(f"conv padding {self.padding} must be smaller than the kernel "
                             f"{self.kernel}")
        if not 0 < self.norm_eps < math.inf:
            raise ValueError(f"norm_eps must be finite and > 0, got {self.norm_eps!r}")
        if not 0 <= self.norm_momentum <= 1:
            raise ValueError(f"norm_momentum must be in [0, 1], got {self.norm_momentum!r}")


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


def parameter_shapes(cfg: ModelConfig):
    """(name, shape) of each model parameter, in the order Model.initialize
    draws them. A generator, so a reader can stop at the first one it lacks."""
    img, loc, d = cfg.image, cfg.location, cfg.embed_dim
    in_ch = img.in_channels
    for i, width in enumerate(img.widths, start=1):
        yield f"img.conv{i}.kernel", (width, in_ch, img.kernel, img.kernel)
        yield f"img.norm{i}.gamma", (width,)
        yield f"img.norm{i}.beta", (width,)
        in_ch = width
    yield "img.fc.weight", (in_ch, img.d_img)
    yield "img.fc.bias", (img.d_img,)
    yield "loc.fc0.weight", (loc.input_dim, loc.hidden)
    yield "loc.fc0.bias", (loc.hidden,)
    for i in range(1, loc.depth):
        yield f"loc.res{i}.weight", (loc.hidden, loc.hidden)
        yield f"loc.res{i}.bias", (loc.hidden,)
    yield "loc.out.weight", (loc.hidden, loc.d_loc)
    yield "loc.out.bias", (loc.d_loc,)
    for name in IMAGE_HEADS:
        yield name, (img.d_img, d)
    yield "heads.text.weight", (cfg.d_txt, d)
    yield "heads.location.weight", (loc.d_loc, d)


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
        shapes = dict(parameter_shapes(cfg))
        for name, shape in shapes.items():
            if name.endswith(".gamma"):
                params.add(name, np.ones(shape))
                stats[name.replace(".gamma", ".mean")] = np.zeros(shape)
                stats[name.replace(".gamma", ".var")] = np.ones(shape)
            elif name.endswith(".beta"):
                params.add(name, np.zeros(shape))
            else:  # fan-in of a kernel (F, C, k, k), a weight (in, out), or a bias's weight
                weight = shapes[name.replace(".bias", ".weight")]
                fan_in = math.prod(weight[1:]) if len(weight) == 4 else weight[0]
                params.add(name, _uniform_fan_in(rng, shape, fan_in))
        return cls(cfg, params, stats)

    # -- eval-mode paths (no tape, batch statistics frozen) -----------------

    def image_features(self, pixels: np.ndarray | list[np.ndarray]) -> np.ndarray:
        """Eval-mode features for a batch of tiles, shape (n, d_img).

        `pixels` is an (n, C, H, W) array or a list of n (C, H, W) tile
        arrays; a list is stacked, and a float32 array (or float32 tiles, as
        ingest reads them) widened to float64, one sub-slice at a time, never
        copied whole. The compute is float64 either way.
        No tape is recorded: each stage runs the tape's conv kernel, conv_gemm
        (one GEMM per tile), then the norm with the running statistics and
        relu, on the sub-slices and workers `tape.run_sub_slices` gives every
        conv stage, each writing only through `out=` into its own buffers and
        pooled rows. No tile's arithmetic reads another tile, so the bits
        depend on neither the split nor the worker count: they equal one
        whole-batch plain-numpy forward, `reference_image_features` in
        tests/test_encoders.py. Non-finite pixels or conv and norm parameters
        raise a tape leaf's error, on the caller.
        """
        if isinstance(pixels, list):
            shapes = {np.shape(tile) for tile in pixels}
            shape = (len(pixels), *shapes.pop()) if len(shapes) == 1 else None
        else:
            pixels = np.asarray(pixels)
            if pixels.dtype != np.float32:
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
        k, s, p = img.kernel, img.stride, img.padding
        n = len(pixels)

        def buffers(m):  # a worker's stages for sub-slices of m tiles, and a finite mask
            # per stage: conv_gemm's padded input, patch columns and output,
            # the kernel, and the norm's mean, inv, gamma, beta
            stages, size = [], img.in_size
            for i, (c, f) in enumerate(zip((img.in_channels, *img.widths), img.widths), start=1):
                o = conv_size(size, k, s, p)
                norm = (self.stats[f"img.norm{i}.mean"],
                        1.0 / np.sqrt(self.stats[f"img.norm{i}.var"] + img.norm_eps),
                        self.params.get(f"img.norm{i}.gamma"),
                        self.params.get(f"img.norm{i}.beta"))
                stages.append((np.zeros((m, c, size + 2 * p, size + 2 * p)),
                               np.empty((m, c, k, k, o, o)), np.empty((m, f, o, o)),
                               self.params.get(f"img.conv{i}.kernel"),
                               [v[:, None, None] for v in norm]))
                size = o
            return stages, np.empty(stages[0][0].shape, dtype=bool)

        pooled = np.empty((n, img.widths[-1]))

        def encode(bufs, start, stop):
            (stages, finite), b = bufs, stop - start
            x = stages[0][0][:b]
            np.stack(pixels[start:stop], out=x[:, :, p:p + img.in_size, p:p + img.in_size])
            if not np.isfinite(x, out=finite[:b]).all():
                raise ValueError("non-finite values in leaf 'pixels'")
            for i, (pad, cols, out, kernel, norm) in enumerate(stages):
                h = conv_gemm(pad[:b], kernel, s, cols[:b], out[:b])
                # (h - mean) * inv * gamma + beta, in that order
                for op, v in zip((np.subtract, np.multiply, np.multiply, np.add), norm):
                    op(h, v, out=h)
                o = h.shape[-1]
                relu = stages[i + 1][0][:b, :, p:p + o, p:p + o] if stages[i + 1:] else h
                np.maximum(h, 0.0, out=relu)
            # the same expressions as the tape's pool, then its matmul and add
            np.add.reduce(h, axis=(-2, -1), out=pooled[start:stop])
            pooled[start:stop] /= o * o

        run_sub_slices(n, buffers, encode)
        return pooled @ self.params.get("img.fc.weight") + self.params.get("img.fc.bias")

    def _project(self, head: str, rows: np.ndarray) -> np.ndarray:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        return l2_normalize_rows(rows @ self.params.get(head))

    def project_text_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._project("heads.text.weight", rows)

    def tile_text_embeddings(self, pixels: np.ndarray | list[np.ndarray]) -> np.ndarray:
        """Unit-norm text-head embeddings for a batch of tiles (retrieval space)."""
        return self._project("heads.image_to_text.weight", self.image_features(pixels))


# -- graph builders (the training step's tape) --------------------------------


def image_feature_graph(tape: Tape, leaves: dict[str, Node], cfg: ImageEncoderConfig, x: Node):
    """Conv stages (one conv_block each, batch-statistics norm) + pooling +
    linear head; returns (feature node, [(norm name, conv_block node)])."""
    norm_nodes: list[tuple[str, Node]] = []
    h = x
    for i in range(1, len(cfg.widths) + 1):
        h = tape.conv_block(h, leaves[f"img.conv{i}.kernel"], leaves[f"img.norm{i}.gamma"],
                            leaves[f"img.norm{i}.beta"], stride=cfg.stride,
                            padding=cfg.padding, eps=cfg.norm_eps)
        norm_nodes.append((f"img.norm{i}", h))
    feat = tape.matmul(tape.global_avg_pool(h), leaves["img.fc.weight"])
    return tape.add(feat, leaves["img.fc.bias"]), norm_nodes


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
