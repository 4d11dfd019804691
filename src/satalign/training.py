"""Training loop for the three-term contrastive objective, plus checkpoints.

Each step draws a batch without replacement (reshuffled per epoch, drop-last),
augments the temporal tile pair with array operations over the whole batch
(the random draws are arrays; only the crops loop over samples), builds the
full loss graph on a fresh tape, backpropagates, and applies Adam restricted
to the active fine-tuning mask.
Normalization running statistics update with momentum after every step. All
randomness flows from one seeded generator whose state is checkpointed, so a
saved run resumes bit-identically.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

import numpy as np

from .augment import augment_geometric, augment_photometric, fit_to_input
from .contrastive import LossConfig, trimodal_loss_graph
from .dataio import dataclass_from_json, pair_paths, read_json, require_fields, write_json
from .encoders import (Model, ModelConfig, PEFT_MODES, head_graph, image_feature_graph,
                       location_feature_graph, location_input_features, parameter_shapes,
                       trainable_mask)
from .geodata import MAX_RADIUS, PairedSamples
from .optim import AdamState, ParameterStore, adam_step
from .tape import Tape, backward, conv_size

CHECKPOINT_VERSION = 1
# train's size limits, the same on every machine: 2**27 float64 parameters (1 GiB
# each for values, gradients and Adam's two moments) in at most 2**16 tensors,
# and 2**32 activation bytes a step
MAX_PARAMETERS, MAX_TENSORS, MAX_STEP_BYTES = 2**27, 2**16, 2**32


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 25
    batch_size: int = 64
    lr: float = 1e-4
    temperature: float = 0.07
    peft: str = "full"
    freeze_location: bool = False
    seed: int = 0
    crop_size: int = 28
    jitter: float = 0.05
    channel_mix: float = 0.1
    matching_radius: float = 0.05
    image_weight: float = 1.0
    text_weight: float = 1.0
    location_weight: float = 1.0
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        for name in ("lr", "temperature", "jitter", "channel_mix", "matching_radius",
                     "image_weight", "text_weight", "location_weight"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be >= 1")
        if self.lr <= 0 or self.temperature <= 0:
            raise ValueError("learning rate and temperature must be positive")
        if self.peft not in PEFT_MODES:
            raise ValueError(f"unknown fine-tuning mode {self.peft!r}")
        if self.crop_size < 1 or self.crop_size > self.model.image.in_size:
            raise ValueError("crop size must be in [1, model input size]")
        if self.jitter < 0 or self.channel_mix < 0 or self.matching_radius <= 0:
            raise ValueError("augmentation scales must be >= 0 and radius positive")
        if self.matching_radius > MAX_RADIUS:  # the limit pairing and probes take
            raise ValueError(f"matching_radius must be at most {MAX_RADIUS!r}, "
                             f"got {self.matching_radius!r}")
        if min(self.image_weight, self.text_weight, self.location_weight) < 0:
            raise ValueError("loss-term weights must be >= 0")
        img, loc, size = self.model.image, self.model.location, self.model.image.in_size
        per_tile = img.in_channels * size * size  # and each conv_block's value and xhat
        for width in img.widths:
            size = conv_size(size, img.kernel, img.stride, img.padding)
            per_tile += 2 * width * size * size
        # two tile towers, three values per location block, three (batch, batch) logits
        step_bytes = 8 * self.batch_size * (2 * per_tile + 3 * loc.depth * loc.hidden
                                            + 3 * self.batch_size)
        shapes = [shape for _, shape in itertools.islice(parameter_shapes(self.model),
                                                         MAX_TENSORS + 1)]
        if (step_bytes > MAX_STEP_BYTES or len(shapes) > MAX_TENSORS
                or sum(math.prod(shape) for shape in shapes) > MAX_PARAMETERS):
            name = max(("batch_size", "model.image.in_size", "model.image.widths",
                        "model.image.d_img", "model.location.hidden", "model.location.depth",
                        "model.location.d_loc", "model.d_txt", "model.embed_dim"),
                       key=lambda name: max(np.atleast_1d(attrgetter(name)(self))))
            raise ValueError(f"{name} {attrgetter(name)(self)} is the largest size of a model or "
                             f"step over the {MAX_PARAMETERS:,} parameters, {MAX_TENSORS:,} "
                             f"tensors or {MAX_STEP_BYTES:,} activation bytes train takes")

    def loss_config(self) -> LossConfig:
        return LossConfig(temperature=self.temperature,
                          image_weight=self.image_weight,
                          text_weight=self.text_weight,
                          location_weight=self.location_weight)


def config_to_dict(config: TrainConfig) -> dict:
    out = dataclasses.asdict(config)
    out["model"]["image"]["widths"] = list(config.model.image.widths)
    return out


def config_from_dict(obj: dict) -> TrainConfig:
    """Inverse of `config_to_dict`. A field of the wrong JSON type raises
    ValueError naming it; a field the config does not have raises TypeError,
    as the config dataclasses do."""
    return dataclass_from_json(TrainConfig, obj)


@dataclass
class Checkpoint:
    config: TrainConfig
    params: dict[str, np.ndarray]
    stats: dict[str, np.ndarray]
    adam: AdamState
    rng_state: dict
    epoch: int
    epoch_losses: list[float]
    step_losses: list[float]


def initial_model(config: TrainConfig) -> Model:
    """The randomly initialized model a run with this config starts from."""
    init_ss, _ = np.random.SeedSequence(config.seed).spawn(2)
    return Model.initialize(config.model, seed=init_ss)


def model_from_checkpoint(ckpt: Checkpoint) -> Model:
    params = ParameterStore()
    for name in sorted(ckpt.params):
        params.add(name, ckpt.params[name].copy())
    return Model(ckpt.config.model, params, {k: v.copy() for k, v in ckpt.stats.items()})


def build_training_graph(model: Model, batch: dict[str, np.ndarray],
                         mask: frozenset[str], loss_config: LossConfig):
    """Full loss graph: two tile towers, the location tower, all five heads.

    Returns the tape (outputs: loss and per-term breakdown) and the list of
    normalization nodes for running-statistics harvesting.
    """
    tape = Tape()
    leaves = {name: tape.leaf(name, model.params.get(name), trainable=name in mask)
              for name in sorted(model.params.names())}
    tiles_a = tape.leaf("batch.tiles_a", batch["tiles_a"])
    tiles_b = tape.leaf("batch.tiles_b", batch["tiles_b"])
    locfeat = tape.leaf("batch.locfeat", batch["locfeat"])
    text = tape.leaf("batch.text", batch["text"])

    img_cfg = model.cfg.image
    feat_a, norms_a = image_feature_graph(tape, leaves, img_cfg, tiles_a)
    feat_b, norms_b = image_feature_graph(tape, leaves, img_cfg, tiles_b)
    z_t1 = head_graph(tape, leaves, feat_a, "heads.image.weight")
    z_t2_aug = head_graph(tape, leaves, feat_b, "heads.image.weight")
    z_txt = head_graph(tape, leaves, feat_a, "heads.image_to_text.weight")
    z_loc = head_graph(tape, leaves, feat_a, "heads.image_to_location.weight")
    loc_emb = location_feature_graph(tape, leaves, model.cfg.location, locfeat)
    e_txt = head_graph(tape, leaves, text, "heads.text.weight")
    e_loc = head_graph(tape, leaves, loc_emb, "heads.location.weight")

    total, terms = trimodal_loss_graph(tape, z_t1, z_t2_aug, z_txt, e_txt,
                                       z_loc, e_loc, loss_config)
    tape.mark_output("loss", total)
    for name, node in terms.items():
        tape.mark_output(f"loss_{name}", node)
    return tape, norms_a + norms_b


def assemble_batch(samples: PairedSamples, config: TrainConfig,
                   rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Augment and stack one batch, the rows of `samples` in order. tile_a is
    deterministically resized and photometrically jittered; tile_b
    additionally gets flips and a random crop.

    `rng` gives four arrays of draws, one row per sample, in this order:
    flips (n, 2), crop offsets (n, 2), jitter (2, n, C) and channel mixing
    (2, n, C, C), the last two for tile_a then tile_b. The augmentations then
    run over the whole batch, with tile_a grouped by tile size for its resize.
    """
    n = len(samples)
    in_size = config.model.image.in_size
    pixels_a = [samples.tiles[i].pixels for i in samples.tile_a]
    pixels_b = [samples.tiles[i].pixels for i in samples.tile_b]
    c = pixels_b[0].shape[0]
    flips = rng.random((n, 2)) < 0.5
    offsets = rng.random((n, 2))
    shift_a, shift_b = rng.uniform(-1.0, 1.0, size=(2, n, c))
    mix_a, mix_b = rng.uniform(-1.0, 1.0, size=(2, n, c, c))

    tiles_b = augment_geometric(pixels_b, config.crop_size, flips, offsets, out_size=in_size)
    tiles_b = augment_photometric(tiles_b, config.jitter, config.channel_mix,
                                  shift_b, mix_b)
    by_size: dict[tuple[int, ...], list[int]] = {}
    for i, pixels in enumerate(pixels_a):
        by_size.setdefault(pixels.shape, []).append(i)
    tiles_a = np.empty(tiles_b.shape)
    for idx in by_size.values():
        fitted = fit_to_input(np.stack([pixels_a[i] for i in idx], dtype=np.float64), in_size)
        tiles_a[idx] = augment_photometric(fitted, config.jitter, config.channel_mix,
                                           shift_a[idx], mix_a[idx])
    covariates = samples.covariates if config.model.location.use_covariates else None
    locfeat = location_input_features(samples.lat, samples.lon, covariates)
    return {"tiles_a": tiles_a, "tiles_b": tiles_b, "locfeat": locfeat,
            "text": samples.texts.embeddings[samples.text_row]}


def steps_per_epoch(n_samples: int, batch_size: int) -> int:
    return n_samples // batch_size


def _update_running_stats(model: Model, norm_nodes) -> None:
    """Momentum update from the batch statistics each norm node recorded."""
    momentum = model.cfg.image.norm_momentum
    for key, node in norm_nodes:
        mean, var = node.batch_stats
        model.stats[f"{key}.mean"] = (1 - momentum) * model.stats[f"{key}.mean"] + momentum * mean
        model.stats[f"{key}.var"] = (1 - momentum) * model.stats[f"{key}.var"] + momentum * var


def train(config: TrainConfig, samples: PairedSamples,
          resume: Checkpoint | None = None) -> Checkpoint:
    """Run the optimization and return the final checkpoint.

    With `resume`, continues a saved run from its epoch boundary; the
    stitched run is bit-identical to an uninterrupted one.
    """
    if len(samples) < config.batch_size:
        raise ValueError(f"dataset of {len(samples)} samples cannot fill one batch "
                         f"of {config.batch_size}")

    if resume is None:
        model = initial_model(config)
        adam = AdamState(lr=config.lr)
        _, loop_ss = np.random.SeedSequence(config.seed).spawn(2)
        rng = np.random.default_rng(loop_ss)
        start_epoch = 0
        epoch_losses: list[float] = []
        step_losses: list[float] = []
    else:
        model = model_from_checkpoint(resume)
        adam = AdamState(lr=resume.adam.lr, beta1=resume.adam.beta1,
                         beta2=resume.adam.beta2, eps=resume.adam.eps, t=resume.adam.t,
                         m={k: v.copy() for k, v in resume.adam.m.items()},
                         v={k: v.copy() for k, v in resume.adam.v.items()})
        rng = np.random.default_rng()
        rng.bit_generator.state = resume.rng_state
        start_epoch = resume.epoch
        epoch_losses = list(resume.epoch_losses)
        step_losses = list(resume.step_losses)

    mask = trainable_mask(config.peft, model.params, config.freeze_location)
    loss_cfg = config.loss_config()
    n = config.batch_size
    per_epoch = steps_per_epoch(len(samples), n)
    global_step = len(step_losses)

    for _epoch in range(start_epoch, config.epochs):
        order = rng.permutation(len(samples))
        epoch_step_losses = []
        for s in range(per_epoch):
            batch = assemble_batch(samples[order[s * n:(s + 1) * n]], config, rng)
            tape, norm_nodes = build_training_graph(model, batch, mask, loss_cfg)
            loss = float(tape.output_value("loss"))
            if not math.isfinite(loss):
                raise RuntimeError(f"non-finite loss at step {global_step}")
            grads = backward(tape, output="loss")
            adam_step(model.params, grads, adam)
            _update_running_stats(model, norm_nodes)
            epoch_step_losses.append(loss)
            step_losses.append(loss)
            global_step += 1
        epoch_losses.append(float(np.mean(epoch_step_losses)))

    return Checkpoint(config=config, params=model.params.copy_values(),
                      stats={k: v.copy() for k, v in model.stats.items()}, adam=adam,
                      rng_state=rng.bit_generator.state, epoch=config.epochs,
                      epoch_losses=epoch_losses, step_losses=step_losses)


# -- checkpoint persistence ---------------------------------------------------


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> tuple[Path, Path]:
    """Write `<prefix>.json` (header) and `<prefix>.bin` (float64-LE tensors)."""
    json_path, bin_path = pair_paths(path)
    tensors = []
    blobs = []
    groups = (("param", ckpt.params), ("stat", ckpt.stats),
              ("adam_m", ckpt.adam.m), ("adam_v", ckpt.adam.v))
    for kind, tensor_map in groups:
        for name in sorted(tensor_map):
            arr = np.ascontiguousarray(tensor_map[name], dtype=np.float64)
            tensors.append({"name": name, "shape": list(arr.shape), "kind": kind})
            blobs.append(arr.astype("<f8").tobytes())
    header = {
        "version": CHECKPOINT_VERSION,
        "config": config_to_dict(ckpt.config),
        "dtype": "f64le",
        "tensors": tensors,
        "rng_state": ckpt.rng_state,
        "epoch": ckpt.epoch,
        "adam": {"lr": ckpt.adam.lr, "beta1": ckpt.adam.beta1,
                 "beta2": ckpt.adam.beta2, "eps": ckpt.adam.eps, "t": ckpt.adam.t},
        "epoch_losses": ckpt.epoch_losses,
        "step_losses": ckpt.step_losses,
    }
    json_path.parent.mkdir(parents=True, exist_ok=True)
    write_json(json_path, header)
    bin_path.write_bytes(b"".join(blobs))
    return json_path, bin_path


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint pair. A malformed header, a tensor list that does not
    hold the config's model, a blob of the wrong length, a non-finite tensor
    and a negative variance are each a ValueError naming the file."""
    json_path, bin_path = pair_paths(path)
    if not json_path.exists():
        raise ValueError(f"checkpoint header not found: {json_path}")
    header = require_fields(read_json(json_path), {"version": int}, json_path)
    if header["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"{json_path}: checkpoint version mismatch: got "
                         f"{header['version']}, expected {CHECKPOINT_VERSION}")
    require_fields(header, {"config": dict, "dtype": str, "tensors": list, "rng_state": dict,
                            "epoch": int, "adam": dict, "epoch_losses": list,
                            "step_losses": list}, json_path)
    if header["dtype"] != "f64le":
        raise ValueError(f"{json_path}: tensor dtype {header['dtype']!r:.40}, expected 'f64le'")
    try:
        config = config_from_dict(header["config"])
    except (TypeError, ValueError) as e:
        raise ValueError(f"{json_path}: malformed config ({e})") from None

    given: dict[tuple[str, str], tuple[int, ...]] = {}  # (kind, name) -> shape, blob order
    for i, entry in enumerate(header["tensors"]):
        where = f"{json_path} tensor {i}"
        require_fields(entry, {"name": str, "shape": list, "kind": str}, where)
        key = (entry["kind"], entry["name"])
        if not all(type(d) is int and d >= 0 for d in entry["shape"]):
            raise ValueError(f"{where}: malformed shape {entry['shape']}")
        if key in given:
            raise ValueError(f"{where}: repeats {key[0]} tensor {key[1]!r}")
        given[key] = tuple(entry["shape"])
    # the config's model: parameters, their Adam moments, norm statistics. Past
    # len(given) parameters one is surely missing: a huge config costs O(header).
    model = {}
    for name, shape in itertools.islice(parameter_shapes(config.model), len(given) + 1):
        model["param", name] = model["adam_m", name] = model["adam_v", name] = shape
        if name.endswith(".gamma"):
            model["stat", name[:-5] + "mean"] = model["stat", name[:-5] + "var"] = shape
    for kind, name in model:
        if kind in ("param", "stat") and (kind, name) not in given:
            raise ValueError(f"{json_path}: checkpoint missing tensor {name!r}")
    for (kind, name), shape in given.items():
        if shape != model.get((kind, name)):
            raise ValueError(f"{json_path}: shape mismatch for {kind!r} tensor {name!r}: {shape} "
                             f"vs {model.get((kind, name), 'none in the model')}")

    raw = bin_path.read_bytes()
    expected = sum(math.prod(shape) for shape in given.values())
    if len(raw) != expected * 8:
        raise ValueError(f"{bin_path}: blob length mismatch: {len(raw)} bytes, "
                         f"expected {expected * 8}")
    blob = np.frombuffer(raw, dtype="<f8")
    finite = bool(np.isfinite(blob).all())
    groups = {kind: {} for kind in ("param", "stat", "adam_m", "adam_v")}
    offset = 0
    for (kind, name), shape in given.items():
        count = math.prod(shape)
        arr = blob[offset:offset + count].reshape(shape).copy()
        offset += count
        if not finite and not np.isfinite(arr).all():
            raise ValueError(f"{bin_path}: non-finite values in {kind} tensor {name!r}")
        if (kind == "adam_v" or name.endswith(".var")) and (arr < 0).any():
            raise ValueError(f"{bin_path}: negative values in {kind} tensor {name!r}")
        groups[kind][name] = arr

    adam_cfg = require_fields(header["adam"], {"lr": float, "beta1": float, "beta2": float,
                                               "eps": float, "t": int}, f"{json_path} adam")
    try:
        adam = AdamState(lr=adam_cfg["lr"], beta1=adam_cfg["beta1"], beta2=adam_cfg["beta2"],
                         eps=adam_cfg["eps"], t=adam_cfg["t"],
                         m=groups["adam_m"], v=groups["adam_v"])
    except ValueError as e:
        raise ValueError(f"{json_path} adam: {e}") from None
    return Checkpoint(config=config, params=groups["param"], stats=groups["stat"],
                      adam=adam, rng_state=header["rng_state"], epoch=header["epoch"],
                      epoch_losses=list(header["epoch_losses"]),
                      step_losses=list(header["step_losses"]))
