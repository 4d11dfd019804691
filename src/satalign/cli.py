"""Command-line entry point.

Subcommands: synth, train, gradcheck, probe, index, retrieve, zeroshot,
eval-metrics. Every command is a pure function of its flags, input files, and
seed; outputs are written to a temporary location and renamed on success, and
a run manifest (resolved config, input hashes, wall time) lands beside each
file output. Stdout carries machine-readable TSV or JSON; logs go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import shutil
import sys
import threading
import time
import traceback
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .dataio import dataclass_from_json, ingest_dataset, pair_paths, read_json, save_dataset
from .encoders import (ImageEncoderConfig, LocationEncoderConfig, Model, ModelConfig,
                       location_input_features)
from .evaluate import (ProbeConfig, accuracy, build_index, confusion_matrix,
                       fit_linear_probe, load_index, mean_top_k_accuracy, micro_f1,
                       probe_split, query_index, save_index, zero_shot_classify)
from .gradcheck import finite_diff_check
from .geodata import COVARIATE_CHANNELS, pair_samples, tile_species_targets
from .synthworld import SyntheticWorldConfig, generate_synthetic_world
from .tape import RowNormError
from .training import (TrainConfig, build_training_graph, config_to_dict, load_checkpoint,
                       model_from_checkpoint, save_checkpoint, train)


# class ids `eval-metrics --task cls` takes: its k x k confusion matrix, with
# a JSON number per entry, then holds at most 2**22 entries on every machine,
# the number of records synth takes
MAX_CLASSES = 1 << 11


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise UsageError(message)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _finite_positive(text: str) -> float:
    """argparse type for a float flag that must be finite and > 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type for a --seed, which must be >= 0."""
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


# -- manifests and atomic output ----------------------------------------------


class _InputHashes:
    """The sha256 of each input path of a command, hashed in order on one
    worker thread that starts on construction, beside the command's work. Its
    read buffer is allocated and freed on the caller's thread, as the
    encoder's worker buffers are, so the worker allocates nothing large. The
    worker calls nothing a caller may wrap, such as `hash_path`. A path's
    failure, and every later path's, is raised when its digest is asked for."""

    def __init__(self, paths: list[Path]):
        self.paths, self._digests, self._error = paths, {}, None
        self._stop = threading.Event()
        self._buf = memoryview(np.empty(1 << 20 if paths else 0, dtype=np.uint8))  # not zeroed
        self._thread = threading.Thread(target=self._run)
        self._thread.start()

    def _run(self) -> None:
        try:
            for path in self.paths:
                self._digests[path] = self._digest(path)
        except Exception as e:  # raised on the caller, at manifest time
            self._error = e

    def _digest(self, path: Path) -> str:
        """A file's sha256, or that of a directory's sorted (relpath, hash) list."""
        h = hashlib.sha256()
        if path.is_file():
            with open(path, "rb") as f:
                while not self._stop.is_set() and (size := f.readinto(self._buf)):
                    h.update(self._buf[:size])
        elif path.is_dir():
            walk = itertools.takewhile(lambda _: not self._stop.is_set(), path.rglob("*"))
            for sub in sorted(p for p in walk if p.is_file()):
                h.update(str(sub.relative_to(path)).encode())
                h.update(self._digest(sub).encode())
        else:
            raise ValueError(f"input path not found: {path}")
        return h.hexdigest()

    def join(self, stop: bool = False) -> None:
        """Wait for the worker; with `stop`, it stops at its next file or read
        first, so a command that failed does not wait for a large input."""
        if stop:
            self._stop.set()
        self._thread.join()

    def digest(self, path: Path) -> str:
        self.join()
        if path not in self._digests:
            raise self._error
        return self._digests[path]


def hash_path(path: str | Path, hashes: _InputHashes | None = None) -> str:
    """Content hash of a file, or of a directory's sorted (relpath, hash) list:
    the one `hashes` computed for `path`, or else one computed now."""
    path = Path(path)
    return (hashes or _InputHashes([path])).digest(path)


def _manifest(command: str, run: _Run, hashes: _InputHashes, started: float) -> str:
    manifest = {
        "command": command,
        "config": run.config,
        "seed": run.seed,
        "inputs": {str(p): hash_path(p, hashes) for p in hashes.paths},
        "outputs": [str(p) for p in run.outputs],
        "wall_time_s": time.monotonic() - started,
    }
    return json.dumps(manifest, sort_keys=True, indent=2)


def _atomic(out: Path, build) -> None:
    """Run `build(tmp)` on a path named like `out` inside a temporary
    directory beside it, then rename everything it wrote into place (a file,
    a `.json`/`.bin` pair, or a directory). Only a produced directory
    replaces an existing directory, and only a produced file an existing
    file: any other pair raises a ValueError naming the destination before
    anything is renamed. When that or `build` raises, existing targets stay
    untouched and the temporary directory is removed."""
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as e:  # a file where a directory goes
        raise ValueError(f"{out.parent}: cannot make the output directory "
                         f"({e.strerror})") from None
    tmp = out.parent / f".{out.name}.tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        build(tmp / out.name)
        produced = [(p, out.parent / p.name) for p in sorted(tmp.iterdir())]
        for p, dest in produced:
            if dest.exists() and p.is_dir() != dest.is_dir():
                new, old = ("directory", "file") if p.is_dir() else ("file", "directory")
                raise ValueError(f"{dest}: an output {new} cannot replace a {old}")
        for p, dest in produced:
            if p.is_dir() and dest.is_dir():
                shutil.rmtree(dest)
            os.replace(p, dest)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


@dataclasses.dataclass(frozen=True)
class _Run:
    """What a command computed: the manifest's `config` and `seed`, the
    `stdout` text, and the `outputs` that `build(tmp)` writes, anchored at
    `outputs[0]`; `status` is the exit code."""
    config: dict
    seed: int | None
    stdout: str
    outputs: tuple[Path, ...] = ()
    build: Callable[[Path], None] | None = None
    status: int = 0


def _text_output(out: str | None, text: str) -> dict:
    """The `_Run` outputs and build of an optional --out file holding `text`."""
    if not out:
        return {}
    return {"outputs": (Path(out),), "build": lambda tmp: tmp.write_text(text + "\n")}


def _config_from_file(path: str | None, cls, **fixed):
    """The validated `cls` config from the JSON object in `path` ({} without
    a file), with the `fixed` fields set. A field of the wrong type, an
    unknown field or a bad value from a file is an input error naming it."""
    fields = read_json(path) if path else {}
    if not isinstance(fields, dict):
        raise ValueError(f"{path}: expected a JSON object of config fields")
    try:
        return dataclass_from_json(cls, dict(fields, **fixed))
    except (TypeError, ValueError) as e:
        if path is None:
            raise
        raise ValueError(f"{path}: invalid config ({e})") from None


# -- subcommands ---------------------------------------------------------------


def _cmd_synth(args) -> _Run:
    config = _config_from_file(args.config, SyntheticWorldConfig, seed=args.seed)
    world = generate_synthetic_world(config)
    out = Path(args.out)
    stdout = json.dumps({"out": str(out), "tiles": len(world.tiles),
                         "observations": len(world.observations),
                         "species": config.n_species, "habitats": config.n_habitats},
                        sort_keys=True)
    return _Run(dataclasses.asdict(config), args.seed, stdout, (out,),
                lambda tmp: save_dataset(tmp, world))


def _train_config(args) -> TrainConfig:
    updates = {flag: value for flag in ("seed", "epochs", "batch_size", "lr", "peft")
               if (value := getattr(args, flag, None)) is not None}
    if getattr(args, "freeze_location", False):
        updates["freeze_location"] = True
    # the file's config is built before the flags apply, so a bad flag is not blamed on the file
    return dataclasses.replace(_config_from_file(args.config, TrainConfig), **updates)


def _cmd_train(args) -> _Run:
    config = _train_config(args)
    dataset = ingest_dataset(args.data)
    channels = dataset.raster.channels
    if config.model.location.use_covariates and channels != COVARIATE_CHANNELS:
        raise ValueError(f"{Path(args.data) / 'raster.json'}: {channels} covariate channels, "
                         f"the location encoder takes {COVARIATE_CHANNELS}")
    c, crop = config.model.image.in_channels, config.crop_size
    bad = next((i for i, tile in enumerate(dataset.tiles)
                if tile.pixels.shape[0] != c or min(tile.pixels.shape[1:]) < crop), None)
    if bad is not None:  # tile_a is resized per tile size, so sizes may differ
        raise ValueError(f"{Path(args.data) / 'tiles' / 'manifest.json'} record {bad}: "
                         f"expected {c} channels of at least {crop}x{crop} pixels "
                         f"(model.image.in_channels, crop_size), got pixels of shape "
                         f"{dataset.tiles[bad].pixels.shape}")
    paired = pair_samples(dataset.observations, dataset.tiles, dataset.texts, dataset.raster,
                          matching_radius=config.matching_radius, seed=config.seed)
    reasons = "".join(f", {n} {reason}" for reason, n in paired.skips.items())
    _log(f"paired {len(paired.samples)} samples "
         f"({sum(paired.skips.values())} observations skipped{reasons})")
    ckpt = train(config, paired.samples)
    out = pair_paths(args.out)
    stdout = json.dumps({"ckpt": str(out[0]), "epochs": ckpt.epoch,
                         "steps": len(ckpt.step_losses),
                         "final_epoch_loss": ckpt.epoch_losses[-1]}, sort_keys=True)
    return _Run(config_to_dict(config), config.seed, stdout, out,
                lambda tmp: save_checkpoint(ckpt, tmp))


def _gradcheck_setup(seed: int):
    """Small deterministic model and batch for the full-graph gradient check."""
    cfg = TrainConfig(
        batch_size=4, seed=seed, crop_size=8,
        model=ModelConfig(image=ImageEncoderConfig(in_size=8, widths=(4, 6), d_img=12),
                          location=LocationEncoderConfig(hidden=8, depth=2, d_loc=8),
                          d_txt=10, embed_dim=8))
    model = Model.initialize(cfg.model, seed=seed)
    rng = np.random.default_rng(seed + 1)
    n = cfg.batch_size
    locfeat = np.stack([
        location_input_features(float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170)),
                                rng.uniform(-1, 1, size=20))
        for _ in range(n)])
    batch = {
        "tiles_a": rng.random((n, 3, 8, 8)),
        "tiles_b": rng.random((n, 3, 8, 8)),
        "locfeat": locfeat,
        "text": rng.normal(size=(n, cfg.model.d_txt)),
    }
    mask = frozenset(model.params.names())
    tape, _ = build_training_graph(model, batch, mask, cfg.loss_config())
    return tape


def _cmd_gradcheck(args) -> _Run:
    tape = _gradcheck_setup(args.seed)
    report = finite_diff_check(tape, tolerance=args.tolerance)
    stdout = (f"max_rel_err\t{report.max_rel_err!r}\n"
              f"checked\t{report.checked}\n"
              f"status\t{'PASS' if report.passed else 'FAIL'}")
    if not report.passed and report.worst is not None:
        leaf, coord = report.worst
        crossing = "crosses" if report.crosses_relu_kink else "does not cross"
        _log(f"gradcheck worst coordinate: {leaf}[{coord}] "
             f"rel_err={report.max_rel_err:.3e}; its +-step {crossing} a relu kink")
    text = json.dumps({"max_rel_err": report.max_rel_err, "checked": report.checked,
                       "passed": report.passed}, sort_keys=True)
    return _Run({"seed": args.seed, "tolerance": args.tolerance}, args.seed, stdout,
                status=0 if report.passed else 2, **_text_output(args.out, text))


def _probe_metrics(dataset, model: Model, task: str, seed: int,
                   probe_epochs: int, radius: float) -> dict:
    """A linear probe's metrics on the frozen features, split by `probe_split`
    with habitat strata for `cls` and `multilabel` and one for `encounter`."""
    tiles = dataset.tiles
    if task == "encounter":
        targets = tile_species_targets(tiles, dataset.observations, radius)
        labels, kind = np.zeros(len(tiles), dtype=int), "encounter_rate"
    elif dataset.truth is None:
        raise ValueError("this task needs ground_truth.json habitat labels")
    else:
        labels = np.array([dataset.truth.tile_habitats[t.tile_id] for t in tiles])
        k = dataset.truth.n_habitats
        targets, kind = ((labels, "single_label") if task == "cls"
                         else (np.eye(k)[labels], "multi_label"))
    train_idx, test_idx = probe_split(labels, seed)
    features = model.image_features([t.pixels for t in tiles])
    head = fit_linear_probe(None, features[train_idx], targets[train_idx], kind,
                            ProbeConfig(lr=1e-3, epochs=probe_epochs, seed=seed))
    preds = head.predict(features[test_idx])
    if task == "cls":
        return {"task": "cls",
                "train_accuracy": accuracy(head.predict(features[train_idx]), labels[train_idx]),
                "test_accuracy": accuracy(preds, labels[test_idx]),
                "confusion_matrix": confusion_matrix(preds, labels[test_idx], k).tolist()}
    if task == "multilabel":
        return {"task": "multilabel",
                "micro_f1": micro_f1([set(np.flatnonzero(row)) for row in preds],
                                     [{int(labels[i])} for i in test_idx])}
    observed = [set(np.flatnonzero(targets[i])) for i in test_idx]
    score, skipped = mean_top_k_accuracy(preds, observed)
    return {"task": "encounter", "top_k_accuracy": score, "skipped_empty": skipped}


def _dataset_and_model(args):
    """The --data dataset, the --ckpt checkpoint and its model, which must take every tile."""
    dataset = ingest_dataset(args.data)
    ckpt = load_checkpoint(args.ckpt)
    c, size = ckpt.config.model.image.in_channels, ckpt.config.model.image.in_size
    shapes = {tile.pixels.shape for tile in dataset.tiles}
    if shapes != {(c, size, size)}:
        got = (len(dataset.tiles), *shapes.pop()) if len(shapes) == 1 else sorted(shapes)
        raise ValueError(f"{pair_paths(args.ckpt)[0]}: expected pixels of shape "
                         f"(n, {c}, {size}, {size}), got {got} from {args.data}")
    return dataset, ckpt, model_from_checkpoint(ckpt)


def _cmd_probe(args) -> _Run:
    dataset, ckpt, model = _dataset_and_model(args)
    metrics = _probe_metrics(dataset, model, args.task, args.seed,
                             args.probe_epochs, ckpt.config.matching_radius)
    text = json.dumps(metrics, sort_keys=True, indent=2)
    return _Run({"task": args.task, "seed": args.seed, "probe_epochs": args.probe_epochs},
                args.seed, text, **_text_output(args.out, text))


def _cmd_index(args) -> _Run:
    dataset, _, model = _dataset_and_model(args)
    index = build_index(model, dataset.tiles)
    out = pair_paths(args.out)
    stdout = json.dumps({"index": str(out[0]), "tiles": index.n, "dim": index.d},
                        sort_keys=True)
    return _Run({"tiles": index.n}, None, stdout, out, lambda tmp: save_index(index, tmp))


def _query_file(source: str) -> Path | None:
    """`source` as a path when it names an existing file, else None. A string
    too long to be a file name is an inline query, not an error."""
    p = Path(source)
    try:
        return p if p.exists() else None
    except OSError:
        return None


def _read_query(source: str) -> np.ndarray:
    """Query vector from a float32 .bin file, a CSV file, or an inline CSV
    string. A malformed query, or a non-finite value in one, raises a
    ValueError naming the file or the inline query."""
    p = _query_file(source)
    if p is None and "," not in source:
        raise ValueError(f"query file not found: {source}")
    where = p or "inline query"
    if p is None or p.suffix in (".csv", ".txt"):
        text = source if p is None else p.read_text().replace("\n", ",")
        try:
            query = np.array([float(v) for v in text.split(",") if v.strip()])
        except ValueError as e:
            raise ValueError(f"{where}: unparseable CSV query ({e})") from None
    else:
        blob = p.read_bytes()
        if len(blob) % 4:
            raise ValueError(f"{p}: query blob length {len(blob)} bytes is not a "
                             f"multiple of 4 (float32 values)")
        query = np.frombuffer(blob, dtype="<f4").astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(query))
    if bad.size:
        raise ValueError(f"{where}: query has a non-finite norm "
                         f"(value {bad[0]} is not finite)")
    return query


def _cmd_retrieve(args) -> _Run:
    index = load_index(args.index)
    query = _read_query(args.query)
    query_file = _query_file(args.query)
    model = model_from_checkpoint(load_checkpoint(args.ckpt)) if args.ckpt else None
    try:
        results = query_index(index, query, k=args.k, model=model)
    except RowNormError as e:
        raise ValueError(f"{query_file or 'inline query'}: query has a "
                         f"{e.problem} norm") from None
    stdout = "\n".join(f"{tile_id}\t{cosine!r}" for tile_id, cosine in results)
    return _Run({"k": args.k}, None, stdout)


def _cmd_zeroshot(args) -> _Run:
    dataset, _, model = _dataset_and_model(args)
    if args.classes:
        classes = _read_query(args.classes)
        d_txt = model.cfg.d_txt
        if classes.size == 0 or classes.size % d_txt:
            raise ValueError(f"{args.classes}: {classes.size} values do not form class "
                             f"rows of length d_txt = {d_txt}")
        classes = classes.reshape(-1, d_txt)
        labels, source = None, args.classes
    else:
        if dataset.truth is None:
            raise ValueError("zeroshot needs --classes or a dataset with ground_truth.json")
        classes = dataset.truth.text_prototypes
        labels = [dataset.truth.tile_habitats[t.tile_id] for t in dataset.tiles]
        source = f"{Path(args.data) / 'ground_truth.json'}: key 'text_prototypes'"
    try:  # the class rows alone, so that a tile row's error is not blamed on them
        model.project_text_rows(classes)
    except RowNormError as e:
        raise ValueError(f"{source}: class row {e.row} has a {e.problem} norm") from None
    preds = zero_shot_classify(model, dataset.tiles, classes)
    text = "\n".join(f"{tile.tile_id}\t{chosen}" for tile, chosen in zip(dataset.tiles, preds))
    stdout = text if labels is None else f"{text}\naccuracy\t{accuracy(preds, labels)!r}"
    return _Run({"classes": int(classes.shape[0])}, None, stdout,
                **_text_output(args.out, text))


def _read_json_list(path: str, nested: bool, ids: bool = True) -> list:
    """A non-empty JSON list from `path` of class ids (JSON integers >= 0), or
    of finite numbers without `ids`; of lists of them when `nested`. A bad
    entry is named by its position."""
    obj = read_json(path)
    if not (isinstance(obj, list) and obj):
        raise ValueError(f"{path}: expected a non-empty JSON list")
    what = "a class id (an integer >= 0)" if ids else "a finite number"
    for i, row in enumerate(obj if nested else [obj]):
        if not isinstance(row, list):
            raise ValueError(f"{path}: entry [{i}]: expected a list, got {row!r}")
        for j, v in enumerate(row):
            ok = (isinstance(v, int) and v >= 0 if ids
                  else isinstance(v, (int, float)) and abs(v) <= sys.float_info.max)
            if isinstance(v, bool) or not ok:
                where = f"[{i}][{j}]" if nested else f"[{j}]"
                raise ValueError(f"{path}: entry {where}: expected {what}, got {v!r}")
    return obj


def _cmd_eval_metrics(args) -> _Run:
    nested = args.task != "cls"
    preds = _read_json_list(args.preds, nested, ids=args.task != "encounter")
    labels = _read_json_list(args.labels, nested)
    if len(preds) != len(labels):
        raise ValueError(f"{args.preds} and {args.labels} differ in length "
                         f"({len(preds)} vs {len(labels)})")
    if args.task == "cls":
        for path, ids in ((args.preds, preds), (args.labels, labels)):
            j = next((j for j, v in enumerate(ids) if v >= MAX_CLASSES), None)
            if j is not None:
                raise ValueError(f"{path}: entry [{j}]: class id {ids[j]} is not below the "
                                 f"{MAX_CLASSES:,} classes a confusion matrix takes")
        k = max(max(preds), max(labels)) + 1
        metrics = {"accuracy": accuracy(preds, labels),
                   "confusion_matrix": confusion_matrix(preds, labels, k).tolist()}
    elif args.task == "multilabel":
        metrics = {"micro_f1": micro_f1([set(p) for p in preds],
                                        [set(t) for t in labels])}
    else:
        score, skipped = mean_top_k_accuracy([np.asarray(r) for r in preds],
                                             [set(t) for t in labels])
        metrics = {"top_k_accuracy": score, "skipped_empty": skipped}
    return _Run({"task": args.task}, None, json.dumps(metrics, sort_keys=True))


# -- argument grammar -----------------------------------------------------------


def _inputs(args) -> list[Path]:
    """The input paths a command's manifest hashes: every input flag that is
    set, in one fixed order. A checkpoint or an index is its `.json` header,
    and a query counts only when it names a file."""
    paths = []
    for flag in ("data", "index", "query", "ckpt", "classes", "config", "preds", "labels"):
        value = getattr(args, flag, None)
        if value and flag in ("index", "ckpt"):
            value = pair_paths(value)[0]
        elif value and flag == "query":
            value = _query_file(value)
        if value:
            paths.append(Path(value))
    return paths


def build_parser() -> _Parser:
    """The grammar; each subcommand sets `handler`, which computes a `_Run`."""
    parser = _Parser(prog="satalign", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset directory")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--config", help="JSON file with synthetic-world fields")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("train", help="train an encoder on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path (.json)")
    p.add_argument("--config", help="JSON file with training-config fields")
    p.add_argument("--seed", type=_seed)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--peft", choices=["full", "scale_shift"])
    p.add_argument("--freeze-location", action="store_true")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full loss")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--tolerance", type=_finite_positive, default=1e-4)
    p.add_argument("--out", help="optional JSON report path")
    p.set_defaults(handler=_cmd_gradcheck)

    p = sub.add_parser("probe", help="linear-probe a frozen checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--task", choices=["cls", "multilabel", "encounter"], default="cls")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--probe-epochs", dest="probe_epochs", type=int, default=200)
    p.add_argument("--out", help="optional metrics JSON path")
    p.set_defaults(handler=_cmd_probe)

    p = sub.add_parser("index", help="build a retrieval index over dataset tiles")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True, help="index path prefix or .json")
    p.set_defaults(handler=_cmd_index)

    p = sub.add_parser("retrieve", help="top-k cosine retrieval against an index")
    p.add_argument("--index", required=True, help="index path prefix")
    p.add_argument("--query", required=True, help="float32 .bin or .csv vector")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--ckpt", help="checkpoint for projecting raw text queries")
    p.set_defaults(handler=_cmd_retrieve)

    p = sub.add_parser("zeroshot", help="classify tiles against class text embeddings")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--classes", help="float32 .bin of class embeddings "
                                     "(default: ground-truth text prototypes)")
    p.add_argument("--out", help="optional TSV output path")
    p.set_defaults(handler=_cmd_zeroshot)

    p = sub.add_parser("eval-metrics", help="compute metrics from prediction files")
    p.add_argument("--task", choices=["cls", "multilabel", "encounter"], required=True)
    p.add_argument("--preds", required=True, help="JSON predictions")
    p.add_argument("--labels", required=True, help="JSON labels")
    p.set_defaults(handler=_cmd_eval_metrics)
    return parser


_parser = functools.cache(build_parser)  # parsing leaves the parser as it was


def dispatch(argv=None) -> int:
    """Run one subcommand: the handler computes, then its outputs and their
    manifest land together and its stdout is printed; a command without
    outputs prints its stdout, then its manifest on stderr. Exit codes: 0
    success; 1 bad flags or inputs (a ValueError, which includes malformed
    JSON, a missing file, or any OSError of the handler, which only reads, so
    an input it cannot read), or a stdout closed before all of it was written;
    2 anything else, which is a bug or a runtime failure, and a failed
    gradcheck. The command's input hashing has ended when this returns."""
    try:
        args = _parser().parse_args(argv)
    except UsageError:
        return 1
    hashes = _InputHashes(_inputs(args))
    started = time.monotonic()
    try:
        try:
            run = args.handler(args)
        except OSError as e:  # such as a directory named as an input file
            raise ValueError(e) from None
        hashes.join()  # the inputs are hashed as found, before an output lands in one
        if run.outputs:  # the manifest lands beside the outputs, or nothing lands

            def build(tmp: Path) -> None:
                run.build(tmp)
                tmp.with_name(tmp.name + ".manifest.json").write_text(
                    _manifest(args.command, run, hashes, started) + "\n")

            _atomic(run.outputs[0], build)
        print(run.stdout, flush=True)
        if not run.outputs:
            _log(_manifest(args.command, run, hashes, started))
        return run.status
    except (ValueError, FileNotFoundError) as e:
        _log(f"error: {e}")
        return 1
    except BrokenPipeError:  # the reader closed stdout; outputs that landed stay
        with open(os.devnull, "w") as devnull:  # so flushing stdout at exit raises nothing
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        _log("error: stdout was closed before the command's output was written")
        return 1
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        hashes.join(stop=True)


def main(argv=None) -> None:
    sys.exit(dispatch(argv))


if __name__ == "__main__":
    main()
