"""Workloads, output checks and metrics of the satalign benchmark.

Every command goes through ``satalign.cli.dispatch(argv)`` in this process,
exactly as a user's ``satalign <command>`` would, with its stdout and stderr
captured. All inputs come from the workload seed. Each workload is a closed
loop with one client: a command starts when the previous one has returned.

Each workload runs every CLI command, so that every metric has a value on
every workload. The workload's own step repeats to fill the measurement
window; the commands it does not stress (the "canary" commands) run a fixed
number of times on the default world, spread over the window, so their
figures stay comparable across workloads. Reported times are scaled to a
reference machine speed measured by a calibration kernel (see
CALIBRATION_REFERENCE_S); the raw times stay in the run record.

- ``train``: ``train`` on the default world, full fine-tuning.
- ``peft_large``: ``train --peft scale_shift --freeze-location`` on the
  large world, where pairing observations to tiles carries real load.
- ``gradcheck``: ``gradcheck`` over successive seeds, thousands of replays
  of a small tape where per-node Python overhead dominates.
- ``eval``: ``index``, ``probe --task cls``, ``probe --task encounter``,
  ``zeroshot`` on the large world and ``retrieve`` against a 10^5-row index.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from satalign import cli
from satalign.dataio import ingest_dataset
from satalign.evaluate import RetrievalIndex, save_index
from satalign.synthworld import SyntheticWorldConfig
from satalign.training import TrainConfig, config_from_dict, load_checkpoint, model_from_checkpoint

from spans import Tracer

GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_SEEDS = 20  # the seeds acceptance criterion 01 checks

# name, unit, and the workloads the metric is built for. Every workload
# reports every metric; the others measure it on their canary commands.
# Direction and bound are in BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "all: import, synth, eval checkpoint and 10^5-row index"),
    ("peak_rss_mb", "MB", "all"),
    ("train_samples_per_s", "samples/s", "train, peft_large"),
    ("gradcheck_s_per_seed", "s", "gradcheck"),
    ("index_tiles_per_s", "tiles/s", "eval"),
    ("probe_cls_s", "s", "eval"),
    ("probe_encounter_s", "s", "eval"),
    ("zeroshot_tiles_per_s", "tiles/s", "eval"),
    ("retrieve_ms_p50", "ms", "eval"),
    ("retrieve_ms_p90", "ms", "eval"),
)

COMMANDS = ("synth", "train", "gradcheck", "index", "probe_cls", "probe_encounter",
            "zeroshot", "retrieve")
LAYERS = ("cli", "dataio", "synthworld", "geodata", "augment", "training", "encoders",
          "contrastive", "tape", "optim", "gradcheck", "evaluate")

# name, unit, better, and the end-to-end metric it should move, on which
# workload.
PER_LAYER = (
    ("tape.backward.ms_per_step", "ms/step", "lower",
     "train_samples_per_s on train and peft_large"),
    ("tape.nodes_per_step", "nodes/step", "lower",
     "train_samples_per_s and peak_rss_mb on train"),
    ("tape.value_mb_per_step", "MB/step", "lower",
     "train_samples_per_s and peak_rss_mb on train"),
    ("training.assemble_batch.ms_per_step", "ms/step", "lower",
     "train_samples_per_s on train and peft_large"),
    ("augment.ms_per_step", "ms/step", "lower",
     "train_samples_per_s on train and peft_large"),
    ("training.build_training_graph.ms_per_step", "ms/step", "lower",
     "train_samples_per_s on train"),
    ("encoders.image_feature_graph.ms_per_step", "ms/step", "lower",
     "train_samples_per_s on train"),
    ("encoders.location_feature_graph.ms_per_step", "ms/step", "lower",
     "train_samples_per_s on train"),
    ("encoders.head_graph.ms_per_step", "ms/step", "lower",
     "train_samples_per_s on train"),
    ("contrastive.trimodal_loss_graph.ms_per_step", "ms/step", "lower",
     "train_samples_per_s on train"),
    ("training.train.self_ms_per_step", "ms/step", "lower",
     "train_samples_per_s on train"),
    ("optim.adam_step.ms_per_call", "ms/call", "lower",
     "train_samples_per_s on train, probe_cls_s on eval"),
    ("optim.adam_step.calls", "count", "lower",
     "train_samples_per_s on train, probe_cls_s on eval"),
    ("geodata.pair_samples.ms", "ms", "lower",
     "train_samples_per_s on peft_large; no change on train"),
    ("geodata.pair_samples.paired_ratio", "ratio", "higher",
     "train_samples_per_s on peft_large"),
    ("dataio.ingest_dataset.ms", "ms", "lower", "every eval command, peft_large"),
    ("dataio.ingest_dataset.mb", "MB", "lower", "every eval command, peft_large"),
    ("cli.hash_path.ms", "ms", "lower", "every eval command, peft_large"),
    ("cli.hash_path.mb", "MB", "lower", "every eval command, peft_large"),
) + tuple(
    (f"cli.{command}.self_ms", "ms", "lower",
     "probe_encounter_s and zeroshot_tiles_per_s on eval")
    for command in COMMANDS
) + (
    ("training.save_checkpoint.ms", "ms", "lower", "train; every eval command"),
    ("training.load_checkpoint.ms", "ms", "lower", "train; every eval command"),
    ("synthworld.generate_synthetic_world.ms", "ms", "lower", "setup_s on all"),
    ("dataio.save_dataset.ms", "ms", "lower", "setup_s on all"),
    ("gradcheck.finite_diff_check.ms_per_seed", "ms/seed", "lower",
     "gradcheck_s_per_seed on gradcheck"),
    ("gradcheck.replays_per_seed", "replays/seed", "lower",
     "gradcheck_s_per_seed on gradcheck"),
    ("gradcheck.replay_us", "us/replay", "lower", "gradcheck_s_per_seed on gradcheck"),
    ("encoders.image_features.ms", "ms", "lower",
     "index_tiles_per_s, zeroshot_tiles_per_s, probe_*_s on eval"),
    ("encoders.image_features.rows_per_call", "rows/call", "higher",
     "index_tiles_per_s, zeroshot_tiles_per_s, probe_*_s on eval"),
    ("evaluate.fit_linear_probe.ms", "ms", "lower",
     "probe_cls_s and probe_encounter_s on eval"),
    ("evaluate.build_index.ms", "ms", "lower", "index_tiles_per_s on eval"),
    ("evaluate.save_index.ms", "ms", "lower", "index_tiles_per_s on eval"),
    ("evaluate.load_index.ms", "ms", "lower", "retrieve_ms_p50 and _p90 on eval"),
    ("evaluate.query_index.ms", "ms", "lower", "retrieve_ms_p50 and _p90 on eval"),
    ("evaluate.zero_shot_classify.ms", "ms", "lower", "zeroshot_tiles_per_s on eval"),
    ("evaluate.zero_shot_classify.calls", "count", "lower", "zeroshot_tiles_per_s on eval"),
) + tuple(
    (f"{layer}.errors", "count", "lower", "failed operations on all")
    for layer in LAYERS
) + (
    ("tracing.overhead_ms", "ms", "lower", "traced minus untraced pass wall time"),
    ("tracing.overhead_pct", "%", "lower", "overhead as a share of the untraced pass"),
)


@dataclass(frozen=True)
class Sizes:
    """Input sizes. `None` world or train config means the package defaults."""

    default_world: dict | None
    large_world: dict
    train_config: dict | None
    train_epochs: int = 2          # main command of the train workload
    canary_epochs: int = 1         # train commands elsewhere
    peft_epochs: int = 1
    small_index_rows: int = 1_000
    large_index_rows: int = 100_000
    retrieves: int = 100           # per run: p90 keeps 10 samples above it
    retrieve_chunks: int = 4       # eval: retrieves split over the window
    canary_rounds: int = 16        # rounds of the short eval commands
    canary_repeats: int = 3        # train commands where training is not the main step
    gradchecks: int = 2            # where gradcheck is not the main step
    min_main: int = 3              # main steps per run, even past the window
    setup_repeats: int = 3


FULL = Sizes(
    default_world=None,
    large_world={"n_habitats": 8, "tiles_per_habitat": 128, "n_species": 64,
                 "raster_rows": 48, "raster_cols": 48, "n_observations": 1024},
    train_config=None,
)

_TOY_MODEL = {"image": {"in_size": 16, "widths": [6, 8], "d_img": 16},
              "location": {"hidden": 12, "depth": 2, "d_loc": 8},
              "d_txt": 12, "embed_dim": 8}
TOY = Sizes(
    default_world={"n_species": 8, "n_habitats": 4, "raster_rows": 16, "raster_cols": 16,
                   "tiles_per_habitat": 8, "n_observations": 96, "d_txt": 12,
                   "tile_size": 16, "sections_per_species": 2},
    large_world={"n_species": 8, "n_habitats": 4, "raster_rows": 16, "raster_cols": 16,
                 "tiles_per_habitat": 16, "n_observations": 128, "d_txt": 12,
                 "tile_size": 16, "sections_per_species": 2},
    train_config={"batch_size": 16, "lr": 1e-3, "crop_size": 12, "jitter": 0.02,
                  "channel_mix": 0.05, "model": _TOY_MODEL},
    train_epochs=2, canary_epochs=2, peft_epochs=2, small_index_rows=50,
    large_index_rows=300, retrieves=4, retrieve_chunks=2, canary_rounds=2, canary_repeats=1,
    gradchecks=1, min_main=1, setup_repeats=2,
)


def sha256_path(path: Path) -> str:
    """Digest of a file, or of a directory's sorted (relative path, bytes).
    Run manifests are left out: they record wall times."""
    h = hashlib.sha256()
    files = (sorted(p for p in path.rglob("*")
                    if p.is_file() and not p.name.endswith(".manifest.json"))
             if path.is_dir() else [path])
    for sub in files:
        h.update(str(sub.relative_to(path) if path.is_dir() else sub.name).encode())
        h.update(sub.read_bytes())
    return h.hexdigest()


# Machine speed, for scaling measured times: this box's vCPUs run up to ~1.7x
# slower while neighbours are busy, and all commands of a run slow together.
# A fixed kernel is timed after every command, and times are reported at the
# speed where the kernel takes CALIBRATION_REFERENCE_S. A short command is
# scaled by the kernel timed just before and after it; a command of
# LONG_COMMAND_S or more spans many speed changes, so that local figure is
# averaged with the kernel's mean over the whole run.
CALIBRATION_REFERENCE_S = 0.0008
LONG_COMMAND_S = 1.0
_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.random((32, 32))
_CAL_B = _CAL_RNG.random((32, 48))


def calibration_seconds() -> float:
    """Median of five timings of a fixed mix of small numpy kernels and
    interpreter work, like the commands' own. The median drops a timing a
    single stall spoiled; the collector is paused so that garbage the
    program left behind does not bill the kernel."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(5):
            began = time.perf_counter()
            acc = 0.0
            for i in range(80):
                acc += float(np.maximum(_CAL_A @ _CAL_B, 0.5).sum()) * (i % 3)
            times.append(time.perf_counter() - began)
        return statistics.median(times)
    finally:
        if was_enabled:
            gc.enable()


def _at_reference_speed(seconds: float, kernel_s: float) -> float:
    return seconds * CALIBRATION_REFERENCE_S / kernel_s


@dataclass
class Sample:
    """`work` units (None: a duration) done in `seconds` of wall time, with
    the calibration kernel's time around it."""

    work: float | None
    seconds: float
    kernel_s: float

    def value(self, run_kernel_s: float) -> float:
        kernel_s = self.kernel_s
        if self.seconds >= LONG_COMMAND_S:
            kernel_s = (kernel_s + run_kernel_s) / 2
        seconds = _at_reference_speed(self.seconds, kernel_s)
        return seconds if self.work is None else self.work / seconds


def _dispatch(argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    began = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.dispatch(argv)
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - began


def _digest(stdout: str, outputs) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest() + "".join(
        sha256_path(Path(p)) for p in outputs if Path(p).exists())


def _stamp(path: Path) -> tuple:
    stat = path.stat()
    return (str(path), stat.st_mtime_ns, stat.st_size)


def path_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size if path.is_file() else 0


@dataclass
class Command:
    """One command of a traced run: its wall time untraced and traced, and
    the index of its root span."""

    label: str
    untraced_s: float
    traced_s: float
    span: int


@dataclass
class Bench:
    """One run: a workload's inputs, its commands, their samples and checks."""

    workload: str
    seed: int
    seconds: float
    work: Path
    sizes: Sizes = FULL
    trace_mode: bool = False
    recording: bool = True
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_ops: set[int] = field(default_factory=set)  # numbers of failed commands
    samples: dict[str, list[Sample]] = field(default_factory=dict)
    commands: list[Command] = field(default_factory=list)
    raw: list[list] = field(default_factory=list)  # label, seconds, kernel before, after
    _seen_ckpts: dict[tuple, str] = field(default_factory=dict)
    _references: dict[tuple, object] = field(default_factory=dict)

    def __post_init__(self):
        seeds = np.random.SeedSequence([self.seed, 0x5A7A]).generate_state(4)
        self.world_seed, self.large_seed, self.train_seed, self.query_seed = (
            int(s % 1_000_000) for s in seeds)
        # criterion 01's seeds, visited from a seed-dependent start
        self.gradcheck_next = self.seed % GRADCHECK_SEEDS
        train = (config_from_dict(self.sizes.train_config) if self.sizes.train_config
                 else TrainConfig())
        self.batch_size = train.batch_size
        self.d_txt = train.model.d_txt
        self.embed_dim = train.model.embed_dim
        self.tracer = Tracer() if self.trace_mode else None
        self.calibration = calibration_seconds()
        self.query_rng = np.random.default_rng([self.query_seed, 7])
        self.queries_made = 0

    # -- paths -------------------------------------------------------------

    @property
    def root(self) -> Path:
        return self.work / "data"

    def world(self, which: str) -> Path:
        return self.root / f"world_{which}"

    def index_path(self, which: str) -> Path:
        return self.root / f"index_{which}"

    def ckpt(self, label: str) -> Path:
        return self.work / "ckpt" / f"{label}.json"

    def write_configs(self) -> None:
        cfg = self.work / "config"
        cfg.mkdir(parents=True, exist_ok=True)
        worlds = {"default": self.sizes.default_world, "large": self.sizes.large_world}
        for which, overrides in worlds.items():
            if overrides is not None:
                (cfg / f"world_{which}.json").write_text(json.dumps(overrides))
        if self.sizes.train_config is not None:
            (cfg / "train.json").write_text(json.dumps(self.sizes.train_config))

    def n_tiles(self, which: str) -> int:
        overrides = self.sizes.default_world if which == "default" else self.sizes.large_world
        cfg = SyntheticWorldConfig(**(overrides or {}))
        return cfg.n_habitats * cfg.tiles_per_habitat

    # -- running commands --------------------------------------------------

    def fail(self, message: str) -> None:
        """Count the current command as failed, whatever went wrong with it."""
        self.failures.append(message)
        self.failed_ops.add(self.attempted)

    def checked(self, ok: bool, message: str) -> bool:
        if not ok:
            self.fail(message)
        return ok

    def sample(self, metric: str, seconds: float, work: float | None = None) -> None:
        """Record a measured command: a duration, or `work` done in it."""
        if self.recording and not self.trace_mode:
            kernel_s = (self.raw[-1][2] + self.raw[-1][3]) / 2
            self.samples.setdefault(metric, []).append(Sample(work, seconds, kernel_s))

    def cli(self, label: str, argv: list[str], outputs=()) -> tuple[int, str, float]:
        """Run one command through the CLI dispatcher, timed, output captured.

        In a traced run the command runs untraced and then traced, and the
        two runs must print and write the same bytes; the time returned is
        the traced one.
        """
        self.attempted += 1
        rc, stdout, stderr, seconds = _dispatch(argv)
        if self.trace_mode:
            digest = _digest(stdout, outputs)
            tracer = self.tracer
            span_idx = len(tracer.spans)
            began = time.perf_counter()
            tracer.install()
            try:
                tracer.request += 1
                span = tracer.open(f"cli.{label}")
                rc_traced, stdout, stderr, _ = _dispatch(argv)
                tracer.close(span, error=rc_traced != 0)
            finally:
                tracer.restore()
            traced_s = time.perf_counter() - began
            self.commands.append(Command(label, seconds, traced_s, span_idx))
            self.checked((rc_traced, _digest(stdout, outputs)) == (rc, digest),
                         f"{label}: tracing changed its exit code or output")
            rc, seconds = rc_traced, traced_s
        elif self.recording:  # set-up repeats are scaled as a whole
            before, self.calibration = self.calibration, calibration_seconds()
            self.raw.append([label, seconds, before, self.calibration])
        if rc != 0:
            self.fail(f"{label} {' '.join(argv)}: exit {rc}: {stderr[-400:]}")
        return rc, stdout, seconds

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Synthesize the worlds and write the indexes a workload reads."""
        self.synth("default")
        self.write_index("small", self.sizes.small_index_rows)
        if self.workload in ("peft_large", "eval"):
            self.synth("large")
        if self.workload == "eval":
            self.train("eval", "default", self.sizes.canary_epochs)
            self.write_index("large", self.sizes.large_index_rows)

    def synth(self, which: str) -> None:
        seed = self.world_seed if which == "default" else self.large_seed
        argv = ["synth", "--out", str(self.world(which)), "--seed", str(seed)]
        config = self.work / "config" / f"world_{which}.json"
        if config.exists():
            argv += ["--config", str(config)]
        self.cli("synth", argv, outputs=[self.world(which)])

    def write_index(self, which: str, rows: int) -> None:
        """A random unit-norm index in the shared space, written with save_index."""
        rng = np.random.default_rng([self.query_seed, rows])
        matrix = rng.normal(size=(rows, self.embed_dim))
        matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
        save_index(RetrievalIndex(tile_ids=list(range(rows)), matrix=matrix),
                   self.index_path(which).with_suffix(".json"))

    # -- commands with their output checks ---------------------------------

    def train(self, label: str, which: str, epochs: int, extra: tuple = ()) -> None:
        out = self.ckpt(label)
        argv = ["train", "--data", str(self.world(which)), "--out", str(out),
                "--seed", str(self.train_seed), "--epochs", str(epochs), *extra]
        config = self.work / "config" / "train.json"
        if config.exists():
            argv += ["--config", str(config)]
        rc, stdout, seconds = self.cli("train", argv, outputs=[out, out.with_suffix(".bin")])
        if rc != 0:
            return
        steps = json.loads(stdout)["steps"]
        self.sample("train_samples_per_s", seconds, work=steps * self.batch_size)
        header = json.loads(out.read_text())
        losses = header["step_losses"]
        epochs_mean = header["epoch_losses"]
        if not self.checked(all(math.isfinite(v) for v in losses),
                            f"train {label}: non-finite step loss"):
            return
        if len(epochs_mean) > 1:
            first, last = epochs_mean[0], epochs_mean[-1]
        else:  # one epoch: compare its halves
            half = len(losses) // 2
            first, last = np.mean(losses[:half]), np.mean(losses[half:])
        self.checked(last < first, f"train {label}: loss did not fall ({first} -> {last})")
        digest = _digest("", [out, out.with_suffix(".bin")])
        seen = self._seen_ckpts.setdefault(tuple(argv), digest)
        self.checked(seen == digest, f"train {label}: same seed gave another checkpoint")

    def gradcheck(self, seed: int) -> None:
        rc, stdout, seconds = self.cli("gradcheck", ["gradcheck", "--seed", str(seed)])
        if rc != 0:
            return
        self.sample("gradcheck_s_per_seed", seconds)
        fields = dict(line.split("\t") for line in stdout.splitlines())
        self.checked(float(fields["max_rel_err"]) < GRADCHECK_TOLERANCE
                     and fields["status"] == "PASS",
                     f"gradcheck {seed}: {fields}")

    def next_gradcheck(self) -> None:
        self.gradcheck(self.gradcheck_next)
        self.gradcheck_next = (self.gradcheck_next + 1) % GRADCHECK_SEEDS

    def index(self, which: str, ckpt: Path) -> None:
        out = self.work / "idx" / which
        rc, stdout, seconds = self.cli(
            "index", ["index", "--data", str(self.world(which)), "--ckpt", str(ckpt),
                      "--out", str(out)],
            outputs=[out.with_suffix(".json"), out.with_suffix(".bin")])
        if rc != 0:
            return
        tiles = json.loads(stdout)["tiles"]
        self.sample("index_tiles_per_s", seconds, work=tiles)
        self.checked(tiles == self.n_tiles(which), f"index {which}: {tiles} tiles")

    def probe(self, which: str, ckpt: Path, task: str) -> None:
        label = f"probe_{task}"
        rc, stdout, seconds = self.cli(label, [
            "probe", "--data", str(self.world(which)), "--ckpt", str(ckpt),
            "--task", task, "--seed", str(self.train_seed)])
        if rc != 0:
            return
        self.sample(f"{label}_s", seconds)
        metrics = json.loads(stdout)
        score = metrics["test_accuracy" if task == "cls" else "top_k_accuracy"]
        self.checked(0.0 <= score <= 1.0, f"{label} {which}: score {score}")

    def zeroshot(self, which: str, ckpt: Path) -> None:
        rc, stdout, seconds = self.cli("zeroshot", ["zeroshot", "--data", str(self.world(which)),
                                                    "--ckpt", str(ckpt)])
        if rc != 0:
            return
        rows = [line.split("\t") for line in stdout.splitlines()]
        preds = {int(a): int(b) for a, b in rows if a != "accuracy"}
        self.sample("zeroshot_tiles_per_s", seconds, work=len(preds))
        expected = self.batched_zeroshot(which, ckpt)
        self.checked(preds == expected,
                     f"zeroshot {which}: per-tile predictions differ from one batched argmax")

    def batched_zeroshot(self, which: str, ckpt: Path) -> dict[int, int]:
        key = ("zeroshot", which, _stamp(ckpt.with_suffix(".bin")))
        if key not in self._references:
            dataset = ingest_dataset(self.world(which))
            model = model_from_checkpoint(load_checkpoint(ckpt))
            z = model.tile_text_embeddings(np.stack([t.pixels for t in dataset.tiles]))
            classes = model.project_text_rows(dataset.truth.text_prototypes)
            chosen = np.argmax(z @ classes.T, axis=1)
            self._references[key] = {t.tile_id: int(c) for t, c in zip(dataset.tiles, chosen)}
        return self._references[key]

    def retrieves(self, which: str, ckpt: Path, count: int) -> None:
        """Raw-text queries, each checked against a brute-force ranking."""
        qdir = self.work / "queries"
        qdir.mkdir(parents=True, exist_ok=True)
        index = self.index_path(which)
        for _ in range(count):
            i = self.queries_made
            self.queries_made += 1
            query = self.query_rng.normal(size=self.d_txt).astype("<f4")
            qpath = qdir / f"q{i}.bin"
            qpath.write_bytes(query.tobytes())
            rc, stdout, seconds = self.cli("retrieve", [
                "retrieve", "--index", str(index), "--query", str(qpath), "--k", "10",
                "--ckpt", str(ckpt)])
            if rc != 0:
                continue
            self.sample("retrieve", seconds)
            got = [line.split("\t") for line in stdout.splitlines()]
            want = self.brute_force(which, ckpt, query.astype(np.float64), 10)
            self.checked(len(got) == len(want)
                         and all(int(g[0]) == w[0] and abs(float(g[1]) - w[1]) <= 1e-9
                                 for g, w in zip(got, want)),
                         f"retrieve {which} {i}: top-k differs from brute force")

    def brute_force(self, which: str, ckpt: Path, raw: np.ndarray, k: int):
        key = ("index", which, _stamp(ckpt.with_suffix(".bin")))
        if key not in self._references:
            prefix = self.index_path(which)
            header = json.loads(prefix.with_suffix(".json").read_text())
            rows = np.frombuffer(prefix.with_suffix(".bin").read_bytes(), dtype="<f4")
            matrix = rows.astype(np.float64).reshape(header["n"], header["d"])
            matrix /= np.sqrt(np.sum(matrix * matrix, axis=1))[:, None]
            head = load_checkpoint(ckpt).params["heads.text.weight"]
            self._references[key] = (np.asarray(header["tile_ids"]), matrix, head)
        ids, matrix, head = self._references[key]
        q = raw @ head
        cosines = matrix @ (q / np.sqrt(np.sum(q * q)))
        order = np.lexsort((ids, -cosines))[:k]
        return [(int(ids[i]), float(cosines[i])) for i in order]

    # -- pipelines ---------------------------------------------------------

    def pipeline(self) -> None:
        """The workload's own step repeats to fill the window, and at least
        `min_main` times. A fixed list of other steps runs one after each
        main step, so that their samples spread over the window; whatever
        is left runs after it. A traced run makes one pass."""
        main, others = self.plan()
        pending = list(others)
        start = time.perf_counter()
        runs = 0
        while True:
            began = time.perf_counter()
            main()
            runs += 1
            last = time.perf_counter() - began
            if pending:
                pending.pop(0)()
            if self.trace_mode or (runs >= self.sizes.min_main and
                                   time.perf_counter() - start + last > self.seconds):
                break
        for step in pending:
            step()

    def plan(self):
        s = self.sizes
        gradchecks = [self.next_gradcheck] * s.gradchecks
        canary_trains = [partial(self.train, "canary", "default", s.canary_epochs)] * s.canary_repeats
        if self.workload == "train":
            main = partial(self.train, "main", "default", s.train_epochs)
            return main, _spread(self.eval_rounds(self.ckpt("main")), gradchecks)
        if self.workload == "peft_large":
            main = partial(self.train, "main", "large", s.peft_epochs,
                           ("--peft", "scale_shift", "--freeze-location"))
            return main, _spread(self.eval_rounds(self.ckpt("main")), gradchecks)
        if self.workload == "gradcheck":
            # the eval rounds read the canary checkpoint, so one training goes first
            return self.next_gradcheck, canary_trains[:1] + _spread(
                canary_trains[1:], self.eval_rounds(self.ckpt("canary")))
        if self.workload == "eval":
            chunk = math.ceil(s.retrieves / s.retrieve_chunks)
            retrieves = [partial(self.retrieves, "large", self.ckpt("eval"), chunk)]
            return self.eval_large, _spread(retrieves * s.retrieve_chunks, canary_trains,
                                            gradchecks)
        raise ValueError(f"unknown workload {self.workload!r}")

    def eval_rounds(self, ckpt: Path) -> list:
        """Rounds of the eval commands on the default world."""
        per_round = math.ceil(self.sizes.retrieves / self.sizes.canary_rounds)

        def round_():
            self.index("default", ckpt)
            self.probe("default", ckpt, "cls")
            self.probe("default", ckpt, "encounter")
            self.zeroshot("default", ckpt)
            self.retrieves("small", ckpt, per_round)

        return [round_] * self.sizes.canary_rounds

    def eval_large(self) -> None:
        ckpt = self.ckpt("eval")
        self.index("large", ckpt)
        self.probe("large", ckpt, "cls")
        self.probe("large", ckpt, "encounter")
        self.zeroshot("large", ckpt)


def _spread(*groups: list) -> list:
    """Merge step lists so that each list's steps sit evenly over the whole."""
    keyed = [((i + 0.5) / len(group), n, step)
             for n, group in enumerate(groups) for i, step in enumerate(group)]
    return [step for *_, step in sorted(keyed, key=lambda k: k[:2])]


WORKLOADS = ("train", "peft_large", "gradcheck", "eval")


# -- metrics ---------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(bench: Bench, setup_s: float) -> dict:
    run_kernel_s = statistics.mean(row[3] for row in bench.raw)
    values = {name: _median([x.value(run_kernel_s) for x in samples])
              for name, samples in bench.samples.items()}
    retrieve = [x.value(run_kernel_s) * 1e3 for x in bench.samples.get("retrieve", [])]
    values.update({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "retrieve_ms_p50": _median(retrieve),
        "retrieve_ms_p90": (statistics.quantiles(retrieve, n=10, method="inclusive")[8]
                            if len(retrieve) > 1 else _median(retrieve)),
    })
    return _with_units(values, {name: unit for name, unit, *_ in END_TO_END}, bench)


def _with_units(values: dict, units: dict, bench: Bench) -> dict:
    out = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            bench.fail(f"metric {name} has no samples")
        out[name] = {"value": value, "unit": unit}
    return out


def per_layer(bench: Bench, tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    spans = tracer.spans
    self_s = tracer.self_seconds()
    in_train = tracer.under("training.train")
    in_gradcheck = tracer.under("gradcheck.finite_diff_check")

    def pick(name, where=None):
        return [i for i, sp in enumerate(spans)
                if sp.name == name and (where is None or where[i])]

    def total_ms(idx, own=False):
        return sum(self_s[i] if own else spans[i].seconds for i in idx) * 1e3

    def mean_ms(name):
        idx = pick(name)
        return total_ms(idx) / len(idx) if idx else None

    steps = len(pick("tape.backward", in_train))

    def per_step(idx, own=False):
        return total_ms(idx, own) / steps if steps else None

    backward = pick("tape.backward", in_train)
    pairing = pick("geodata.pair_samples")
    checks = pick("gradcheck.finite_diff_check")
    replays = pick("tape.replay", in_gradcheck)
    features = pick("encoders.image_features")
    adam = pick("optim.adam_step")
    augment = [i for i, sp in enumerate(spans) if in_train[i] and sp.name.startswith("augment.")]

    def mean_mb(name):
        idx = pick(name)
        return sum(path_bytes(spans[i].path) for i in idx) / len(idx) / 1e6 if idx else None

    values = {
        "tape.backward.ms_per_step": per_step(backward),
        "tape.nodes_per_step": (statistics.mean(spans[i].counts["nodes"] for i in backward)
                                if backward else None),
        "tape.value_mb_per_step": (statistics.mean(spans[i].counts["value_bytes"]
                                                   for i in backward) / 1e6
                                   if backward else None),
        "training.assemble_batch.ms_per_step": per_step(pick("training.assemble_batch", in_train)),
        "augment.ms_per_step": per_step(augment),
        "training.build_training_graph.ms_per_step":
            per_step(pick("training.build_training_graph", in_train)),
        "training.train.self_ms_per_step": per_step(pick("training.train"), own=True),
        "optim.adam_step.ms_per_call": total_ms(adam) / len(adam) if adam else None,
        "optim.adam_step.calls": len(adam),
        "geodata.pair_samples.ms": mean_ms("geodata.pair_samples"),
        "geodata.pair_samples.paired_ratio": (
            sum(spans[i].counts["samples"] for i in pairing)
            / sum(spans[i].counts["observations"] for i in pairing) if pairing else None),
        "dataio.ingest_dataset.ms": mean_ms("dataio.ingest_dataset"),
        "dataio.ingest_dataset.mb": mean_mb("dataio.ingest_dataset"),
        "cli.hash_path.ms": mean_ms("cli.hash_path"),
        "cli.hash_path.mb": mean_mb("cli.hash_path"),
        "training.save_checkpoint.ms": mean_ms("training.save_checkpoint"),
        "training.load_checkpoint.ms": mean_ms("training.load_checkpoint"),
        "synthworld.generate_synthetic_world.ms": mean_ms("synthworld.generate_synthetic_world"),
        "dataio.save_dataset.ms": mean_ms("dataio.save_dataset"),
        "gradcheck.finite_diff_check.ms_per_seed": mean_ms("gradcheck.finite_diff_check"),
        "gradcheck.replays_per_seed": len(replays) / len(checks) if checks else None,
        "gradcheck.replay_us": total_ms(replays) * 1e3 / len(replays) if replays else None,
        "encoders.image_features.ms": mean_ms("encoders.image_features"),
        "encoders.image_features.rows_per_call": (
            statistics.mean(spans[i].counts["rows"] for i in features) if features else None),
        "evaluate.zero_shot_classify.calls": len(pick("evaluate.zero_shot_classify")),
        "tracing.overhead_ms": (traced_s - untraced_s) * 1e3,
        "tracing.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }
    for name in ("encoders.image_feature_graph", "encoders.location_feature_graph",
                 "encoders.head_graph", "contrastive.trimodal_loss_graph"):
        values[f"{name}.ms_per_step"] = per_step(pick(name, in_train))
    for name in ("fit_linear_probe", "build_index", "save_index", "load_index",
                 "query_index", "zero_shot_classify"):
        values[f"evaluate.{name}.ms"] = mean_ms(f"evaluate.{name}")
    for command in COMMANDS:
        idx = pick(f"cli.{command}")
        values[f"cli.{command}.self_ms"] = total_ms(idx, own=True) / len(idx) if idx else None
    for layer in LAYERS:
        values[f"{layer}.errors"] = sum(1 for sp in spans
                                        if sp.error and sp.name.startswith(layer + "."))
    return _with_units(values, {name: unit for name, unit, *_ in PER_LAYER}, bench)


# -- one run ---------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path,
        import_s: float = 0.0, sizes: Sizes = FULL) -> tuple[dict, dict, Bench]:
    """Run one workload; return the result, a record of the run, and the run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    work = root / "perfbench" / ".work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(workload, seed, seconds, work, sizes, trace_mode=trace)
    bench.write_configs()
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    try:
        if trace:
            metrics = _traced_run(bench, record)
        else:
            metrics = _measured_run(bench, import_s, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["samples"] = {k: [vars(x) for x in v] for k, v in bench.samples.items()}
    record["failures"] = bench.failures
    failed = len(bench.failed_ops)
    record["error_rate"] = failed / max(bench.attempted, 1)
    result = {"correct": not bench.failures, "attempted": bench.attempted,
              "failed": failed, "metrics": metrics}
    return result, record, bench


def _measured_run(bench: Bench, import_s: float, record: dict) -> dict:
    """Set up several times (the median counts), then run the pipeline."""
    times = []
    bench.recording = False
    for rep in range(bench.sizes.setup_repeats):
        before = bench.calibration
        began = time.perf_counter()
        bench.setup()
        seconds = time.perf_counter() - began
        bench.calibration = calibration_seconds()
        bench.raw.append(["setup", seconds, before, bench.calibration])
        times.append(_at_reference_speed(seconds, (before + bench.calibration) / 2))
        if rep + 1 < bench.sizes.setup_repeats:
            shutil.rmtree(bench.root)  # every repeat writes afresh
    bench.recording = True
    bench.pipeline()
    first = bench.raw[0][2]
    record["import_s"] = import_s
    record["raw"] = bench.raw
    return end_to_end(bench, _at_reference_speed(import_s, first) + statistics.median(times))


def _traced_run(bench: Bench, record: dict) -> dict:
    """Set up and run the pipeline once, every command untraced then traced."""
    bench.setup()
    bench.pipeline()
    untraced_s = sum(c.untraced_s for c in bench.commands)
    traced_s = sum(c.traced_s for c in bench.commands)
    record["untraced_s"] = untraced_s
    record["traced_s"] = traced_s
    record["spans"] = bench.tracer.records(f"{bench.workload}-{bench.seed}-{os.getpid()}")
    return per_layer(bench, bench.tracer, traced_s, untraced_s)
