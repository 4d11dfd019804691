"""Same-bytes check, `python scripts/same_bytes.py`: runs each command below in a fresh
process, pinned to one CPU with one BLAS thread and, at once, unpinned with two. It prints a
line per output (a sha256, or a manifest with `wall_time_s` masked) and exits 1 naming each
output that differs or that a run lacks. `PYTHONPATH=<tree>/src` picks the tree to check.

Covered: 20 px tiles for 16 px models, pairing skips, `full`, `scale_shift
--freeze-location`, an odd conv geometry, the default 32 px model (16x16 and 8x8 conv
outputs) trained and indexed on 32 px tiles, 8-tile sub-slices on one worker and two,
84 eval tiles, joins of 50,000 observations, a 10,000-row index read in 1,024-row slabs
on one worker and two, gradcheck 0-19."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import satalign

SOURCE = str(Path(satalign.__file__).parents[1])  # the tree every command imports
WORLD = {"n_species": 8, "n_habitats": 4, "n_observations": 128, "tile_size": 16}
MODEL = {"image": {"in_size": 16, "widths": [8, 12], "d_img": 32},
         "location": {"hidden": 16, "depth": 2, "d_loc": 16}, "embed_dim": 16}
TRAIN = {"epochs": 2, "batch_size": 16, "crop_size": 12, "model": MODEL}  # step 2: gamma != 1
ODD = {**MODEL, "image": {**MODEL["image"], "kernel": 4, "stride": 3, "padding": 1}}
CONFIGS = {"world": {**WORLD, "tiles_per_habitat": 7, "observation_jitter": 0.08, "tile_size": 20},
           "eval_world": {**WORLD, "tiles_per_habitat": 21},
           "dense_world": {**WORLD, "tiles_per_habitat": 20, "n_observations": 50000},
           "world32": {**WORLD, "tile_size": 32},
           "train": TRAIN, "train_odd": {**TRAIN, "batch_size": 20, "model": ODD},
           "train32": {"epochs": 2, "batch_size": 16}}  # the default model
PROGRAMS = {  # commands that are not satalign.cli subcommands
    "pairing": """from satalign import dataio, geodata
d = dataio.ingest_dataset("dense_world")
r = geodata.pair_samples(d.observations, d.tiles, d.texts, d.raster, matching_radius=0.05, seed=0)
for name in ("tile_a", "tile_b", "text_row", "covariates"):
    getattr(r.samples, name).tofile(f"pairing_{name}.bin")
print(sorted(r.skips.items()))""",
    "big_index": """import numpy as np
from satalign import evaluate, tape
np.cos(np.arange(64)).astype("<f4").tofile("query.bin")
rng = np.random.default_rng(11)
rows = tape.l2_normalize_rows(rng.normal(size=(10000, 16)))
evaluate.save_index(evaluate.RetrievalIndex(rng.permutation(30000)[:10000].tolist(), rows),
                    "big_idx")"""}
COMMANDS = """synth --out world --seed 9 --config ../world.json
synth --out eval_world --seed 9 --config ../eval_world.json
synth --out dense_world --seed 9 --config ../dense_world.json
synth --out world32 --seed 9 --config ../world32.json
pairing > pairing_skips.txt
big_index
train --data world --config ../train.json --out ckpt
train --data world --config ../train.json --out ckpt_ss --peft scale_shift --freeze-location
train --data world --config ../train_odd.json --out ckpt_odd
train --data world32 --config ../train32.json --out ckpt32
index --data eval_world --ckpt ckpt --out idx
index --data eval_world --ckpt ckpt_odd --out idx_odd
index --data world32 --ckpt ckpt32 --out idx32
probe --data eval_world --ckpt ckpt --task cls --out probe_cls.json
probe --data eval_world --ckpt ckpt --task multilabel --out probe_multilabel.json
probe --data eval_world --ckpt ckpt --task encounter --out probe_encounter.json
probe --data dense_world --ckpt ckpt --task encounter --out probe_encounter_dense.json
zeroshot --data eval_world --ckpt ckpt --out zeroshot.tsv
retrieve --index idx --query query.bin --ckpt ckpt > retrieve.tsv
retrieve --index big_idx --query query.bin --ckpt ckpt > retrieve_big.tsv
""" + "".join(f"gradcheck --seed {seed} > gradcheck_{seed}.txt\n" for seed in range(20))
# files each run must write beside the worlds' and the stdout files: each `--out`'s outputs,
# and a manifest named after its first (`ckpt.json.manifest.json`, `world.manifest.json`)
FIRST = """ckpt.json ckpt_ss.json ckpt_odd.json ckpt32.json idx.json idx_odd.json idx32.json
probe_cls.json probe_multilabel.json probe_encounter.json probe_encounter_dense.json
zeroshot.tsv""".split()
OUTPUTS = {*FIRST, "ckpt.bin", "ckpt_ss.bin", "ckpt_odd.bin", "ckpt32.bin", "idx.bin",
           "idx_odd.bin", "idx32.bin"} | {
    f"{name}.manifest.json" for name in ["world", "eval_world", "dense_world", "world32", *FIRST]}


def digests(root: Path) -> dict[str, str]:
    """A line per file under `root`, by its path: a masked manifest or a sha256."""
    lines = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        name = path.relative_to(root).as_posix()
        if name.endswith(".manifest.json"):
            manifest = dict(json.loads(path.read_bytes()), wall_time_s="masked")
            lines[name] = f"{name} {json.dumps(manifest, sort_keys=True)}"
        else:
            lines[name] = f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {name}"
    return lines


def run(root: Path, cpus: set[int], blas_threads: str) -> dict[str, str]:
    """The `digests` of COMMANDS run in a new directory `root` on `cpus`."""
    os.sched_setaffinity(0, cpus)  # this thread's CPUs, which its children inherit
    env = dict(os.environ, PYTHONPATH=SOURCE, OMP_NUM_THREADS=blas_threads,
               OPENBLAS_NUM_THREADS=blas_threads, MKL_NUM_THREADS=blas_threads)
    root.mkdir()
    for line in COMMANDS.splitlines():
        command, _, stdout = line.partition(" > ")
        program = PROGRAMS.get(command)
        args = ["-c", program] if program else ["-m", "satalign.cli", *command.split()]
        done = subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True)
        if done.returncode:
            sys.exit(f"{root.name}: {command} exited {done.returncode}\n{done.stderr.decode()}")
        if stdout:
            (root / stdout).write_bytes(done.stdout)
    return digests(root)


def main() -> int:
    cpus = os.sched_getaffinity(0)
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(2) as pool:
        for name, config in CONFIGS.items():
            Path(tmp, f"{name}.json").write_text(json.dumps(config))
        pinned, unpinned = pool.map(run, (Path(tmp, "pinned"), Path(tmp, "unpinned")),
                                    ({min(cpus)}, cpus), ("1", "2"))
    print("\n".join(pinned.values()))
    for name in sorted(pinned.keys() | unpinned.keys() | OUTPUTS):
        if name not in pinned:
            print(f"missing from the pinned run: {name}", file=sys.stderr)
        elif pinned[name] != unpinned.get(name):
            print(f"differs between the pinned and the unpinned run: {name}", file=sys.stderr)
    return int(pinned != unpinned or not OUTPUTS <= pinned.keys())


if __name__ == "__main__":
    sys.exit(main())
