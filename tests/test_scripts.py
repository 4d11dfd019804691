"""The experiment scripts run end to end at their smallest settings."""

import contextlib
import hashlib
import importlib.util
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from satalign.encoders import ImageEncoderConfig
from satalign.evaluate import INDEX_SLAB_ROWS
from satalign.tape import SUB_SLICE_TILES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def trailing_scores(line, count):
    scores = [float(v) for v in line.split()[-count:]]
    assert all(0.0 <= v <= 1.0 for v in scores), line
    return scores


@pytest.fixture(scope="module")
def ablation_run():
    """The merged experiment script at its smallest settings: its module and its output."""
    ablation = load_script("modality_ablation")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert ablation.main(["--seeds", "1", "--epochs", "1"]) == 0
    return ablation, out.getvalue().splitlines()


def score_row(lines, label):
    matches = [line for line in lines if line.startswith(label + "  ")]
    assert len(matches) == 1, f"no output row for {label!r}"
    return trailing_scores(matches[0], 3)


def test_modality_ablation_prints_every_ablation_row(ablation_run):
    ablation, lines = ablation_run
    for label, _, _ in ablation.ROWS:
        score_row(lines, label)


def test_modality_ablation_prints_the_former_benchmark_rows(ablation_run):
    # the random, trained and scale_shift runs, each with probe, retrieval@10 and zero-shot
    _, lines = ablation_run
    for label in ("random init (no training)", "all three terms",
                  "all three terms, scale_shift"):
        score_row(lines, label)
    assert lines[-1].startswith("means over seeds 0-0, in "), lines[-1]


def test_same_bytes_names_a_flipped_byte_and_passes_identical_trees(tmp_path, monkeypatch,
                                                                     capsys):
    same_bytes = load_script("same_bytes")
    trees = {"pinned": tmp_path / "a", "unpinned": tmp_path / "b"}
    for wall_time, tree in enumerate(trees.values()):
        (tree / "world").mkdir(parents=True)
        (tree / "world" / "pixels.bin").write_bytes(bytes(range(256)))
        manifest = {"command": "synth", "outputs": ["world"], "wall_time_s": wall_time}
        (tree / "world.manifest.json").write_text(json.dumps(manifest))
    # each run's digests are those of its small tree, in place of the commands' outputs
    monkeypatch.setattr(same_bytes, "run",
                        lambda root, cpus, threads: same_bytes.digests(trees[root.name]))
    monkeypatch.setattr(same_bytes, "OUTPUTS", {"world/pixels.bin", "world.manifest.json"})
    assert same_bytes.main() == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        f"{hashlib.sha256(bytes(range(256))).hexdigest()}  world/pixels.bin",
        'world.manifest.json {"command": "synth", "outputs": ["world"], "wall_time_s": "masked"}']

    flipped = bytearray(range(256))
    flipped[100] ^= 1
    (trees["unpinned"] / "world" / "pixels.bin").write_bytes(flipped)
    assert same_bytes.main() == 1
    assert capsys.readouterr().err == (
        "differs between the pinned and the unpinned run: world/pixels.bin\n")

    for tree in trees.values():  # a file both runs lack, which no comparison of the two shows
        (tree / "world" / "pixels.bin").unlink()
    assert same_bytes.main() == 1
    assert capsys.readouterr().err == "missing from the pinned run: world/pixels.bin\n"


def test_same_bytes_without_an_importable_satalign_names_the_pythonpath(tmp_path):
    # -I -S: no PYTHONPATH, no site-packages, and not the script's own directory
    done = subprocess.run([sys.executable, "-I", "-S", str(SCRIPTS / "same_bytes.py")],
                          cwd=tmp_path, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", "same_bytes: cannot import satalign; run with PYTHONPATH=<tree>/src\n")


def test_same_bytes_requires_a_manifest_for_every_out_of_its_commands():
    same_bytes = load_script("same_bytes")
    outs = re.findall(r"--out (\S+)", same_bytes.COMMANDS)
    assert len(outs) == 15
    for out in outs:  # a manifest is named after the command's first output
        names = {f"{out}.manifest.json", f"{out}.json.manifest.json"}
        assert len(names & same_bytes.OUTPUTS) == 1, out
    manifests = {name for name in same_bytes.OUTPUTS if name.endswith(".manifest.json")}
    assert len(manifests) == len(outs)
    # each checkpoint and index is a .json/.bin pair
    for out in ("ckpt", "ckpt_ss", "ckpt_odd", "ckpt32", "idx", "idx_odd", "idx32"):
        assert {f"{out}.json", f"{out}.bin"} <= same_bytes.OUTPUTS


def test_same_bytes_retrieves_from_an_index_of_at_least_three_slabs():
    """CI's unpinned run reads `big_idx` with the caller and the pool's worker
    each taking slabs, whatever INDEX_SLAB_ROWS becomes."""
    same_bytes = load_script("same_bytes")
    shape = re.search(r"size=\((\d+), (\d+)\)", same_bytes.PROGRAMS["big_index"]).groups()
    rows, d = map(int, shape)
    assert (rows, d) == (10000, 16) and rows >= 3 * INDEX_SLAB_ROWS
    assert "retrieve --index big_idx" in same_bytes.COMMANDS


def test_same_bytes_trains_the_default_model_in_two_sub_slices_a_batch():
    """The default 32 px geometry (16x16 and 8x8 conv outputs) is trained with
    each batch's conv stage split into sub-slices, so the unpinned run shares
    it between both workers."""
    same_bytes = load_script("same_bytes")
    train = same_bytes.CONFIGS["train32"]
    assert "model" not in train and same_bytes.CONFIGS["world32"]["tile_size"] == 32
    assert ImageEncoderConfig().in_size == 32
    assert -(-train["batch_size"] // SUB_SLICE_TILES) >= 2
    assert "train --data world32 --config ../train32.json --out ckpt32" in same_bytes.COMMANDS
    assert "index --data world32 --ckpt ckpt32 --out idx32" in same_bytes.COMMANDS
