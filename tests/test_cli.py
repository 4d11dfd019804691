import dataclasses
import json
import math
import os
import pathlib
import re
import shutil
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import satalign.cli as cli
from satalign.cli import dispatch, hash_path
from satalign.dataio import ingest_dataset, pair_paths, save_dataset
from satalign.evaluate import INDEX_SLAB_ROWS, RetrievalIndex, save_index
from satalign.geodata import MAX_RADIUS
from satalign.synthworld import SyntheticWorldConfig
from satalign.tape import Tape, l2_normalize_rows
from satalign.training import (TrainConfig, config_to_dict, load_checkpoint, model_from_checkpoint,
                               save_checkpoint)

SYNTH_CFG = {"n_species": 6, "n_habitats": 3, "raster_rows": 12, "raster_cols": 12,
             "tiles_per_habitat": 6, "n_observations": 80, "d_txt": 12,
             "tile_size": 12, "sections_per_species": 2}

TRAIN_CFG = {"epochs": 2, "batch_size": 16, "lr": 1e-3, "seed": 0, "crop_size": 10,
             "jitter": 0.02, "channel_mix": 0.05,
             "model": {"image": {"in_size": 12, "widths": [6, 8], "d_img": 16},
                       "location": {"hidden": 12, "depth": 2, "d_loc": 8},
                       "d_txt": 12, "embed_dim": 12}}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    synth_cfg = root / "synth.json"
    synth_cfg.write_text(json.dumps(SYNTH_CFG))
    train_cfg = root / "train.json"
    train_cfg.write_text(json.dumps(TRAIN_CFG))
    assert dispatch(["synth", "--out", str(root / "world"), "--seed", "3",
                     "--config", str(synth_cfg)]) == 0
    assert dispatch(["train", "--data", str(root / "world"),
                     "--out", str(root / "run" / "ckpt.json"),
                     "--config", str(train_cfg)]) == 0
    return root


def test_unknown_flag_exits_1(capsys):
    assert dispatch(["synth", "--nope"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_1():
    assert dispatch(["frobnicate"]) == 1


def test_missing_data_dir_exits_1(tmp_path, capsys):
    code = dispatch(["train", "--data", str(tmp_path / "absent"),
                     "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_synth_writes_dataset_and_manifest(workspace):
    world = workspace / "world"
    for name in ("observations.csv", "raster.json", "raster.bin", "ground_truth.json"):
        assert (world / name).exists()
    manifest = json.loads((workspace / "world.manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 3
    assert str(world) in manifest["outputs"]
    assert "wall_time_s" in manifest


def test_synth_determinism_byte_identical(workspace, tmp_path):
    synth_cfg = workspace / "synth.json"
    for out in ("w1", "w2"):
        assert dispatch(["synth", "--out", str(tmp_path / out), "--seed", "11",
                         "--config", str(synth_cfg)]) == 0
    assert hash_path(tmp_path / "w1") == hash_path(tmp_path / "w2")


def test_train_writes_checkpoint_and_manifest(workspace, capsys):
    assert (workspace / "run" / "ckpt.json").exists()
    assert (workspace / "run" / "ckpt.bin").exists()
    manifest = json.loads((workspace / "run" / "ckpt.json.manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["config"]["epochs"] == 2
    assert len(manifest["inputs"]) == 2  # data dir + config file


def test_gradcheck_prints_pass(capsys):
    assert dispatch(["gradcheck", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    lines = dict(line.split("\t") for line in out.strip().splitlines())
    assert float(lines["max_rel_err"]) < 1e-4
    assert lines["status"] == "PASS"


def test_probe_outputs_metrics(workspace, capsys, tmp_path):
    out = tmp_path / "metrics.json"
    code = dispatch(["probe", "--data", str(workspace / "world"),
                     "--ckpt", str(workspace / "run" / "ckpt.json"),
                     "--task", "cls", "--seed", "0", "--out", str(out)])
    assert code == 0
    metrics = json.loads(out.read_text())
    assert metrics["task"] == "cls"
    assert 0.0 <= metrics["test_accuracy"] <= 1.0
    mat = np.array(metrics["confusion_matrix"])
    assert mat.shape == (3, 3)
    printed = json.loads(capsys.readouterr().out)
    assert printed == metrics


def test_probe_encounter_task(workspace, capsys):
    code = dispatch(["probe", "--data", str(workspace / "world"),
                     "--ckpt", str(workspace / "run" / "ckpt.json"),
                     "--task", "encounter", "--probe-epochs", "30"])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)
    assert 0.0 <= metrics["top_k_accuracy"] <= 1.0


def test_train_and_probe_take_the_widest_matching_radius_and_refuse_a_wider_one(
        workspace, capsys, tmp_path):
    # at MAX_RADIUS every observation is in reach of every tile center
    config, ckpt = tmp_path / "train.json", tmp_path / "ckpt.json"
    config.write_text(json.dumps(dict(TRAIN_CFG, epochs=1, matching_radius=MAX_RADIUS)))
    assert dispatch(["train", "--data", str(workspace / "world"), "--out", str(ckpt),
                     "--config", str(config)]) == 0
    probe = ["probe", "--data", str(workspace / "world"), "--ckpt", str(ckpt),
             "--task", "encounter", "--probe-epochs", "2"]
    assert dispatch(probe) == 0
    capsys.readouterr()

    wider = math.nextafter(MAX_RADIUS, math.inf)
    says = f"matching_radius must be at most {MAX_RADIUS!r}, got {wider!r}"
    config.write_text(json.dumps(dict(TRAIN_CFG, epochs=1, matching_radius=wider)))
    assert dispatch(["train", "--data", str(workspace / "world"),
                     "--out", str(tmp_path / "wider.json"), "--config", str(config)]) == 1
    assert f"error: {config}: invalid config ({says})" in capsys.readouterr().err
    header = json.loads(ckpt.read_text())
    header["config"]["matching_radius"] = wider
    ckpt.write_text(json.dumps(header))
    assert dispatch(probe) == 1
    assert f"error: {ckpt}: malformed config ({says})" in capsys.readouterr().err


@pytest.mark.parametrize("epochs", ["-3", "0"])
def test_probe_epochs_below_1_exit_1(workspace, capsys, epochs):
    code = dispatch(["probe", "--data", str(workspace / "world"),
                     "--ckpt", str(workspace / "run" / "ckpt.json"),
                     "--task", "encounter", "--probe-epochs", epochs])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: probe epochs must be >= 1, got {epochs}\n"


@pytest.fixture(scope="module")
def few_tile_worlds(tmp_path_factory):
    """Worlds of 4 habitats with 2 tiles each and with 1, and a checkpoint
    that takes their 16 px tiles."""
    root = tmp_path_factory.mktemp("few_tiles")
    world = {"n_habitats": 4, "n_species": 8, "n_observations": 64, "raster_rows": 8,
             "raster_cols": 8, "tile_size": 16, "d_txt": 16}
    for tiles in (2, 1):
        (root / f"synth{tiles}.json").write_text(json.dumps(dict(world, tiles_per_habitat=tiles)))
        assert dispatch(["synth", "--out", str(root / f"world{tiles}"),
                         "--config", str(root / f"synth{tiles}.json")]) == 0
    model = dict(TRAIN_CFG["model"], image={"in_size": 16, "widths": [4, 6], "d_img": 8},
                 d_txt=16)
    (root / "train.json").write_text(json.dumps(dict(TRAIN_CFG, epochs=1, batch_size=4,
                                                     crop_size=12, model=model)))
    assert dispatch(["train", "--data", str(root / "world2"), "--out", str(root / "ckpt"),
                     "--config", str(root / "train.json")]) == 0
    return root


@pytest.mark.parametrize("seed", ["2", "20"])
def test_probe_cls_trains_on_every_habitat_of_a_two_tile_world(few_tile_worlds, capsys, seed):
    # an unstratified split left a habitat out of training at these seeds
    assert dispatch(["probe", "--data", str(few_tile_worlds / "world2"),
                     "--ckpt", str(few_tile_worlds / "ckpt"), "--task", "cls",
                     "--seed", seed, "--probe-epochs", "5"]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert np.array(metrics["confusion_matrix"]).sum(axis=1).tolist() == [1, 1, 1, 1]


@pytest.mark.parametrize("task", ["cls", "multilabel"])
def test_probe_of_one_tile_per_habitat_exits_1(few_tile_worlds, capsys, task):
    assert dispatch(["probe", "--data", str(few_tile_worlds / "world1"),
                     "--ckpt", str(few_tile_worlds / "ckpt"), "--task", task]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: not enough tiles to hold out a test split\n")


def test_each_probe_task_fits_through_the_cli_name_once(workspace, monkeypatch):
    # perfbench times the probe fit by wrapping `satalign.cli.fit_linear_probe`
    kinds = []
    original = cli.fit_linear_probe

    def recording(model, features, labels, kind, *args):
        kinds.append(kind)
        return original(model, features, labels, kind, *args)

    monkeypatch.setattr(cli, "fit_linear_probe", recording)
    for task, kind in (("cls", "single_label"), ("multilabel", "multi_label"),
                       ("encounter", "encounter_rate")):
        kinds.clear()
        assert dispatch(["probe", "--data", str(workspace / "world"),
                         "--ckpt", str(workspace / "run" / "ckpt.json"), "--task", task,
                         "--probe-epochs", "2"]) == 0
        assert kinds == [kind], task


def test_repeated_tile_id_in_the_manifest_exits_1_naming_the_record(workspace, tmp_path,
                                                                     capsys):
    world = tmp_path / "world"
    shutil.copytree(workspace / "world", world)
    manifest_path = world / "tiles" / "manifest.json"
    records = json.loads(manifest_path.read_text())
    records[1]["tile_id"] = records[0]["tile_id"]
    manifest_path.write_text(json.dumps(records))
    ckpt = str(workspace / "run" / "ckpt.json")
    for argv in (["train", "--out", str(tmp_path / "ckpt.json"),
                  "--config", str(workspace / "train.json")],
                 ["index", "--ckpt", ckpt, "--out", str(tmp_path / "idx")],
                 ["zeroshot", "--ckpt", ckpt]):
        assert dispatch(argv + ["--data", str(world)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {manifest_path} record 1: repeats tile id "
                                f"{records[0]['tile_id']}\n")
    assert not (tmp_path / "ckpt.json").exists() and not (tmp_path / "idx.json").exists()


def test_index_retrieve_tsv_format(workspace, capsys, tmp_path):
    idx = tmp_path / "idx"
    assert dispatch(["index", "--data", str(workspace / "world"),
                     "--ckpt", str(workspace / "run" / "ckpt.json"),
                     "--out", str(idx)]) == 0
    capsys.readouterr()
    truth = json.loads((workspace / "world" / "ground_truth.json").read_text())
    query = tmp_path / "q.bin"
    np.asarray(truth["text_prototypes"][0], dtype="<f4").tofile(query)
    assert dispatch(["retrieve", "--index", str(idx), "--query", str(query),
                     "--k", "3", "--ckpt", str(workspace / "run" / "ckpt.json")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    cosines = []
    for line in lines:
        tile_id, cosine = line.split("\t")
        int(tile_id)
        cosines.append(float(cosine))
    assert cosines == sorted(cosines, reverse=True)


def test_retrieve_k_clamped(workspace, capsys, tmp_path):
    idx = tmp_path / "idx"
    dispatch(["index", "--data", str(workspace / "world"),
              "--ckpt", str(workspace / "run" / "ckpt.json"), "--out", str(idx)])
    capsys.readouterr()
    query = tmp_path / "q.csv"
    query.write_text(",".join(["0.5"] * 12))
    assert dispatch(["retrieve", "--index", str(idx), "--query", str(query),
                     "--k", "999", "--ckpt", str(workspace / "run" / "ckpt.json")]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 18  # all tiles


def test_retrieve_long_inline_query_matches_bin_file(workspace, capsys, tmp_path):
    idx = tmp_path / "idx"
    ckpt = str(workspace / "run" / "ckpt.json")
    assert dispatch(["index", "--data", str(workspace / "world"), "--ckpt", ckpt,
                     "--out", str(idx)]) == 0
    vec = np.random.default_rng(0).normal(size=TRAIN_CFG["model"]["d_txt"]).astype("<f4")
    query = tmp_path / "q.bin"
    vec.tofile(query)
    # Exact decimal expansions: longer than any file name, same float64 values.
    inline = ",".join(f"{float(v):.60f}" for v in vec)
    assert len(inline) > 255
    capsys.readouterr()
    assert dispatch(["retrieve", "--index", str(idx), "--query", str(query),
                     "--k", "5", "--ckpt", ckpt]) == 0
    from_file = capsys.readouterr().out
    assert dispatch(["retrieve", "--index", str(idx), "--query", inline,
                     "--k", "5", "--ckpt", ckpt]) == 0
    assert capsys.readouterr().out == from_file
    assert len(from_file.strip().splitlines()) == 5


def test_retrieve_nan_query_exits_1(workspace, capsys, tmp_path):
    idx = tmp_path / "idx"
    ckpt = str(workspace / "run" / "ckpt.json")
    assert dispatch(["index", "--data", str(workspace / "world"), "--ckpt", ckpt,
                     "--out", str(idx)]) == 0
    capsys.readouterr()
    query = ",".join(["nan"] * TRAIN_CFG["model"]["d_txt"])
    assert dispatch(["retrieve", "--index", str(idx), "--query", query,
                     "--ckpt", ckpt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-finite norm" in captured.err


@pytest.mark.parametrize("source", ["zero.bin", "inline"])
def test_retrieve_zero_query_exits_1_naming_the_query(workspace, capsys, tmp_path, source):
    idx = tmp_path / "idx"
    assert dispatch(["index", "--data", str(workspace / "world"),
                     "--ckpt", str(workspace / "run" / "ckpt.json"), "--out", str(idx)]) == 0
    capsys.readouterr()
    query = ",".join(["0"] * TRAIN_CFG["model"]["embed_dim"])
    where = "inline query"
    if source == "zero.bin":
        where = tmp_path / "zero.bin"
        np.zeros(TRAIN_CFG["model"]["embed_dim"], dtype="<f4").tofile(where)
        query = str(where)
    assert dispatch(["retrieve", "--index", str(idx), "--query", query]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {where}: query has a degenerate norm" in captured.err


@pytest.mark.parametrize("name, blob", [
    ("short.bin", np.zeros(12, dtype="<f4").tobytes()[:10]),
    ("nan.bin", np.r_[np.ones(5), np.nan, np.ones(6)].astype("<f4").tobytes()),
    ("nan.csv", ",".join(["0.5"] * 5 + ["nan"] + ["0.5"] * 6).encode()),
    ("words.csv", b"0.5,zero"),
])
def test_malformed_query_file_exits_1_naming_the_file(workspace, capsys, tmp_path, name, blob):
    idx = tmp_path / "idx"
    ckpt = str(workspace / "run" / "ckpt.json")
    assert dispatch(["index", "--data", str(workspace / "world"), "--ckpt", ckpt,
                     "--out", str(idx)]) == 0
    capsys.readouterr()
    query = tmp_path / name
    query.write_bytes(blob)
    assert dispatch(["retrieve", "--index", str(idx), "--query", str(query),
                     "--ckpt", ckpt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {query}: " in captured.err
    expect = {"short.bin": "10 bytes is not a multiple of 4", "nan.bin": "value 5 is not finite",
              "nan.csv": "value 5 is not finite", "words.csv": "unparseable CSV query"}
    assert expect[name] in captured.err


def test_retrieve_on_a_multi_slab_index_prints_a_whole_matrix_ranking(workspace, capsys,
                                                                      tmp_path):
    # reference built without slabs: widen the whole blob, normalize it once,
    # one product per query, then one full sort of every row
    n, d = 2 * INDEX_SLAB_ROWS + 123, TRAIN_CFG["model"]["embed_dim"]
    rng = np.random.default_rng(4)
    ids = rng.permutation(3 * n)[:n].tolist()
    save_index(RetrievalIndex(tile_ids=ids, matrix=l2_normalize_rows(rng.normal(size=(n, d)))),
               tmp_path / "idx")
    stored = np.frombuffer((tmp_path / "idx.bin").read_bytes(), dtype="<f4")
    matrix = l2_normalize_rows(stored.astype(np.float64).reshape(n, d))
    ckpt = str(workspace / "run" / "ckpt.json")
    model = model_from_checkpoint(load_checkpoint(ckpt))

    def expected(q, k):
        cosines = matrix @ q
        order = np.lexsort((ids, -cosines))[:k]
        return "".join(f"{ids[i]}\t{float(cosines[i])!r}\n" for i in order)

    for i in range(5):
        inline = rng.normal(size=d)  # shared space, no checkpoint
        argv = ["retrieve", "--index", str(tmp_path / "idx"), "--k", "7",
                "--query=" + ",".join(repr(float(v)) for v in inline)]
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == expected(l2_normalize_rows(inline[None])[0], 7)
        raw = rng.normal(size=TRAIN_CFG["model"]["d_txt"]).astype("<f4")
        query = tmp_path / f"raw{i}.bin"
        raw.tofile(query)
        assert dispatch(["retrieve", "--index", str(tmp_path / "idx"), "--query", str(query),
                         "--k", "10", "--ckpt", ckpt]) == 0
        want = expected(model.project_text_rows(raw.astype(np.float64)[None])[0], 10)
        assert capsys.readouterr().out == want


def test_retrieve_reports_a_bad_query_before_a_bad_index_row(capsys, tmp_path):
    # the header and blob length are checked before the query, the rows after
    n, d = INDEX_SLAB_ROWS + 10, TRAIN_CFG["model"]["embed_dim"]
    rows = l2_normalize_rows(np.random.default_rng(8).normal(size=(n, d)))
    save_index(RetrievalIndex(tile_ids=list(range(n)), matrix=rows), tmp_path / "idx")
    blob = np.fromfile(tmp_path / "idx.bin", dtype="<f4")
    row = INDEX_SLAB_ROWS + 3
    blob[row * d] = np.nan
    blob.tofile(tmp_path / "idx.bin")
    argv = ["retrieve", "--index", str(tmp_path / "idx")]
    assert dispatch(argv + ["--query=" + ",".join(["0"] * d)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: inline query: query has a degenerate norm\n"
    assert dispatch(argv + ["--query=" + ",".join(["0.5"] * d)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / 'idx.bin'}: row {row} has a non-finite norm\n"


def test_train_rejects_a_raster_of_another_channel_count(tmp_path, capsys):
    world = tmp_path / "world"
    assert dispatch(["synth", "--out", str(world)]) == 0  # the default world
    header = json.loads((world / "raster.json").read_text())
    values = np.fromfile(world / "raster.bin", dtype="<f4").reshape(
        header["rows"], header["cols"], header["channels"])
    np.ascontiguousarray(values[..., :3]).tofile(world / "raster.bin")
    header.update(channels=3, channel_min=header["channel_min"][:3],
                  channel_max=header["channel_max"][:3])
    (world / "raster.json").write_text(json.dumps(header))
    capsys.readouterr()
    assert dispatch(["train", "--data", str(world), "--out", str(tmp_path / "ckpt")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {world / 'raster.json'}: 3 covariate channels, "
                            f"the location encoder takes 20\n")
    assert not (tmp_path / "ckpt.json").exists()


def test_zeroshot_classes_of_the_wrong_length_exit_1_naming_the_file(workspace, capsys,
                                                                     tmp_path):
    classes = tmp_path / "classes.bin"
    np.ones(10, dtype="<f4").tofile(classes)
    assert dispatch(["zeroshot", "--data", str(workspace / "world"),
                     "--ckpt", str(workspace / "run" / "ckpt.json"),
                     "--classes", str(classes)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (f"error: {classes}: 10 values do not form class rows of length d_txt = 12"
            in captured.err)


def test_zeroshot_names_the_source_of_a_degenerate_class_row(workspace, capsys, tmp_path):
    ckpt = str(workspace / "run" / "ckpt.json")
    classes = tmp_path / "classes.bin"
    rows = np.ones((3, 12), dtype="<f4")
    rows[1] = 0.0
    rows.tofile(classes)
    assert dispatch(["zeroshot", "--data", str(workspace / "world"), "--ckpt", ckpt,
                     "--classes", str(classes)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {classes}: class row 1 has a degenerate norm\n"

    # without --classes the rows are ground_truth.json's text prototypes
    world = tmp_path / "world"
    shutil.copytree(workspace / "world", world)
    truth = json.loads((world / "ground_truth.json").read_text())
    truth["text_prototypes"][2] = [0.0] * 12
    (world / "ground_truth.json").write_text(json.dumps(truth))
    assert dispatch(["zeroshot", "--data", str(world), "--ckpt", ckpt]) == 1
    assert capsys.readouterr().err == (f"error: {world / 'ground_truth.json'}: key "
                                       f"'text_prototypes': class row 2 has a degenerate norm\n")


def test_zeroshot_does_not_blame_the_classes_for_a_tile_row(workspace, capsys, tmp_path):
    # a text head of zeros gives every tile a zero embedding; the class rows are sound
    ckpt = load_checkpoint(workspace / "run" / "ckpt.json")
    ckpt.params["heads.image_to_text.weight"][:] = 0.0
    save_checkpoint(ckpt, tmp_path / "ckpt.json")
    classes = tmp_path / "classes.bin"
    np.ones((3, 12), dtype="<f4").tofile(classes)
    assert dispatch(["zeroshot", "--data", str(workspace / "world"),
                     "--ckpt", str(tmp_path / "ckpt.json"), "--classes", str(classes)]) == 1
    assert capsys.readouterr().err == "error: degenerate embedding row 0\n"


@pytest.mark.parametrize("tolerance", ["nan", "0", "-1", "inf"])
def test_gradcheck_tolerance_must_be_finite_and_positive(capsys, tolerance):
    assert dispatch(["gradcheck", "--tolerance", tolerance]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --tolerance: must be finite and > 0, got '{tolerance}'" in captured.err


@pytest.mark.parametrize("command", ["synth", "train", "gradcheck", "probe"])
def test_negative_seed_exits_1_naming_the_flag(workspace, tmp_path, capsys, command):
    world, ckpt = str(workspace / "world"), str(workspace / "run" / "ckpt.json")
    argv = {"synth": ["synth", "--out", str(tmp_path / "world")],
            "train": ["train", "--data", world, "--out", str(tmp_path / "ckpt")],
            "gradcheck": ["gradcheck", "--out", str(tmp_path / "report.json")],
            "probe": ["probe", "--data", world, "--ckpt", ckpt,
                      "--out", str(tmp_path / "metrics.json")]}[command]
    assert dispatch(argv + ["--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{command}: error: argument --seed: must be >= 0, got '-1'" in captured.err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags, config, field", [
    (["--lr", "nan"], None, "lr"),
    (["--lr", "inf"], None, "lr"),
    ([], '{"jitter": NaN}', "jitter"),
    ([], '{"location_weight": -Infinity}', "location_weight"),
    (["--lr", "nan"], '{"jitter": 0.01}', "lr"),
])
def test_train_non_finite_hyperparameter_exits_1_before_reading_data(tmp_path, capsys, flags,
                                                                     config, field):
    # the data directory does not exist: the config is rejected before it is read
    argv = ["train", "--data", str(tmp_path / "no_world"), "--out", str(tmp_path / "ckpt")]
    config_path = tmp_path / "train.json"
    if config is not None:
        config_path.write_text(config)
        argv += ["--config", str(config_path)]
    assert dispatch(argv + flags) == 1
    err = capsys.readouterr().err
    # a bad value from the file names the file; a bad flag is not blamed on it
    if flags:
        assert f"error: {field} must be finite, got" in err
        assert str(config_path) not in err
    else:
        assert f"error: {config_path}: invalid config ({field} must be finite, got" in err
    assert "no_world" not in err
    assert not (tmp_path / "ckpt.json").exists()


def test_failed_gradcheck_names_worst_coordinate(monkeypatch, capsys):
    def relu_at_kink(seed):
        # x[1] sits exactly on the relu kink: analytic slope 0, numeric 0.5.
        tape = Tape()
        x = tape.leaf("x", np.array([0.5, 0.0, -0.7]), trainable=True)
        tape.mark_output("loss", tape.sum(tape.relu(x)))
        return tape

    monkeypatch.setattr(cli, "_gradcheck_setup", relu_at_kink)
    assert dispatch(["gradcheck", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == "status\tFAIL"
    assert ("gradcheck worst coordinate: x[1] rel_err=1.000e+00; "
            "its +-step crosses a relu kink") in captured.err


def test_non_finite_finite_difference_fails_the_gradcheck(monkeypatch, capsys):
    def overflow_on_plus_step(seed):
        # x[0] * c[0] overflows on the +step, so x[0]'s relative error is nan
        tape = Tape()
        x = tape.leaf("x", np.array([[1.0, 0.5]]), trainable=True)
        c = tape.const(np.array([[np.finfo(float).max / 1.000001, 1.0]]))
        tape.mark_output("loss", tape.sum(tape.logsumexp(tape.mul(x, c), axis=1)))
        return tape

    monkeypatch.setattr(cli, "_gradcheck_setup", overflow_on_plus_step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would raise here
        assert dispatch(["gradcheck", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["max_rel_err\tnan", "checked\t2", "status\tFAIL"]
    # stderr holds the diagnostic line and then the run manifest, with no
    # numpy warning ahead of or between them
    diagnostic, manifest = captured.err.split("\n", 1)
    assert diagnostic == ("gradcheck worst coordinate: x[0] rel_err=nan; "
                          "its +-step does not cross a relu kink")
    assert json.loads(manifest)["command"] == "gradcheck"


def test_zeroshot_prints_predictions_and_accuracy(workspace, capsys):
    assert dispatch(["zeroshot", "--data", str(workspace / "world"),
                     "--ckpt", str(workspace / "run" / "ckpt.json")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-1].startswith("accuracy\t")
    assert len(lines) == 19  # 18 tiles + accuracy line
    for line in lines[:-1]:
        tile_id, pred = line.split("\t")
        assert 0 <= int(pred) < 3


def test_eval_metrics_cls(tmp_path, capsys):
    (tmp_path / "p.json").write_text("[0, 1, 2, 1]")
    (tmp_path / "l.json").write_text("[0, 1, 1, 1]")
    assert dispatch(["eval-metrics", "--task", "cls",
                     "--preds", str(tmp_path / "p.json"),
                     "--labels", str(tmp_path / "l.json")]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["accuracy"] == 0.75


def test_eval_metrics_multilabel_and_encounter(tmp_path, capsys):
    (tmp_path / "p.json").write_text("[[1, 2], [0]]")
    (tmp_path / "l.json").write_text("[[1, 2], [3]]")
    assert dispatch(["eval-metrics", "--task", "multilabel",
                     "--preds", str(tmp_path / "p.json"),
                     "--labels", str(tmp_path / "l.json")]) == 0
    assert json.loads(capsys.readouterr().out)["micro_f1"] == pytest.approx(4 / 6)
    (tmp_path / "rates.json").write_text("[[0.9, 0.1, 0.2], [0.1, 0.8, 0.9]]")
    (tmp_path / "obs.json").write_text("[[0], [1, 2]]")
    assert dispatch(["eval-metrics", "--task", "encounter",
                     "--preds", str(tmp_path / "rates.json"),
                     "--labels", str(tmp_path / "obs.json")]) == 0
    assert json.loads(capsys.readouterr().out)["top_k_accuracy"] == 1.0


def test_failed_synth_leaves_no_partial_output(tmp_path):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps(dict(SYNTH_CFG, n_habitats=50)))
    code = dispatch(["synth", "--out", str(tmp_path / "broken"), "--seed", "0",
                     "--config", str(bad_cfg)])
    assert code == 1
    assert not (tmp_path / "broken").exists()
    assert not list(tmp_path.glob(".broken.tmp-*"))


def test_rerun_train_reproduces_checkpoint_bytes(workspace, tmp_path):
    args = ["train", "--data", str(workspace / "world"),
            "--config", str(workspace / "train.json")]
    assert dispatch(args + ["--out", str(tmp_path / "a" / "ckpt.json")]) == 0
    assert dispatch(args + ["--out", str(tmp_path / "b" / "ckpt.json")]) == 0
    for name in ("ckpt.json", "ckpt.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_dotted_out_names_keep_their_dots(workspace, tmp_path, capsys):
    train = ["train", "--data", str(workspace / "world"),
             "--config", str(workspace / "train.json"), "--epochs", "1"]
    runs = tmp_path / "runs"
    assert dispatch(train + ["--seed", "1", "--out", str(runs / "exp.1")]) == 0
    assert dispatch(train + ["--seed", "2", "--out", str(runs / "exp.2")]) == 0
    assert sorted(p.name for p in runs.iterdir()) == [
        "exp.1.bin", "exp.1.json", "exp.1.json.manifest.json",
        "exp.2.bin", "exp.2.json", "exp.2.json.manifest.json"]
    assert (runs / "exp.1.bin").read_bytes() != (runs / "exp.2.bin").read_bytes()
    assert dispatch(["index", "--data", str(workspace / "world"), "--ckpt", str(runs / "exp.1"),
                     "--out", str(tmp_path / "idx" / "a.v1")]) == 0
    assert sorted(p.name for p in (tmp_path / "idx").iterdir()) == [
        "a.v1.bin", "a.v1.json", "a.v1.json.manifest.json"]
    printed = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [p.get("ckpt", p.get("index")) for p in printed] == [
        str(runs / "exp.1.json"), str(runs / "exp.2.json"), str(tmp_path / "idx" / "a.v1.json")]


def test_prefix_ckpt_manifests_name_the_header(workspace, tmp_path, capsys):
    world = str(workspace / "world")
    prefix = workspace / "run" / "ckpt"
    header = str(prefix) + ".json"
    idx = tmp_path / "idx"
    assert dispatch(["index", "--data", world, "--ckpt", str(prefix), "--out", str(idx)]) == 0
    manifest = json.loads((tmp_path / "idx.json.manifest.json").read_text())
    assert manifest["inputs"] == {world: hash_path(world), header: hash_path(header)}
    query = ",".join(["0.5"] * TRAIN_CFG["model"]["d_txt"])
    for argv in (["probe", "--data", world, "--probe-epochs", "5"],
                 ["zeroshot", "--data", world],
                 ["retrieve", "--index", str(idx), "--query", query]):
        capsys.readouterr()
        assert dispatch(argv + ["--ckpt", str(prefix)]) == 0
        stderr = capsys.readouterr().err
        inputs = json.loads(stderr[stderr.index("{"):])["inputs"]
        assert inputs[header] == hash_path(header)


def test_eval_rejects_tiles_of_another_size(workspace, tmp_path, capsys):
    config = tmp_path / "synth16.json"
    config.write_text(json.dumps(dict(SYNTH_CFG, tile_size=16)))
    world = str(tmp_path / "world16")
    assert dispatch(["synth", "--out", world, "--seed", "3", "--config", str(config)]) == 0
    ckpt = str(workspace / "run" / "ckpt.json")  # trained on 12-px tiles
    for argv in (["index", "--out", str(tmp_path / "idx")], ["probe"], ["zeroshot"]):
        capsys.readouterr()
        assert dispatch(argv + ["--data", world, "--ckpt", ckpt]) == 1
        captured = capsys.readouterr()
        assert "expected pixels of shape (n, 3, 12, 12), got (18, 3, 16, 16)" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "idx.json").exists()


def _train_argv(world, tmp_path):
    config = tmp_path / "train.json"
    config.write_text(json.dumps(TRAIN_CFG))
    return ["train", "--data", str(world), "--out", str(tmp_path / "ckpt"), "--config",
            str(config), "--epochs", "1"]


@pytest.mark.parametrize("field, value, shape", [("tile_channels", 4, (4, 12, 12)),
                                                 ("tile_size", 8, (3, 8, 8))])
def test_train_rejects_tiles_the_model_cannot_take_before_pairing(tmp_path, capsys, field,
                                                                  value, shape):
    # these once failed after pairing, in conv_block or in the crop, naming no file
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(dict(SYNTH_CFG, **{field: value})))
    world = tmp_path / "world"
    assert dispatch(["synth", "--out", str(world), "--config", str(config)]) == 0
    capsys.readouterr()
    assert dispatch(_train_argv(world, tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {world / 'tiles' / 'manifest.json'} record 0: expected "
                            f"3 channels of at least 10x10 pixels (model.image.in_channels, "
                            f"crop_size), got pixels of shape {shape}\n")
    assert captured.out == ""
    assert not (tmp_path / "ckpt.json").exists()


def test_train_takes_mixed_tile_sizes_and_names_the_first_tile_it_cannot(workspace, tmp_path,
                                                                          capsys):
    dataset = ingest_dataset(workspace / "world")
    tiles = dataset.tiles

    def reshape(i, pixels):
        tiles[i] = dataclasses.replace(tiles[i], pixels=pixels)

    for i in range(0, len(tiles), 3):  # every third tile 16 px, the rest 12 px
        reshape(i, np.pad(tiles[i].pixels, ((0, 0), (2, 2), (2, 2))))
    save_dataset(tmp_path / "mixed", dataset)
    assert dispatch(_train_argv(tmp_path / "mixed", tmp_path)) == 0
    reshape(4, tiles[4].pixels[:, :9])  # 9 px high, below the 10 px crop
    reshape(7, tiles[7].pixels[:2])  # 2 channels
    save_dataset(tmp_path / "bad", dataset)
    capsys.readouterr()
    assert dispatch(_train_argv(tmp_path / "bad", tmp_path)) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {tmp_path / 'bad' / 'tiles' / 'manifest.json'} record 4: expected 3 channels")


@pytest.mark.parametrize("command", ["probe", "zeroshot", "gradcheck"])
def test_file_output_never_replaces_existing_directory(workspace, tmp_path, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("keep")
    world, ckpt = str(workspace / "world"), str(workspace / "run" / "ckpt.json")
    argv = {"probe": ["probe", "--data", world, "--ckpt", ckpt, "--probe-epochs", "5"],
            "zeroshot": ["zeroshot", "--data", world, "--ckpt", ckpt],
            "gradcheck": ["gradcheck", "--seed", "0"]}[command]
    assert dispatch(argv + ["--out", str(out)]) != 0
    capsys.readouterr()
    assert [p.name for p in out.iterdir()] == ["keep.txt"]
    assert (out / "keep.txt").read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def _write_partial_then_fail(path, directory=False):
    """Stand-in for a save function: leaves a partial file, then fails."""
    path = pathlib.Path(path)
    if directory:
        path.mkdir()
        path = path / "observations.csv"
    path.write_text("partial")
    raise ValueError("simulated failure while saving")


@pytest.mark.parametrize("command", ["synth", "train", "index", "probe"])
def test_failed_save_leaves_outputs_untouched(workspace, tmp_path, monkeypatch, capsys,
                                              command):
    out = tmp_path / "out"
    out.mkdir()
    world, ckpt = str(workspace / "world"), str(workspace / "run" / "ckpt.json")
    if command == "synth":
        (out / "world").mkdir()
        (out / "world" / "old.txt").write_text("old")
        argv = ["synth", "--out", str(out / "world"), "--config", str(workspace / "synth.json")]
        monkeypatch.setattr(cli, "save_dataset", lambda path, _: _write_partial_then_fail(path, directory=True))
    elif command == "train":
        for name in ("ckpt.json", "ckpt.bin"):
            (out / name).write_text("old")
        argv = ["train", "--data", world, "--config", str(workspace / "train.json"),
                "--epochs", "1", "--out", str(out / "ckpt")]
        monkeypatch.setattr(cli, "save_checkpoint", lambda _, path: _write_partial_then_fail(path))
    elif command == "index":
        for name in ("idx.json", "idx.bin"):
            (out / name).write_text("old")
        argv = ["index", "--data", world, "--ckpt", ckpt, "--out", str(out / "idx")]
        monkeypatch.setattr(cli, "save_index", lambda _, path: _write_partial_then_fail(path))
    else:
        (out / "metrics.json").write_text("old")
        argv = ["probe", "--data", world, "--ckpt", ckpt, "--probe-epochs", "5",
                "--out", str(out / "metrics.json")]
        real_write_text = pathlib.Path.write_text

        def partial_write_text(self, data, *args, **kwargs):
            real_write_text(self, data[:len(data) // 2], *args, **kwargs)
            raise ValueError("simulated failure while saving")

        monkeypatch.setattr(pathlib.Path, "write_text", partial_write_text)
    before = {p.name: hash_path(p) for p in out.iterdir()}
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # a command prints only once its outputs exist
    assert "simulated failure while saving" in captured.err
    after = {p.name: hash_path(p) for p in out.iterdir()}
    assert after == before


@pytest.mark.parametrize("command, dest, files, dirs, named", [
    ("index", "ck", ["ck.bin"], ["ck.json"], "ck.json"),
    ("train", "ck", ["ck.json"], ["ck.bin"], "ck.bin"),
    ("probe", "metrics.json", [], ["metrics.json"], "metrics.json"),
    ("gradcheck", "report.json", [], ["report.json"], "report.json"),
    ("synth", "world", ["world"], [], "world"),
    ("gradcheck", "blocked/report.json", ["blocked"], [], "blocked"),
], ids=["index_header", "train_blob", "probe", "gradcheck", "synth", "gradcheck_parent"])
def test_an_output_of_the_other_kind_than_its_target_exits_1_leaving_every_target(
        workspace, tmp_path, capsys, command, dest, files, dirs, named):
    # a produced file over a directory, or a produced directory over a file,
    # is found before any output of the command replaces its target
    out = tmp_path / "out"
    out.mkdir()
    for name in files:
        (out / name).write_text("old")
    for name in dirs:
        (out / name).mkdir()
        (out / name / "old.txt").write_text("old")
    world, ckpt = str(workspace / "world"), str(workspace / "run" / "ckpt.json")
    argv = {"synth": ["--config", str(workspace / "synth.json")],
            "train": ["--data", world, "--config", str(workspace / "train.json"), "--epochs", "1"],
            "index": ["--data", world, "--ckpt", ckpt],
            "probe": ["--data", world, "--ckpt", ckpt, "--probe-epochs", "2"],
            "gradcheck": ["--seed", "0"]}[command]
    before = {p.name: hash_path(p) for p in out.iterdir()}
    assert dispatch([command, *argv, "--out", str(out / dest)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith(f"error: {out / named}: "), captured.err
    assert {p.name: hash_path(p) for p in out.iterdir()} == before


@pytest.mark.parametrize("command, dest", [("gradcheck", "report.json"), ("index", "ck"),
                                           ("synth", "world")])
def test_a_manifest_over_a_directory_exits_1_before_any_output_lands(
        workspace, tmp_path, capsys, command, dest):
    # the manifest's destination is checked with the outputs', so nothing is
    # printed and no output replaces its target
    out = tmp_path / "out"
    out.mkdir()
    anchor = f"{dest}.json" if command == "index" else dest
    (out / f"{anchor}.manifest.json").mkdir()
    (out / f"{anchor}.manifest.json" / "old.txt").write_text("old")
    (out / anchor).write_text("old") if command != "synth" else (out / anchor).mkdir()
    world, ckpt = str(workspace / "world"), str(workspace / "run" / "ckpt.json")
    argv = {"synth": ["--config", str(workspace / "synth.json")],
            "index": ["--data", world, "--ckpt", ckpt],
            "gradcheck": ["--seed", "0"]}[command]
    before = {p.name: hash_path(p) for p in out.iterdir()}
    assert dispatch([command, *argv, "--out", str(out / dest)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (f"error: {out / anchor}.manifest.json: an output "
                                             f"file cannot replace a directory"), captured.err
    assert {p.name: hash_path(p) for p in out.iterdir()} == before


@pytest.mark.parametrize("command", ["synth", "train", "index", "probe", "zeroshot",
                                     "gradcheck", "retrieve", "eval-metrics"])
def test_each_command_records_its_run_in_one_manifest(workspace, tmp_path, capsys, command):
    # the manifest lands beside the first output, or on stderr without one
    world, prefix = workspace / "world", workspace / "run" / "ckpt"
    ckpt, header = str(prefix), pair_paths(prefix)[0]
    synth_cfg, train_cfg = workspace / "synth.json", workspace / "train.json"
    query, classes = tmp_path / "q.bin", tmp_path / "classes.bin"
    np.linspace(-1, 1, 12).astype("<f4").tofile(query)
    np.linspace(-1, 1, 36).astype("<f4").tofile(classes)
    save_index(RetrievalIndex(tile_ids=[0, 1, 2], matrix=np.eye(3, 12)), tmp_path / "idx")
    preds, labels = tmp_path / "p.json", tmp_path / "l.json"
    preds.write_text("[0, 1]")
    labels.write_text("[1, 1]")
    out = tmp_path / "out"
    # argv, seed, config keys, inputs, outputs
    argv, seed, config, inputs, outputs = {
        "synth": (["synth", "--out", str(out), "--seed", "4", "--config", str(synth_cfg)],
                  4, set(dataclasses.asdict(SyntheticWorldConfig())), [synth_cfg], [out]),
        "train": (["train", "--data", str(world), "--config", str(train_cfg), "--epochs", "1",
                   "--seed", "5", "--out", str(out)], 5, set(config_to_dict(TrainConfig())),
                  [world, train_cfg], list(pair_paths(out))),
        "index": (["index", "--data", str(world), "--ckpt", ckpt, "--out", str(out)], None,
                  {"tiles"}, [world, header], list(pair_paths(out))),
        "probe": (["probe", "--data", str(world), "--ckpt", ckpt, "--probe-epochs", "5",
                   "--seed", "2", "--out", str(out)], 2, {"task", "seed", "probe_epochs"},
                  [world, header], [out]),
        "zeroshot": (["zeroshot", "--data", str(world), "--ckpt", ckpt, "--classes",
                      str(classes), "--out", str(out)], None, {"classes"},
                     [world, header, classes], [out]),
        "gradcheck": (["gradcheck", "--seed", "3", "--out", str(out)], 3,
                      {"seed", "tolerance"}, [], [out]),
        "retrieve": (["retrieve", "--index", str(tmp_path / "idx"), "--query", str(query),
                      "--ckpt", ckpt], None, {"k"},
                     [tmp_path / "idx.json", query, header], []),
        "eval-metrics": (["eval-metrics", "--task", "cls", "--preds", str(preds),
                          "--labels", str(labels)], None, {"task"}, [preds, labels], []),
    }[command]
    assert dispatch(argv) == 0
    err = capsys.readouterr().err
    if outputs:
        assert '"command"' not in err
        manifest = json.loads(pathlib.Path(f"{outputs[0]}.manifest.json").read_text())
    else:
        manifest = json.loads(err)
    assert (manifest["command"], manifest["seed"]) == (command, seed)
    assert set(manifest["config"]) == config
    assert sorted(manifest["inputs"]) == sorted(map(str, inputs))
    assert manifest["outputs"] == [str(p) for p in outputs]


# -- exit codes: 1 for bad input, 2 for a bug ------------------------------------


def _copy_ckpt(workspace, dest):
    for suffix in (".json", ".bin"):
        (dest / f"ckpt{suffix}").write_bytes((workspace / "run" / f"ckpt{suffix}").read_bytes())
    return dest / "ckpt.json"


# every input-file flag, with the file of a .json/.bin pair that is made a directory
_FILE_FLAGS = [("synth", "--config", ""), ("train", "--config", ""), ("probe", "--ckpt", ".json"),
               ("probe", "--ckpt", ".bin"), ("index", "--ckpt", ".json"),
               ("retrieve", "--index", ".json"), ("retrieve", "--index", ".bin"),
               ("retrieve", "--query", ""), ("retrieve", "--ckpt", ".json"),
               ("zeroshot", "--ckpt", ".json"), ("zeroshot", "--classes", ""),
               ("eval-metrics", "--preds", ""), ("eval-metrics", "--labels", "")]


@pytest.mark.parametrize("command, flag, suffix", _FILE_FLAGS)
def test_a_directory_named_as_an_input_file_exits_1_naming_it(workspace, tmp_path, capsys,
                                                              command, flag, suffix):
    inputs = tmp_path / "in"
    inputs.mkdir()
    world, ckpt = str(workspace / "world"), str(_copy_ckpt(workspace, inputs).with_suffix(""))
    for name in ("synth.json", "train.json"):
        shutil.copy(workspace / name, inputs / name)
    np.linspace(-1, 1, 12).astype("<f4").tofile(inputs / "q.bin")
    np.linspace(-1, 1, 36).astype("<f4").tofile(inputs / "classes.bin")
    save_index(RetrievalIndex(tile_ids=[0, 1, 2], matrix=np.eye(3, 12)), inputs / "idx")
    (inputs / "p.json").write_text("[0, 1]")
    (inputs / "l.json").write_text("[1, 1]")
    out = str(tmp_path / "out")
    argv = {
        "synth": ["--config", str(inputs / "synth.json"), "--out", out],
        "train": ["--data", world, "--config", str(inputs / "train.json"), "--out", out],
        "probe": ["--data", world, "--ckpt", ckpt, "--probe-epochs", "2"],
        "index": ["--data", world, "--ckpt", ckpt, "--out", out],
        "retrieve": ["--index", str(inputs / "idx"), "--query", str(inputs / "q.bin"),
                     "--ckpt", ckpt],
        "zeroshot": ["--data", world, "--ckpt", ckpt, "--classes", str(inputs / "classes.bin")],
        "eval-metrics": ["--task", "cls", "--preds", str(inputs / "p.json"),
                         "--labels", str(inputs / "l.json")],
    }[command]
    path = pathlib.Path(argv[argv.index(flag) + 1] + suffix)
    path.unlink()
    path.mkdir()
    assert dispatch([command, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(path) in captured.err, captured.err
    assert "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]


@pytest.mark.parametrize("error", [KeyError("tiles"), TypeError("unsupported operand")])
def test_bug_inside_a_command_exits_2(workspace, tmp_path, monkeypatch, capsys, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "pair_samples", broken)
    assert dispatch(["train", "--data", str(workspace / "world"), "--epochs", "1",
                     "--config", str(workspace / "train.json"),
                     "--out", str(tmp_path / "ckpt")]) == 2
    assert "Traceback" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_checkpoint_header_without_config_exits_1_naming_the_file(workspace, tmp_path,
                                                                  capsys):
    header_path = _copy_ckpt(workspace, tmp_path)
    header = json.loads(header_path.read_text())
    del header["config"]
    header_path.write_text(json.dumps(header))
    assert dispatch(["probe", "--data", str(workspace / "world"), "--ckpt", str(header_path),
                     "--probe-epochs", "5"]) == 1
    err = capsys.readouterr().err
    assert str(header_path) in err and "missing fields ['config']" in err


def test_checkpoint_header_with_unknown_config_field_exits_1(workspace, tmp_path, capsys):
    header_path = _copy_ckpt(workspace, tmp_path)
    header = json.loads(header_path.read_text())
    header["config"]["warmup"] = 3
    header_path.write_text(json.dumps(header))
    assert dispatch(["index", "--data", str(workspace / "world"), "--ckpt", str(header_path),
                     "--out", str(tmp_path / "idx")]) == 1
    err = capsys.readouterr().err
    assert str(header_path) in err and "warmup" in err


def test_index_header_missing_a_key_exits_1_naming_the_file(workspace, tmp_path, capsys):
    ckpt = str(workspace / "run" / "ckpt.json")
    assert dispatch(["index", "--data", str(workspace / "world"), "--ckpt", ckpt,
                     "--out", str(tmp_path / "idx")]) == 0
    header = json.loads((tmp_path / "idx.json").read_text())
    del header["tile_ids"]
    (tmp_path / "idx.json").write_text(json.dumps(header))
    capsys.readouterr()
    assert dispatch(["retrieve", "--index", str(tmp_path / "idx"),
                     "--query", ",".join(["0.5"] * 12)]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "idx.json") in err and "tile_ids" in err


def test_index_with_repeated_tile_ids_exits_1_naming_the_file(workspace, tmp_path, capsys):
    ckpt = str(workspace / "run" / "ckpt.json")
    assert dispatch(["index", "--data", str(workspace / "world"), "--ckpt", ckpt,
                     "--out", str(tmp_path / "idx")]) == 0
    header = json.loads((tmp_path / "idx.json").read_text())
    header["tile_ids"][-1] = header["tile_ids"][0]
    (tmp_path / "idx.json").write_text(json.dumps(header))
    capsys.readouterr()
    assert dispatch(["retrieve", "--index", str(tmp_path / "idx"),
                     "--query", ",".join(["0.5"] * 12)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    last = len(header["tile_ids"]) - 1
    assert f"{tmp_path / 'idx.json'}: tile_ids[{last}] repeats tile id" in captured.err


def test_poisoned_adam_moment_exits_1_naming_file_and_tensor(workspace, tmp_path, capsys):
    header_path = _copy_ckpt(workspace, tmp_path)
    header = json.loads(header_path.read_text())
    offset = 0
    for entry in header["tensors"]:
        if entry["kind"] == "adam_v" and entry["name"] == "img.fc.weight":
            break
        offset += int(np.prod(entry["shape"])) if entry["shape"] else 1
    else:
        raise AssertionError("no adam_v tensor for img.fc.weight")
    blob = bytearray((tmp_path / "ckpt.bin").read_bytes())
    blob[8 * offset + 16:8 * offset + 24] = np.array([np.nan], dtype="<f8").tobytes()
    (tmp_path / "ckpt.bin").write_bytes(bytes(blob))
    assert dispatch(["probe", "--data", str(workspace / "world"), "--ckpt", str(header_path),
                     "--probe-epochs", "5"]) == 1
    err = capsys.readouterr().err
    assert str(tmp_path / "ckpt.bin") in err
    assert "non-finite values in adam_v tensor 'img.fc.weight'" in err


@pytest.mark.parametrize("command", ["synth", "train"])
@pytest.mark.parametrize("fields", [{"warmup": 3}, {"epochs": "two"}, [1, 2]])
def test_config_file_with_bad_fields_exits_1_naming_the_file(workspace, tmp_path, capsys,
                                                             command, fields):
    if command == "synth" and "epochs" in fields:
        fields = {"n_species": "two"}
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(fields))
    if command == "synth":
        argv = ["synth", "--out", str(tmp_path / "world")]
    else:
        argv = ["train", "--data", str(workspace / "world"), "--out", str(tmp_path / "ckpt")]
    assert dispatch(argv + ["--config", str(config)]) == 1
    assert str(config) in capsys.readouterr().err


# (fields, what the error says): values of the wrong JSON type, named by their
# path in the config, and norm settings out of range
_BAD_MODEL_FIELDS = [
    ({"image": {"widths": [4.5, 8]}}, "field 'model.image.widths' must be a list of ints, "
                                      "got [4.5, 8]"),
    ({"image": {"kernel": 3.0}}, "field 'model.image.kernel' must be an integer, got 3.0"),
    ({"image": {"norm_eps": "x"}}, "field 'model.image.norm_eps' must be a number, got 'x'"),
    ({"location": {"use_covariates": "no"}},
     "field 'model.location.use_covariates' must be a boolean, got 'no'"),
    ({"image": {"norm_momentum": 5.0}}, "norm_momentum must be in [0, 1], got 5.0"),
    ({"image": {"norm_eps": -1}}, "norm_eps must be finite and > 0, got -1"),
    ({"image": {"norm_eps": 0.0}}, "norm_eps must be finite and > 0, got 0.0"),
    ([1], "field 'model' must be an object, got [1]"),
]
_BAD_CONFIGS = [
    ("train", {"model": model}, says) for model, says in _BAD_MODEL_FIELDS] + [
    ("train", {"epochs": 1.5}, "field 'epochs' must be an integer, got 1.5"),
    ("train", {"freeze_location": 1}, "field 'freeze_location' must be a boolean, got 1"),
    ("synth", {"n_species": 8.5}, "field 'n_species' must be an integer, got 8.5"),
    ("synth", {"tile_size": 16.0}, "field 'tile_size' must be an integer, got 16.0"),
    ("synth", {"tiles_per_habitat": True},
     "field 'tiles_per_habitat' must be an integer, got True"),
    ("train", {"seed": -1}, "seed must be >= 0, got -1"),
    ("train", {"model": {"image": {"d_img": 1000000000}}},
     "model.image.d_img 1000000000 is the largest size of a model or step over the "
     "134,217,728 parameters, 65,536 tensors or 4,294,967,296 activation bytes train takes"),
    ("train", {"batch_size": 100000},
     "batch_size 100000 is the largest size of a model or step over the "
     "134,217,728 parameters, 65,536 tensors or 4,294,967,296 activation bytes train takes"),
    ("train", {"batch_size": 1, "model": {"location": {"depth": 10**8, "hidden": 1}}},
     "model.location.depth 100000000 is the largest size of a model or step over the "
     "134,217,728 parameters, 65,536 tensors or 4,294,967,296 activation bytes train takes"),
    ("train", {"model": {"location": {"depth": 10**18}}},
     f"model.location.depth {10**18} is the largest size of a model or step over the "
     "134,217,728 parameters, 65,536 tensors or 4,294,967,296 activation bytes train takes"),
    ("synth", {"tile_size": 1000000, "tiles_per_habitat": 1, "n_habitats": 1},
     "tile_size 1000000 is the largest size of a world over the 4,194,304 records or "
     "4,294,967,296 float64 bytes synth takes"),
    ("synth", {"n_observations": 10**9},
     "n_observations 1000000000 is the largest size of a world over the 4,194,304 records or "
     "4,294,967,296 float64 bytes synth takes"),
    ("synth", {"d_txt": 10**8},
     "d_txt 100000000 is the largest size of a world over the 4,194,304 records or "
     "4,294,967,296 float64 bytes synth takes"),
    ("synth", {"n_species": 2**21, "sections_per_species": 2},
     "n_species 2097152 is the largest size of a world over the 4,194,304 records or "
     "4,294,967,296 float64 bytes synth takes"),
]


@pytest.mark.parametrize("command, fields, says", _BAD_CONFIGS)
def test_config_value_of_the_wrong_type_exits_1_naming_file_and_field(workspace, tmp_path,
                                                                      capsys, command, fields,
                                                                      says):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(fields))
    if command == "synth":
        argv = ["synth", "--out", str(tmp_path / "world")]
    else:
        argv = ["train", "--data", str(workspace / "world"), "--out", str(tmp_path / "ckpt")]
    assert dispatch(argv + ["--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {config}: invalid config ({says})\n"
    assert not list(tmp_path.glob("world*")) and not list(tmp_path.glob("ckpt*"))


@pytest.mark.parametrize("model, says", _BAD_MODEL_FIELDS)
@pytest.mark.parametrize("command", ["probe", "retrieve"])
def test_checkpoint_config_of_the_wrong_type_exits_1_naming_file_and_field(
        workspace, tmp_path, capsys, command, model, says):
    header_path = _copy_ckpt(workspace, tmp_path)
    header = json.loads(header_path.read_text())
    if isinstance(model, dict):
        for key, fields in model.items():
            header["config"]["model"][key].update(fields)
    else:
        header["config"]["model"] = model
    header_path.write_text(json.dumps(header))
    if command == "probe":
        argv = ["probe", "--data", str(workspace / "world"), "--probe-epochs", "2"]
    else:
        rows = l2_normalize_rows(np.random.default_rng(0).normal(size=(3, 12)))
        save_index(RetrievalIndex(tile_ids=[0, 1, 2], matrix=rows), tmp_path / "idx")
        argv = ["retrieve", "--index", str(tmp_path / "idx"), "--query", ",".join(["0.5"] * 12)]
    assert dispatch(argv + ["--ckpt", str(header_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {header_path}: malformed config ({says})\n"


_CLASS_ID = "expected a class id (an integer >= 0), got"
_BAD_METRIC_FILES = [
    ("cls", '{"a": 1}', None, "p.json: expected a non-empty JSON list"),
    ("cls", "[[0], [1]]", None, f"p.json: entry [0]: {_CLASS_ID} [0]"),
    ("multilabel", "[1, 2]", None, "p.json: entry [0]: expected a list, got 1"),
    ("encounter", '[["x"]]', None, "p.json: entry [0][0]: expected a finite number, got 'x'"),
    # class ids that once wrapped (-1 as the last class), were truncated
    # (0.7 as class 0) or counted as a class (true as class 1)
    ("cls", "[-1, 1]", None, f"p.json: entry [0]: {_CLASS_ID} -1"),
    ("cls", "[0.7, 1]", None, f"p.json: entry [0]: {_CLASS_ID} 0.7"),
    ("cls", "[0, true]", None, f"p.json: entry [1]: {_CLASS_ID} True"),
    ("cls", "[]", None, "p.json: expected a non-empty JSON list"),
    ("cls", "[0, 1]", "[0, -1]", f"l.json: entry [1]: {_CLASS_ID} -1"),
    ("multilabel", "[[0], [1, -2]]", None, f"p.json: entry [1][1]: {_CLASS_ID} -2"),
    ("encounter", "[[0.5], [true]]", None,
     "p.json: entry [1][0]: expected a finite number, got True"),
    # rates that once scored: NaN as 0.5, Infinity as 1.0, and an integer too
    # large for a float64
    ("encounter", "[[0.5, 0.2], [NaN, 0.1]]", None,
     "p.json: entry [1][0]: expected a finite number, got nan"),
    ("encounter", "[[0.5, 0.2], [0.1, Infinity]]", None,
     "p.json: entry [1][1]: expected a finite number, got inf"),
    ("encounter", f"[[0.5], [{'9' * 400}]]", None,
     f"p.json: entry [1][0]: expected a finite number, got {'9' * 400}"),
    ("encounter", "[[0.5], [0.1]]", "[[0], [1.0]]", f"l.json: entry [1][0]: {_CLASS_ID} 1.0"),
]


@pytest.mark.parametrize("task, preds, labels, says", _BAD_METRIC_FILES, ids=[
    "-".join(filter(None, case[:3]))[:48] for case in _BAD_METRIC_FILES])
def test_eval_metrics_malformed_predictions_exit_1(tmp_path, capsys, task, preds, labels, says):
    (tmp_path / "p.json").write_text(preds)
    (tmp_path / "l.json").write_text(labels or ("[[0], [1]]" if task != "cls" else "[0, 1]"))
    assert dispatch(["eval-metrics", "--task", task, "--preds", str(tmp_path / "p.json"),
                     "--labels", str(tmp_path / "l.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {tmp_path / says}\n"


@pytest.mark.parametrize("preds, labels, says", [
    ("[18446744073709551616, 1]", "[0, 1]", "p.json: entry [0]: class id 18446744073709551616"),
    ("[0, 1]", f"[0, {cli.MAX_CLASSES}]", f"l.json: entry [1]: class id {cli.MAX_CLASSES}"),
])
def test_eval_metrics_cls_class_ids_at_the_bound_exit_1(tmp_path, capsys, preds, labels, says):
    # 2**64 once exited 2 with an OverflowError; 10**5 asked for 10**10 matrix entries
    (tmp_path / "p.json").write_text(preds)
    (tmp_path / "l.json").write_text(labels)
    assert dispatch(["eval-metrics", "--task", "cls", "--preds", str(tmp_path / "p.json"),
                     "--labels", str(tmp_path / "l.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {tmp_path / says} is not below the "
                            f"{cli.MAX_CLASSES:,} classes a confusion matrix takes\n")


def test_eval_metrics_cls_takes_the_largest_class_id_below_the_bound(tmp_path, capsys):
    # 2,047 classes and more: a world of that many habitats is one synth takes
    (tmp_path / "p.json").write_text("[0, 2047]")
    (tmp_path / "l.json").write_text("[0, 1500]")
    assert dispatch(["eval-metrics", "--task", "cls", "--preds", str(tmp_path / "p.json"),
                     "--labels", str(tmp_path / "l.json")]) == 0
    matrix = json.loads(capsys.readouterr().out)["confusion_matrix"]
    assert len(matrix) == cli.MAX_CLASSES == 2048 and matrix[1500][2047] == 1


@pytest.mark.parametrize("task, preds, labels", [
    ("cls", "[0]", "[0, 1]"),
    ("multilabel", "[[0], [1]]", "[[0]]"),
    ("encounter", "[[0.5, 0.2]]", "[[0], [1]]"),  # once scored 1.0 on the first sample
    ("encounter", "[[0.5, 0.2], [0.1, 0.3]]", "[[0]]"),
])
def test_eval_metrics_length_mismatch_exits_1_naming_both_files(tmp_path, capsys, task, preds,
                                                                labels):
    p, l = tmp_path / "p.json", tmp_path / "l.json"
    p.write_text(preds)
    l.write_text(labels)
    assert dispatch(["eval-metrics", "--task", task, "--preds", str(p), "--labels", str(l)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lengths = f"({len(json.loads(preds))} vs {len(json.loads(labels))})"
    assert captured.err == f"error: {p} and {l} differ in length {lengths}\n"


@pytest.mark.parametrize("kind", ["config", "checkpoint", "index", "preds"])
def test_malformed_json_exits_1_naming_the_file(workspace, tmp_path, capsys, kind):
    bad = tmp_path / f"{kind}.json"
    bad.write_text('{"n": 1,')
    ckpt = str(workspace / "run" / "ckpt.json")
    if kind == "config":
        argv = ["train", "--data", str(workspace / "world"), "--out", str(tmp_path / "c"),
                "--config", str(bad)]
    elif kind == "checkpoint":
        shutil.copy(workspace / "run" / "ckpt.bin", tmp_path / "checkpoint.bin")
        argv = ["index", "--data", str(workspace / "world"), "--ckpt", str(bad),
                "--out", str(tmp_path / "idx")]
    elif kind == "index":
        (tmp_path / "index.bin").write_bytes(b"")
        argv = ["retrieve", "--index", str(bad), "--query", ",".join(["0.5"] * 12)]
    else:
        (tmp_path / "labels.json").write_text("[0, 1]")
        argv = ["eval-metrics", "--task", "cls", "--preds", str(bad),
                "--labels", str(tmp_path / "labels.json")]
    assert dispatch(argv) == 1
    assert f"error: {bad}: malformed JSON (Expecting" in capsys.readouterr().err


def test_train_reports_skipped_observations_by_reason(workspace, tmp_path, capsys):
    world = tmp_path / "world"
    shutil.copytree(workspace / "world", world)
    lines = (world / "observations.csv").read_text().splitlines()
    lat, lon, _ = lines[1].split(",")
    # one observation far from every tile, one of a species with no text
    lines += ["89.0,179.0,0", f"{lat},{lon},999"]
    (world / "observations.csv").write_text("\n".join(lines) + "\n")
    assert dispatch(["train", "--data", str(world), "--out", str(tmp_path / "ckpt"),
                     "--config", str(workspace / "train.json"), "--epochs", "1"]) == 0
    assert "(2 observations skipped, 1 no_tile, 1 no_text)" in capsys.readouterr().err


# -- one parser per process, input hashing beside the command ----------------------


def _without_wall_time(text: str) -> str:
    return re.sub(r'"wall_time_s": [^\n]*', '"wall_time_s": _', text)


def test_one_process_runs_commands_as_fresh_processes_do(workspace, tmp_path, capsys):
    world, ckpt = str(workspace / "world"), str(workspace / "run" / "ckpt.json")
    idx = str(tmp_path / "idx")
    assert dispatch(["index", "--data", world, "--ckpt", ckpt, "--out", idx]) == 0
    query = tmp_path / "q.bin"
    np.linspace(-1, 1, TRAIN_CFG["model"]["d_txt"]).astype("<f4").tofile(query)
    commands = [["retrieve", "--k", "3"],  # usage error: no --index, no --query
                ["retrieve", "--index", idx, "--query", ",".join(["0.5"] * 12), "--k", "3"],
                ["retrieve", "--index", idx, "--query", str(query), "--k", "5", "--ckpt", ckpt],
                ["probe", "--data", world, "--ckpt", ckpt, "--task", "encounter",
                 "--probe-epochs", "5"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    capsys.readouterr()
    for argv in commands:
        code = dispatch(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "satalign.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (code, captured.out, _without_wall_time(captured.err)) == (
            fresh.returncode, fresh.stdout, _without_wall_time(fresh.stderr)), argv
    assert code == 0


@pytest.mark.parametrize("command", ["eval-metrics", "zeroshot"])
def test_a_closed_stdout_exits_1_and_keeps_the_outputs(workspace, tmp_path, command):
    preds, labels, out = tmp_path / "preds.json", tmp_path / "labels.json", tmp_path / "zs.tsv"
    preds.write_text("[1023, 0]")  # a 1,024 x 1,024 confusion matrix: megabytes of stdout
    labels.write_text("[0, 0]")
    argv = {"eval-metrics": ["eval-metrics", "--task", "cls", "--preds", str(preds),
                             "--labels", str(labels)],
            "zeroshot": ["zeroshot", "--data", str(workspace / "world"),
                         "--ckpt", str(workspace / "run" / "ckpt.json"), "--out", str(out)]}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    read, write = os.pipe()
    os.close(read)  # each write to stdout fails with EPIPE, as after `| head -c 50`
    try:
        done = subprocess.run([sys.executable, "-m", "satalign.cli", *argv[command]], env=env,
                              stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (
        1, "error: stdout was closed before the command's output was written\n")
    if command == "zeroshot":
        assert out.exists() and pathlib.Path(f"{out}.manifest.json").exists()


def _slow_digest(monkeypatch, hashed, fail=None, delay=0.01):
    """Make the hashing worker sleep before each input path (and raise on
    `fail`), recording every path it hashes."""
    digest = cli._InputHashes._digest

    def slow(self, path):
        hashed.append(path)
        if path in self.paths:
            time.sleep(delay)
        if path == fail:
            raise ValueError(f"input path not found: {path}")
        return digest(self, path)

    monkeypatch.setattr(cli._InputHashes, "_digest", slow)


def test_failing_command_reports_its_own_error_and_leaves_no_thread(workspace, tmp_path,
                                                                    monkeypatch, capsys):
    _slow_digest(monkeypatch, [], fail=tmp_path / "absent.json")
    threads = threading.active_count()
    query = ",".join(["0.5"] * 12)
    assert dispatch(["retrieve", "--index", str(tmp_path / "absent"), "--query", query]) == 1
    err = capsys.readouterr().err
    assert "absent.json" in err and "input path not found" not in err
    assert threading.active_count() == threads

    monkeypatch.setattr(cli, "pair_samples", lambda *args, **kwargs: {}["bug"])
    assert dispatch(["train", "--data", str(workspace / "world"), "--epochs", "1",
                     "--config", str(workspace / "train.json"),
                     "--out", str(tmp_path / "ckpt")]) == 2
    assert "Traceback" in capsys.readouterr().err
    assert threading.active_count() == threads


def test_hashing_error_surfaces_at_manifest_time(workspace, tmp_path, monkeypatch, capsys):
    world, ckpt = str(workspace / "world"), workspace / "run" / "ckpt.json"
    assert dispatch(["index", "--data", world, "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "idx")]) == 0
    _slow_digest(monkeypatch, [], fail=ckpt)
    capsys.readouterr()
    assert dispatch(["retrieve", "--index", str(tmp_path / "idx"),
                     "--query", ",".join(["0.5"] * 12), "--ckpt", str(ckpt)]) == 1
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 10  # the command's work was done
    assert captured.err == f"error: input path not found: {ckpt}\n"


def test_failing_command_stops_hashing_a_large_input(tmp_path, monkeypatch, capsys):
    data = tmp_path / "not_a_dataset"
    data.mkdir()
    for i in range(200):
        (data / f"file{i:03d}").write_bytes(b"x")
    hashed = []
    _slow_digest(monkeypatch, hashed, delay=0.5)  # the command fails meanwhile
    threads = threading.active_count()
    assert dispatch(["train", "--data", str(data), "--out", str(tmp_path / "ckpt")]) == 1
    assert "dataset is missing observations.csv" in capsys.readouterr().err
    assert threading.active_count() == threads
    assert len(hashed) < 100  # 201 paths when hashed in full


def test_hash_path_runs_on_the_main_thread_once_per_input(workspace, tmp_path, monkeypatch):
    calls = []
    original = cli.hash_path

    def recording(path, *args):
        calls.append((str(path), threading.current_thread() is threading.main_thread()))
        return original(path, *args)

    monkeypatch.setattr(cli, "hash_path", recording)
    world, ckpt = str(workspace / "world"), str(workspace / "run" / "ckpt.json")
    out = tmp_path / "out"
    commands = [["synth", "--config", str(workspace / "synth.json"), "--out", str(out / "world")],
                ["train", "--data", world, "--config", str(workspace / "train.json"),
                 "--epochs", "1", "--out", str(out / "ckpt.json")],
                ["index", "--data", world, "--ckpt", ckpt, "--out", str(out / "idx.json")],
                ["probe", "--data", world, "--ckpt", ckpt, "--probe-epochs", "5",
                 "--out", str(out / "probe.json")],
                ["zeroshot", "--data", world, "--ckpt", ckpt, "--out", str(out / "zs.tsv")]]
    for argv in commands:
        calls.clear()
        assert dispatch(argv) == 0
        manifest = json.loads(pathlib.Path(argv[-1] + ".manifest.json").read_text())
        assert sorted(path for path, _ in calls) == sorted(manifest["inputs"]), argv
        assert all(main for _, main in calls), argv


def test_outputs_inside_an_input_directory_are_not_hashed(workspace, tmp_path, monkeypatch):
    world = tmp_path / "world"
    shutil.copytree(workspace / "world", world)
    before = hash_path(world)
    # the world is listed after training has ended, unless writing waits for it
    _slow_digest(monkeypatch, [], delay=0.5)
    assert dispatch(["train", "--data", str(world), "--config", str(workspace / "train.json"),
                     "--epochs", "1", "--out", str(world / "ckpt")]) == 0
    manifest = json.loads((world / "ckpt.json.manifest.json").read_text())
    assert manifest["inputs"][str(world)] == before != hash_path(world)
