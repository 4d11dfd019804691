import json

import numpy as np
import pytest

import satalign.cli as cli
from satalign.cli import dispatch, hash_path
from satalign.tape import Tape

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
    assert "gradcheck worst coordinate: x[1] rel_err=1.000e+00" in captured.err


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
