import dataclasses
import re

import numpy as np
import pytest

from conftest import small_train_config, small_world_config, world_and_samples
from satalign.dataio import ingest_dataset, save_dataset
from satalign.encoders import trainable_mask
from satalign.geodata import pair_samples
from satalign.synthworld import generate_synthetic_world
from satalign.tape import Tape
from satalign.training import (Checkpoint, TrainConfig, assemble_batch,
                               build_training_graph, config_from_dict, config_to_dict,
                               initial_model, load_checkpoint, model_from_checkpoint,
                               save_checkpoint, steps_per_epoch, train)
from test_tape import reference_conv2d


def checkpoints_equal(a: Checkpoint, b: Checkpoint) -> bool:
    if sorted(a.params) != sorted(b.params) or sorted(a.stats) != sorted(b.stats):
        return False
    for name in a.params:
        if not np.array_equal(a.params[name], b.params[name]):
            return False
    for name in a.stats:
        if not np.array_equal(a.stats[name], b.stats[name]):
            return False
    for name in a.adam.m:
        if not np.array_equal(a.adam.m[name], b.adam.m[name]):
            return False
        if not np.array_equal(a.adam.v[name], b.adam.v[name]):
            return False
    return (a.adam.t == b.adam.t and a.epoch == b.epoch
            and a.epoch_losses == b.epoch_losses and a.step_losses == b.step_losses
            and a.rng_state == b.rng_state)


@pytest.mark.parametrize("seed", range(5))
def test_loss_decreases_on_synthetic_world(seed):
    # Training-run oracle: on a 200-sample world with batch 16, the mean of
    # the last 10 step losses must undercut the mean of the first 10.
    _, samples = world_and_samples(seed=seed)
    config = small_train_config(seed=seed, epochs=5)  # 12 steps/epoch -> 60 steps
    ckpt = train(config, samples)
    assert len(ckpt.step_losses) >= 50
    first = np.mean(ckpt.step_losses[:10])
    last = np.mean(ckpt.step_losses[-10:])
    assert last < first, f"seed {seed}: loss did not decrease ({first:.4f} -> {last:.4f})"


def test_same_seed_bit_identical_checkpoints(shared_world_samples):
    _, samples = shared_world_samples
    config = small_train_config(seed=3, epochs=1)
    a = train(config, samples)
    b = train(config, samples)
    assert checkpoints_equal(a, b)


def test_scale_shift_keeps_conv_kernels_bit_identical(shared_world_samples):
    _, samples = shared_world_samples
    config = small_train_config(seed=1, epochs=1, peft="scale_shift")
    before = initial_model(config)
    frozen = {name: before.params.get(name).copy() for name in before.params.names()
              if name not in trainable_mask("scale_shift", before.params)}
    assert any("conv" in name for name in frozen)
    ckpt = train(config, samples)
    for name, value in frozen.items():
        np.testing.assert_array_equal(ckpt.params[name], value)
    # normalization scale/shift did move
    assert not np.array_equal(ckpt.params["img.norm1.gamma"],
                              before.params.get("img.norm1.gamma"))


def test_mask_discipline_full_mode_frozen_location(shared_world_samples):
    _, samples = shared_world_samples
    config = small_train_config(seed=2, epochs=1, freeze_location=True)
    before = initial_model(config)
    loc_names = [n for n in before.params.names() if n.startswith("loc.")]
    ckpt = train(config, samples)
    for name in loc_names:
        np.testing.assert_array_equal(ckpt.params[name], before.params.get(name))


def test_epoch_accounting_drop_last(shared_world_samples):
    _, samples = shared_world_samples
    config = small_train_config(seed=0, epochs=2, batch_size=16)
    usable = steps_per_epoch(len(samples), 16)
    assert usable == len(samples) // 16
    ckpt = train(config, samples)
    assert len(ckpt.step_losses) == 2 * usable
    assert len(ckpt.epoch_losses) == 2


@pytest.mark.parametrize("tile_size", [16, 20], ids=["no_resize", "resize"])
def test_float32_tiles_train_to_the_checkpoint_of_their_widening(tmp_path, tile_size):
    # 16 px tiles are the model's input size; 20 px tiles are resized to it
    world = generate_synthetic_world(small_world_config(seed=5, tile_size=tile_size))
    save_dataset(tmp_path / "world", world)
    dataset = ingest_dataset(tmp_path / "world")
    assert {t.pixels.dtype for t in dataset.tiles} == {np.dtype(np.float32)}
    widened = [dataclasses.replace(t, pixels=t.pixels.astype(np.float64)) for t in dataset.tiles]
    blobs = []
    for i, tiles in enumerate((dataset.tiles, widened)):
        samples = pair_samples(dataset.observations, tiles, dataset.texts, dataset.raster,
                               matching_radius=0.05, seed=5).samples
        save_checkpoint(train(small_train_config(seed=5, epochs=2), samples),
                        tmp_path / f"ckpt{i}.json")
        blobs.append([(tmp_path / f"ckpt{i}{suffix}").read_bytes() for suffix in (".json", ".bin")])
    assert widened[0].pixels.dtype == np.float64
    assert blobs[0] == blobs[1]


def test_dataset_smaller_than_batch_rejected(shared_world_samples):
    _, samples = shared_world_samples
    config = small_train_config(batch_size=10_000)
    with pytest.raises(ValueError, match="cannot fill one batch"):
        train(config, samples)


def test_non_finite_loss_aborts_with_step_index(shared_world_samples, monkeypatch):
    _, samples = shared_world_samples
    import satalign.training as training_module

    def poisoned(model, batch, mask, loss_config):
        tape = Tape()
        tape.leaf("w", np.ones(()), trainable=True)
        tape.mark_output("loss", tape.mul(tape.const(np.inf), tape.const(1.0)))
        return tape, []

    monkeypatch.setattr(training_module, "build_training_graph", poisoned)
    with pytest.raises(RuntimeError, match="non-finite loss at step 0"):
        train(small_train_config(epochs=1), samples)


def test_non_finite_gradient_aborts_naming_parameter(shared_world_samples, monkeypatch):
    _, samples = shared_world_samples
    import satalign.training as training_module
    real_backward = training_module.backward

    def poisoned(tape, output):
        grads = real_backward(tape, output=output)
        grads["heads.text.weight"] = grads["heads.text.weight"] * np.nan
        return grads

    monkeypatch.setattr(training_module, "backward", poisoned)
    with pytest.raises(RuntimeError,
                       match="non-finite gradient for 'heads.text.weight' at step 1"):
        train(small_train_config(epochs=1), samples)


def test_all_losses_logged_finite(trained_checkpoint):
    assert all(np.isfinite(v) for v in trained_checkpoint.step_losses)
    assert all(np.isfinite(v) for v in trained_checkpoint.epoch_losses)
    assert trained_checkpoint.epoch_losses[0] == pytest.approx(
        np.mean(trained_checkpoint.step_losses[:len(trained_checkpoint.step_losses) // 2]))


class TestCheckpointIO:
    def test_round_trip_bitwise(self, trained_checkpoint, tmp_path):
        save_checkpoint(trained_checkpoint, tmp_path / "ckpt.json")
        loaded = load_checkpoint(tmp_path / "ckpt.json")
        assert checkpoints_equal(trained_checkpoint, loaded)
        assert config_to_dict(loaded.config) == config_to_dict(trained_checkpoint.config)

    def test_truncated_blob_rejected(self, trained_checkpoint, tmp_path):
        _, bin_path = save_checkpoint(trained_checkpoint, tmp_path / "ckpt.json")
        bin_path.write_bytes(bin_path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="blob length mismatch"):
            load_checkpoint(tmp_path / "ckpt.json")

    def test_version_mismatch_rejected(self, trained_checkpoint, tmp_path):
        import json
        json_path, _ = save_checkpoint(trained_checkpoint, tmp_path / "ckpt.json")
        header = json.loads(json_path.read_text())
        header["version"] = 999
        json_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="version mismatch"):
            load_checkpoint(tmp_path / "ckpt.json")

    def test_shape_mismatch_names_tensor(self, trained_checkpoint, tmp_path):
        import json
        json_path, bin_path = save_checkpoint(trained_checkpoint, tmp_path / "ckpt.json")
        header = json.loads(json_path.read_text())
        for entry in header["tensors"]:
            if entry["name"] == "img.fc.bias" and entry["kind"] == "param":
                entry["shape"] = [entry["shape"][0] - 1]
        # drop 8 bytes so the total blob length still matches the doctored header
        bin_path.write_bytes(bin_path.read_bytes()[:-8])
        json_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match="img.fc.bias"):
            load_checkpoint(tmp_path / "ckpt.json")

    def test_missing_header(self, tmp_path):
        with pytest.raises(ValueError, match="not found"):
            load_checkpoint(tmp_path / "nope.json")

    @pytest.mark.parametrize("edit,message", [
        (lambda h: h.pop("tensors"), r"missing fields \['tensors'\]"),
        (lambda h: h.update(epoch="2"), r"field 'epoch' must be an integer"),
        (lambda h: h["tensors"][3].update(shape=["a"]), r"tensor 3: malformed shape"),
        (lambda h: h["tensors"][0].pop("kind"), r"tensor 0: missing fields \['kind'\]"),
        (lambda h: h["adam"].update(lr=None), r"adam: field 'lr' must be a number"),
        (lambda h: h["config"]["model"].update(depth=3), r"malformed config"),
        (lambda h: h["config"].update(model=[1]), r"malformed config"),
        (lambda h: h["config"].update(matching_radius="near"), r"malformed config"),
        (lambda h: h["config"].update(epochs=0), r"malformed config"),
    ])
    def test_malformed_header_names_the_file(self, trained_checkpoint, tmp_path, edit,
                                             message):
        import json
        json_path, _ = save_checkpoint(trained_checkpoint, tmp_path / "ckpt.json")
        header = json.loads(json_path.read_text())
        edit(header)
        json_path.write_text(json.dumps(header))
        with pytest.raises(ValueError, match=re.escape(str(json_path)) + ".*" + message):
            load_checkpoint(json_path)

    @pytest.mark.parametrize("kind", ["param", "stat", "adam_m", "adam_v"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_names_file_and_tensor(self, trained_checkpoint, tmp_path,
                                                     kind, value):
        import json
        json_path, bin_path = save_checkpoint(trained_checkpoint, tmp_path / "ckpt.json")
        offset, name = 0, None
        for entry in json.loads(json_path.read_text())["tensors"]:
            count = int(np.prod(entry["shape"])) if entry["shape"] else 1
            if entry["kind"] == kind:
                name = entry["name"]
                offset += count - 1  # poison the tensor's last float
                break
            offset += count
        blob = bytearray(bin_path.read_bytes())
        blob[8 * offset:8 * offset + 8] = np.array([value], dtype="<f8").tobytes()
        bin_path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=re.escape(f"{bin_path}: non-finite values in "
                                                       f"{kind} tensor '{name}'")):
            load_checkpoint(json_path)


def test_resume_matches_straight_run(shared_world_samples, tmp_path):
    _, samples = shared_world_samples
    straight = train(small_train_config(seed=5, epochs=4), samples)

    half = train(small_train_config(seed=5, epochs=2), samples)
    save_checkpoint(half, tmp_path / "half.json")
    resumed = train(small_train_config(seed=5, epochs=4),
                    samples, resume=load_checkpoint(tmp_path / "half.json"))
    assert checkpoints_equal(straight, resumed)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["lr", "temperature", "jitter", "channel_mix",
                                   "matching_radius", "image_weight", "text_weight",
                                   "location_weight"])
def test_validate_rejects_non_finite_floats_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        dataclasses.replace(TrainConfig(), **{field: value})


def test_config_dict_round_trip():
    config = small_train_config(seed=9, peft="scale_shift", freeze_location=True,
                                text_weight=0.5, location_weight=0.0)
    rebuilt = config_from_dict(config_to_dict(config))
    assert rebuilt == config


def test_loss_term_weights_flow_into_graph(shared_world_samples):
    _, samples = shared_world_samples
    config = small_train_config(text_weight=0.0, location_weight=2.0)
    model = initial_model(config)
    mask = trainable_mask("full", model.params)
    batch = assemble_batch(samples[:4], config, np.random.default_rng(0))
    tape, _ = build_training_graph(model, batch, mask, config.loss_config())
    assert float(tape.output_value("loss_text")) == 0.0
    total = float(tape.output_value("loss"))
    parts = sum(float(tape.output_value(f"loss_{k}")) for k in ("image", "text", "location"))
    assert total == pytest.approx(parts, abs=1e-12)


def test_assemble_batch_shapes(shared_world_samples):
    _, samples = shared_world_samples
    config = small_train_config()
    rng = np.random.default_rng(0)
    batch = assemble_batch(samples[:4], config, rng)
    assert batch["tiles_a"].shape == (4, 3, 16, 16)
    assert batch["tiles_b"].shape == (4, 3, 16, 16)
    assert batch["locfeat"].shape == (4, 24)
    assert batch["text"].shape == (4, 16)
    assert batch["tiles_a"].min() >= 0.0 and batch["tiles_a"].max() <= 1.0


def test_training_graph_has_all_towers(shared_world_samples):
    _, samples = shared_world_samples
    config = small_train_config()
    model = initial_model(config)
    mask = trainable_mask("full", model.params)
    batch = assemble_batch(samples[:4], config, np.random.default_rng(1))
    tape, norm_nodes = build_training_graph(model, batch, mask, config.loss_config())
    assert set(tape.outputs) == {"loss", "loss_image", "loss_text", "loss_location"}
    total = float(tape.output_value("loss"))
    parts = sum(float(tape.output_value(f"loss_{k}")) for k in ("image", "text", "location"))
    assert total == pytest.approx(parts, abs=1e-12)
    assert len(norm_nodes) == 4  # two stages x two towers


def test_model_from_checkpoint_reproduces_features(trained_checkpoint, shared_world_samples):
    world, _ = shared_world_samples
    model = model_from_checkpoint(trained_checkpoint)
    pixels = np.stack([t.pixels for t in world.tiles[:3]])
    feats = model.image_features(pixels)
    assert feats.shape == (3, 32)
    assert np.all(np.isfinite(feats))


def test_running_stats_are_momentum_update_of_batch_stats(shared_world_samples,
                                                          monkeypatch):
    _, samples = shared_world_samples
    import satalign.training as training_module
    real_build = training_module.build_training_graph
    graphs = []

    def recording(*args):
        graphs.append(real_build(*args))
        return graphs[-1]

    monkeypatch.setattr(training_module, "build_training_graph", recording)
    config = small_train_config(epochs=1)
    ckpt = train(config, samples[:config.batch_size])
    assert len(graphs) == 1

    tape, norm_nodes = graphs[0]
    expected = initial_model(config).stats
    momentum = config.model.image.norm_momentum
    image = config.model.image
    for key, node in norm_nodes:  # tile_a tower first, then tile_b
        x, kernel = (tape.nodes[i].value for i in node.inputs[:2])
        h = reference_conv2d(x, kernel, image.stride, image.padding)
        mean, var = h.mean(axis=(0, 2, 3)), h.var(axis=(0, 2, 3))
        expected[f"{key}.mean"] = (1 - momentum) * expected[f"{key}.mean"] + momentum * mean
        expected[f"{key}.var"] = (1 - momentum) * expected[f"{key}.var"] + momentum * var
    assert sorted(ckpt.stats) == sorted(expected)
    for name, value in expected.items():
        assert ckpt.stats[name].tobytes() == value.tobytes(), name
