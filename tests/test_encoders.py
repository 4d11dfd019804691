import os
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from satalign import encoders
from satalign import tape as tape_module
from satalign.encoders import (ImageEncoderConfig, LocationEncoderConfig, Model, ModelConfig,
                               image_feature_graph, location_feature_graph,
                               location_input_features, trainable_mask)
from satalign.optim import AdamState, adam_step
from satalign.tape import SUB_SLICE_TILES, Tape, _evaluate, backward
from test_tape import (assert_pool_contract, record_workers, reference_channel_norm,
                       reference_conv2d, reference_global_avg_pool)


def tiny_config(**overrides):
    defaults = dict(
        image=ImageEncoderConfig(in_size=16, widths=(4, 8), d_img=16),
        location=LocationEncoderConfig(hidden=16, depth=2, d_loc=8),
        d_txt=12, embed_dim=8,
    )
    defaults.update(overrides)
    return ModelConfig(**defaults)


@pytest.fixture()
def model():
    return Model.initialize(tiny_config(), seed=0)


class TestLocationFeatures:
    def test_origin(self):
        np.testing.assert_allclose(location_input_features(0.0, 0.0), [0, 1, 0, 1], atol=1e-15)

    def test_pole_and_dateline(self):
        feats = location_input_features(90.0, -180.0)
        np.testing.assert_allclose(feats, [0, -1, 0, -1], atol=1e-12)

    def test_longitude_periodicity(self):
        for lon in (-180.0, -31.7, 0.0, 55.5):
            a = location_input_features(10.0, lon)
            b = location_input_features(10.0, lon + 360.0)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_covariates_appended(self):
        cov = np.linspace(-1, 1, 20)
        feats = location_input_features(5.0, 5.0, cov)
        assert feats.shape == (24,)
        np.testing.assert_array_equal(feats[4:], cov)

    def test_unnormalized_covariates_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            location_input_features(0.0, 0.0, np.full(20, 2.0))


class TestImageEncoder:
    def test_all_zero_tile_finite(self, model):
        out = model.image_features(np.zeros((1, 3, 16, 16)))
        assert out.shape == (1, 16)
        assert np.all(np.isfinite(out))

    def test_eval_mode_deterministic(self, model):
        rng = np.random.default_rng(1)
        pixels = rng.random((2, 3, 16, 16))
        a = model.image_features(pixels)
        b = model.image_features(pixels)
        np.testing.assert_array_equal(a, b)

    def test_output_length_matches_config(self):
        for d_img in (8, 24):
            cfg = tiny_config(image=ImageEncoderConfig(in_size=16, widths=(4,), d_img=d_img))
            m = Model.initialize(cfg, seed=1)
            assert m.image_features(np.zeros((1, 3, 16, 16))).shape == (1, d_img)

    def test_dim_mismatch_rejected(self, model):
        for shape in ((2, 3, 8, 8), (3, 16, 16), (1, 4, 16, 16)):
            with pytest.raises(ValueError, match=r"expected pixels of shape \(n, 3, 16, 16\)"):
                model.image_features(np.zeros(shape))

    def test_list_of_tiles_equals_stacked_batch(self, model):
        pixels = np.random.default_rng(4).random((4 * SUB_SLICE_TILES + 3, 3, 16, 16))
        tiles = list(pixels)
        assert model.image_features(tiles).tobytes() == model.image_features(pixels).tobytes()
        with pytest.raises(ValueError, match=r"\(n, 3, 16, 16\), got tiles of shapes \["):
            model.image_features(tiles[:3] + [np.zeros((3, 8, 8))])
        with pytest.raises(ValueError, match=r"\(n, 3, 16, 16\), got \(2, 3, 8, 8\)"):
            model.image_features([np.zeros((3, 8, 8))] * 2)

    def test_batch_features_match_single(self, model):
        rng = np.random.default_rng(2)
        batch = rng.random((4, 3, 16, 16))
        feats = model.image_features(batch)
        for i in range(4):
            np.testing.assert_allclose(feats[i], model.image_features(batch[i:i + 1])[0],
                                       atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2 * SUB_SLICE_TILES - 1, 2 * SUB_SLICE_TILES,
                                   2 * SUB_SLICE_TILES + 1, 32 * SUB_SLICE_TILES])
    def test_chunked_features_equal_one_whole_batch_graph(self, n):
        assert_features_equal_the_graph(tiny_config(), n, as_list=False)

    @pytest.mark.parametrize("image", [
        ImageEncoderConfig(in_size=16, widths=(4, 8, 6), d_img=16, kernel=5, stride=1, padding=0),
        ImageEncoderConfig(in_size=16, widths=(4, 8), d_img=16, kernel=3, stride=2, padding=2),
        ImageEncoderConfig(in_channels=4, in_size=16, widths=(4, 8), d_img=16, kernel=4,
                           stride=3, padding=1),
        ImageEncoderConfig(in_size=16, widths=(4, 8, 8, 8), d_img=16),  # last stage 1x1
    ], ids=["k5s1p0_three_stages", "k3s2p2", "k4s3p1_four_channels", "one_pixel_last_stage"])
    @pytest.mark.parametrize("n", [1, 17, 37])
    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_odd_geometries_equal_one_whole_batch_graph(self, image, n, as_list):
        assert_features_equal_the_graph(tiny_config(image=image), n, as_list)

    @pytest.mark.parametrize("n", [1, 2 * SUB_SLICE_TILES + 3, 37])
    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_float32_tiles_equal_their_float64_widening(self, n, as_list):
        assert_features_equal_the_graph(tiny_config(), n, as_list, dtype=np.float32)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixels_rejected(self, model, bad):
        pixels = np.random.default_rng(5).random((2 * SUB_SLICE_TILES + 3, 3, 16, 16))
        pixels[2 * SUB_SLICE_TILES + 1, 2, 7, 9] = bad  # in the short last slice
        for batch in (pixels, list(pixels)):
            with pytest.raises(ValueError, match="non-finite values in leaf 'pixels'"):
                model.image_features(batch)

    @pytest.mark.parametrize("name", ["img.conv2.kernel", "img.norm1.gamma"])
    def test_non_finite_conv_or_norm_parameter_rejected(self, model, name):
        value = model.params.get(name).copy()
        value.flat[1] = np.nan
        model.params.set(name, value)
        with pytest.raises(ValueError, match=rf"non-finite values in leaf '{re.escape(name)}'"):
            model.image_features(np.zeros((2, 3, 16, 16)))

    def test_zero_tiles_give_zero_rows(self, model):
        assert model.image_features(np.zeros((0, 3, 16, 16))).shape == (0, 16)

    def test_conv_stages_without_output_rejected(self):
        ImageEncoderConfig(in_size=12, widths=(4, 4), kernel=5, stride=1, padding=0)
        for geometry in (dict(widths=(4, 4, 4), kernel=5, stride=1, padding=0),
                         dict(stride=0), dict(kernel=0), dict(padding=-1)):
            with pytest.raises(ValueError, match="leave no output for 12 px tiles"):
                ImageEncoderConfig(in_size=12, **geometry)

    def test_conv_padding_as_wide_as_the_kernel_rejected(self):
        ImageEncoderConfig(in_size=12, kernel=3, padding=2)
        with pytest.raises(ValueError, match="conv padding 3 must be smaller than the kernel 3"):
            ImageEncoderConfig(in_size=12, kernel=3, padding=3)

    @pytest.mark.parametrize("cap", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2 * SUB_SLICE_TILES, 37, 32 * SUB_SLICE_TILES])
    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_worker_count_leaves_the_bits(self, monkeypatch, cap, n, as_list):
        # four CPUs, so the cap sets the worker count; cap 3 puts more workers
        # than cores on a two-core machine, switching threads every microsecond
        monkeypatch.setattr(tape_module, "ENCODE_WORKERS", cap)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        started, calls = record_workers(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert_features_equal_the_graph(tiny_config(), n, as_list)
        finally:
            sys.setswitchinterval(interval)
        assert_pool_contract(started, calls, cap, 4)

    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_non_finite_pixels_of_the_second_worker_rejected(self, monkeypatch, model, as_list):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pixels = np.random.default_rng(7).random((6 * SUB_SLICE_TILES, 3, 16, 16))
        clean = model.image_features(pixels)  # the pool's worker runs from here on
        assert clean.tobytes() == reference_image_features(model, pixels).tobytes()
        bad = pixels.copy()
        bad[SUB_SLICE_TILES + 1, 0, 3, 4] = np.nan  # the second worker's first sub-slice
        threads = threading.active_count()
        with pytest.raises(ValueError, match="non-finite values in leaf 'pixels'"):
            model.image_features(list(bad) if as_list else bad)
        assert threading.active_count() == threads
        # the next call runs on both workers again, with the same bits
        started, calls = record_workers(monkeypatch)
        assert model.image_features(list(pixels) if as_list else pixels).tobytes() == \
            clean.tobytes()
        assert_pool_contract(started, calls, 2, 2)

    @pytest.mark.parametrize("cpus, n", [(2, SUB_SLICE_TILES), (1, 6 * SUB_SLICE_TILES + 1)],
                             ids=["one_sub_slice", "one_cpu"])
    def test_one_worker_starts_no_thread(self, monkeypatch, cpus, n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        assert_features_equal_the_graph(tiny_config(), n, as_list=True)

    def test_working_set_does_not_grow_with_the_batch(self):
        model = Model.initialize(ModelConfig(), seed=0)
        pixels = np.random.default_rng(0).random((32 * SUB_SLICE_TILES, 3, 32, 32))
        peaks = []
        for n in (2 * SUB_SLICE_TILES, 32 * SUB_SLICE_TILES):
            batch = np.ascontiguousarray(pixels[:n])
            tracemalloc.start()
            try:
                model.image_features(batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks


def test_one_conv_kernel_for_the_tape_its_batched_replay_and_the_frozen_encoder(monkeypatch):
    """`tape.conv_gemm` is the one conv: image_features calls it once per stage
    per sub-slice of SUB_SLICE_TILES tiles, a conv_block once per sub-slice
    when recorded and when replayed, a batched replay's rows riding along.
    Each call is logged by the leading axes of its input and kernel."""
    real, calls = tape_module.conv_gemm, []
    assert encoders.conv_gemm is real

    def logged(xp, kernel, *args):
        calls.append((xp.shape[:-3], kernel.shape[:-4]))
        return real(xp, kernel, *args)

    for module in (tape_module, encoders):
        monkeypatch.setattr(module, "conv_gemm", logged)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    model = Model.initialize(tiny_config(), seed=0)
    model.image_features(np.zeros((37, 3, 16, 16)))
    step = SUB_SLICE_TILES
    assert sorted(calls) == sorted(((min(step, 37 - start),), ()) for start in range(0, 37, step)
                                   for _ in model.cfg.image.widths)

    calls.clear()
    rng = np.random.default_rng(0)
    tape = Tape()
    leaves = [tape.leaf(name, rng.normal(size=shape)) for name, shape in
              (("x", (19, 2, 5, 5)), ("k", (3, 2, 3, 3)), ("gamma", (3,)), ("beta", (3,)))]
    tape.conv_block(*leaves, stride=2, padding=1)
    assert sorted(calls) == [((3,), ()), ((step,), ()), ((step,), ())]
    xs, ks = rng.normal(size=(4, 19, 2, 5, 5)), rng.normal(size=(4, 3, 2, 3, 3))
    for overrides, x_rows, k_rows in (({"x": xs}, (4,), ()), ({"k": ks}, (), (4,)),
                                      ({"x": xs, "k": ks}, (4,), (4,))):
        calls.clear()
        _evaluate(tape, overrides, batched=True)
        assert sorted(calls) == [((*x_rows, b), k_rows) for b in (3, step, step)]


def test_training_conv_stages_keep_a_sub_slice_working_set():
    """One default-shape training tower (64 tiles of 32 px), recorded and
    differentiated, peaks at 18.5 MB under tracemalloc (17.6 MB on one
    worker), against 21.1 MB when each conv_block padded and im2col'd the
    whole batch in its forward and backward and ran col2im into a whole-batch
    padded buffer, and 18.3 MB (17.4 MB) when its norm ran whole-batch."""
    model = Model.initialize(ModelConfig(), seed=0)
    rng = np.random.default_rng(0)
    pixels, w = rng.random((64, 3, 32, 32)), rng.normal(size=(64, model.cfg.image.d_img))
    tracemalloc.start()
    try:
        tape = Tape()
        leaves = {name: tape.leaf(name, model.params.get(name), trainable=True)
                  for name in model.params.names() if name.startswith("img.")}
        feat, _ = image_feature_graph(tape, leaves, model.cfg.image, tape.leaf("pixels", pixels))
        tape.mark_output("loss", tape.sum(tape.mul(feat, tape.const(w))))
        backward(tape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 19.5e6, peak


def reference_image_features(model: Model, pixels: np.ndarray) -> np.ndarray:
    """The frozen encoder over the whole batch in plain numpy: each stage's
    conv as per-tile GEMMs over sliding-window patch columns (the GEMMs fix
    the bits), the norm with the running statistics, relu, the pool, then the
    linear layer."""
    image, get = model.cfg.image, model.params.get
    h = pixels
    for i in range(1, len(image.widths) + 1):
        h = reference_conv2d(h, get(f"img.conv{i}.kernel"), image.stride, image.padding)
        h, _, _ = reference_channel_norm(h, get(f"img.norm{i}.gamma"), get(f"img.norm{i}.beta"),
                                         image.norm_eps, model.stats[f"img.norm{i}.mean"],
                                         model.stats[f"img.norm{i}.var"])
        h = np.maximum(h, 0.0)
    return reference_global_avg_pool(h) @ get("img.fc.weight") + get("img.fc.bias")


def assert_features_equal_the_graph(cfg: ModelConfig, n: int, as_list: bool,
                                    dtype=np.float64) -> None:
    """image_features of `dtype` pixels bit for bit against
    reference_image_features of their float64 widening over the whole batch,
    with running statistics and norm scales and shifts away from their
    initial values."""
    model = Model.initialize(cfg, seed=3)
    rng = np.random.default_rng(n)
    for name in model.stats:
        model.stats[name] = rng.random(model.stats[name].shape) + 0.5
    for name in model.params.names():
        if name.startswith("img.norm"):
            model.params.set(name, rng.normal(size=model.params.get(name).shape))
    image = cfg.image
    pixels = rng.random((n, image.in_channels, image.in_size, image.in_size)).astype(dtype)
    features = model.image_features(list(pixels) if as_list else pixels)
    reference = reference_image_features(model, pixels.astype(np.float64))
    assert features.tobytes() == reference.tobytes()


def location_outputs(model: Model, features: np.ndarray) -> np.ndarray:
    """The location tower on a fresh tape, as the training graph builds it."""
    tape = Tape()
    leaves = {name: tape.leaf(name, model.params.get(name))
              for name in model.params.names() if name.startswith("loc.")}
    x = tape.leaf("batch.locfeat", np.atleast_2d(features))
    return location_feature_graph(tape, leaves, model.cfg.location, x).value


class TestLocationEncoder:
    def test_output_dim(self, model):
        out = location_outputs(model, location_input_features(10.0, 20.0, np.zeros(20)))
        assert out.shape == (1, 8)

    def test_default_full_scale_dim_reachable(self):
        cfg = tiny_config(location=LocationEncoderConfig(hidden=32, depth=2, d_loc=256))
        m = Model.initialize(cfg, seed=3)
        feats = location_input_features(0.0, 0.0, np.zeros(20))
        assert location_outputs(m, feats).shape == (1, 256)

    def test_covariate_flag_mismatch(self, model):
        with pytest.raises(ValueError, match=r"matmul shape mismatch .*\(1, 4\) @ \(24, 16\)"):
            location_outputs(model, location_input_features(0.0, 0.0))
        no_cov = Model.initialize(
            tiny_config(location=LocationEncoderConfig(use_covariates=False,
                                                       hidden=8, depth=1, d_loc=8)), seed=0)
        with pytest.raises(ValueError, match=r"matmul shape mismatch .*\(1, 24\) @ \(4, 8\)"):
            location_outputs(no_cov, location_input_features(0.0, 0.0, np.zeros(20)))
        assert location_outputs(no_cov, location_input_features(0.0, 0.0)).shape == (1, 8)


class TestProjectionHeads:
    def test_all_heads_unit_norm(self, model):
        rng = np.random.default_rng(4)
        z_txt = model.tile_text_embeddings(rng.random((3, 3, 16, 16)))
        e_txt = model.project_text_rows(rng.normal(size=(3, 12)))
        for rows in (z_txt, e_txt):
            assert rows.shape == (3, 8)
            np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_default_embed_dim_mirrors_full_scale(self):
        cfg = ModelConfig(image=ImageEncoderConfig(in_size=16, widths=(4,), d_img=16),
                          embed_dim=512)
        m = Model.initialize(cfg, seed=0)
        assert m.project_text_rows(np.ones((1, 64))).shape == (1, 512)

    def test_large_text_dim_supported(self):
        cfg = tiny_config(d_txt=4096)
        m = Model.initialize(cfg, seed=0)
        assert m.project_text_rows(np.ones((1, 4096))).shape == (1, 8)

    @pytest.mark.parametrize("scale", [0.5, 2.0, 10.0])
    def test_positive_scale_invariance(self, model, scale):
        rng = np.random.default_rng(6)
        raw = rng.normal(size=(3, 12))
        np.testing.assert_allclose(model.project_text_rows(raw),
                                   model.project_text_rows(scale * raw), atol=1e-12)

    def test_degenerate_feature_rejected(self, model):
        with pytest.raises(ValueError, match="degenerate embedding row"):
            model.project_text_rows(np.zeros((1, 12)))


class TestTrainableMask:
    def test_full_covers_everything(self, model):
        mask = trainable_mask("full", model.params)
        assert mask == frozenset(model.params.names())

    def test_scale_shift_excludes_conv_kernels(self, model):
        mask = trainable_mask("scale_shift", model.params)
        assert "img.conv1.kernel" not in mask
        assert "img.fc.weight" not in mask
        assert "img.norm1.gamma" in mask and "img.norm2.beta" in mask
        assert all(h in mask for h in ("heads.image.weight", "heads.text.weight",
                                       "heads.location.weight"))
        assert "loc.fc0.weight" in mask

    def test_freeze_location_removes_location_params(self, model):
        mask = trainable_mask("scale_shift", model.params, freeze_location=True)
        assert not any(name.startswith("loc.") for name in mask)
        full = trainable_mask("full", model.params, freeze_location=True)
        assert not any(name.startswith("loc.") for name in full)
        assert "img.conv1.kernel" in full

    def test_unknown_mode_rejected(self, model):
        with pytest.raises(ValueError, match="unknown fine-tuning mode"):
            trainable_mask("lora", model.params)

    def test_adam_under_scale_shift_leaves_kernels_bit_identical(self, model):
        mask = trainable_mask("scale_shift", model.params)
        kernel_before = model.params.get("img.conv1.kernel").copy()
        fc_before = model.params.get("img.fc.weight").copy()
        grads = {name: np.ones_like(model.params.get(name)) for name in sorted(mask)}
        adam_step(model.params, grads, AdamState(lr=0.05))
        np.testing.assert_array_equal(model.params.get("img.conv1.kernel"), kernel_before)
        np.testing.assert_array_equal(model.params.get("img.fc.weight"), fc_before)
        assert not np.array_equal(model.params.get("img.norm1.gamma"), np.ones(4))
