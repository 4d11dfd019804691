import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satalign.augment import augment_geometric, augment_photometric, fit_to_input, resize_pixels
from satalign.geodata import TileRecord


def tile(seed=0, c=3, h=12, w=12):
    rng = np.random.default_rng(seed)
    return TileRecord(tile_id=7, lat=1.0, lon=2.0, timestamp=5,
                      pixels=rng.random((c, h, w)))


def batch(t: TileRecord) -> np.ndarray:
    """A batch of one tile."""
    return t.pixels[None]


def geometric_draws(seed, n=1):
    """Flip flags and crop offsets for n tiles, drawn as assemble_batch draws them."""
    rng = np.random.default_rng(seed)
    return rng.random((n, 2)) < 0.5, rng.random((n, 2))


def photometric_draws(seed, n=1, c=3):
    """Jitter and channel-mixing draws for n tiles of c channels."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(n, c)), rng.uniform(-1.0, 1.0, size=(n, c, c))


def flipped(px, horizontal, vertical):
    """`px` after augment_geometric's flip alone: a crop of the whole tile."""
    flips = np.array([[horizontal, vertical]])
    return augment_geometric(px[None], px.shape[-1], flips, np.zeros((1, 2)))[0]


class TestFlips:
    def test_horizontal_flip_is_involution(self):
        px = tile().pixels
        once = flipped(px, True, False)
        np.testing.assert_array_equal(once, np.flip(px, axis=2))
        np.testing.assert_array_equal(flipped(once, True, False), px)

    def test_vertical_flip_is_involution(self):
        px = tile().pixels
        once = flipped(px, False, True)
        np.testing.assert_array_equal(once, np.flip(px, axis=1))
        np.testing.assert_array_equal(flipped(once, False, True), px)

    def test_flips_preserve_pixel_multiset(self):
        px = tile(seed=4).pixels
        for hor in (False, True):
            for ver in (False, True):
                np.testing.assert_array_equal(np.sort(flipped(px, hor, ver).ravel()),
                                              np.sort(px.ravel()))


class TestGeometric:
    def test_full_size_crop_is_identity_up_to_flips(self):
        t = tile(h=8, w=8)
        out = augment_geometric(batch(t), 8, *geometric_draws(11))[0]
        candidates = [np.flip(t.pixels, axes) for axes in ((), 1, 2, (1, 2))]
        assert any(np.array_equal(out, cand) for cand in candidates)

    def test_output_dims_match_requested_input_size(self):
        t = tile(h=16, w=16)
        for out_size in (8, 12, 16, 20):
            out = augment_geometric(batch(t), 10, *geometric_draws(0), out_size=out_size)
            assert out.shape == (1, 3, out_size, out_size)

    def test_crop_too_large_rejected(self):
        with pytest.raises(ValueError, match="crop size"):
            augment_geometric(batch(tile(h=8, w=8)), 9, *geometric_draws(0))

    def test_deterministic_given_seed(self):
        t = tile(seed=2)
        a = augment_geometric(batch(t), 8, *geometric_draws(42), out_size=12)
        b = augment_geometric(batch(t), 8, *geometric_draws(42), out_size=12)
        np.testing.assert_array_equal(a, b)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_values_stay_in_unit_interval(self, seed):
        out = augment_geometric(batch(tile(seed=seed % 17)), 9, *geometric_draws(seed),
                                out_size=14)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_rows_keep_their_tile_and_seed(self):
        # Row i of a batch is tile i augmented with row i of the draws,
        # whatever the rest of the batch holds; tiles of different sizes may
        # share a batch.
        tiles = [tile(seed=0, h=12, w=12), tile(seed=1, h=16, w=14), tile(seed=2, h=9, w=9)]
        flips, offsets = geometric_draws(5, n=3)
        out = augment_geometric([t.pixels for t in tiles], 8, flips, offsets, out_size=10)
        for i, t in enumerate(tiles):
            alone = augment_geometric(batch(t), 8, flips[i:i + 1], offsets[i:i + 1],
                                      out_size=10)
            assert out[i].tobytes() == alone[0].tobytes()

    def test_offsets_place_the_crop(self):
        # an offset draw u places the crop at floor(u * (H - crop + 1)); the
        # largest draw below 1 still lands on the last valid position
        px = np.arange(2 * 6 * 7, dtype=np.float64).reshape(1, 2, 6, 7) / 100
        flips = np.zeros((1, 2), dtype=bool)
        for u, top, left in ((0.0, 0, 0), (0.5, 1, 2), (np.nextafter(1.0, 0.0), 2, 3)):
            out = augment_geometric(px, 4, flips, np.array([[u, u]]))
            np.testing.assert_array_equal(out[0], px[0, :, top:top + 4, left:left + 4])


class TestPhotometric:
    def test_zero_jitter_zero_mix_is_identity(self):
        t = tile(seed=3)
        out = augment_photometric(batch(t), 0.0, 0.0, *photometric_draws(99))
        np.testing.assert_array_equal(out[0], t.pixels)

    def test_identity_mixing_matrix_leaves_pixels(self):
        # mix_strength 0 forces the mixing matrix to the identity
        t = tile(seed=5)
        out = augment_photometric(batch(t), 0.0, 0.0, *photometric_draws(1))
        np.testing.assert_array_equal(out[0], t.pixels)

    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 0.5), st.floats(0.0, 0.3))
    @settings(max_examples=60, deadline=None)
    def test_outputs_always_clamped(self, seed, jitter, mix):
        out = augment_photometric(batch(tile(seed=seed % 13)), jitter, mix,
                                  *photometric_draws(seed))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_negative_scales_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            augment_photometric(batch(tile()), -0.1, 0.0, *photometric_draws(0))


class TestResize:
    def test_identity_when_same_size(self):
        px = tile().pixels
        np.testing.assert_array_equal(resize_pixels(px, 12, 12), px)

    def test_constant_image_stays_constant(self):
        px = np.full((3, 6, 6), 0.4)
        np.testing.assert_allclose(resize_pixels(px, 10, 10), 0.4, atol=1e-12)

    def test_endpoints_preserved(self):
        px = np.zeros((1, 4, 4))
        px[0, 0, 0] = 1.0
        px[0, -1, -1] = 0.5
        out = resize_pixels(px, 9, 9)
        assert out[0, 0, 0] == pytest.approx(1.0)
        assert out[0, -1, -1] == pytest.approx(0.5)

    def test_crop_bounds_checked(self):
        # an offset draw outside [0, 1) places the crop past the tile's edge
        flips = np.zeros((1, 2), dtype=bool)
        with pytest.raises(ValueError, match=r"^crop \[5:13, 0:8\] outside tile of size 12x12$"):
            augment_geometric(batch(tile()), 8, flips, np.array([[1.0, 0.0]]))
        with pytest.raises(ValueError, match=r"^crop \[0:8, -5:3\] outside tile of size 12x12$"):
            augment_geometric(batch(tile()), 8, flips, np.array([[0.0, -1.0]]))

    def test_fit_to_input(self):
        out = fit_to_input(batch(tile(h=20, w=20)), 12)
        assert out.shape == (1, 3, 12, 12)
