"""The batched training input path against a per-tile pipeline.

`assemble_batch` and `pair_samples` must give the same bits as the per-tile
augmentation, fed the same per-batch draws, and the per-observation
brute-force pairing copied below, with its scalar bilinear sampling and its
one `rng.integers` call per draw. The copies are oracles, kept as the
plain-numpy losses are kept for the tape losses.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_train_config, world_and_samples
from satalign import geodata
from satalign.augment import augment_photometric, resize_pixels
from satalign.encoders import location_input_features
from satalign.geodata import (CovariateRaster, Observations, PairedSamples, TextSections,
                              TileRecord, pair_samples)
from satalign.training import assemble_batch

# -- per-tile oracle ------------------------------------------------------------


def _bilinear_weights(n_in, n_out):
    pos = np.linspace(0.0, n_in - 1, n_out) if n_out > 1 else np.zeros(1)
    weights = np.zeros((n_out, n_in))
    for i, p in enumerate(pos):
        lo = min(math.floor(p), max(n_in - 2, 0))
        weights[i, lo] += 1 - (p - lo)
        weights[i, min(lo + 1, n_in - 1)] += p - lo
    return weights


def _resize_tile(pixels, out_h, out_w):
    """Channel by channel: the column weights, then the row weights."""
    c, h, w = pixels.shape
    if (h, w) == (out_h, out_w):
        return pixels.copy()
    wy, wx = _bilinear_weights(h, out_h), _bilinear_weights(w, out_w)
    return np.stack([wy @ (np.ascontiguousarray(pixels[k]) @ wx.T) for k in range(c)])


def _geometric_tile(pixels, crop_size, flip, offset, out_size):
    c, h, w = pixels.shape
    top = math.floor(offset[0] * (h - crop_size + 1))
    left = math.floor(offset[1] * (w - crop_size + 1))
    out = pixels
    if flip[0]:
        out = out[:, :, ::-1]
    if flip[1]:
        out = out[:, ::-1, :]
    out = np.ascontiguousarray(out)[:, top:top + crop_size, left:left + crop_size].copy()
    return np.clip(_resize_tile(out, out_size, out_size), 0.0, 1.0)


def _photometric_tile(pixels, jitter, mix_strength, shift, mix):
    c = pixels.shape[0]
    out = pixels + jitter * shift[:, None, None]
    if mix_strength > 0:
        matrix = np.eye(c) + mix_strength * mix
        row_sums = matrix.sum(axis=1, keepdims=True)
        matrix = matrix / np.where(np.abs(row_sums) < 1e-6, 1.0, row_sums)
        mixed = []
        for d in range(c):
            acc = matrix[d, 0] * out[0]
            for k in range(1, c):
                acc = acc + matrix[d, k] * out[k]
            mixed.append(acc)
        out = np.stack(mixed)
    return np.clip(out, 0.0, 1.0)


def assemble_per_tile(samples, config, rng):
    in_size = config.model.image.in_size
    use_cov = config.model.location.use_covariates
    tiles = samples.tiles
    n, c = len(samples), tiles[samples.tile_b[0]].pixels.shape[0]
    flips = rng.random((n, 2)) < 0.5
    offsets = rng.random((n, 2))
    shift = rng.uniform(-1.0, 1.0, size=(2, n, c))
    mix = rng.uniform(-1.0, 1.0, size=(2, n, c, c))
    tiles_a, tiles_b, locfeat, text = [], [], [], []
    for i in range(n):
        pixels_a, pixels_b = tiles[samples.tile_a[i]].pixels, tiles[samples.tile_b[i]].pixels
        fitted = np.clip(_resize_tile(pixels_a, in_size, in_size), 0.0, 1.0)
        tiles_a.append(_photometric_tile(fitted, config.jitter, config.channel_mix,
                                         shift[0, i], mix[0, i]))
        tile_b = _geometric_tile(pixels_b, config.crop_size, flips[i], offsets[i], in_size)
        tiles_b.append(_photometric_tile(tile_b, config.jitter, config.channel_mix,
                                         shift[1, i], mix[1, i]))
        locfeat.append(location_input_features(float(samples.lat[i]), float(samples.lon[i]),
                                               samples.covariates[i] if use_cov else None))
        text.append(samples.texts.embeddings[samples.text_row[i]])
    return {"tiles_a": np.stack(tiles_a), "tiles_b": np.stack(tiles_b),
            "locfeat": np.stack(locfeat), "text": np.stack(text)}


# -- brute-force pairing oracle ------------------------------------------------


def bilinear_sample_scalar(raster, lat, lon):
    """The covariate vector at one (lat, lon), or ValueError outside the
    node hull."""
    r = (lat - raster.lat0) / raster.dlat
    c = (lon - raster.lon0) / raster.dlon
    if not (0.0 <= r <= raster.rows - 1 and 0.0 <= c <= raster.cols - 1):
        raise ValueError(f"query ({lat}, {lon}) outside raster bounds")
    r0 = min(int(math.floor(r)), raster.rows - 2) if raster.rows > 1 else 0
    c0 = min(int(math.floor(c)), raster.cols - 2) if raster.cols > 1 else 0
    tr = r - r0
    tc = c - c0
    v = raster.values
    if raster.rows == 1 and raster.cols == 1:
        return v[0, 0].copy()
    if raster.rows == 1:
        return (1 - tc) * v[0, c0] + tc * v[0, c0 + 1]
    if raster.cols == 1:
        return (1 - tr) * v[r0, 0] + tr * v[r0 + 1, 0]
    return ((1 - tr) * (1 - tc) * v[r0, c0]
            + (1 - tr) * tc * v[r0, c0 + 1]
            + tr * (1 - tc) * v[r0 + 1, c0]
            + tr * tc * v[r0 + 1, c0 + 1])


def pair_brute_force(observations, tiles, texts, raster, matching_radius, seed):
    """Per observation: (tile_a, tile_b, text row, lat, lon, covariate
    bytes) of each paired one, and the skip counts."""
    rng = np.random.default_rng(seed)
    by_center = {}
    for i, t in enumerate(tiles):
        by_center.setdefault((t.lat, t.lon), []).append(i)
    for group in by_center.values():
        group.sort(key=lambda i: tiles[i].tile_id)
    centers = sorted(by_center)
    by_species = {}
    for row, species in enumerate(texts.species.tolist()):
        by_species.setdefault(species, []).append(row)
    for group in by_species.values():
        group.sort(key=lambda row: texts.section[row])
    samples = []
    skips = {"no_tile": 0, "no_text": 0, "covariates_out_of_bounds": 0}
    for lat, lon, species in zip(observations.lat.tolist(), observations.lon.tolist(),
                                 observations.species.tolist()):
        best = None
        for center in centers:
            dist = float(np.hypot(lat - center[0], lon - center[1]))
            if dist > matching_radius:
                continue
            key = (dist, tiles[by_center[center][0]].tile_id)
            if best is None or key < best[0]:
                best = (key, center)
        if best is None:
            skips["no_tile"] += 1
            continue
        sections = by_species.get(species)
        if not sections:
            skips["no_text"] += 1
            continue
        try:
            covariates = bilinear_sample_scalar(raster, lat, lon)
        except ValueError:
            skips["covariates_out_of_bounds"] += 1
            continue
        group = by_center[best[1]]
        tile_a = group[0]
        alternates = [i for i in group if tiles[i].timestamp != tiles[tile_a].timestamp]
        tile_b = alternates[rng.integers(len(alternates))] if alternates else tile_a
        row = sections[rng.integers(len(sections))]
        samples.append((tile_a, tile_b, row, lat, lon, raster.normalize(covariates).tobytes()))
    return samples, {k: v for k, v in skips.items() if v}


# -- assemble_batch ------------------------------------------------------------

# (tile size, model input size, crop size, jitter, channel mix)
BATCH_CASES = {
    "tile_is_input_size": (16, 16, 12, 0.02, 0.05),
    "tile_resized_to_input": (20, 16, 12, 0.02, 0.05),
    "tile_upsampled_to_input": (12, 16, 10, 0.05, 0.1),
    "crop_is_input_size": (20, 16, 16, 0.02, 0.05),
    "no_resize_anywhere": (16, 16, 16, 0.02, 0.05),
    "no_jitter": (20, 16, 12, 0.0, 0.05),
    "no_channel_mix": (20, 16, 12, 0.02, 0.0),
    "identity_photometric": (20, 16, 12, 0.0, 0.0),
}


def _config(in_size, crop, jitter, mix):
    config = small_train_config(crop_size=crop, jitter=jitter, channel_mix=mix)
    image = replace(config.model.image, in_size=in_size)
    return replace(config, model=replace(config.model, image=image))


def _assert_same_batch(samples, config, seed):
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    new = assemble_batch(samples, config, rng_new)
    old = assemble_per_tile(samples, config, rng_old)
    assert sorted(new) == sorted(old)
    for key in old:
        assert new[key].shape == old[key].shape, key
        assert new[key].flags.c_contiguous, key
        assert new[key].tobytes() == old[key].tobytes(), key
    assert rng_new.bit_generator.state == rng_old.bit_generator.state


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_assemble_batch_matches_per_tile_pipeline(case):
    tile_size, in_size, crop, jitter, mix = BATCH_CASES[case]
    _, samples = world_and_samples(seed=1, tile_size=tile_size)
    config = _config(in_size, crop, jitter, mix)
    for seed in range(4):
        order = np.random.default_rng(seed + 100).permutation(len(samples))[:16]
        _assert_same_batch(samples[order], config, seed)


def test_assemble_batch_matches_per_tile_pipeline_with_mixed_tile_sizes():
    # tile_a of three sizes in one batch: one resized group per size, one of
    # them the identity, and tile_b crops from tiles of several sizes
    _, samples = world_and_samples(seed=2, tile_size=20)
    samples = samples[:18]
    tiles = []
    for i in range(len(samples)):
        size = (20, 16, 24)[i % 3]
        for k in (samples.tile_a[i], samples.tile_b[i]):
            tile = samples.tiles[k]
            tiles.append(replace(tile, pixels=np.clip(_resize_tile(tile.pixels, size, size), 0, 1)))
    mixed = replace(samples, tiles=tiles, tile_a=np.arange(0, len(tiles), 2),
                    tile_b=np.arange(1, len(tiles), 2))
    for seed in range(3):
        _assert_same_batch(mixed, _config(16, 12, 0.02, 0.05), seed)


def _resize_scalar(pixels, out_h, out_w):
    """Bilinear resize of one (H, W) array, one output pixel at a time."""
    h, w = pixels.shape
    ys = np.linspace(0.0, h - 1, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1, out_w) if out_w > 1 else np.zeros(1)
    out = np.empty((out_h, out_w))
    for i, y in enumerate(ys):
        y0 = min(math.floor(y), max(h - 2, 0))
        y1, ty = min(y0 + 1, h - 1), y - y0
        for j, x in enumerate(xs):
            x0 = min(math.floor(x), max(w - 2, 0))
            x1, tx = min(x0 + 1, w - 1), x - x0
            top = (1 - tx) * pixels[y0, x0] + tx * pixels[y0, x1]
            bot = (1 - tx) * pixels[y1, x0] + tx * pixels[y1, x1]
            out[i, j] = (1 - ty) * top + ty * bot
    return out


@pytest.mark.parametrize("shape, out_hw", [((3, 12, 12), (16, 14)), ((4, 3, 12, 12), (16, 14)),
                                           ((2, 4, 3, 9, 12), (16, 14)),
                                           ((2, 3, 20, 17), (7, 1)), ((2, 3, 1, 5), (4, 9))])
def test_resize_matches_a_scalar_bilinear_loop(shape, out_hw):
    pixels = np.random.default_rng(0).random(shape)
    out = resize_pixels(pixels, *out_hw)
    assert out.shape == shape[:-2] + out_hw
    assert out.flags.c_contiguous
    flat = pixels.reshape((-1,) + shape[-2:])
    for i, channel in enumerate(out.reshape((-1,) + out_hw)):
        np.testing.assert_allclose(channel, _resize_scalar(flat[i], *out_hw), rtol=0, atol=1e-15)


def test_photometric_bits_do_not_depend_on_memory_layout():
    rng = np.random.default_rng(0)
    n, c = 8, 3
    shift, mix = rng.uniform(-1, 1, size=(n, c)), rng.uniform(-1, 1, size=(n, c, c))
    wide = rng.random((n, c, 16, 32))
    # every other column of a wider batch, and the batch laid out (n, W, H, C)
    # in memory, as the gather-based resize used to return it
    batch = np.ascontiguousarray(wide[..., ::2])
    whc = np.ascontiguousarray(np.transpose(batch, (0, 3, 2, 1)))
    views = [wide[..., ::2], np.transpose(whc, (0, 3, 2, 1))]
    expected = augment_photometric(batch, 0.05, 0.1, shift, mix)
    assert expected.flags.c_contiguous
    for view in views:
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(view, batch)
        out = augment_photometric(view, 0.05, 0.1, shift, mix)
        assert out.flags.c_contiguous
        assert out.tobytes() == expected.tobytes()


# -- pair_samples --------------------------------------------------------------


def _pairing(samples: PairedSamples):
    return list(zip(samples.tile_a.tolist(), samples.tile_b.tolist(), samples.text_row.tolist(),
                    samples.lat.tolist(), samples.lon.tolist(),
                    [row.tobytes() for row in samples.covariates]))


def _assert_same_pairing(observations, tiles, texts, raster, radius, seed=0):
    expected = pair_brute_force(observations, tiles, texts, raster, radius, seed)
    result = pair_samples(observations, tiles, texts, raster, radius, seed)
    assert _pairing(result.samples) == expected[0]
    assert result.skips == expected[1]
    return expected


def _observations(rows):
    lat, lon, species = zip(*rows)
    return Observations(lat=lat, lon=lon, species=species)


def _raster():
    values = np.random.default_rng(0).normal(size=(9, 9, 20))
    return CovariateRaster(lat0=-4.0, lon0=-4.0, dlat=1.0, dlon=1.0, values=values)


def _texts(n_species=3):
    rng = np.random.default_rng(1)
    species = np.repeat(np.arange(n_species), 2)
    return TextSections(species=species, section=np.tile([0, 1], n_species),
                        embeddings=rng.normal(size=(len(species), 4)))


def _tiles(centers, seed=0, timestamps=2):
    """Tiles at the given centers with shuffled ids, so the lowest tile_id
    is not tied to the first center in sorted order."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(len(centers) * timestamps)
    pixels = np.zeros((3, 4, 4))
    return [TileRecord(tile_id=int(ids[k * timestamps + t]), lat=lat, lon=lon,
                       timestamp=100 * t, pixels=pixels)
            for k, (lat, lon) in enumerate(centers) for t in range(timestamps)]


def test_pairing_on_a_dyadic_lattice_matches_brute_force():
    # Every coordinate is a multiple of 1/16, so subtraction and hypot are
    # exact: observations sit exactly at the radius (offsets (5, 0) and
    # (3, 4) sixteenths), exactly on cell edges (the cells are 10/16 wide),
    # at negative coordinates, and halfway between centers, where the lower
    # tile_id must win.
    radius = 5 / 16
    rng = np.random.default_rng(3)
    centers = sorted({(int(a) / 8, int(b) / 8) for a, b in rng.integers(-24, 24, size=(60, 2))})
    tiles = _tiles(centers, seed=3)
    rows = []
    for lat, lon in centers:
        for dlat, dlon in ((5, 0), (0, -5), (-3, 4), (4, -3), (1, 1), (6, 2)):
            rows.append((lat + dlat / 16, lon + dlon / 16, len(rows) % 4))
    for k in range(-40, 40, 3):  # on cell edges, also far from any center
        rows.append((k * 10 / 16 / 4, -k * 10 / 16 / 4, 0))
    samples, skips = _assert_same_pairing(_observations(rows), tiles, _texts(), _raster(),
                                          radius)
    assert skips["no_tile"] and skips["no_text"]
    at_radius = [s for s in samples
                 if np.hypot(s[3] - tiles[s[0]].lat, s[4] - tiles[s[0]].lon) == radius]
    assert at_radius


def test_pairing_tie_goes_to_the_lower_tile_id():
    # three centers exactly 0.25 away; the lowest tile_id sits at the center
    # that sorts last
    raster, texts = _raster(), _texts()
    pixels = np.zeros((3, 4, 4))
    tiles = [TileRecord(tile_id=7, lat=-0.5, lon=-0.75, timestamp=0, pixels=pixels),
             TileRecord(tile_id=5, lat=-0.5, lon=-0.25, timestamp=0, pixels=pixels),
             TileRecord(tile_id=3, lat=-0.25, lon=-0.5, timestamp=0, pixels=pixels)]
    samples, _ = _assert_same_pairing(_observations([(-0.5, -0.5, 0)]), tiles, texts, raster,
                                      0.25)
    assert tiles[samples[0][0]].tile_id == 3


@pytest.mark.parametrize("radius", [0.05, 0.1, 0.37, 1e-7])
def test_pairing_on_random_worlds_matches_brute_force(radius):
    # 200 centers about 1.4 radii apart, around a point with negative lat/lon
    rng = np.random.default_rng(int(radius * 1e7))
    centers = [(-1.3 + lat, -2.7 + lon)
               for lat, lon in rng.uniform(-10 * radius, 10 * radius, size=(200, 2))]
    tiles = _tiles(centers, seed=5) + [
        TileRecord(tile_id=10_000, lat=1e300, lon=0.0, timestamp=0, pixels=np.zeros((3, 4, 4))),
        TileRecord(tile_id=10_001, lat=math.inf, lon=1.0, timestamp=0,
                   pixels=np.zeros((3, 4, 4)))]
    rows = []
    for lat, lon in centers[:150]:
        angle = rng.uniform(0, 2 * math.pi, size=3)
        scale = rng.uniform(0.5, 1.5, size=3) * radius
        for a, s in zip(angle, scale):
            rows.append((lat + s * math.sin(a), lon + s * math.cos(a), int(rng.integers(4))))
    _assert_same_pairing(_observations(rows), tiles, _texts(), _raster(), radius, seed=11)


def test_pairing_draw_order_with_skips_and_uneven_groups():
    # Centers hold 1 to 4 timestamps (one with a repeated timestamp), so
    # some samples make no tile_b draw and others draw from 2 or 3
    # alternates; species hold 1 to 3 sections, one species has none, and
    # part of the area lies outside the raster. Every skip reason occurs
    # between paired observations, so the one interleaved rng.integers call
    # must keep the per-observation draw order to match.
    rng = np.random.default_rng(21)
    pixels = np.zeros((3, 4, 4))
    tiles, tile_id = [], 0
    for k, lat in enumerate(np.linspace(-3.5, 5.5, 10)):
        for t in range(k % 4 + 1):
            stamp = 0 if (k == 5 and t == 1) else 100 * t
            tiles.append(TileRecord(tile_id=int(tile_id), lat=float(lat), lon=0.25 * k,
                                    timestamp=stamp, pixels=pixels))
            tile_id += 1
    order = rng.permutation(len(tiles))
    tiles = [tiles[i] for i in order]
    species = [0, 1, 1, 2, 2, 2, 3, 3]
    texts = TextSections(species=species, section=[0, 1, 0, 2, 0, 1, 1, 0],
                         embeddings=rng.normal(size=(len(species), 4)))
    rows = []
    for tile in tiles:
        for _ in range(4):
            rows.append((tile.lat + rng.uniform(-0.04, 0.04), tile.lon + rng.uniform(-0.04, 0.04),
                         int(rng.integers(5))))
        rows.append((tile.lat + 0.3, tile.lon, 0))  # no tile in reach
    rng.shuffle(rows)
    samples, skips = _assert_same_pairing(_observations(rows), tiles, texts, _raster(), 0.05,
                                          seed=4)
    assert set(skips) == {"no_tile", "no_text", "covariates_out_of_bounds"}
    alternates = {a: sum(t.lat == tiles[a].lat and t.timestamp != tiles[a].timestamp
                         for t in tiles) for a, *_ in samples}
    assert {0, 1, 2, 3} <= set(alternates.values())
    assert {1, 2, 3} <= {species.count(texts.species[s[2]]) for s in samples}


def test_one_integers_call_matches_a_call_per_draw():
    rng = np.random.default_rng(0)
    highs = np.concatenate([rng.integers(1, 5, size=2000), rng.integers(1, 2 ** 40, size=1000),
                            np.ones(500, dtype=np.int64), [2 ** 62, 2 ** 32, 2 ** 32 + 1]])
    rng.shuffle(highs)
    one, each = np.random.default_rng(7), np.random.default_rng(7)
    assert one.integers(highs).tolist() == [int(each.integers(int(h))) for h in highs]
    assert one.bit_generator.state == each.bit_generator.state


def test_pairing_on_a_synthetic_world_matches_brute_force():
    world, _ = world_and_samples(seed=6)
    obs = world.observations
    observations = Observations(lat=np.append(obs.lat, world.tiles[3].lat + 0.03),
                                lon=np.append(obs.lon, world.tiles[3].lon - 0.04),
                                species=np.append(obs.species, obs.species[0]))
    _assert_same_pairing(observations, world.tiles, world.texts, world.raster, 0.05, seed=6)


_LATTICE = st.integers(-72, 72).map(lambda k: k / 16)  # out to 4.5°, past the raster's 4°


@st.composite
def pairing_worlds(draw):
    """Observations, tiles and a radius. Centers on a 1/16° lattice, where
    differences are exact, or anywhere, each holding one to three tiles
    whose timestamps may repeat, with shuffled tile ids. Observations at a
    center, at the radius (offsets of (5, 0) and (3, 4) fifths of it, exact
    for the radii 5/16 and 10/16), scattered around it, or halfway between
    two centers, which are then equidistant and the lower tile_id must win."""
    radius = draw(st.sampled_from([1e-7, 0.05, 1 / 16, 5 / 16, 10 / 16, 2.5,
                                   geodata.MAX_RADIUS]))
    point = st.one_of(st.tuples(_LATTICE, _LATTICE),
                      st.tuples(st.floats(-4.5, 4.5), st.floats(-4.5, 4.5)))
    centers = draw(st.lists(point, min_size=1, max_size=6, unique=True))
    stamps = [(c, t) for c in centers
              for t in draw(st.lists(st.sampled_from([0, 100, 200]), min_size=1, max_size=3))]
    ids = draw(st.permutations(range(len(stamps))))
    tiles = [TileRecord(tile_id=ids[k], lat=lat, lon=lon, timestamp=t, pixels=np.zeros((3, 4, 4)))
             for k, ((lat, lon), t) in enumerate(stamps)]
    step = min(radius, 1.0) / 5
    offset = st.one_of(st.sampled_from([(0, 0), (5, 0), (0, -5), (3, 4), (-4, -3)]),
                       st.tuples(st.floats(-10, 10), st.floats(-10, 10)))
    rows = []
    for _ in range(draw(st.integers(1, 30))):
        (lat, lon), other = draw(st.sampled_from(centers)), draw(st.sampled_from(centers))
        if draw(st.booleans()):
            lat, lon = (lat + other[0]) / 2, (lon + other[1]) / 2
        else:
            dy, dx = draw(offset)
            lat, lon = lat + step * dy, lon + step * dx
        rows.append((lat, lon, draw(st.integers(0, 3))))  # species 3 has no text
    return _observations(rows), tiles, radius


@given(world=pairing_worlds(), pairs=st.sampled_from([1, 3, geodata.TARGET_JOIN_PAIRS]),
       seed=st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_joined_pairing_matches_brute_force(world, pairs, seed):
    observations, tiles, radius = world
    texts, raster = _texts(), _raster()
    with mock.patch.object(geodata, "TARGET_JOIN_PAIRS", pairs):  # groups of any size
        if pair_brute_force(observations, tiles, texts, raster, radius, seed)[0]:
            _assert_same_pairing(observations, tiles, texts, raster, radius, seed)
        else:
            with pytest.raises(ValueError, match="observations skipped"):
                pair_samples(observations, tiles, texts, raster, radius, seed)
