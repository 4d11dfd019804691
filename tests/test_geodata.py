import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satalign import geodata
from satalign.geodata import (CovariateRaster, Observations, TextSections, TileRecord,
                              bilinear_sample, pair_samples, tile_species_targets)
from satalign.synthworld import SyntheticWorldConfig, generate_synthetic_world


def grid_raster(rows=4, cols=5, channels=20, seed=0):
    rng = np.random.default_rng(seed)
    return CovariateRaster(lat0=10.0, lon0=-20.0, dlat=0.5, dlon=0.25,
                           values=rng.normal(size=(rows, cols, channels)))


class TestTypes:
    def test_observation_range_checks(self):
        assert len(Observations(lat=[-90, 90], lon=[-180, 179.9], species=[0, 3])) == 2
        with pytest.raises(ValueError, match="observation 1: lat out of range"):
            Observations(lat=[0, 91], lon=[0, 0], species=[0, 0])
        with pytest.raises(ValueError, match="observation 0: lat out of range"):
            Observations(lat=[np.nan], lon=[0], species=[0])
        with pytest.raises(ValueError, match="observation 0: lon out of range"):
            Observations(lat=[0], lon=[180], species=[0])
        with pytest.raises(ValueError, match="observation 2: negative species_id"):
            Observations(lat=[0, 0, 0], lon=[0, 0, 0], species=[0, 1, -1])
        # the first bad row wins, with its first failing check
        with pytest.raises(ValueError, match="observation 1: lon out of range"):
            Observations(lat=[0, 0, 95], lon=[0, 200, 0], species=[0, -1, 0])
        with pytest.raises(ValueError, match="vectors of one length"):
            Observations(lat=[0, 0], lon=[0], species=[0, 0])

    def test_text_sections_validation(self):
        texts = TextSections(species=[0, 0, 1], section=[0, 1, 0], embeddings=np.ones((3, 4)))
        assert texts.d_txt == 4
        bad = np.ones((3, 4))
        bad[2, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite text embedding for species 1 section 0"):
            TextSections(species=[0, 0, 1], section=[0, 1, 0], embeddings=bad)
        with pytest.raises(ValueError, match="one embedding row per section"):
            TextSections(species=[0, 0], section=[0, 1], embeddings=np.ones((3, 4)))

    def test_tile_pixel_bounds(self):
        TileRecord(tile_id=0, lat=0, lon=0, timestamp=0, pixels=np.zeros((3, 4, 4)))
        with pytest.raises(ValueError, match="outside"):
            TileRecord(tile_id=1, lat=0, lon=0, timestamp=0, pixels=np.full((3, 4, 4), 1.5))
        nan_pixel = np.full((3, 4, 4), 0.5)
        nan_pixel[1, 2, 3] = np.nan
        with pytest.raises(ValueError, match="tile 2: pixels outside"):
            TileRecord(tile_id=2, lat=0, lon=0, timestamp=0, pixels=nan_pixel)

    def test_raster_validation(self):
        with pytest.raises(ValueError, match="positive"):
            CovariateRaster(lat0=0, lon0=0, dlat=0, dlon=1, values=np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="non-finite"):
            CovariateRaster(lat0=0, lon0=0, dlat=1, dlon=1,
                            values=np.full((2, 2, 1), np.nan))
        for cell in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="cell sizes must be finite, and cell sizes "
                                                 "positive"):
                CovariateRaster(lat0=0, lon0=0, dlat=cell, dlon=1, values=np.zeros((2, 2, 3)))
        for origin in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="origin and cell sizes must be finite"):
                CovariateRaster(lat0=0, lon0=origin, dlat=1, dlon=1, values=np.zeros((2, 2, 3)))
        for bound in ([0.0], [0.0, 0.0, 0.0, 0.0], [0.0, np.nan, 0.0]):
            with pytest.raises(ValueError, match="channel_min must be 3 finite values"):
                CovariateRaster(lat0=0, lon0=0, dlat=1, dlon=1, values=np.zeros((2, 2, 3)),
                                channel_min=np.array(bound))

    def test_normalize_maps_extremes_to_unit_interval(self):
        raster = grid_raster()
        lo = raster.normalize(raster.channel_min)
        hi = raster.normalize(raster.channel_max)
        np.testing.assert_allclose(lo, -1.0, atol=1e-12)
        np.testing.assert_allclose(hi, 1.0, atol=1e-12)


class TestBilinearSample:
    def test_exact_at_grid_nodes(self):
        raster = grid_raster()
        for r in range(raster.rows):
            for c in range(raster.cols):
                lat = raster.lat0 + r * raster.dlat
                lon = raster.lon0 + c * raster.dlon
                np.testing.assert_allclose(bilinear_sample(raster, lat, lon),
                                           raster.values[r, c], atol=1e-12)

    def test_equal_corners_give_corner_value(self):
        values = np.full((2, 2, 20), 3.25)
        raster = CovariateRaster(lat0=0, lon0=0, dlat=1, dlon=1, values=values)
        out = bilinear_sample(raster, 0.5, 0.5)
        np.testing.assert_allclose(out, 3.25, atol=1e-12)

    def test_unit_cell_center_value(self):
        # corners 0,1,2,3 row-major -> center is their mean, 1.5
        values = np.array([[[0.0], [1.0]], [[2.0], [3.0]]])
        raster = CovariateRaster(lat0=0, lon0=0, dlat=1, dlon=1, values=values)
        assert float(bilinear_sample(raster, 0.5, 0.5)[0]) == pytest.approx(1.5, abs=1e-12)

    def test_out_of_bounds_reports_query(self):
        raster = grid_raster()
        with pytest.raises(ValueError, match=r"query \(100\.0, 0\.0\) outside raster bounds"):
            bilinear_sample(raster, 100.0, 0.0)
        with pytest.raises(ValueError, match=r"query \(11\.0, -21\.0\) outside raster bounds"):
            bilinear_sample(raster, np.array([10.5, 11.0]), np.array([-19.5, -21.0]))

    def test_vectors_sample_each_query(self):
        raster = grid_raster(seed=2)
        rng = np.random.default_rng(1)
        lat = rng.uniform(raster.lat0, raster.lat_max, size=50)
        lon = rng.uniform(raster.lon0, raster.lon_max, size=50)
        out = bilinear_sample(raster, lat, lon)
        assert out.shape == (50, raster.channels)
        for k in range(50):
            assert out[k].tobytes() == bilinear_sample(raster, lat[k], lon[k]).tobytes()

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 2**63 - 1))
    @settings(max_examples=80, deadline=None)
    def test_convex_combination_of_corners(self, fr, fc, seed):
        raster = grid_raster(rows=3, cols=3, channels=4, seed=seed % 100)
        lat = raster.lat0 + (0.5 + fr) * raster.dlat
        lon = raster.lon0 + (0.5 + fc) * raster.dlon
        out = bilinear_sample(raster, lat, lon)
        r0 = min(int(0.5 + fr), 1)
        c0 = min(int(0.5 + fc), 1)
        corners = raster.values[r0:r0 + 2, c0:c0 + 2].reshape(4, -1)
        assert np.all(out >= corners.min(axis=0) - 1e-12)
        assert np.all(out <= corners.max(axis=0) + 1e-12)

    def test_continuity_under_tiny_steps(self):
        raster = grid_raster(seed=3)
        rng = np.random.default_rng(0)
        for _ in range(200):
            lat = rng.uniform(raster.lat0, raster.lat_max - 1e-9)
            lon = rng.uniform(raster.lon0, raster.lon_max - 1e-9)
            a = bilinear_sample(raster, lat, lon)
            b = bilinear_sample(raster, lat + 1e-9, lon + 1e-9)
            assert np.max(np.abs(a - b)) < 1e-6


def small_world():
    raster = CovariateRaster(lat0=0, lon0=0, dlat=1, dlon=1,
                             values=np.random.default_rng(0).normal(size=(3, 3, 20)))
    rng = np.random.default_rng(1)
    tiles = [
        TileRecord(tile_id=0, lat=1.0, lon=1.0, timestamp=100, pixels=rng.random((3, 8, 8))),
        TileRecord(tile_id=1, lat=1.0, lon=1.0, timestamp=200, pixels=rng.random((3, 8, 8))),
        TileRecord(tile_id=2, lat=1.5, lon=1.5, timestamp=100, pixels=rng.random((3, 8, 8))),
    ]
    texts = TextSections(species=[0, 0, 0], section=[0, 1, 2], embeddings=rng.normal(size=(3, 8)))
    return raster, tiles, texts


def observations(*rows):
    """Observations from (lat, lon, species) rows."""
    lat, lon, species = zip(*rows) if rows else ((), (), ())
    return Observations(lat=lat, lon=lon, species=species)


class TestPairSamples:
    def test_multi_timestamp_and_section_choice(self):
        raster, tiles, texts = small_world()
        obs = observations((1.01, 1.0, 0))
        result = pair_samples(obs, tiles, texts, raster, matching_radius=0.05, seed=5)
        assert len(result.samples) == 1
        samples = result.samples
        assert tiles[samples.tile_a[0]].tile_id == 0  # nearest center, lowest tile_id
        assert tiles[samples.tile_b[0]].tile_id == 1  # the other timestamp at that center
        assert samples.text_row[0] in {0, 1, 2}
        assert samples.covariates.shape == (1, 20)
        assert np.all(np.abs(samples.covariates) <= 1.0)
        assert (samples.lat[0], samples.lon[0]) == (1.01, 1.0)

    def test_single_timestamp_falls_back_to_same_tile(self):
        raster, tiles, texts = small_world()
        result = pair_samples(observations((1.5, 1.52, 0)), tiles, texts, raster, seed=0)
        assert tiles[result.samples.tile_a[0]].tile_id == 2
        assert tiles[result.samples.tile_b[0]].tile_id == 2

    def test_out_of_radius_skipped_and_counted(self):
        raster, tiles, texts = small_world()
        obs = observations((1.0, 1.0, 0), (0.0, 0.0, 0))
        result = pair_samples(obs, tiles, texts, raster, matching_radius=0.05, seed=0)
        assert len(result.samples) == 1
        assert result.skips == {"no_tile": 1}

    def test_missing_text_skipped(self):
        raster, tiles, texts = small_world()
        with pytest.raises(ValueError, match="all 1 observations skipped.*no_text"):
            pair_samples(observations((1.0, 1.0, 9)), tiles, texts, raster, seed=0)

    def test_empty_observations_error(self):
        raster, tiles, texts = small_world()
        with pytest.raises(ValueError, match="empty observation list"):
            pair_samples(observations(), tiles, texts, raster)

    def test_same_seed_same_stream(self):
        raster, tiles, texts = small_world()
        rng = np.random.default_rng(9)
        obs = observations(*[(1.0 + rng.uniform(-0.02, 0.02), 1.0 + rng.uniform(-0.02, 0.02), 0)
                             for _ in range(20)])
        r1 = pair_samples(obs, tiles, texts, raster, seed=123)
        r2 = pair_samples(obs, tiles, texts, raster, seed=123)
        for name in ("tile_a", "tile_b", "text_row"):
            assert getattr(r1.samples, name).tolist() == getattr(r2.samples, name).tolist()

    def test_text_species_always_matches_observation(self):
        raster, tiles, texts = small_world()
        texts = TextSections(species=np.append(texts.species, 1),
                             section=np.append(texts.section, 0),
                             embeddings=np.vstack([texts.embeddings, np.ones(8)]))
        species = [s % 2 for s in range(10)]
        obs = observations(*[(1.0, 1.0, s) for s in species])
        result = pair_samples(obs, tiles, texts, raster, seed=3)
        assert texts.species[result.samples.text_row].tolist() == species

    def test_samples_index_like_a_list(self):
        raster, tiles, texts = small_world()
        obs = observations(*[(1.0 + k / 100, 1.0, 0) for k in range(4)])
        samples = pair_samples(obs, tiles, texts, raster, seed=1).samples
        picked = samples[np.array([3, 0])]
        assert len(picked) == 2 and len(samples[1:3]) == 2
        assert picked.lat.tolist() == [samples.lat[3], samples.lat[0]]
        assert picked.covariates.tobytes() == samples.covariates[[3, 0]].tobytes()
        assert picked.tiles is tiles and picked.texts is texts


def test_tile_species_targets_match_pairwise_loop():
    world = generate_synthetic_world(SyntheticWorldConfig(
        seed=4, n_species=8, n_habitats=4, raster_rows=16, raster_cols=16,
        tiles_per_habitat=8, n_observations=200, d_txt=8, tile_size=8,
        sections_per_species=2))
    tiles = world.tiles
    # One observation of a species seen nowhere else sits exactly at the
    # radius from one tile center, so the boundary test decides its target.
    edge_lat, edge_lon = tiles[5].lat + 0.03, tiles[5].lon + 0.04
    obs = Observations(lat=np.append(world.observations.lat, edge_lat),
                       lon=np.append(world.observations.lon, edge_lon),
                       species=np.append(world.observations.species, 8))
    radius = np.hypot(edge_lat - tiles[5].lat, edge_lon - tiles[5].lon)

    expected = np.zeros((len(tiles), 9))
    for t_idx, tile in enumerate(tiles):
        for lat, lon, species in zip(obs.lat, obs.lon, obs.species):
            if np.hypot(lat - tile.lat, lon - tile.lon) <= radius:
                expected[t_idx, species] = 1.0
    assert expected[5, 8] == 1.0 and 0 < expected.sum() < expected.size

    targets = tile_species_targets(tiles, obs, radius)
    assert targets.dtype == np.float64
    assert targets.tobytes() == expected.tobytes()


def test_tile_species_targets_have_a_column_per_distinct_species():
    # ids with gaps, one far beyond any dense matrix: a column for each id
    # observed, in ascending id order, with each observation in its column
    tiles = [TileRecord(tile_id=i, lat=float(i), lon=0.0, timestamp=0,
                        pixels=np.zeros((3, 2, 2))) for i in range(3)]
    obs = Observations(lat=np.array([0.0, 1.0, 1.0, 2.0, 9.0]), lon=np.zeros(5),
                       species=np.array([10 ** 12, 7, 3, 7, 5]))
    targets = tile_species_targets(tiles, obs, radius=0.5)
    assert targets.tolist() == [[0, 0, 0, 1],   # species 3, 5, 7, 10**12
                                [1, 0, 1, 0],
                                [0, 0, 1, 0]]


def pairwise_species_targets(tiles, observations, radius):
    """Every (tile, observation) pair measured one at a time: the oracle of
    the radius join."""
    species = sorted(set(observations.species.tolist()))
    expected = np.zeros((len(tiles), len(species)))
    for t_idx, tile in enumerate(tiles):
        for lat, lon, s in zip(observations.lat, observations.lon, observations.species):
            if np.hypot(lat - tile.lat, lon - tile.lon) <= radius:
                expected[t_idx, species.index(s)] = 1.0
    return expected


@st.composite
def target_worlds(draw):
    """Tiles, observations and a radius: centers on and off cell edges, some
    shared by several tiles, observations at and around the radius, and one
    tile far from every observation."""
    radius = draw(st.sampled_from([0.0, 1e-12, 1e-7, 3e-7, 0.01, 0.05, 0.3, 2.5]))
    width = max(2 * radius, 1e-6)
    edge = st.integers(-min(50, int(60 / width)), min(50, int(60 / width))).map(
        lambda k: k * width)
    center = st.one_of(st.tuples(st.floats(-60, 60), st.floats(-170, 170)),
                       st.tuples(edge, edge))  # on a cell edge
    centers = draw(st.lists(center, min_size=1, max_size=5))
    offset = st.one_of(
        st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
        st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1), (0.6, 0.8), (-0.8, 0.6)]))
    rows = [(lat + radius * dy, lon + radius * dx, draw(st.sampled_from([0, 3, 4, 10 ** 9])))
            for lat, lon in (draw(st.sampled_from(centers)) for _ in range(draw(st.integers(1, 40))))
            for dy, dx in [draw(offset)]]
    rows += draw(st.lists(st.tuples(st.floats(-89, 89), st.floats(-179, 179),
                                    st.integers(0, 5)), max_size=5))
    lat, lon, species = map(np.array, zip(*rows))
    observations = Observations(lat=lat, lon=lon, species=species)
    tile_centers = draw(st.lists(st.sampled_from(centers), min_size=1, max_size=12))
    tiles = [TileRecord(tile_id=i, lat=lat, lon=lon, timestamp=i, pixels=np.zeros((1, 1, 1)))
             for i, (lat, lon) in enumerate(tile_centers + [(89.9, -179.9)])]
    return tiles, observations, radius


@given(world=target_worlds(), pairs=st.sampled_from([1, 3, geodata.TARGET_JOIN_PAIRS]))
@settings(max_examples=200, deadline=None)
def test_radius_join_equals_pairwise_loop(world, pairs):
    tiles, observations, radius = world
    expected = pairwise_species_targets(tiles, observations, radius)
    if not np.any(np.hypot(observations.lat - 89.9, observations.lon + 179.9) <= radius):
        assert not expected[-1].any()  # the far tile has no observation in reach
    with mock.patch.object(geodata, "TARGET_JOIN_PAIRS", pairs):  # chunks of any size
        targets = tile_species_targets(tiles, observations, radius)
    assert targets.dtype == np.float64
    assert targets.tobytes() == expected.tobytes()


@pytest.mark.parametrize("radius", [math.inf, math.nan,
                                    math.nextafter(geodata.MAX_RADIUS, math.inf)])
def test_radius_searches_refuse_a_radius_whose_cells_overflow(radius):
    raster, tiles, texts = small_world()
    with pytest.raises(ValueError, match="radius must be at most"):
        tile_species_targets(tiles, observations((1.0, 1.0, 0)), radius)
    with pytest.raises(ValueError, match="radius must be at most"):
        pair_samples(observations((1.0, 1.0, 0)), tiles, texts, raster, matching_radius=radius)


def test_the_widest_radius_reaches_every_observation():
    raster, tiles, texts = small_world()
    obs = observations((1.0, 1.0, 0), (-90.0, -180.0, 1), (90.0, 179.9, 2))
    targets = tile_species_targets(tiles, obs, geodata.MAX_RADIUS)
    assert targets.tobytes() == np.ones((3, 3)).tobytes()
    assert targets.tobytes() == pairwise_species_targets(tiles, obs, geodata.MAX_RADIUS).tobytes()
    result = pair_samples(obs, tiles, texts, raster, matching_radius=geodata.MAX_RADIUS, seed=0)
    assert "no_tile" not in result.skips
