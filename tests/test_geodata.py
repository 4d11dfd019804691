import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satalign.geodata import (CovariateRaster, GeoObservation, TextSection,
                              TileRecord, bilinear_sample, pair_samples,
                              tile_species_targets)
from satalign.synthworld import SyntheticWorldConfig, generate_synthetic_world


def grid_raster(rows=4, cols=5, channels=20, seed=0):
    rng = np.random.default_rng(seed)
    return CovariateRaster(lat0=10.0, lon0=-20.0, dlat=0.5, dlon=0.25,
                           values=rng.normal(size=(rows, cols, channels)))


class TestTypes:
    def test_observation_range_checks(self):
        GeoObservation(lat=-90, lon=-180, species_id=0)
        with pytest.raises(ValueError, match="lat out of range"):
            GeoObservation(lat=91, lon=0, species_id=0)
        with pytest.raises(ValueError, match="lon out of range"):
            GeoObservation(lat=0, lon=180, species_id=0)
        with pytest.raises(ValueError, match="species_id"):
            GeoObservation(lat=0, lon=0, species_id=-1)

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
    texts = [TextSection(species_id=0, section_id=k, embedding=rng.normal(size=8))
             for k in range(3)]
    return raster, tiles, texts


class TestPairSamples:
    def test_multi_timestamp_and_section_choice(self):
        raster, tiles, texts = small_world()
        obs = [GeoObservation(lat=1.01, lon=1.0, species_id=0)]
        result = pair_samples(obs, tiles, texts, raster, matching_radius=0.05, seed=5)
        assert len(result) == 1
        sample = result.samples[0]
        assert sample.tile_a.tile_id == 0  # nearest center, lowest tile_id
        assert sample.tile_b.tile_id == 1  # the other timestamp at that center
        assert sample.tile_a.timestamp != sample.tile_b.timestamp
        assert sample.text.section_id in {0, 1, 2}
        assert sample.covariates.shape == (20,)
        assert np.all(np.abs(sample.covariates) <= 1.0)

    def test_single_timestamp_falls_back_to_same_tile(self):
        raster, tiles, texts = small_world()
        obs = [GeoObservation(lat=1.5, lon=1.52, species_id=0)]
        result = pair_samples(obs, tiles, texts, raster, seed=0)
        sample = result.samples[0]
        assert sample.tile_a.tile_id == 2
        assert sample.tile_b.tile_id == 2

    def test_out_of_radius_skipped_and_counted(self):
        raster, tiles, texts = small_world()
        obs = [GeoObservation(lat=1.0, lon=1.0, species_id=0),
               GeoObservation(lat=0.0, lon=0.0, species_id=0)]
        result = pair_samples(obs, tiles, texts, raster, matching_radius=0.05, seed=0)
        assert len(result) == 1
        assert result.skips == {"no_tile": 1}

    def test_missing_text_skipped(self):
        raster, tiles, texts = small_world()
        obs = [GeoObservation(lat=1.0, lon=1.0, species_id=9)]
        with pytest.raises(ValueError, match="all 1 observations skipped.*no_text"):
            pair_samples(obs, tiles, texts, raster, seed=0)

    def test_empty_observations_error(self):
        raster, tiles, texts = small_world()
        with pytest.raises(ValueError, match="empty observation list"):
            pair_samples([], tiles, texts, raster)

    def test_same_seed_same_stream(self):
        raster, tiles, texts = small_world()
        rng = np.random.default_rng(9)
        obs = [GeoObservation(lat=1.0 + rng.uniform(-0.02, 0.02),
                              lon=1.0 + rng.uniform(-0.02, 0.02), species_id=0)
               for _ in range(20)]
        r1 = pair_samples(obs, tiles, texts, raster, seed=123)
        r2 = pair_samples(obs, tiles, texts, raster, seed=123)
        assert [(s.tile_a.tile_id, s.tile_b.tile_id, s.text.section_id) for s in r1.samples] \
            == [(s.tile_a.tile_id, s.tile_b.tile_id, s.text.section_id) for s in r2.samples]

    def test_text_species_always_matches_observation(self):
        raster, tiles, texts = small_world()
        texts = texts + [TextSection(species_id=1, section_id=0,
                                     embedding=np.ones(8))]
        obs = [GeoObservation(lat=1.0, lon=1.0, species_id=s % 2) for s in range(10)]
        result = pair_samples(obs, tiles, texts, raster, seed=3)
        for sample in result.samples:
            assert sample.text.species_id == sample.location.species_id


def test_tile_species_targets_match_pairwise_loop():
    world = generate_synthetic_world(SyntheticWorldConfig(
        seed=4, n_species=8, n_habitats=4, raster_rows=16, raster_cols=16,
        tiles_per_habitat=8, n_observations=200, d_txt=8, tile_size=8,
        sections_per_species=2))
    tiles = world.tiles
    # One observation of a species seen nowhere else sits exactly at the
    # radius from one tile center, so the boundary test decides its target.
    edge = GeoObservation(lat=tiles[5].lat + 0.03, lon=tiles[5].lon + 0.04, species_id=8)
    observations = list(world.observations) + [edge]
    radius = np.hypot(edge.lat - tiles[5].lat, edge.lon - tiles[5].lon)

    expected = np.zeros((len(tiles), 9))
    for t_idx, tile in enumerate(tiles):
        for obs in observations:
            if np.hypot(obs.lat - tile.lat, obs.lon - tile.lon) <= radius:
                expected[t_idx, obs.species_id] = 1.0
    assert expected[5, 8] == 1.0 and 0 < expected.sum() < expected.size

    targets = tile_species_targets(tiles, observations, radius)
    assert targets.dtype == np.float64
    assert targets.tobytes() == expected.tobytes()
