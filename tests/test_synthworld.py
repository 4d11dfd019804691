import numpy as np
import pytest

from satalign.dataio import GeoDataset, GroundTruth
from satalign.synthworld import SyntheticWorldConfig, generate_synthetic_world


def small_config(**overrides):
    defaults = dict(seed=0, n_species=8, n_habitats=4, raster_rows=16, raster_cols=16,
                    tiles_per_habitat=6, n_observations=64, d_txt=16,
                    tile_size=16, sections_per_species=2)
    defaults.update(overrides)
    return SyntheticWorldConfig(**defaults)


def test_same_seed_bit_identical():
    w1 = generate_synthetic_world(small_config(seed=7))
    w2 = generate_synthetic_world(small_config(seed=7))
    np.testing.assert_array_equal(w1.raster.values, w2.raster.values)
    assert len(w1.tiles) == len(w2.tiles)
    for a, b in zip(w1.tiles, w2.tiles):
        assert (a.tile_id, a.lat, a.lon, a.timestamp) == (b.tile_id, b.lat, b.lon, b.timestamp)
        np.testing.assert_array_equal(a.pixels, b.pixels)
    for name in ("species", "section", "embeddings"):
        assert getattr(w1.texts, name).tobytes() == getattr(w2.texts, name).tobytes()
    for name in ("lat", "lon", "species"):
        assert getattr(w1.observations, name).tobytes() == \
            getattr(w2.observations, name).tobytes()


def test_different_seed_differs():
    w1 = generate_synthetic_world(small_config(seed=1))
    w2 = generate_synthetic_world(small_config(seed=2))
    assert not np.array_equal(w1.tiles[0].pixels, w2.tiles[0].pixels)


def test_tile_count_is_habitats_times_tiles_per_habitat():
    cfg = small_config(n_habitats=5, tiles_per_habitat=7, raster_rows=20)
    world = generate_synthetic_world(cfg)
    assert len(world.tiles) == 35
    counts = np.bincount([world.tile_habitats[t.tile_id] for t in world.tiles])
    assert list(counts) == [7] * 5


@pytest.mark.parametrize("seed", range(5))
def test_observations_inside_their_species_habitat(seed):
    world = generate_synthetic_world(small_config(seed=seed))
    obs = world.observations
    for lat, species in zip(obs.lat.tolist(), obs.species.tolist()):
        habitat = world.species_habitats[species]
        # region-membership oracle: strip bounds by construction
        lo = world.config.lat0 + habitat * world.strip_height
        hi = world.config.lat0 + (habitat + 1) * world.strip_height
        assert lo <= lat < hi


@pytest.mark.parametrize("seed", range(5))
def test_tiles_closest_to_own_color_prototype(seed):
    world = generate_synthetic_world(small_config(seed=seed))
    protos = world.color_prototypes
    for t in world.tiles:
        mean_color = t.pixels.mean(axis=(1, 2))
        dists = np.linalg.norm(protos - mean_color, axis=1)
        assert int(np.argmin(dists)) == world.tile_habitats[t.tile_id]


def test_multi_timestamp_centers_exist():
    world = generate_synthetic_world(small_config())
    by_center = {}
    for t in world.tiles:
        by_center.setdefault((t.lat, t.lon), set()).add(t.timestamp)
    assert any(len(stamps) > 1 for stamps in by_center.values())


def test_every_species_has_text_sections():
    cfg = small_config()
    world = generate_synthetic_world(cfg)
    per_species = {}
    for s in world.texts.species.tolist():
        per_species[s] = per_species.get(s, 0) + 1
    assert all(per_species.get(s, 0) == cfg.sections_per_species
               for s in range(cfg.n_species))


def test_float32_quantized_payloads():
    world = generate_synthetic_world(small_config())
    for arr in (world.tiles[0].pixels, world.raster.values, world.texts.embeddings):
        np.testing.assert_array_equal(arr, arr.astype(np.float32).astype(np.float64))


def test_infeasible_habitat_count_rejected():
    with pytest.raises(ValueError, match="habitats"):
        generate_synthetic_world(small_config(n_habitats=30, raster_rows=16))


def test_noise_scale_validation():
    with pytest.raises(ValueError, match="shift"):
        generate_synthetic_world(small_config(tile_shift=0.2, min_color_separation=0.12))


def test_counts_validated():
    with pytest.raises(ValueError, match=">= 1"):
        generate_synthetic_world(small_config(n_species=0))


def test_world_is_the_dataset_it_writes():
    cfg = small_config()
    world = generate_synthetic_world(cfg)
    assert isinstance(world, GeoDataset) and isinstance(world.truth, GroundTruth)
    assert world.truth.n_habitats == cfg.n_habitats
    assert world.tile_habitats is world.truth.tile_habitats
    assert world.species_habitats is world.truth.species_habitats
    assert world.text_prototypes is world.truth.text_prototypes
