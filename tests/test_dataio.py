import numpy as np
import pytest

from satalign.dataio import dataset_from_world, ingest_dataset, save_dataset
from satalign.synthworld import SyntheticWorldConfig, generate_synthetic_world


@pytest.fixture()
def world_dir(tmp_path):
    cfg = SyntheticWorldConfig(seed=3, n_species=6, n_habitats=3, raster_rows=12,
                               raster_cols=12, tiles_per_habitat=4, n_observations=24,
                               d_txt=8, tile_size=8, sections_per_species=2)
    world = generate_synthetic_world(cfg)
    dataset = dataset_from_world(world)
    out = tmp_path / "world"
    save_dataset(out, dataset)
    return out, dataset


def test_round_trip_equal(world_dir):
    out, original = world_dir
    loaded = ingest_dataset(out)

    assert len(loaded.observations) == len(original.observations)
    for a, b in zip(loaded.observations, original.observations):
        assert (a.lat, a.lon, a.species_id) == (b.lat, b.lon, b.species_id)

    np.testing.assert_array_equal(loaded.raster.values, original.raster.values)
    assert loaded.raster.lat0 == original.raster.lat0
    np.testing.assert_array_equal(loaded.raster.channel_min, original.raster.channel_min)

    assert len(loaded.tiles) == len(original.tiles)
    for a, b in zip(loaded.tiles, original.tiles):
        assert (a.tile_id, a.lat, a.lon, a.timestamp) == (b.tile_id, b.lat, b.lon, b.timestamp)
        np.testing.assert_array_equal(a.pixels, b.pixels)

    assert len(loaded.texts) == len(original.texts)
    for a, b in zip(loaded.texts, original.texts):
        assert (a.species_id, a.section_id) == (b.species_id, b.section_id)
        np.testing.assert_array_equal(a.embedding, b.embedding)

    assert loaded.truth is not None
    assert loaded.truth.tile_habitats == original.truth.tile_habitats
    assert loaded.truth.species_habitats == original.truth.species_habitats
    np.testing.assert_array_equal(loaded.truth.text_prototypes,
                                  original.truth.text_prototypes)


def test_rewrite_is_byte_identical(world_dir, tmp_path):
    out, dataset = world_dir
    again = tmp_path / "again"
    save_dataset(again, dataset)
    for path in sorted(out.rglob("*")):
        if path.is_file():
            twin = again / path.relative_to(out)
            assert twin.read_bytes() == path.read_bytes(), path.name


def test_lat_out_of_range_names_row(world_dir):
    out, _ = world_dir
    csv = out / "observations.csv"
    lines = csv.read_text().splitlines()
    lines[8] = "91.0,0.0,1"  # line 9 of the file, the header being line 1
    csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        ingest_dataset(out)
    assert str(err.value) == f"{csv}: lat out of range, line 9"


def test_malformed_header_rejected(world_dir):
    out, _ = world_dir
    csv = out / "observations.csv"
    csv.write_text("latitude,longitude,species\n0,0,0\n")
    with pytest.raises(ValueError, match="malformed header"):
        ingest_dataset(out)


def test_embeddings_length_mismatch(world_dir):
    out, _ = world_dir
    blob = out / "text" / "embeddings.bin"
    blob.write_bytes(blob.read_bytes()[:-4])
    with pytest.raises(ValueError, match="not divisible"):
        ingest_dataset(out)


def test_truncated_tile_named(world_dir):
    out, _ = world_dir
    tile_file = sorted((out / "tiles").glob("tile_*.bin"))[2]
    tile_file.write_bytes(tile_file.read_bytes()[:-8])
    with pytest.raises(ValueError, match="record 2"):
        ingest_dataset(out)


def test_missing_raster_header_field(world_dir):
    out, _ = world_dir
    header = out / "raster.json"
    import json
    obj = json.loads(header.read_text())
    del obj["dlat"]
    header.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="missing fields.*dlat"):
        ingest_dataset(out)


def test_missing_directory():
    with pytest.raises(ValueError, match="not found"):
        ingest_dataset("/nonexistent/path")


@pytest.mark.parametrize("drop", ["n_habitats", "tile_habitats", "species_habitats",
                                  "text_prototypes"])
def test_ground_truth_missing_field_named(world_dir, drop):
    import json
    out, _ = world_dir
    truth = json.loads((out / "ground_truth.json").read_text())
    del truth[drop]
    (out / "ground_truth.json").write_text(json.dumps(truth))
    with pytest.raises(ValueError, match=rf"ground_truth.json: missing fields \['{drop}'\]"):
        ingest_dataset(out)


def test_ground_truth_without_a_tile_named(world_dir):
    import json
    out, dataset = world_dir
    truth = json.loads((out / "ground_truth.json").read_text())
    del truth["tile_habitats"][str(dataset.tiles[3].tile_id)]
    (out / "ground_truth.json").write_text(json.dumps(truth))
    with pytest.raises(ValueError, match=f"no habitat for tile {dataset.tiles[3].tile_id}"):
        ingest_dataset(out)


def test_text_section_missing_field_named(world_dir):
    import json
    out, _ = world_dir
    header = json.loads((out / "text" / "sections.json").read_text())
    del header["sections"][1]["species_id"]
    (out / "text" / "sections.json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match=r"record 1: missing fields \['species_id'\]"):
        ingest_dataset(out)


def _edit_json(path, edit):
    import json
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


@pytest.mark.parametrize("file,edit,message", [
    ("text/sections.json", lambda h: h["sections"][1].update(row="1"),
     r"text/sections.json record 1: field 'row' must be an integer, got '1'"),
    ("text/sections.json", lambda h: h.update(sections={}),
     r"text/sections.json: field 'sections' must be a list"),
    ("ground_truth.json", lambda h: h.update(tile_habitats=[]),
     r"ground_truth.json: field 'tile_habitats' must be an object"),
    ("tiles/manifest.json", lambda m: m[2].update(lat="north"),
     r"tiles/manifest.json record 2: field 'lat' must be a number"),
    ("tiles/manifest.json", lambda m: m[0].update(c=3.0),
     r"tiles/manifest.json record 0: field 'c' must be an integer"),
    ("raster.json", lambda h: h.update(rows="12"),
     r"raster.json: field 'rows' must be an integer"),
    ("raster.json", lambda h: h.update(dlat=True),
     r"raster.json: field 'dlat' must be a number"),
])
def test_wrongly_typed_field_named(world_dir, file, edit, message):
    out, _ = world_dir
    _edit_json(out / file, edit)
    with pytest.raises(ValueError, match=message):
        ingest_dataset(out)
