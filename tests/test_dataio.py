import json

import numpy as np
import pytest

from satalign.cli import dispatch
from satalign.dataio import ingest_dataset, save_dataset
from satalign.synthworld import SyntheticWorldConfig, generate_synthetic_world


@pytest.fixture()
def world_dir(tmp_path):
    cfg = SyntheticWorldConfig(seed=3, n_species=6, n_habitats=3, raster_rows=12,
                               raster_cols=12, tiles_per_habitat=4, n_observations=24,
                               d_txt=8, tile_size=8, sections_per_species=2)
    dataset = generate_synthetic_world(cfg)
    out = tmp_path / "world"
    save_dataset(out, dataset)
    return out, dataset


def test_round_trip_equal(world_dir):
    out, original = world_dir
    loaded = ingest_dataset(out)

    assert len(loaded.observations) == len(original.observations)
    for name in ("lat", "lon", "species"):
        assert getattr(loaded.observations, name).tobytes() == \
            getattr(original.observations, name).tobytes()

    np.testing.assert_array_equal(loaded.raster.values, original.raster.values)
    assert loaded.raster.lat0 == original.raster.lat0
    np.testing.assert_array_equal(loaded.raster.channel_min, original.raster.channel_min)

    assert len(loaded.tiles) == len(original.tiles)
    for a, b in zip(loaded.tiles, original.tiles):
        assert (a.tile_id, a.lat, a.lon, a.timestamp) == (b.tile_id, b.lat, b.lon, b.timestamp)
        np.testing.assert_array_equal(a.pixels, b.pixels)

    for name in ("species", "section", "embeddings"):
        assert getattr(loaded.texts, name).tobytes() == getattr(original.texts, name).tobytes()

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
    for cut in (1, 3):  # inside a float, then one float short
        blob.write_bytes(blob.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=r"embeddings\.bin: length \d+ bytes not divisible"):
            ingest_dataset(out)


def save_per_tile_layout(directory, dataset):
    """`dataset` in the older tile layout: one tiles/tile_<id>.bin per tile,
    named by manifest records without an offset."""
    save_dataset(directory, dataset)
    tiles = directory / "tiles"
    (tiles / "pixels.bin").unlink()
    manifest = []
    for tile in dataset.tiles:
        c, h, w = tile.pixels.shape
        name = f"tile_{tile.tile_id:06d}.bin"
        (tiles / name).write_bytes(tile.pixels.astype("<f4").tobytes())
        manifest.append({"tile_id": tile.tile_id, "lat": tile.lat, "lon": tile.lon,
                         "timestamp": tile.timestamp, "file": name, "c": c, "h": h, "w": w})
    (tiles / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


@pytest.fixture()
def per_tile_dir(world_dir, tmp_path):
    _, dataset = world_dir
    out = tmp_path / "per_tile"
    save_per_tile_layout(out, dataset)
    return out


def test_packed_layout_is_one_blob_in_manifest_order(world_dir):
    out, dataset = world_dir
    assert sorted(p.name for p in (out / "tiles").iterdir()) == ["manifest.json", "pixels.bin"]
    manifest = json.loads((out / "tiles" / "manifest.json").read_text())
    assert [r["offset"] for r in manifest] == [4 * t.pixels.size * i
                                               for i, t in enumerate(dataset.tiles)]
    blob = (out / "tiles" / "pixels.bin").read_bytes()
    assert blob == b"".join(t.pixels.astype("<f4").tobytes() for t in dataset.tiles)


def test_per_tile_layout_ingests_to_the_same_pixels(world_dir, per_tile_dir):
    packed, old = ingest_dataset(world_dir[0]), ingest_dataset(per_tile_dir)
    assert not (per_tile_dir / "tiles" / "pixels.bin").exists()
    assert len(old.tiles) == len(packed.tiles) > 2
    for a, b in zip(old.tiles, packed.tiles):
        assert (a.tile_id, a.lat, a.lon, a.timestamp) == (b.tile_id, b.lat, b.lon, b.timestamp)
        assert a.pixels.dtype == b.pixels.dtype == np.float32
        assert a.pixels.shape == b.pixels.shape
        assert a.pixels.tobytes() == b.pixels.tobytes()


def test_ingested_tiles_are_float32_views_and_world_tiles_float64(world_dir):
    out, dataset = world_dir
    assert all(t.pixels.dtype == np.float64 for t in dataset.tiles)
    loaded = ingest_dataset(out)
    for a, b in zip(loaded.tiles, dataset.tiles):
        assert a.pixels.dtype == np.float32 and a.pixels.base is not None
        assert a.pixels.astype(np.float64).tobytes() == b.pixels.tobytes()


def test_truncated_tile_named(per_tile_dir):
    tile_file = sorted((per_tile_dir / "tiles").glob("tile_*.bin"))[2]
    tile_file.write_bytes(tile_file.read_bytes()[:-8])
    with pytest.raises(ValueError, match="record 2"):
        ingest_dataset(per_tile_dir)


def _grow_last_tile(manifest):
    manifest[-1]["w"] += 1


def _overlap(manifest):
    manifest[5]["offset"] = manifest[4]["offset"]


def _gap(manifest):
    manifest[5]["offset"] += 4


# (edit of tiles/manifest.json, bytes added to (+) or cut from (-) the blob,
# record the error must name: an index, or -1 for the last; what it says)
@pytest.mark.parametrize("edit,resize,record,says", [
    (None, -8, -1, r"run past the end of \S*tiles/pixels.bin"),       # truncated blob
    (None, +8, -1, r"tiles/pixels.bin has 8 bytes after this record"),  # overlong blob
    (_grow_last_tile, 0, -1, r"run past the end of \S*tiles/pixels.bin"),
    (_overlap, 0, 5, r"tiles/pixels.bin, expected byte \d+ \(an overlap\)"),
    (_gap, 0, 5, r"tiles/pixels.bin, expected byte \d+ \(a gap\)"),
], ids=["truncated", "overlong", "past_end", "overlap", "gap"])
def test_packed_blob_mismatch_names_blob_and_record(world_dir, tmp_path, capsys,
                                                    edit, resize, record, says):
    out, dataset = world_dir
    record %= len(dataset.tiles)
    if edit is not None:
        _edit_json(out / "tiles" / "manifest.json", edit)
    blob = out / "tiles" / "pixels.bin"
    data = blob.read_bytes()
    blob.write_bytes(data[:resize] if resize < 0 else data + bytes(resize))
    pattern = rf"manifest.json record {record}: .*{says}"
    with pytest.raises(ValueError, match=pattern):
        ingest_dataset(out)
    assert dispatch(["train", "--data", str(out), "--out", str(tmp_path / "ckpt")]) == 1
    err = capsys.readouterr().err
    assert f"record {record}: " in err and "tiles/pixels.bin" in err


@pytest.mark.parametrize("layout,missing,record", [
    ("packed", "pixels.bin", 0), ("per_tile", "tile_000002.bin", 2)])
def test_missing_tile_file_names_its_record(world_dir, per_tile_dir, tmp_path, capsys,
                                            layout, missing, record):
    out = world_dir[0] if layout == "packed" else per_tile_dir
    if layout == "per_tile":  # tile ids start at 0, so record 2 names tile_000002.bin
        assert json.loads((out / "tiles" / "manifest.json").read_text())[2]["file"] == missing
    (out / "tiles" / missing).unlink()
    pattern = rf"manifest.json record {record}: cannot read .*tiles/{missing}"
    with pytest.raises(ValueError, match=pattern):
        ingest_dataset(out)
    assert dispatch(["train", "--data", str(out), "--out", str(tmp_path / "ckpt")]) == 1
    assert f"record {record}: cannot read" in capsys.readouterr().err


def test_missing_raster_header_field(world_dir):
    out, _ = world_dir
    header = out / "raster.json"
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
    out, _ = world_dir
    truth = json.loads((out / "ground_truth.json").read_text())
    del truth[drop]
    (out / "ground_truth.json").write_text(json.dumps(truth))
    with pytest.raises(ValueError, match=rf"ground_truth.json: missing fields \['{drop}'\]"):
        ingest_dataset(out)


def test_ground_truth_without_a_tile_named(world_dir):
    out, dataset = world_dir
    truth = json.loads((out / "ground_truth.json").read_text())
    del truth["tile_habitats"][str(dataset.tiles[3].tile_id)]
    (out / "ground_truth.json").write_text(json.dumps(truth))
    with pytest.raises(ValueError, match=f"no habitat for tile {dataset.tiles[3].tile_id}"):
        ingest_dataset(out)


def test_text_section_missing_field_named(world_dir):
    out, _ = world_dir
    header = json.loads((out / "text" / "sections.json").read_text())
    del header["sections"][1]["species_id"]
    (out / "text" / "sections.json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match=r"record 1: missing fields \['species_id'\]"):
        ingest_dataset(out)


def _edit_json(path, edit):
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
    ("tiles/manifest.json", lambda m: m[3].update(lat=10 ** 400),
     r"tiles/manifest.json record 3: field 'lat' must be a number, got 1000"),
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
