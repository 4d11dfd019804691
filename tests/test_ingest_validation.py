"""Malformed dataset files at the ingest boundary.

Every bad value in `observations.csv`, `raster.json`, `ground_truth.json`,
`text/sections.json`, `text/embeddings.bin` or `tiles/manifest.json` must
either load into a valid dataset or raise a ValueError naming the file, and
the CLI must exit 1 on it, never 2.
Hand-picked cases pin the messages; the Hypothesis cases fuzz the same files.
"""

import json
import math
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from satalign import dataio
from satalign.cli import dispatch
from satalign.dataio import ingest_dataset, read_json

SYNTH_CFG = {"n_species": 6, "n_habitats": 3, "raster_rows": 12, "raster_cols": 12,
             "tiles_per_habitat": 4, "n_observations": 40, "d_txt": 12,
             "tile_size": 12, "sections_per_species": 2}

TRAIN_CFG = {"epochs": 1, "batch_size": 8, "lr": 1e-3, "seed": 0, "crop_size": 10,
             "model": {"image": {"in_size": 12, "widths": [4, 6], "d_img": 8},
                       "location": {"hidden": 8, "depth": 1, "d_loc": 8},
                       "d_txt": 12, "embed_dim": 8}}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    root = tmp_path_factory.mktemp("ingest")
    (root / "synth.json").write_text(json.dumps(SYNTH_CFG))
    (root / "train.json").write_text(json.dumps(TRAIN_CFG))
    assert dispatch(["synth", "--out", str(root / "world"), "--seed", "2",
                     "--config", str(root / "synth.json")]) == 0
    assert dispatch(["train", "--data", str(root / "world"), "--out", str(root / "ckpt"),
                     "--config", str(root / "train.json")]) == 0
    return root


def _copy_world(base, dest):
    shutil.copytree(base / "world", dest)
    return dest


def _edit_json(path, edit):
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))  # writes NaN and Infinity as Python's json does


def _set(key, value):
    return lambda obj: obj.update({key: value})


def _set_item(key, index, value):
    def edit(obj):
        obj[key][index] = value
    return edit


# -- raster.json -----------------------------------------------------------------


@pytest.mark.parametrize("edit,says", [
    (_set("dlat", math.nan), "raster origin and cell sizes must be finite"),
    (_set("dlon", math.inf), "raster origin and cell sizes must be finite"),
    (_set("dlat", -0.5), "raster origin and cell sizes must be finite"),
    (_set("lat0", math.inf), "raster origin and cell sizes must be finite"),
    (_set("lon0", -math.inf), "raster origin and cell sizes must be finite"),
    (_set("lon0", 10 ** 400), "field 'lon0' must be a number"),
    (_set_item("channel_min", 0, math.nan), "channel_min must be 20 finite values"),
    (_set("channel_min", [0.0]), "channel_min must be 20 finite values"),
    (_set("channel_max", [1.0, 2.0, 3.0]), "channel_max must be 20 finite values"),
    (_set("channel_max", [[1.0]] * 20), "channel_max must be 20 finite values"),
    (_set_item("channel_max", 3, "1.0"), "channel_max must be a list of numbers"),
    (_set_item("channel_max", 3, 10 ** 400), "channel_max must be a list of numbers"),
    (_set_item("channel_min", 3, [0.5]), "channel_min must be a list of numbers"),
    (_set("rows", 0), "rows, cols and channels must be >= 1"),
], ids=["nan_dlat", "inf_dlon", "negative_dlat", "inf_lat0", "ninf_lon0", "huge_lon0",
        "nan_channel_min", "short_channel_min", "long_channel_max", "nested_channel_max",
        "string_channel_max", "huge_channel_max", "nested_channel_min", "zero_rows"])
def test_bad_raster_header_exits_1_naming_raster_json(base, tmp_path, capsys, edit, says):
    world = _copy_world(base, tmp_path / "world")
    _edit_json(world / "raster.json", edit)
    with pytest.raises(ValueError, match=f"raster.json: {says}"):
        ingest_dataset(world)
    assert dispatch(["train", "--data", str(world), "--out", str(tmp_path / "ckpt"),
                     "--config", str(base / "train.json")]) == 1
    err = capsys.readouterr().err
    assert f"{world / 'raster.json'}: {says}" in err


def test_non_finite_raster_value_names_raster_bin(base, tmp_path):
    world = _copy_world(base, tmp_path / "world")
    values = np.fromfile(world / "raster.bin", dtype="<f4")
    values[7] = np.inf
    values.tofile(world / "raster.bin")
    with pytest.raises(ValueError, match="raster.bin: raster contains non-finite values"):
        ingest_dataset(world)


# -- ground_truth.json ------------------------------------------------------------


def _first_tile_habitat(value):
    def edit(obj):
        obj["tile_habitats"][next(iter(obj["tile_habitats"]))] = value
    return edit


def _first_species_habitat(value):
    def edit(obj):
        obj["species_habitats"]["0"] = value
    return edit


def _rename_first_tile(name):
    def edit(obj):
        habitats = obj["tile_habitats"]
        habitats[name] = habitats.pop(next(iter(habitats)))
    return edit


def _ragged_prototypes(obj):
    obj["text_prototypes"][1] = obj["text_prototypes"][1][:-1]


@pytest.mark.parametrize("edit,says", [
    (_first_tile_habitat(99), r"key 'tile_habitats': habitat of 0 must be an integer in \[0, 3\)"),
    (_first_tile_habitat(-1), r"key 'tile_habitats': habitat of 0 must be an integer"),
    (_first_tile_habitat("x"), r"key 'tile_habitats': habitat of 0 must be an integer"),
    (_first_tile_habitat(1.0), r"key 'tile_habitats': habitat of 0 must be an integer"),
    (_first_tile_habitat(True), r"key 'tile_habitats': habitat of 0 must be an integer"),
    (_first_species_habitat(3), r"key 'species_habitats': habitat of 0 must be an integer"),
    (_rename_first_tile("x"), r"key 'tile_habitats': id 'x' is not an integer"),
    (_ragged_prototypes, r"key 'text_prototypes' must be a list of numbers, or of equal-length"),
    (lambda obj: obj["text_prototypes"].pop(),
     r"key 'text_prototypes' must be a finite \(n_habitats, d_txt\) = \(3, 12\) matrix"),
    (lambda obj: obj["text_prototypes"][2].__setitem__(4, math.nan),
     r"key 'text_prototypes' must be a finite"),
    (lambda obj: obj["text_prototypes"][2].__setitem__(4, "0.5"),
     r"key 'text_prototypes' must be a list of numbers"),
    (_set("n_habitats", 0), r"key 'text_prototypes' must be a finite \(n_habitats, d_txt\) = \(0,"),
], ids=["habitat_99", "habitat_negative", "habitat_string", "habitat_float", "habitat_bool",
        "species_habitat_3", "tile_id_string", "ragged_prototypes", "missing_prototype",
        "nan_prototype", "string_prototype", "no_habitats"])
def test_bad_ground_truth_exits_1_naming_file_and_key(base, tmp_path, capsys, edit, says):
    world = _copy_world(base, tmp_path / "world")
    _edit_json(world / "ground_truth.json", edit)
    with pytest.raises(ValueError, match=f"ground_truth.json: {says}"):
        ingest_dataset(world)
    for argv in (["probe", "--task", "cls", "--probe-epochs", "2"], ["zeroshot"]):
        assert dispatch(argv + ["--data", str(world), "--ckpt", str(base / "ckpt")]) == 1
        assert f"{world / 'ground_truth.json'}: " in capsys.readouterr().err


# -- observations.csv --------------------------------------------------------------


@pytest.mark.parametrize("row,says", [
    ("nan,0.5,1", "lat out of range"),
    ("0.5,inf,1", "lon out of range"),
    ("1e999,0.5,1", "lat out of range"),
    ("0.5,-180.5,1", "lon out of range"),
    ("0.5,0.5,-2", "negative species_id"),
    ("0.5,0.5,1,7", "expected 3 fields"),
    ("0.5,0.5", "expected 3 fields"),
    ("0.5,0.5,1.0", "unparseable values"),
    ("0.5,north,1", "unparseable values"),
    (f"0.5,0.5,{2 ** 63}", "unparseable values"),
])
def test_bad_csv_row_names_its_line(base, tmp_path, row, says):
    world = _copy_world(base, tmp_path / "world")
    csv = world / "observations.csv"
    lines = csv.read_text().splitlines()
    lines[6:6] = ["", "  "]  # blank lines are skipped but still counted
    lines[12] = row
    csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        ingest_dataset(world)
    assert str(err.value) == f"{csv}: {says}, line 13"


def test_csv_reports_the_first_bad_line_of_each_kind(base, tmp_path):
    world = _copy_world(base, tmp_path / "world")
    csv = world / "observations.csv"
    lines = csv.read_text().splitlines()
    lines[3], lines[5], lines[9] = "0,0,-1", "95,0,1", "0,0,x"
    csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"unparseable values, line 10$"):
        ingest_dataset(world)
    lines[9] = "0,0,1"
    csv.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"negative species_id, line 4$"):
        ingest_dataset(world)


def test_huge_species_id_loads_and_is_skipped_as_no_text(base, tmp_path, capsys):
    world = _copy_world(base, tmp_path / "world")
    csv = world / "observations.csv"
    lines = csv.read_text().splitlines()
    lat, lon, _ = lines[1].split(",")
    csv.write_text("\n".join(lines + [f"{lat},{lon},{2 ** 63 - 1}"]) + "\n")
    assert ingest_dataset(world).observations.species[-1] == 2 ** 63 - 1
    assert dispatch(["train", "--data", str(world), "--out", str(tmp_path / "ckpt"),
                     "--config", str(base / "train.json")]) == 0
    assert "1 no_text" in capsys.readouterr().err


def test_huge_species_id_probes_without_a_dense_species_matrix(base, tmp_path, capsys):
    # one column per distinct species: an id of 10**12 is one more column,
    # not 10**12 of them
    world = _copy_world(base, tmp_path / "world")
    csv = world / "observations.csv"
    lines = csv.read_text().splitlines()
    lat, lon, _ = lines[1].split(",")
    csv.write_text("\n".join(lines + [f"{lat},{lon},{10 ** 12}"]) + "\n")
    code = dispatch(["probe", "--data", str(world), "--ckpt", str(base / "ckpt.json"),
                     "--task", "encounter", "--probe-epochs", "5"])
    err = capsys.readouterr().err
    assert code in (0, 1), err
    assert "Traceback" not in err


# -- tiles/manifest.json -----------------------------------------------------------


@pytest.mark.parametrize("key,value,says", [
    ("lat", math.nan, "lat out of range, got nan"),
    ("lon", math.inf, "lon out of range, got inf"),
    ("lat", 123.0, "lat out of range, got 123.0"),
    ("lon", 180.0, "lon out of range, got 180.0"),
    ("lat", -90.5, "lat out of range, got -90.5"),
], ids=["nan_lat", "inf_lon", "lat_123", "lon_180", "lat_below_range"])
def test_bad_tile_center_exits_1_naming_the_record(base, tmp_path, capsys, key, value, says):
    world = _copy_world(base, tmp_path / "world")
    manifest = world / "tiles" / "manifest.json"
    _edit_json(manifest, lambda records: records[3].update({key: value}))
    with pytest.raises(ValueError) as err:
        ingest_dataset(world)
    assert str(err.value) == f"{manifest} record 3: {says}"
    assert dispatch(["probe", "--data", str(world), "--ckpt", str(base / "ckpt"),
                     "--task", "encounter", "--probe-epochs", "2"]) == 1
    assert f"error: {manifest} record 3: {says}" in capsys.readouterr().err


def test_empty_manifest_exits_1_naming_it(base, tmp_path, capsys):
    world = _copy_world(base, tmp_path / "world")
    manifest = world / "tiles" / "manifest.json"
    manifest.write_text("[]")
    assert dispatch(["probe", "--data", str(world), "--ckpt", str(base / "ckpt"),
                     "--task", "encounter", "--probe-epochs", "2"]) == 1
    assert f"error: {manifest}: no tile records" in capsys.readouterr().err


@pytest.mark.parametrize("which", ["config", "manifest"])
def test_json_nested_past_the_recursion_limit_exits_1_naming_it(base, tmp_path, capsys, which):
    world = _copy_world(base, tmp_path / "world")
    config = tmp_path / "train.json"
    shutil.copy(base / "train.json", config)
    bad = config if which == "config" else world / "tiles" / "manifest.json"
    bad.write_text("[" * 100_000)
    assert dispatch(["train", "--data", str(world), "--out", str(tmp_path / "ckpt"),
                     "--config", str(config)]) == 1
    assert f"error: {bad}: malformed JSON (maximum recursion depth" in capsys.readouterr().err


def test_tile_centers_at_the_range_edges_load(base, tmp_path):
    world = _copy_world(base, tmp_path / "world")
    _edit_json(world / "tiles" / "manifest.json",
               lambda records: records[0].update(lat=-90, lon=-180.0) or
               records[1].update(lat=90.0, lon=179.75))
    tiles = ingest_dataset(world).tiles
    assert (tiles[0].lat, tiles[0].lon, tiles[1].lat, tiles[1].lon) == (-90, -180.0, 90.0, 179.75)


def test_pixels_outside_unit_range_name_the_first_bad_record(base, tmp_path, monkeypatch):
    # groups of about two tiles; the manifest lists the blob's last tile first,
    # so the first bad record is in the last group read
    monkeypatch.setattr(dataio, "TILE_READ_BYTES", 4096)
    world = _copy_world(base, tmp_path / "world")
    manifest_path = world / "tiles" / "manifest.json"
    records = json.loads(manifest_path.read_text())
    records.insert(0, records.pop())
    manifest_path.write_text(json.dumps(records))
    pixels = np.fromfile(world / "tiles" / "pixels.bin", dtype="<f4")
    size = records[1]["c"] * records[1]["h"] * records[1]["w"]
    pixels[records[5]["offset"] // 4 + 7] = np.nan
    pixels[records[0]["offset"] // 4 + size - 1] = 1.5
    pixels.tofile(world / "tiles" / "pixels.bin")
    with pytest.raises(ValueError) as err:
        ingest_dataset(world)
    assert str(err.value) == (f"{manifest_path} record 0: tile {records[0]['tile_id']}: "
                              f"pixels outside [0, 1] (min 0, max 1.5)")
    pixels[records[0]["offset"] // 4 + size - 1] = 0.5
    pixels.tofile(world / "tiles" / "pixels.bin")
    with pytest.raises(ValueError) as err:
        ingest_dataset(world)
    assert str(err.value) == (f"{manifest_path} record 5: tile {records[5]['tile_id']}: "
                              f"pixels outside [0, 1] (min nan, max nan)")


def per_record_error(manifest_path):
    """The message of the first bad record when the records are checked one
    at a time, in manifest order, then of the first repeated tile id; None
    when every record passes."""
    try:
        records = read_json(manifest_path)
    except ValueError as e:
        return str(e)
    if not isinstance(records, list):
        return f"{manifest_path}: expected a JSON list of tile records"
    if not records:
        return f"{manifest_path}: no tile records"
    for i, entry in enumerate(records):
        try:
            dataio._check_tile_record(entry, f"{manifest_path} record {i}")
        except ValueError as e:
            return str(e)
    first_record = {}
    for i, entry in enumerate(records):
        if first_record.setdefault(entry["tile_id"], i) != i:
            return f"{manifest_path} record {i}: repeats tile id {entry['tile_id']}"
    return None


def _write_tiles(root, n, size=2):
    """A tiles/ directory of `n` size x size tiles in one blob."""
    nbytes = 4 * 3 * size * size
    records = [{"tile_id": i, "lat": (i % 170) - 85.0, "lon": (i % 350) - 175.0,
                "timestamp": 0, "file": "pixels.bin", "offset": nbytes * i,
                "c": 3, "h": size, "w": size} for i in range(n)]
    (root / "tiles").mkdir(parents=True)
    np.full(n * nbytes // 4, 0.5, dtype="<f4").tofile(root / "tiles" / "pixels.bin")
    (root / "tiles" / "manifest.json").write_text(json.dumps(records))
    return root / "tiles" / "manifest.json"


def _repeat_tile_id(records, i):
    records[i]["tile_id"] = records[3]["tile_id"]


@pytest.mark.parametrize("edit", [
    _set_item(1000, "lat", math.nan), _set_item(1000, "lon", 180.0),
    _set_item(1000, "lat", 10 ** 400), _set_item(1000, "lat", 2 ** 1023),
    _set_item(1000, "tile_id", True), _set_item(1000, "file", 5),
    _set_item(1000, "offset", "48"), _set_item(1000, "c", 0), _set_item(1000, "timestamp", 1.5),
    lambda records: records[1000].pop("h"), lambda records: records.__setitem__(1000, [1, 2]),
    lambda records: _repeat_tile_id(records, 1000),
], ids=["nan_lat", "lon_180", "huge_int_lat", "lat_2_to_1023", "bool_id", "int_file",
        "string_offset", "zero_channels", "float_timestamp", "no_h", "not_object", "repeat_id"])
def test_bad_record_1000_of_1024_named_as_checked_one_at_a_time(tmp_path, edit):
    manifest_path = _write_tiles(tmp_path, 1024)
    records = json.loads(manifest_path.read_text())
    assert dataio._tile_records_valid(records)
    assert len(dataio._load_tiles(tmp_path)) == 1024
    edit(records)
    manifest_path.write_text(json.dumps(records))
    assert not dataio._tile_records_valid(read_json(manifest_path))
    with pytest.raises(ValueError) as err:
        dataio._load_tiles(tmp_path)
    assert str(err.value) == per_record_error(manifest_path)
    assert str(err.value).startswith(f"{manifest_path} record 1000: ")


def test_integer_centers_and_missing_offsets_pass_the_whole_list_check(tmp_path):
    manifest_path = _write_tiles(tmp_path, 1024)
    records = json.loads(manifest_path.read_text())
    records[1000].update(lat=90, lon=-180)
    del records[0]["offset"]
    assert dataio._tile_records_valid(records)
    manifest_path.write_text(json.dumps(records))
    tiles = dataio._load_tiles(tmp_path)
    assert (tiles[1000].lat, tiles[1000].lon) == (90, -180)


_CENTERS = [math.nan, math.inf, -math.inf, 90.0, 90.5, -90.0, -90.01, 180.0, -180.0,
            179.999, -180.5, 123.0, 1e300, 10 ** 400, 45, -200]


@st.composite
def _manifest_edit(draw):
    kind = draw(st.sampled_from(["value", "center", "drop_key", "not_object", "offset",
                                 "not_utf8", "not_list", "repeat_id"]))
    record, other = draw(st.integers(0, 11)), draw(st.integers(0, 11))
    key = draw(st.sampled_from(["tile_id", "lat", "lon", "timestamp", "file", "offset",
                                "c", "h", "w"]))
    path = lambda world: world / "tiles" / "manifest.json"  # noqa: E731
    if kind == "not_utf8":
        junk, at = draw(st.binary(min_size=1, max_size=3)), draw(st.integers(0, 400))
        return lambda world: path(world).write_bytes(
            path(world).read_bytes()[:at] + b"\xff" + junk + path(world).read_bytes()[at:])
    if kind == "not_list":
        value = draw(_json_values)
        return lambda world: path(world).write_text(json.dumps(value))
    if kind == "value":  # wrong types, bools where ints belong, huge and odd numbers
        edit = _set_item(record, key, draw(st.one_of(
            _values, st.sampled_from([True, False, "pixels.bin", 3.0, 0]))))
    elif kind == "center":
        edit = _set_item(record, draw(st.sampled_from(["lat", "lon"])),
                         draw(st.sampled_from(_CENTERS)))
    elif kind == "repeat_id":
        def edit(records):
            records[record]["tile_id"] = records[other]["tile_id"]
    elif kind == "drop_key":
        def edit(records):
            del records[record][key]
    elif kind == "not_object":
        value = draw(_json_values)

        def edit(records):
            records[record] = value
    else:  # offsets with gaps, overlaps, shared and negative starts
        shift = draw(st.sampled_from([4, -4, 1, 8, -1728, 1728, 10 ** 6]))

        def edit(records):
            records[record]["offset"] += shift
    return lambda world: _edit_json(path(world), edit)


@given(edits=st.lists(_manifest_edit(), min_size=1, max_size=2))
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_manifest_exits_1_with_the_per_record_message(base, edits, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        world = _copy_world(base, Path(tmp) / "world")
        for edit in edits:
            try:
                edit(world)
            except (ValueError, KeyError, IndexError, TypeError, AttributeError):
                pass  # an edit that no longer applies to an earlier edit's result
        manifest_path = world / "tiles" / "manifest.json"
        expected = per_record_error(manifest_path)
        code = dispatch(["probe", "--data", str(world), "--ckpt", str(base / "ckpt"),
                         "--task", "encounter", "--probe-epochs", "2"])
        err = capsys.readouterr().err
        assert code in (0, 1), err
        if expected is not None:
            assert code == 1 and f"error: {expected}\n" in err, (expected, err)
        elif code == 1:  # a blob the records do not cover, or a relabeled tile
            assert (f"error: {manifest_path} record " in err
                    or f"error: {world / 'ground_truth.json'}: no habitat for tile" in err), err
        else:
            for tile in ingest_dataset(world).tiles:
                assert -90 <= tile.lat <= 90 and -180 <= tile.lon < 180


# -- fuzz ------------------------------------------------------------------------

_TOKENS = ["nan", "-nan", "inf", "-inf", "Infinity", "1e999", "-1e999", "1e308", "9" * 30,
           "-" + "9" * 30, "", " ", "0x10", "1_0", "1.5e-400", "٣", "None", "true", "0.5"]

_csv_fields = st.one_of(st.sampled_from(_TOKENS),
                        st.floats(allow_nan=True, allow_infinity=True).map(repr),
                        st.integers(-2 ** 70, 2 ** 70).map(str),
                        st.text(alphabet="0123456789.,-+eE nai", max_size=12))
_csv_rows = st.one_of(st.tuples(_csv_fields, _csv_fields, _csv_fields).map(",".join),
                      st.lists(_csv_fields, min_size=0, max_size=5).map(",".join),
                      st.sampled_from(["", "   ", "\t"]))

_numbers = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400, 0, -1, 1e-300, 99]),
    st.integers(-2 ** 70, 2 ** 70), st.floats(allow_nan=True, allow_infinity=True))
_json_values = st.one_of(
    _numbers, st.none(), st.booleans(), st.text(max_size=4),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=25),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
_values = st.one_of(_numbers, _json_values)  # numbers about half of the time


@st.composite
def _csv_edit(draw):
    edits = draw(st.lists(st.tuples(st.integers(1, SYNTH_CFG["n_observations"]), _csv_rows),
                          min_size=1, max_size=3))

    def apply(world):
        csv = world / "observations.csv"
        lines = csv.read_text().splitlines()
        for line, row in edits:
            lines[line] = row
        csv.write_text("\n".join(lines) + "\n")
    return apply


@st.composite
def _raster_edit(draw):
    key = draw(st.sampled_from(["rows", "cols", "channels", "lat0", "lon0", "dlat", "dlon",
                                "channel_min", "channel_max"]))
    if key.startswith("channel_") and draw(st.booleans()):
        edit = _set_item(key, draw(st.integers(0, 19)), draw(_values))
    else:
        edit = _set(key, draw(_values))
    return lambda world: _edit_json(world / "raster.json", edit)


@st.composite
def _truth_edit(draw):
    key = draw(st.sampled_from(["n_habitats", "tile_habitats", "species_habitats",
                                "text_prototypes", "text_prototype_row",
                                "text_prototype_value", "habitat_id"]))
    value = draw(_values)
    if key == "tile_habitats":
        edit = _first_tile_habitat(value)
    elif key == "species_habitats":
        edit = _first_species_habitat(value)
    elif key == "text_prototype_row":
        edit = _set_item("text_prototypes", draw(st.integers(0, 2)), value)
    elif key == "text_prototype_value":
        column = draw(st.integers(0, 11))
        edit = lambda obj: obj["text_prototypes"][1].__setitem__(column, value)  # noqa: E731
    elif key == "habitat_id":
        edit = _rename_first_tile(draw(st.text(max_size=4)))
    else:
        edit = _set(key, value)
    return lambda world: _edit_json(world / "ground_truth.json", edit)


@st.composite
def _sections_edit(draw):
    kind = draw(st.sampled_from(["value", "drop_key", "not_object", "sections", "d_txt",
                                 "drop_header_key", "not_object_header", "truncate"]))
    if kind == "truncate":  # a blob that ends inside a row, or rows short
        cut = draw(st.sampled_from([1, 4, 48, 4 * 12 * 12 - 4]))

        def apply(world):
            blob = world / "text" / "embeddings.bin"
            blob.write_bytes(blob.read_bytes()[:-cut])
        return apply
    record = draw(st.integers(0, SYNTH_CFG["n_species"] * SYNTH_CFG["sections_per_species"] - 1))
    key = draw(st.sampled_from(["species_id", "section_id", "row"]))
    if kind == "value":  # wrong types, huge and negative rows
        value = draw(st.one_of(_values, st.sampled_from([-1, 12, 2 ** 63, -2 ** 63 - 1, True,
                                                         "0", 3.0])))
        edit = lambda obj: obj["sections"][record].__setitem__(key, value)  # noqa: E731
    elif kind == "drop_key":
        edit = lambda obj: obj["sections"][record].pop(key)  # noqa: E731
    elif kind == "not_object":
        edit = _set_item("sections", record, draw(_json_values))
    elif kind == "sections":  # not a list, or a list of numbers
        edit = _set("sections", draw(_json_values))
    elif kind == "d_txt":
        edit = _set("d_txt", draw(st.one_of(_values, st.sampled_from([0, -12, 6, 24, 2 ** 70]))))
    elif kind == "drop_header_key":
        dropped = draw(st.sampled_from(["d_txt", "sections"]))
        edit = lambda obj: obj.pop(dropped)  # noqa: E731
    else:
        value = draw(_json_values)
        return lambda world: (world / "text" / "sections.json").write_text(json.dumps(value))
    return lambda world: _edit_json(world / "text" / "sections.json", edit)


_EDITS = {"observations.csv": _csv_edit(), "raster.json": _raster_edit(),
          "ground_truth.json": _truth_edit(), "text/sections.json": _sections_edit()}
_FILES = ("observations.csv", "raster.json", "raster.bin", "ground_truth.json",
          "text/sections.json", "text/embeddings.bin")


def _check_loaded(dataset):
    """A dataset that loads holds only values the rest of the program takes."""
    obs, raster, truth = dataset.observations, dataset.raster, dataset.truth
    assert np.all((np.abs(obs.lat) <= 90) & (obs.lon >= -180) & (obs.lon < 180))
    assert np.all(obs.species >= 0)
    assert all(math.isfinite(v) for v in (raster.lat0, raster.lon0, raster.dlat, raster.dlon))
    assert raster.dlat > 0 and raster.dlon > 0
    assert raster.channel_min.shape == raster.channel_max.shape == (raster.channels,)
    assert np.isfinite(raster.channel_min).all() and np.isfinite(raster.channel_max).all()
    assert all(0 <= h < truth.n_habitats for h in truth.tile_habitats.values())
    assert all(0 <= h < truth.n_habitats for h in truth.species_habitats.values())
    assert truth.text_prototypes.shape == (truth.n_habitats, dataset.texts.d_txt)
    assert np.isfinite(truth.text_prototypes).all()
    texts = dataset.texts
    assert texts.embeddings.ndim == 2 and np.isfinite(texts.embeddings).all()
    assert texts.species.shape == texts.section.shape == texts.embeddings.shape[:1]


@pytest.mark.parametrize("file", sorted(_EDITS))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_fuzzed_files_load_or_raise_naming_the_file(base, file, data):
    edit = data.draw(_EDITS[file])
    with tempfile.TemporaryDirectory() as tmp:
        world = _copy_world(base, Path(tmp) / "world")
        edit(world)
        try:
            dataset = ingest_dataset(world)
        except ValueError as e:
            assert any(str(world / name) in str(e) for name in _FILES), str(e)
        else:
            _check_loaded(dataset)


@given(edit=st.one_of(*_EDITS.values()))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_files_never_exit_2(base, edit, capsys):
    with tempfile.TemporaryDirectory() as tmp:
        world = _copy_world(base, Path(tmp) / "world")
        edit(world)
        code = dispatch(["train", "--data", str(world), "--out", str(Path(tmp) / "ckpt"),
                         "--config", str(base / "train.json")])
        err = capsys.readouterr().err
        assert code in (0, 1), err
        if code == 1:
            assert "error: " in err
